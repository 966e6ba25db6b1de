"""Reference MPC solvers for the tests, built from public building blocks only.

``reference_descend`` is projected coordinate descent over one mode
sequence's duties, with a golden-section line search per duty in which every
evaluation is a full ``rollout_cost``.  ``descent_oracle`` runs it on every
mode sequence within a switch limit and keeps the least cost: the branch and
bound over mode sequences that the dynamic-programming solvers replaced,
without its pruning.  ``dense_oracle`` grids the duty of every step instead.
``all_duties_solve`` is the dynamic program with a forward pass that takes
the held step of every grid duty at every stage.  ``held_steps`` counts
the generated held steps a call takes, and ``grid_share`` the grid entries
its backward passes cost and how many they are.
"""

import math
import sys
from itertools import combinations

import numpy as np

from pneuctrl import mpc as mpc_mod
from pneuctrl.mpc import rollout_cost
from pneuctrl.optim import golden_section
from pneuctrl.plant import Mode, rk4_hold
from pneuctrl.valvemap import eval_spool

# reference_descend's line-search resolution, % duty.
DESCENT_TOL = 0.05


def mode_sequences(n, max_switches):
    """All binary mode sequences of length n with at most ``max_switches`` changes.

    Deterministic order: by initial mode, then switch count, then switch
    positions.  Each sequence appears exactly once.
    """
    for start in (Mode.DEFLATION, Mode.INFLATION):
        for n_sw in range(min(max_switches, n - 1) + 1):
            for positions in combinations(range(1, n), n_sw):
                seq, mode = [], start
                for k in range(n):
                    if k in positions:
                        mode = Mode(1 - mode)
                    seq.append(mode)
                yield tuple(seq)


def reference_descend(p0, ref_seq, m_seq, cfg, params, maps, load, sweeps):
    """Coordinate descent over the duties of ``m_seq`` from the lowest duties: (duties, cost).

    Each sweep searches every duty in turn over its map's range at
    ``DESCENT_TOL``; the descent stops after ``sweeps`` sweeps or the first
    that improves nothing.
    """
    bounds = [(maps[m].u_min, maps[m].u_max) for m in m_seq]
    u = [lo for lo, _ in bounds]
    cost = rollout_cost(p0, u, m_seq, ref_seq, cfg, params, maps, load)
    for _ in range(sweeps):
        improved = False
        for k, (lo, hi) in enumerate(bounds):
            def line(v, k=k):
                trial = list(u)
                trial[k] = v
                return rollout_cost(p0, trial, m_seq, ref_seq, cfg, params, maps, load)

            v_best, c_best, _ = golden_section(line, lo, hi, tol=DESCENT_TOL)
            if c_best < cost - 1e-15:
                u[k], cost, improved = v_best, c_best, True
        if not improved:
            break
    return u, cost


def descent_oracle(p0, ref_seq, cfg, params, maps, load, sweeps):
    """The least :func:`reference_descend` cost over every mode sequence within ``cfg.max_switches``."""
    return min(
        reference_descend(p0, ref_seq, m_seq, cfg, params, maps, load, sweeps)[1]
        for m_seq in mode_sequences(cfg.horizon_steps, cfg.max_switches)
    )


def dense_oracle(p0, ref_seq, cfg, params, maps, load, duties):
    """The least cost over every mode sequence within ``cfg.max_switches`` and every choice of
    each step's duty among ``duties`` evenly spread duties over its map's range.

    A full enumeration of held steps (``plant.rk4_hold``), with the stage costs summed as
    ``rollout_cost`` sums them: ``(2 * duties) ** horizon_steps`` leaves, so keep the horizon short.
    """
    hold = rk4_hold(params, load)
    actions = {
        m: [(x, hold(x, m == Mode.INFLATION)) for x in
            (eval_spool(u, maps[m]) for u in np.linspace(maps[m].u_min, maps[m].u_max, duties).tolist())]
        for m in Mode
    }
    n, best = cfg.horizon_steps, [math.inf]

    def walk(k, p, cost, m_prev, switches):
        for m in Mode:
            sw = switches + (k > 0 and m != m_prev)
            if sw > cfg.max_switches:
                continue
            for x, step in actions[m]:
                q = step(p, cfg.dt_pred)
                e = q - ref_seq[k]
                c = cost + (cfg.w_e * e * e + cfg.w_u * x * x)
                if k + 1 < n:
                    walk(k + 1, q, c, m, sw)
                else:
                    best[0] = min(best[0], c + cfg.w_sw * sw)

    walk(0, p0, 0.0, None, 0)
    return best[0]


def _all_duties_forward(p0, ref_seq, cfg, params, table, values, modes, left, steps):
    """A forward pass that costs every grid duty of every candidate mode at every stage exactly.

    It reads only the backward pass's values: each duty's held step from the
    exact pressure, its stage cost plus the next stage's value interpolated
    there.  The stage keeps the grid duty of least cost, as the solvers do,
    with no search between grid duties, and walks on by its held step.
    ``steps`` keeps the grid duties' held steps from each (mode, pressure)
    met, for the solve's other passes.
    """
    dt, w_e, w_u, w_sw = cfg.dt_pred, cfg.w_e, cfg.w_u, cfg.w_sw
    p_neg, n_grid = params.p_neg, mpc_mod.GRID_PRESSURES
    inv_h = (n_grid - 1) / (params.p_pos - p_neg)

    def interp(v, q):
        pos = (q - p_neg) * inv_h
        i = np.minimum(np.asarray(pos).astype(np.intp), n_grid - 2)
        f = pos - i
        return v[i] * (1.0 - f) + v[i + 1] * f

    p, u_seq, m_seq = p0, [], []
    for k, r in enumerate(ref_seq):
        if k == 0:
            options = [(m, left, 0.0) for m in modes]
        else:
            options = [(m_seq[-1], left, 0.0)] + ([(Mode(1 - m_seq[-1]), left - 1, w_sw)] if left > 0 else [])
        best = None
        for m, after, sw in options:
            a, v = table[m], values[k + 1][m][after]
            if (m, p) not in steps:
                steps[m, p] = np.array([step(p, dt) for step in a.steps])
            e = steps[m, p] - r
            cost = w_e * e * e + w_u * np.array(a.fractions) ** 2 + sw + interp(v, steps[m, p])
            j = int(np.argmin(cost))
            if best is None or cost[j] < best[0]:
                best = (float(cost[j]), m, after, j)
        _, m, left, j = best
        p = float(steps[m, p][j])
        u_seq.append(table[m].duties[j])
        m_seq.append(m)
    return u_seq, m_seq


def all_duties_solve(p0, ref_seq, cfg, params, maps, load, modes, switches):
    """The least ``(cost, switches, first duty)`` of :func:`_all_duties_forward`'s passes: (cost, u, m).

    With two modes, a switching pass and one pass per mode with no switch
    left, as ``minmpc_solve`` runs them; with one, NMPC's single pass.
    """
    table = mpc_mod._table(params, load, tuple(maps), cfg.dt_pred)
    values, _ = mpc_mod._values(table, ref_seq, cfg, modes, switches + 1, [mpc_mod._FULL] * (cfg.horizon_steps + 1))
    starts = [(modes, switches)] + [((m,), 0) for m in modes if len(modes) > 1]
    steps, best = {}, None
    for start in starts:
        u, m_seq = _all_duties_forward(p0, ref_seq, cfg, params, table, values, *start, steps)
        cost = rollout_cost(p0, u, m_seq, ref_seq, cfg, params, maps, load)
        sw = sum(a != b for a, b in zip(m_seq, m_seq[1:]))
        if best is None or (cost, sw, u[0]) < best[0]:
            best = ((cost, sw, u[0]), u, m_seq)
    return best[0][0], best[1], best[2]


def held_steps(call, *args):
    """``call(*args)`` and the number of generated held steps (``plant.rk4_hold``) it took."""
    count = [0]

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name == "step" and code.co_filename.startswith("<pneuctrl.plant held step"):
            count[0] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = call(*args)
    finally:
        sys.setprofile(previous)
    return result, count[0]


def grid_share(call, *args):
    """``call(*args)``, the grid entries its backward passes (``mpc._values``) cost, and the number of passes.

    The entries are a share of one full-grid pass's: one backward pass over
    the full grid is 1.0; a solve that reruns on the full grid costs its
    bands' share and 1.0 more, in two backward passes.  For horizons of 2
    steps or more: a backward pass of one step costs no entry.
    """
    costed, full, passes, values = [0], [0], [0], mpc_mod._values

    def counted(table, ref_seq, cfg, modes, layers, bands):
        full[0] = (cfg.horizon_steps - 1) * mpc_mod.GRID_PRESSURES
        costed[0] += sum(b.stop - b.start for b in bands[1:-1])   # stages 1..N - 1
        passes[0] += 1
        return values(table, ref_seq, cfg, modes, layers, bands)

    mpc_mod._values = counted
    try:
        result = call(*args)
    finally:
        mpc_mod._values = values
    return result, costed[0] / full[0], passes[0]
