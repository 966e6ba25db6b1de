"""Reference MPC solvers for the tests, built from public building blocks only.

``reference_descend`` is projected coordinate descent over one mode
sequence's duties, with a golden-section line search per duty in which every
evaluation is a full ``rollout_cost``.  ``descent_oracle`` runs it on every
mode sequence within a switch limit and keeps the least cost: the branch and
bound over mode sequences that the dynamic-programming solvers replaced,
without its pruning.  ``dense_oracle`` grids the duty of every step instead.
``all_duties_solve`` is the dynamic program with a forward pass that takes
the held step of every grid duty at every stage.  ``rollout_every_pass_solve``
is ``mpc._solve`` ranking its forward passes by a rollout of each, summed by
``reference_rollout_cost``, ``rollout_cost`` written out as its own loop.
``reference_values`` is the backward pass as one pass per mode and stage.
``held_step_calls`` lists the generated held steps a call takes,
``held_steps`` counts them, and ``grid_share`` counts the grid entries its
backward passes cost and how many they are.
"""

import math
import sys
from itertools import combinations

import numpy as np

from pneuctrl import mpc as mpc_mod
from pneuctrl import plant as plant_mod
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
            a, v = table[m], values[k + 1][after, mpc_mod._mode_rows(values)[m]]
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


def reference_rollout_cost(p0, u_seq, m_seq, ref_seq, cfg, params, maps, load):
    """``rollout_cost`` as one loop of ``plant.step`` and ``eval_spool``, each term formed and added in its order."""
    p, cost = p0, 0.0
    for k in range(cfg.horizon_steps):
        m = m_seq[k]
        x = eval_spool(u_seq[k], maps[m])
        p = plant_mod.step(p, x, m, cfg.dt_pred, params, load)
        e = p - ref_seq[k]
        cost += cfg.w_e * e * e + cfg.w_u * x * x
    cost += cfg.w_sw * mpc_mod._switches(m_seq)
    return cost


def rollout_every_pass_solve(p0, ref_seq, cfg, params, maps, load, modes, switches):
    """``mpc._solve`` with each forward pass priced by a rollout: the least ``(cost, switches, first duty)``.

    The same backward pass, bands, full-grid rerun and forward passes as the
    solver, so only the pricing of the passes differs; each is
    :func:`reference_rollout_cost`, not the sum the solver shares with
    ``rollout_cost``.
    """
    table = mpc_mod._table(params, load, tuple(maps), cfg.dt_pred)
    held = {}

    def run(bands):
        backward = mpc_mod._values(table, ref_seq, cfg, modes, switches + 1, bands)
        passes = [mpc_mod._forward(p0, ref_seq, cfg, params, table, *backward, modes, switches, bands, held)]
        if len(modes) > 1:
            passes += [mpc_mod._forward(p0, ref_seq, cfg, params, table, *backward, (m,), 0, bands, held)
                       for m in modes if switches or m != passes[0][1][0]]
        return passes

    try:
        passes = run(mpc_mod._bands(table, p0, params, cfg.horizon_steps, modes))
    except mpc_mod._OutOfBand:
        passes = run([mpc_mod._FULL] * (cfg.horizon_steps + 1))
    solutions = [(reference_rollout_cost(p0, u, m_seq, ref_seq, cfg, params, maps, load), u, m_seq)
                 for u, m_seq in passes]
    cost, u, m_seq = min(solutions, key=lambda s: (s[0], mpc_mod._switches(s[2]), s[1][0]))
    return mpc_mod.MpcSolution(u_seq=tuple(u), m_seq=tuple(m_seq), cost=cost, iterations=len(passes))


def reference_values(table, ref_seq, cfg, modes, layers, bands):
    """``mpc._values`` written as one pass per mode and stage, each mode reading only its own values.

    Each mode's arrays are duty-major ``(duty, grid pressure)`` views of the
    table's stacked ones, without its padded columns, and its costs are
    ``(switches left, duty, grid pressure)``.  The values are a mode's
    rows of ``mpc._values``'s: ``(switches left, grid pressure)``.
    """
    n = cfg.horizon_steps
    last = bands[n]
    values = [{} for _ in range(n)] + [dict.fromkeys(modes, np.zeros((layers, last.stop - last.start)))]
    costs = [{} for _ in range(n)]
    # The table keeps each step's reads and weights; its cell is the first read less the mode's offset.
    split = (table.nxt, table.at[0] - (np.arange(len(Mode)) * mpc_mod.GRID_PRESSURES)[:, None, None],
             table.weight[1], table.weight[0])
    arrays = {m: [a[m, :, :len(table[m].duties)].T for a in split] for m in modes}
    effort = {m: (cfg.w_u * np.array(table[m].fractions) ** 2)[:, None] for m in modes}
    for k in range(n - 1, -1, -1):
        band = bands[k]
        for m in modes:
            (nxt, cell, frac, frac0), v = arrays[m], values[k + 1][m]
            cell = cell[:, band] - bands[k + 1].start
            e = nxt[:, band] - ref_seq[k]
            cost = costs[k][m] = np.take(v, cell, axis=1)
            cost *= frac0[:, band]
            cost += np.take(v, cell + 1, axis=1) * frac[:, band]
            cost += cfg.w_e * e * e + effort[m]
        best = {m: costs[k][m].min(axis=1) for m in modes}
        for m in modes:
            v = best[m]
            if layers > 1:
                v = v.copy()
                v[1:] = np.minimum(v[1:], best[Mode(1 - m)][:-1] + cfg.w_sw)
            values[k][m] = v
    return values, costs


def held_step_calls(call, *args):
    """``call(*args)`` and the generated held steps (``plant.rk4_hold``) it took, in order.

    Each is ``(caller, step)``: the name of the function that took it, and
    what the step is a function of: its variant, its three bound branch
    coefficients (so its mode and spool fraction), the pressure, the gap and
    the step count.
    """
    calls = []

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name == "step" and code.co_filename.startswith("<pneuctrl.plant held step"):
            f = frame.f_locals
            step = (code.co_filename, f["c_main"], f["c_out"], f["c_in"], f["p"], f["dt"], f["n"])
            calls.append((frame.f_back.f_code.co_name, step))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = call(*args)
    finally:
        sys.setprofile(previous)
    return result, calls


def held_steps(call, *args):
    """``call(*args)`` and the number of generated held steps (``plant.rk4_hold``) it took."""
    result, calls = held_step_calls(call, *args)
    return result, len(calls)


def grid_share(call, *args):
    """``call(*args)``, the grid entries its backward passes (``mpc._values``) cost, and the number of passes.

    The entries are a share of one full-grid pass's: one backward pass over
    the full grid is 1.0; a solve that reruns on the full grid costs its
    bands' share and 1.0 more, in two backward passes.
    """
    costed, full, passes, values = [0], [0], [0], mpc_mod._values

    def counted(table, ref_seq, cfg, modes, layers, bands):
        full[0] = cfg.horizon_steps * mpc_mod.GRID_PRESSURES
        costed[0] += sum(b.stop - b.start for b in bands[:-1])   # stages 0..N - 1
        passes[0] += 1
        return values(table, ref_seq, cfg, modes, layers, bands)

    mpc_mod._values = counted
    try:
        result = call(*args)
    finally:
        mpc_mod._values = values
    return result, costed[0] / full[0], passes[0]
