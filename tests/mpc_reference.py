"""Reference MPC solvers for the tests, built from public building blocks only.

``reference_descend`` is projected coordinate descent over one mode
sequence's duties, with a golden-section line search per duty in which every
evaluation is a full ``rollout_cost``.  ``descent_oracle`` runs it on every
mode sequence within a switch limit and keeps the least cost: the branch and
bound over mode sequences that the dynamic-programming solvers replaced,
without its pruning.  ``dense_oracle`` grids the duty of every step instead.
"""

import math
from itertools import combinations

import numpy as np

from pneuctrl.mpc import rollout_cost
from pneuctrl.optim import golden_section
from pneuctrl.plant import Mode, rk4_hold
from pneuctrl.valvemap import eval_spool


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
    ``cfg.line_tol``; the descent stops after ``sweeps`` sweeps or the first
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

            v_best, c_best, _ = golden_section(line, lo, hi, tol=cfg.line_tol)
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
