"""Predictive-control baselines: NMPC and mixed-integer NMPC.

Both solvers minimize a quadratic tracking-plus-effort cost over rollouts
of the channel model.  NMPC optimizes the continuous duty sequence under a
fixed mode; the mixed-integer variant additionally enumerates mode
sequences with a bounded number of switch points and returns the best
joint solution.  The inner solver is projected coordinate descent with a
golden-section line search: derivative-free because the duty-to-spool
clipping makes the cost only piecewise smooth.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Optional, Sequence

from . import plant as plant_mod
from .optim import golden_section
from .plant import LoadModel, Mode, PlantParams, PlantState
from .valvemap import SpoolMap, eval_spool


@dataclass(frozen=True)
class MpcConfig:
    horizon_steps: int = 10
    dt_pred: float = 0.01          # prediction step, s
    w_e: float = 1.0e-6            # tracking weight, 1/Pa^2
    w_u: float = 1.0e-2            # effort weight on the spool fraction
    w_sw: float = 1.0              # penalty per mode change within the horizon
    max_iters: int = 3             # coordinate-descent sweeps
    max_switches: int = 1          # switch points allowed per candidate (MI-NMPC)
    line_tol: float = 0.05         # golden-section duty resolution, %

    def __post_init__(self) -> None:
        if self.horizon_steps < 1:
            raise ValueError("horizon_steps must be >= 1")
        if self.dt_pred <= 0.0:
            raise ValueError("dt_pred must be positive")
        if min(self.w_e, self.w_u, self.w_sw) < 0.0:
            raise ValueError("cost weights must be non-negative")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.max_switches < 0:
            raise ValueError("max_switches must be >= 0")


@dataclass
class MpcSolution:
    u_seq: tuple[float, ...]
    m_seq: tuple[Mode, ...]
    cost: float
    iterations: int
    solve_time: float
    hit_iter_cap: bool
    cost_trace: tuple[float, ...]

    @property
    def switches(self) -> int:
        return sum(1 for a, b in zip(self.m_seq[:-1], self.m_seq[1:]) if a != b)


def rollout_cost(
    p0: float,
    u_seq: Sequence[float],
    m_seq: Sequence[Mode],
    ref_seq: Sequence[float],
    cfg: MpcConfig,
    params: PlantParams,
    maps: tuple[SpoolMap, SpoolMap],
    load: Optional[LoadModel] = None,
) -> float:
    """Quadratic cost of simulating (u_seq, m_seq) from ``p0`` against ``ref_seq``."""
    n = cfg.horizon_steps
    if not (len(u_seq) == len(m_seq) == len(ref_seq) == n):
        raise ValueError(f"sequences must all have horizon length {n}")
    state = PlantState(p_out=p0, t=0.0)
    cost = 0.0
    switches = 0
    for k in range(n):
        m = m_seq[k]
        x = eval_spool(u_seq[k], maps[m])
        state = plant_mod.step(state, x, m, cfg.dt_pred, params, load)
        e = state.p_out - ref_seq[k]
        cost += cfg.w_e * e * e + cfg.w_u * x * x
        if k > 0 and m != m_seq[k - 1]:
            switches += 1
    cost += cfg.w_sw * switches
    if not math.isfinite(cost):
        raise ArithmeticError("rollout cost diverged")
    return cost


def _descend(
    p0: float,
    ref_seq: Sequence[float],
    m_seq: tuple[Mode, ...],
    cfg: MpcConfig,
    params: PlantParams,
    maps: tuple[SpoolMap, SpoolMap],
    load: Optional[LoadModel],
    u_init: Optional[Sequence[float]],
    steps: Optional[dict[tuple[float, float, bool], float]] = None,
) -> tuple[list[float], float, int, bool, list[float]]:
    """Projected coordinate descent over the duty sequence for a fixed mode sequence.

    Every line-search evaluation on ``u[k]`` reuses the cached pressure and
    running cost before step k and re-simulates only steps k..N-1, adding the
    stage costs in the order of :func:`rollout_cost`, so each evaluation
    equals a full rollout bit for bit.  A line search also returns the cost
    it already computed for a spool fraction it meets again on the same
    coordinate.

    ``steps`` memoizes RK4 steps as ``(p, x_bar, inflation) -> p_next``; the
    default is a fresh memo for this descent alone.  The key leaves out
    ``dt``, ``params`` and ``load``, so one memo may serve only descents
    that share all three, such as those of one solve.  It holds only
    results the checked kernel returned, so a hit returns what the kernel
    would.  ``0.0`` and ``-0.0`` share a key: they differ only in the sign
    of a zero main-branch coefficient, which gives the same ``p_next`` and
    the same stage cost.
    """
    n = cfg.horizon_steps
    if steps is None:
        steps = {}
    bounds = [(maps[m].u_min, maps[m].u_max) for m in m_seq]
    if u_init is None:
        u = [bounds[k][0] for k in range(n)]
    else:
        if len(u_init) != n:
            raise ValueError("warm start length must match the horizon")
        u = [min(bounds[k][1], max(bounds[k][0], float(u_init[k]))) for k in range(n)]

    cost = rollout_cost(p0, u, m_seq, ref_seq, cfg, params, maps, load)

    kernel = plant_mod.rk4_kernel(params, load)
    dt, w_e, w_u = cfg.dt_pred, cfg.w_e, cfg.w_u
    spool_maps = [maps[m] for m in m_seq]
    inflating = [m == Mode.INFLATION for m in m_seq]
    switch_cost = cfg.w_sw * sum(1 for a, b in zip(m_seq[:-1], m_seq[1:]) if a != b)
    x = [eval_spool(u[k], spool_maps[k]) for k in range(n)]
    p_before = [p0] * (n + 1)       # pressure before step k
    c_before = [0.0] * (n + 1)      # running stage cost before step k

    def tail(k: int, record: bool) -> float:
        """Total cost of the current spool fractions, simulating from step k."""
        p = p_before[k]
        c = c_before[k]
        for j in range(k, n):
            x_j = x[j]
            key = (p, x_j, inflating[j])
            p_next = steps.get(key)
            if p_next is None:
                p_next = steps[key] = kernel(p, x_j, inflating[j], dt)
            p = p_next
            e = p - ref_seq[j]
            c += w_e * e * e + w_u * x_j * x_j
            if record:
                p_before[j + 1] = p
                c_before[j + 1] = c
        c += switch_cost
        if not math.isfinite(c):
            raise ArithmeticError("rollout cost diverged")
        return c

    tail(0, True)
    trace = [cost]
    sweeps = 0
    improved_last = True
    for _ in range(cfg.max_iters):
        improved_last = False
        for k in range(n):
            # The current cost is tail(k) of the current x, bit for bit.
            seen = {x[k]: cost}

            def line(v: float, k: int = k, seen: dict[float, float] = seen) -> float:
                x_new = eval_spool(v, spool_maps[k])
                c = seen.get(x_new)
                if c is None:
                    saved = x[k]
                    x[k] = x_new
                    c = seen[x_new] = tail(k, False)
                    x[k] = saved
                return c

            v_best, c_best, _ = golden_section(line, bounds[k][0], bounds[k][1], tol=cfg.line_tol)
            if c_best < cost - 1e-15:
                u[k] = v_best
                x[k] = eval_spool(v_best, spool_maps[k])
                tail(k, True)
                cost = c_best
                improved_last = True
        sweeps += 1
        trace.append(cost)
        if not improved_last:
            break
    hit_cap = improved_last and sweeps == cfg.max_iters
    return u, cost, sweeps, hit_cap, trace


def nmpc_solve(
    p0: float,
    ref_seq: Sequence[float],
    m: Mode,
    cfg: MpcConfig,
    params: PlantParams,
    maps: tuple[SpoolMap, SpoolMap],
    load: Optional[LoadModel] = None,
    u_init: Optional[Sequence[float]] = None,
) -> MpcSolution:
    """Optimize the continuous duty sequence with the mode held fixed."""
    t0 = time.perf_counter()
    m_seq = (m,) * cfg.horizon_steps
    u, cost, sweeps, hit_cap, trace = _descend(
        p0, ref_seq, m_seq, cfg, params, maps, load, u_init,
    )
    return MpcSolution(
        u_seq=tuple(u),
        m_seq=m_seq,
        cost=cost,
        iterations=sweeps,
        solve_time=time.perf_counter() - t0,
        hit_iter_cap=hit_cap,
        cost_trace=tuple(trace),
    )


def mode_sequences(n: int, max_switches: int) -> Iterator[tuple[Mode, ...]]:
    """All binary mode sequences of length n with at most ``max_switches`` changes.

    Deterministic order: by initial mode, then switch count, then switch
    positions.  Each sequence appears exactly once.
    """
    for start in (Mode.DEFLATION, Mode.INFLATION):
        for n_sw in range(min(max_switches, n - 1) + 1):
            for positions in combinations(range(1, n), n_sw):
                seq = []
                mode = start
                pos = set(positions)
                for k in range(n):
                    if k in pos:
                        mode = Mode(1 - mode)
                    seq.append(mode)
                yield tuple(seq)


def minmpc_solve(
    p0: float,
    ref_seq: Sequence[float],
    cfg: MpcConfig,
    params: PlantParams,
    maps: tuple[SpoolMap, SpoolMap],
    load: Optional[LoadModel] = None,
) -> MpcSolution:
    """Joint mode/duty optimization over switch-limited mode sequences.

    Ties break toward fewer switches, then lower first-step duty, so the
    result is deterministic regardless of enumeration order.
    """
    t0 = time.perf_counter()
    best: Optional[MpcSolution] = None
    best_key: Optional[tuple] = None
    total_sweeps = 0
    any_cap = False
    # RK4 steps shared by every mode sequence of this solve; see _descend.
    steps: dict[tuple[float, float, bool], float] = {}
    for m_seq in mode_sequences(cfg.horizon_steps, cfg.max_switches):
        u, cost, sweeps, hit_cap, trace = _descend(
            p0, ref_seq, m_seq, cfg, params, maps, load, None, steps,
        )
        total_sweeps += sweeps
        any_cap = any_cap or hit_cap
        n_sw = sum(1 for a, b in zip(m_seq[:-1], m_seq[1:]) if a != b)
        key = (cost, n_sw, u[0])
        if best_key is None or key < best_key:
            best_key = key
            best = MpcSolution(
                u_seq=tuple(u),
                m_seq=m_seq,
                cost=cost,
                iterations=sweeps,
                solve_time=0.0,
                hit_iter_cap=hit_cap,
                cost_trace=tuple(trace),
            )
    assert best is not None
    best.iterations = total_sweeps
    best.hit_iter_cap = any_cap
    best.solve_time = time.perf_counter() - t0
    return best
