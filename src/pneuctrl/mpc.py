"""Predictive-control baselines: NMPC and mixed-integer NMPC.

Both solvers minimize a quadratic tracking-plus-effort cost over rollouts
of the channel model.  NMPC optimizes the continuous duty sequence under a
fixed mode; the mixed-integer variant additionally searches the mode
sequences with a bounded number of switch points, by branch and bound, and
returns the best joint solution.  The inner solver is projected coordinate
descent with a golden-section line search: derivative-free because the
duty-to-spool clipping makes the cost only piecewise smooth.

The line search runs over the duty, and assumes the cost is unimodal along
it.  Both default spool maps fall over part of their duty range, within
``valvemap.DEFAULT_SLOPE_TOL``: deflation from 0.9261 at 71.24 % to 0.9186
at 84.16 %, inflation by up to 0.0086 between about 75 % and 91 %.  A
search can then stop at the local peak of the spool fraction.  From ``p_atm + 100`` kPa
toward ``p_atm`` on the default fixed load, for one, both ``nmpc_solve``
in deflation and ``minmpc_solve`` hold 71.24 % at every step (cost
60,891.0), where 100 % at every step costs 59,187.7.  A search over the
spool fraction would not stop there, but it would change the solutions.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterator, Optional, Sequence

from . import plant as plant_mod
from .optim import golden_section
from .plant import Count, LoadModel, Mode, NonNegative, PlantParams, PlantState, Positive, PositiveCount, check_fields
from .valvemap import SpoolMap, eval_spool, spool_range

# Widening of the reachable-pressure interval per prediction step in the
# MI-NMPC sequence bound, Pa; see _bound_walk.
_BOUND_MARGIN_PA = 25.0
# Longest prediction step at which that margin was verified, s.  Longer
# steps, and channels other than the verified ones, bound with the rails
# instead of the propagated interval; see _interval_verified.
_BOUND_MAX_DT = 0.01
# Relative slack of the prune test, far above the rounding of two sums of
# at most a few dozen non-negative terms.
_PRUNE_SLACK = 1e-12


@dataclass(frozen=True)
class MpcConfig:
    horizon_steps: PositiveCount = 10
    dt_pred: Positive = 0.01           # prediction step, s
    w_e: NonNegative = 1.0e-6          # tracking weight, 1/Pa^2
    w_u: NonNegative = 1.0e-2          # effort weight on the spool fraction
    w_sw: NonNegative = 1.0            # penalty per mode change within the horizon
    max_iters: PositiveCount = 3       # coordinate-descent sweeps
    max_switches: Count = 1            # switch points allowed per candidate (MI-NMPC)
    line_tol: float = 0.05             # golden-section duty resolution, %

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass
class MpcSolution:
    """A solve's best duty and mode sequences and what the search cost.

    ``iterations`` sums the coordinate-descent sweeps, and ``hit_iter_cap``
    says whether any descent ended on the sweep cap, over the ``descended``
    mode sequences only: 1 for NMPC, and for MI-NMPC the sequences that
    branch and bound did not prune.  ``cost_trace`` is the winning
    descent's cost after its start and after each sweep.
    """

    u_seq: tuple[float, ...]
    m_seq: tuple[Mode, ...]
    cost: float
    iterations: int
    hit_iter_cap: bool
    cost_trace: tuple[float, ...]
    descended: int

    @property
    def switches(self) -> int:
        return _switches(self.m_seq)


def _switches(m_seq: Sequence[Mode]) -> int:
    return sum(1 for a, b in zip(m_seq[:-1], m_seq[1:]) if a != b)


def _check_horizon(n: int, *seqs: Sequence) -> None:
    if any(len(seq) != n for seq in seqs):
        raise ValueError(f"sequences must all have horizon length {n}")


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
    _check_horizon(n, u_seq, m_seq, ref_seq)
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


class StepTable(dict):
    """The memo ``p -> p_next`` of one spool fraction and mode, with its held RK4 step.

    ``key`` is the table's key in its :data:`StepTables`.
    """

    __slots__ = ("step", "key")
    step: plant_mod.HeldStep
    key: tuple[float, Optional[bool]]


# The MPC solves' RK4 step memo: one table per spool fraction and mode, keyed
# ``(x_bar, inflation)``, and one closed-valve table keyed ``(0.0, None)``;
# see _step_table.
StepTables = dict[tuple[float, Optional[bool]], StepTable]
# The MPC solves' line-search memo: golden_section's ``(v, c, evals)`` of one
# coordinate search, keyed by everything the search reads; see _descend.
Searches = dict[tuple, tuple[float, float, int]]


def _step_table(steps: StepTables, hold: plant_mod.Hold, x_bar: float, inflation: bool) -> StepTable:
    """The table of one spool fraction and mode in the memo ``steps``, holding its step from ``hold``.

    Both modes share the closed-valve table, ``x_bar == 0``.  There the main
    coefficient is a signed zero, so :func:`plant.rk4_hold` leaves the main
    branch out, and the leak coefficients do not depend on the mode: both
    held steps return the same ``p_next`` for every ``p`` and ``dt``.  Its
    stage cost ``w_u * x_bar**2`` is 0 in both modes.  ``0.0`` and ``-0.0``
    share it too.
    """
    key = (x_bar, inflation) if x_bar != 0.0 else (0.0, None)
    table = steps.get(key)
    if table is None:
        table = steps[key] = StepTable()
        table.step = hold(x_bar, inflation)
        table.key = key
    return table


def _descend(
    p0: float,
    ref_seq: Sequence[float],
    m_seq: tuple[Mode, ...],
    cfg: MpcConfig,
    params: PlantParams,
    maps: tuple[SpoolMap, SpoolMap],
    load: Optional[LoadModel],
    u_init: Optional[Sequence[float]],
    steps: Optional[StepTables] = None,
    searches: Optional[Searches] = None,
) -> tuple[list[float], float, int, bool, list[float]]:
    """Projected coordinate descent over the duty sequence for a fixed mode sequence.

    Every line-search evaluation on ``u[k]`` reuses the cached pressure and
    running cost before step k and re-simulates only steps k..N-1, adding the
    stage costs in the order of :func:`rollout_cost`, so each evaluation
    equals a full rollout bit for bit.

    ``steps`` memoizes RK4 steps, one table ``p -> p_next`` per spool
    fraction and mode (:func:`_step_table`; both modes share the
    closed-valve table), which carries the held step
    (:func:`plant.rk4_hold`) its misses call; each horizon step holds the
    table of its current spool fraction, so a step costs one float-keyed
    lookup.  The default is a fresh memo for this descent alone.  The keys
    leave out ``dt``, ``params`` and ``load``, so one memo may serve only
    descents that share all three, such as those of one solve.  It holds
    only results the checked step returned, so a hit returns what the step
    would.

    ``searches`` memoizes whole line searches, with the same default.  The
    search on ``u[k]`` reads ``k``; the mode at ``k``, which fixes its spool
    map, duty bounds and step tables; the pressure and running cost before
    step ``k``; the switch cost; the tables of steps ``k+1..N-1``, whose
    keys fix their spool fractions and so their stage costs; and
    ``ref_seq``, ``cfg``, ``params``, ``maps`` and ``load``.  It is keyed by
    all but the last five, so one memo may serve only descents that share
    those, such as those of one solve, and a hit returns the ``(v, c,
    evals)`` that :func:`golden_section` would.  A coordinate searched again
    with no duty changed since its last search hits the memo, and the hit
    changes no duty, as that search left its best cost current.
    """
    n = cfg.horizon_steps
    if steps is None:
        steps = {}
    if searches is None:
        searches = {}
    bounds = [(maps[m].u_min, maps[m].u_max) for m in m_seq]
    if u_init is None:
        u = [bounds[k][0] for k in range(n)]
    else:
        if len(u_init) != n:
            raise ValueError("warm start length must match the horizon")
        u = [min(bounds[k][1], max(bounds[k][0], float(u_init[k]))) for k in range(n)]

    cost = rollout_cost(p0, u, m_seq, ref_seq, cfg, params, maps, load)

    hold = plant_mod.rk4_hold(params, load)
    dt, w_e, w_u = cfg.dt_pred, cfg.w_e, cfg.w_u
    spool_maps = [maps[m] for m in m_seq]
    inflating = [m == Mode.INFLATION for m in m_seq]
    switch_cost = cfg.w_sw * _switches(m_seq)
    x = [eval_spool(u[k], spool_maps[k]) for k in range(n)]
    tables = [_step_table(steps, hold, x[k], inflating[k]) for k in range(n)]
    p_before = [p0] * (n + 1)       # pressure before step k
    c_before = [0.0] * (n + 1)      # running stage cost before step k

    def tail(k: int, record: bool) -> float:
        """Total cost of the current spool fractions, simulating from step k."""
        p = p_before[k]
        c = c_before[k]
        for j in range(k, n):
            x_j = x[j]
            table = tables[j]
            p_next = table.get(p)
            if p_next is None:
                p_next = table[p] = table.step(p, dt)
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
            key = (k, inflating[k], p_before[k], c_before[k], switch_cost, *[t.key for t in tables[k + 1:]])
            found = searches.get(key)
            if found is None:
                def line(v: float, k: int = k) -> float:
                    saved = x[k], tables[k]
                    x[k] = eval_spool(v, spool_maps[k])
                    tables[k] = _step_table(steps, hold, x[k], inflating[k])
                    c = tail(k, False)
                    x[k], tables[k] = saved
                    return c

                found = searches[key] = golden_section(line, bounds[k][0], bounds[k][1], tol=cfg.line_tol)
            v_best, c_best, _ = found
            if c_best < cost - 1e-15:
                u[k] = v_best
                x[k] = eval_spool(v_best, spool_maps[k])
                tables[k] = _step_table(steps, hold, x[k], inflating[k])
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
    m_seq = (m,) * cfg.horizon_steps
    u, cost, sweeps, hit_cap, trace = _descend(
        p0, ref_seq, m_seq, cfg, params, maps, load, u_init,
    )
    return MpcSolution(
        u_seq=tuple(u),
        m_seq=m_seq,
        cost=cost,
        iterations=sweeps,
        hit_iter_cap=hit_cap,
        cost_trace=tuple(trace),
        descended=1,
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


@functools.cache
def _verified_channels() -> tuple[PlantParams, tuple[SpoolMap, SpoolMap], tuple[Optional[LoadModel], ...]]:
    """The channel, maps and loads on which ``_BOUND_MARGIN_PA`` was measured."""
    from . import config   # config imports this module

    loads = (None, config.default_load(), config.default_bellow_load())
    return config.default_plant(), config.default_maps(), loads


def _interval_verified(
    dt: float,
    params: PlantParams,
    maps: tuple[SpoolMap, SpoolMap],
    load: Optional[LoadModel],
) -> bool:
    """Whether ``_BOUND_MARGIN_PA`` was verified for this channel and step.

    It was for the default channel and spool maps, with no load, the default
    fixed load or the default bellow, at steps up to ``_BOUND_MAX_DT``.  The
    RK4 step's departure from order depends on the step size times the
    channel's stiffness, and near the rails and atmosphere on the shape of
    the flow law, so another volume, conductance, load or spool map is not
    covered.  With a quarter of the default volume, for one, a step of
    0.01 s from near the supply rail lands up to about 45 Pa above the
    steps at both spool ends.
    """
    params_ok, maps_ok, loads_ok = _verified_channels()
    return dt <= _BOUND_MAX_DT and params == params_ok and maps == maps_ok and load in loads_ok


def _bound_walk(
    p0: float,
    ref_seq: Sequence[float],
    seqs: Sequence[tuple[Mode, ...]],
    cfg: MpcConfig,
    params: PlantParams,
    maps: tuple[SpoolMap, SpoolMap],
    load: Optional[LoadModel] = None,
    steps: Optional[StepTables] = None,
    cutoff: Callable[[], float] = lambda: math.inf,
) -> Iterator[tuple[float, int]]:
    """Yield ``(bound, i)``: a lower bound on the optimal cost of ``seqs[i]``.

    The pairs come in ascending ``(bound, i)`` order.  The walk reads
    ``cutoff()`` before each pop and stops once the lowest key left is
    above it, and so at the first bound above it.

    From ``[p0, p0]`` the reachable pressure interval ``[lo, hi]`` is
    propagated step by step.  Each end takes the RK4 step at the mode's
    lowest and at its highest spool fraction
    (:func:`~pneuctrl.valvemap.spool_range`); the new interval spans the
    lowest and the highest result, widened by ``_BOUND_MARGIN_PA`` and
    clamped to the rails.  Step k scores ``w_e * dist(ref[k], [lo, hi])**2
    + w_u * x_lo**2``, and the sequence adds ``w_sw`` per switch: no duty
    sequence pays less.

    The walk is best-first with one heap entry per sequence, keyed by its
    stepped prefix's summed stage scores plus ``w_sw`` per switch so far;
    every term is non-negative and floating-point addition is monotone, so
    the key is at most the bound of any extension.  A popped entry steps its
    sequence's next prefix (through the step memo ``steps``, see
    :func:`_descend`) unless another sequence's entry already did, and goes
    back at the new key.  On equal keys unfinished entries pop before
    finished ones, then by index, so a sequence pops finished only after
    every prefix whose key is at most its bound, which yields the ``(bound,
    i)`` order.  The entries at one prefix pop with no yield between them,
    so under one cutoff: a prefix whose parent's key is above it is never
    stepped.

    The margin covers the two ways the ends could miss a trajectory: the
    RK4 step is not quite non-decreasing in ``p``, and not quite between
    its values at the two ends of the spool range.  What the bound needs
    is that for ``lo <= p`` every step from ``p`` lands at least the lower
    end's step from ``lo`` minus the margin, and for ``p <= hi`` at most
    the upper end's step from ``hi`` plus the margin.  Measured as that
    shortfall, the largest over ``lo <= p`` (and ``p <= hi``) on a grid
    (``p`` every 2 Pa over the rails and every 0.05 Pa within 2 kPa of
    each rail and of atmosphere, 41 spool fractions over each mode's
    range), on the channels of :func:`_interval_verified` and both modes:
    at most 2.4 Pa at ``dt_pred = 0.01`` s, 1.8 Pa at 0.009 s, 1.2 Pa at
    0.0075 s, 0.54 Pa at 0.005 s, 0.26 Pa at 0.0025 s and 0.016 Pa at
    0.001 s, each largest within 200 Pa of a rail, where RK4 stages are
    clamped.  25 Pa is ten times the largest.  The shortfall grows fast
    with the step (11.8 Pa at 0.02 s), so longer steps, and channels not
    measured, bound with the rails: only the effort and switch terms
    count.
    """
    n = cfg.horizon_steps
    _check_horizon(n, ref_seq, *seqs)
    if steps is None:
        steps = {}
    hold = plant_mod.rk4_hold(params, load)
    dt, w_e, w_u, w_sw = cfg.dt_pred, cfg.w_e, cfg.w_u, cfg.w_sw
    p_neg, p_pos = params.p_neg, params.p_pos
    interval = _interval_verified(dt, params, maps, load)
    # Per mode: its lowest spool fraction, and the step tables of both ends
    # of its spool range.
    spool_ends = {}
    for m in Mode:
        inflation = m == Mode.INFLATION
        x_range = spool_range(maps[m])
        spool_ends[m] = (x_range[0], [_step_table(steps, hold, x, inflation) for x in x_range])

    def step_ends(p: float, ends: list[StepTable]) -> list[float]:
        """The RK4 steps from ``p`` at both spool ends."""
        out = []
        for table in ends:
            p_next = table.get(p)
            if p_next is None:
                p_next = table[p] = table.step(p, dt)
            out.append(p_next)
        return out

    # Each prefix stepped so far: (lo, hi, stage scores, switches).
    nodes = {(): (p0, p0, 0.0, 0)}
    heap = [(0.0, False, i, 0) for i in range(len(seqs))]
    while heap:
        key, done, i, k = heapq.heappop(heap)
        if key > cutoff():
            return
        if done:
            yield key, i
            continue
        m_seq = seqs[i]
        prefix = m_seq[:k + 1]
        node = nodes.get(prefix)
        if node is None:
            lo, hi, score, switches = nodes[m_seq[:k]]
            m = m_seq[k]
            x_lo, ends = spool_ends[m]
            if interval:
                lo = max(p_neg, min(step_ends(lo, ends)) - _BOUND_MARGIN_PA)
                hi = min(p_pos, max(step_ends(hi, ends)) + _BOUND_MARGIN_PA)
            else:
                lo, hi = p_neg, p_pos
            r = ref_seq[k]
            d = lo - r if r < lo else r - hi if r > hi else 0.0
            score += w_e * d * d + w_u * x_lo * x_lo
            node = nodes[prefix] = (lo, hi, score, switches + (k > 0 and m != m_seq[k - 1]))
        heapq.heappush(heap, (node[2] + w_sw * node[3], k + 1 == n, i, k + 1))


def _sequence_bounds(
    p0: float,
    ref_seq: Sequence[float],
    seqs: Sequence[tuple[Mode, ...]],
    cfg: MpcConfig,
    params: PlantParams,
    maps: tuple[SpoolMap, SpoolMap],
    load: Optional[LoadModel] = None,
) -> list[float]:
    """The bound of every sequence in ``seqs``, in their order: :func:`_bound_walk` drained."""
    out = [0.0] * len(seqs)
    for bound, i in _bound_walk(p0, ref_seq, seqs, cfg, params, maps, load):
        out[i] = bound
    return out


def minmpc_solve(
    p0: float,
    ref_seq: Sequence[float],
    cfg: MpcConfig,
    params: PlantParams,
    maps: tuple[SpoolMap, SpoolMap],
    load: Optional[LoadModel] = None,
) -> MpcSolution:
    """Joint mode/duty optimization over switch-limited mode sequences.

    Exact branch and bound over :func:`mode_sequences` (Bemporad & Morari,
    *Automatica* 1999).  :func:`_bound_walk` gives each sequence a lower
    bound on its optimal cost, from the reachable pressure interval widened
    by a 25 Pa margin per step on the channels where that margin was
    measured, and from the rails on any other (its docstring says why the
    margin suffices).  It yields the sequences in ascending ``(bound,
    enumeration index)`` order, each is descended as it comes, and the walk
    stops at the first bound above the best cost so far by the relative
    ``_PRUNE_SLACK``, which covers the rounding of both sums.  Each sequence
    left would descend to a cost at least its bound, above the best, so it
    could not win, and the result is the full enumeration's bit for bit.

    The winner has the least ``(cost, switches, first duty, enumeration
    index)``: ties break toward fewer switches, then lower first-step duty,
    then the earlier sequence of :func:`mode_sequences`, as the enumeration
    in that order would, whatever order the descents ran in.  The
    solution's ``iterations``, ``hit_iter_cap`` and ``descended`` count the
    descended sequences only.

    The bounds and all descents share one step memo, and the descents one
    line-search memo (see :func:`_descend`).  Each keys everything its
    entries depend on within a solve, so a hit returns what a fresh step or
    search would: the solution is that of descents with fresh memos, bit
    for bit, and only the work falls.
    """
    seqs = list(mode_sequences(cfg.horizon_steps, cfg.max_switches))
    # RK4 steps shared by the bounds and every descent of this solve, and line
    # searches shared by its descents; see _descend.
    steps: StepTables = {}
    searches: Searches = {}
    best = None   # (key, duties, cost trace) of the winner so far
    total_sweeps = 0
    any_cap = False
    descended = 0

    def cutoff() -> float:
        return math.inf if best is None else best[0][0] * (1.0 + _PRUNE_SLACK)

    for _, i in _bound_walk(p0, ref_seq, seqs, cfg, params, maps, load, steps, cutoff):
        u, cost, sweeps, hit_cap, trace = _descend(
            p0, ref_seq, seqs[i], cfg, params, maps, load, None, steps, searches,
        )
        descended += 1
        total_sweeps += sweeps
        any_cap = any_cap or hit_cap
        key = (cost, _switches(seqs[i]), u[0], i)
        if best is None or key < best[0]:
            best = (key, u, trace)
    assert best is not None
    (cost, _, _, i), u, trace = best
    return MpcSolution(
        u_seq=tuple(u),
        m_seq=seqs[i],
        cost=cost,
        iterations=total_sweeps,
        hit_iter_cap=any_cap,
        cost_trace=tuple(trace),
        descended=descended,
    )
