"""Predictive-control baselines: NMPC and mixed-integer NMPC, solved by dynamic programming.

Both solvers minimize a quadratic tracking-plus-effort cost over rollouts of
the channel model, plus ``w_sw`` per mode change.  NMPC holds one mode; the
mixed-integer variant also chooses the mode of every step, with at most
``max_switches`` changes.  The channel has one state, the outlet pressure,
and the held step at a fixed ``dt_pred`` does not depend on time, so the
horizon problem is a dynamic program over a pressure grid (Bellman, *Dynamic
Programming*, 1957; Bertsekas, *Dynamic Programming and Optimal Control*,
vol. 1).  The mode of the last step and the switches left are two more,
discrete, states.  A solve has three parts:

- a transition table (:func:`_table`): the held step of every grid duty from
  every grid pressure, built once per channel, load, maps and ``dt_pred``;
- a backward pass (:func:`_values`): the least cost to go from every grid
  pressure, reading the next stage's value by linear interpolation;
- a forward pass (:func:`_forward`) from the exact start pressure, which
  picks each stage's duty on the grid and refines it between the
  neighbouring grid duties by a golden-section search.

The returned ``cost`` is :func:`rollout_cost` of the returned sequences.  The
grid bounds what the search sees, not what it returns: between grid
pressures the value is interpolated, so a solution is near the optimum, not
at it.  Only the refinement assumes the cost unimodal, along the duty within
its bracket.  Both default spool maps fall over part of their duty range,
within ``valvemap.DEFAULT_SLOPE_TOL``: deflation from 0.9261 at 71.24 % to
0.9186 at 84.16 %, inflation by up to 0.0086 between about 75 % and 91 %.  A
refinement whose bracket holds such a fall can stop at a local minimum in
it, but the grid compares duties on both sides of the fall: from ``p_atm +
100`` kPa toward ``p_atm`` on the default fixed load, both solvers hold 100 %
at every step (cost 59,187.67), where a line search over the whole duty
range stops at 71.24 % (cost 60,891.0).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import plant as plant_mod
from .optim import golden_section
from .plant import Count, LoadModel, Mode, PlantParams, PlantState, Seconds, Steps, Tolerance, Weight, check_fields
from .valvemap import SpoolMap, eval_spool, invert_spool, spool_fraction, spool_range

# The dynamic program's grid: pressures spanning [p_neg, p_pos], and spool
# fractions spanning each mode's spool_range.
GRID_PRESSURES = 200
GRID_FRACTIONS = 21


@dataclass(frozen=True)
class MpcConfig:
    horizon_steps: Steps = 10
    dt_pred: Seconds = 0.01            # prediction step
    w_e: Weight = 1.0e-6               # tracking weight, 1/Pa^2
    w_u: Weight = 1.0e-2               # effort weight on the spool fraction
    w_sw: Weight = 1.0                 # penalty per mode change within the horizon
    max_switches: Count = 1            # mode changes allowed within the horizon (MI-NMPC)
    line_tol: Tolerance = 0.05         # golden-section duty resolution of the refinement, %

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass
class MpcSolution:
    """A solve's duty and mode sequences, their cost, and what the solve ran.

    ``iterations`` counts the forward passes (1 for NMPC, 3 for MI-NMPC).
    ``hit_iter_cap`` is always False: the dynamic program has no iteration
    cap.
    """

    u_seq: tuple[float, ...]
    m_seq: tuple[Mode, ...]
    cost: float
    iterations: int
    hit_iter_cap: bool = False

    @property
    def switches(self) -> int:
        return _switches(self.m_seq)


def _switches(m_seq: Sequence[Mode]) -> int:
    return sum(1 for a, b in zip(m_seq[:-1], m_seq[1:]) if a != b)


def _check_horizon(n: int, *seqs: Sequence) -> None:
    if any(len(seq) != n for seq in seqs):
        raise ValueError(f"sequences must all have horizon length {n}")


def _check_refs(ref_seq: Sequence[float]) -> None:
    """Hold each reference within ``2 * PA_MAX`` Pa, the reach of a declared gauge level from a declared ``p_atm``.

    Predictions stay within the rails, so every cost a solve forms is finite under the declared weights and horizon.
    """
    if not all(abs(r) <= 2.0 * plant_mod.PA_MAX for r in ref_seq):
        raise ValueError(f"ref_seq must lie within ±2e9 Pa, got {list(ref_seq)!r}")


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
    return cost


@dataclass(frozen=True)
class _Actions:
    """One mode's grid duties, and the held step of each from every grid pressure.

    ``nxt[j, i]`` is the step of duty ``j`` from grid pressure ``i``; it lies
    in grid cell ``cell[j, i]`` at ``frac[j, i]`` of its width, so a value
    ``v`` on the grid interpolates there to ``v[cell] * (1 - frac) + v[cell +
    1] * frac``, as :func:`_interp` does at one pressure.
    """

    duties: tuple[float, ...]              # ascending
    fractions: np.ndarray                  # the spool fraction of each duty
    steps: tuple[plant_mod.HeldStep, ...]  # the held step of each duty
    nxt: np.ndarray
    cell: np.ndarray
    frac: np.ndarray


def _grid(params: PlantParams) -> tuple[float, float]:
    """The pressure grid's lowest pressure and inverse spacing."""
    return params.p_neg, (GRID_PRESSURES - 1) / (params.p_pos - params.p_neg)


def _cells(p: np.ndarray, p_neg: float, inv_h: float) -> tuple[np.ndarray, np.ndarray]:
    """The grid cell of each pressure in [p_neg, p_pos], and its place in it: :func:`_interp`'s split."""
    pos = (p - p_neg) * inv_h
    cell = np.minimum(pos.astype(np.intp), GRID_PRESSURES - 2)
    return cell, pos - cell


def _interp(v: list[float], p: float, p_neg: float, inv_h: float) -> float:
    """The value ``v`` on the pressure grid, linearly interpolated at ``p`` in [p_neg, p_pos]."""
    pos = (p - p_neg) * inv_h
    i = min(int(pos), GRID_PRESSURES - 2)
    f = pos - i
    return v[i] * (1.0 - f) + v[i + 1] * f


@functools.lru_cache(maxsize=8)
def _table(
    params: PlantParams, load: Optional[LoadModel], maps: tuple[SpoolMap, SpoolMap], dt: float,
) -> tuple[_Actions, _Actions]:
    """Each mode's grid actions, in ``Mode`` order: the transition table of one channel, load, maps and step.

    A mode's duties are the lowest to reach each of ``GRID_FRACTIONS`` spool
    fractions spread evenly over its :func:`spool_range`
    (:func:`invert_spool`), and its map's top duty.
    """
    hold = plant_mod.rk4_hold(params, load)
    grid = np.linspace(params.p_neg, params.p_pos, GRID_PRESSURES).tolist()
    out = []
    for m in Mode:
        spool_map = maps[m]
        fractions = np.linspace(*spool_range(spool_map), GRID_FRACTIONS).tolist()
        duties = sorted({invert_spool(x, spool_map) for x in fractions} | {spool_map.u_max})
        fractions = [eval_spool(u, spool_map) for u in duties]
        steps = tuple(hold(x, m == Mode.INFLATION) for x in fractions)
        nxt = np.array([[step(p, dt) for p in grid] for step in steps])
        cell, frac = _cells(nxt, *_grid(params))
        out.append(_Actions(tuple(duties), np.array(fractions), steps, nxt, cell, frac))
    return out[0], out[1]


# The least cost to go by stage k = 0..N (0 after the horizon) and mode of
# step k - 1: an array (switches left, grid pressure) per mode of the solve.
Values = list[dict[Mode, np.ndarray]]


def _values(
    table: tuple[_Actions, _Actions], ref_seq: Sequence[float], cfg: MpcConfig, modes: tuple[Mode, ...], layers: int,
) -> Values:
    """The backward pass: the value of every grid pressure, mode of the last step and switches left.

    A grid duty's cost from a grid pressure is the tracking and effort terms
    of its tabled step plus the next stage's value there, interpolated in
    the step's pressure cell.  With a switch left, the value is the least of
    staying in the mode and, at ``w_sw`` more, taking the other with one
    switch fewer.  The layer of no switch left reads no other mode, so it is
    its mode's value alone, bit for bit, whatever ``modes`` and ``layers``
    are.  Stage 0 is left empty: its pressure is not on the grid.
    """
    n = cfg.horizon_steps
    values: Values = [{} for _ in range(n)] + [dict.fromkeys(modes, np.zeros((layers, GRID_PRESSURES)))]
    effort = {m: (cfg.w_u * table[m].fractions ** 2)[:, None] for m in modes}
    for k in range(n - 1, 0, -1):
        best = {}
        for m in modes:
            a, v = table[m], values[k + 1][m]
            e = a.nxt - ref_seq[k]
            cost = np.take(v, a.cell, axis=1)
            cost *= 1.0 - a.frac
            cost += np.take(v, a.cell + 1, axis=1) * a.frac
            cost += cfg.w_e * e * e + effort[m]
            best[m] = cost.min(axis=1)
        for m in modes:
            v = best[m]
            if layers > 1:
                v = v.copy()
                v[1:] = np.minimum(v[1:], best[Mode(1 - m)][:-1] + cfg.w_sw)
            values[k][m] = v
    return values


def _forward(
    p0: float,
    ref_seq: Sequence[float],
    cfg: MpcConfig,
    params: PlantParams,
    maps: tuple[SpoolMap, SpoolMap],
    load: Optional[LoadModel],
    table: tuple[_Actions, _Actions],
    values: Values,
    modes: tuple[Mode, ...],
    left: int,
    steps: dict,
) -> tuple[list[float], list[Mode]]:
    """The forward pass from ``p0``: at each stage the least exact stage cost plus interpolated value.

    Stage 0 may take any of ``modes``, with ``left`` switches left; a later
    stage keeps the last step's mode or, at ``w_sw`` while a switch is left,
    takes the other.  Each candidate takes the held step of its grid duty
    from the exact pressure.  The winner's duty is then refined by a
    golden-section search between its neighbouring grid duties, on the same
    stage cost plus interpolated value, and the grid duty stays unless the
    search finds less.  The pressure walks on by the held step of the duty
    kept, so it is the rollout's.  ``steps`` keeps the candidates' held
    steps from each (mode, pressure) met, for the other passes of the solve:
    all start from ``p0``.
    """
    dt, w_e, w_u, w_sw = cfg.dt_pred, cfg.w_e, cfg.w_u, cfg.w_sw
    p_neg, inv_h = _grid(params)
    hold = plant_mod.rk4_hold(params, load)
    p, u_seq, m_seq = p0, [], []
    for k, r in enumerate(ref_seq):
        if k == 0:
            options = [(m, left, 0.0) for m in modes]
        else:
            options = [(m_seq[-1], left, 0.0)]
            if left > 0:
                options.append((Mode(1 - m_seq[-1]), left - 1, w_sw))
        best = None
        for m, after, sw in options:
            a, v = table[m], values[k + 1][m][after]
            stepped = steps.get((m, p))
            if stepped is None:
                nxt = np.array([step(p, dt) for step in a.steps])
                stepped = steps[m, p] = (nxt, *_cells(nxt, p_neg, inv_h))
            nxt, cell, frac = stepped
            e = nxt - r
            cost = w_e * e * e + w_u * a.fractions ** 2 + sw + (v[cell] * (1.0 - frac) + v[cell + 1] * frac)
            j = int(np.argmin(cost))
            if best is None or cost[j] < best[0]:
                best = (float(cost[j]), m, after, sw, j)
        c_grid, m, left, sw, j = best
        a, v = table[m], values[k + 1][m][left].tolist()
        coeffs, inflation = maps[m].a, m == Mode.INFLATION

        def stage(u: float) -> float:
            x = spool_fraction(coeffs, u)
            q = hold(x, inflation)(p, dt)
            e = q - r
            return w_e * e * e + w_u * x * x + sw + _interp(v, q, p_neg, inv_h)

        u, c_u, _ = golden_section(stage, a.duties[max(j - 1, 0)], a.duties[min(j + 1, len(a.duties) - 1)],
                                   tol=cfg.line_tol)
        if not c_u < c_grid:
            u = a.duties[j]
        p = hold(spool_fraction(coeffs, u), inflation)(p, dt)
        u_seq.append(u)
        m_seq.append(m)
    return u_seq, m_seq


def _solve(
    p0: float,
    ref_seq: Sequence[float],
    cfg: MpcConfig,
    params: PlantParams,
    maps: tuple[SpoolMap, SpoolMap],
    load: Optional[LoadModel],
    modes: tuple[Mode, ...],
    switches: int,
) -> MpcSolution:
    """The dynamic program over ``modes`` with up to ``switches`` mode changes; see :func:`minmpc_solve`."""
    _check_refs(ref_seq)
    _check_horizon(cfg.horizon_steps, ref_seq)
    table = _table(params, load, tuple(maps), cfg.dt_pred)
    values = _values(table, ref_seq, cfg, modes, switches + 1)
    starts = [(modes, switches)] + [((m,), 0) for m in modes if len(modes) > 1]
    best = None
    steps: dict = {}   # (mode, pressure) -> its grid duties' held steps from it, and their cells
    for start in starts:
        u, m_seq = _forward(p0, ref_seq, cfg, params, maps, load, table, values, *start, steps)
        cost = rollout_cost(p0, u, m_seq, ref_seq, cfg, params, maps, load)
        key = (cost, _switches(m_seq), u[0])
        if best is None or key < best[0]:
            best = (key, u, m_seq)
    (cost, _, _), u, m_seq = best
    return MpcSolution(u_seq=tuple(u), m_seq=tuple(m_seq), cost=cost, iterations=len(starts))


def nmpc_solve(
    p0: float,
    ref_seq: Sequence[float],
    m: Mode,
    cfg: MpcConfig,
    params: PlantParams,
    maps: tuple[SpoolMap, SpoolMap],
    load: Optional[LoadModel] = None,
) -> MpcSolution:
    """Optimize the duty sequence with the mode held at ``m``: the dynamic program in one mode."""
    return _solve(p0, ref_seq, cfg, params, maps, load, (Mode(m),), 0)


def minmpc_solve(
    p0: float,
    ref_seq: Sequence[float],
    cfg: MpcConfig,
    params: PlantParams,
    maps: tuple[SpoolMap, SpoolMap],
    load: Optional[LoadModel] = None,
) -> MpcSolution:
    """Optimize the mode and duty sequences jointly, with at most ``max_switches`` mode changes.

    One backward pass covers both modes, and three forward passes read it:
    its own switching pass, and one per mode that reads the layers of no
    switch left.  Those layers are :func:`nmpc_solve`'s values bit for bit,
    so each constant-mode pass returns NMPC's solution in its mode.  The
    solution is the least by ``(cost, switches, first duty)``, the first
    pass in that order on a tie, so it never costs more than NMPC in either
    mode.
    """
    switches = min(cfg.max_switches, cfg.horizon_steps - 1)
    return _solve(p0, ref_seq, cfg, params, maps, load, (Mode.DEFLATION, Mode.INFLATION), switches)
