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
- a backward pass (:func:`_values`): the cost of every grid duty from each
  grid pressure of a stage's band, reading the next stage's value by linear
  interpolation, and its least, the cost to go;
- a forward pass (:func:`_forward`) from the exact start pressure, which
  steps every grid duty at stage 0 and, later, the duties around the one
  the backward pass's costs rank best, and keeps the duty of least exact
  cost.  So every returned duty is one of its mode's grid duties.

A stage's band (:func:`_bands`) is the grid pressures the forward pass can
read there: the reach of the start's held steps, then of the table's steps
from the band before, each widened by one cell each way.  On the default
channel and fixed load a 10 ms step moves less than 5 cells down and 4 up,
so the backward pass costs about a fifth of the grid's entries for MI-NMPC
and a seventh for NMPC on the benchmark's problems.  A stage's values exist
only on its band, so a read tests its cell against the band and one outside
it raises; the solve then reruns with every band the whole grid.  Each
value is the full grid's bit for bit, so no solution depends on the bands.

The returned ``cost`` is :func:`rollout_cost` of the returned sequences.
The pressure grid bounds what the search sees, not where it walks: between
grid pressures the value is interpolated, so a solution is near the optimum,
not at it.  A stage compares exact stage costs, the held step from the exact
pressure, plus the next stage's interpolated value; the interpolated duty
costs only pick where a later stage starts.  On the benchmark's 276 problems
of seeds 1 to 12, on the fixed and the bellow load, both solvers return what
a pass that steps every grid duty returns, from 22 % of its held steps.
MI-NMPC's passes with no switch left read NMPC's values and duty costs bit
for bit, so, keeping the least of its passes, it never costs more than NMPC.
A later stage's walk over the grid duties from where it starts assumes the
cost unimodal along the duty.  Both default spool maps fall over part of
their duty range, within ``valvemap.DEFAULT_SLOPE_TOL``: deflation from
0.9261 at 71.24 % to 0.9186 at 84.16 %, inflation by up to 0.0086 between
about 75 % and 91 %.  A walk that meets such a fall can stop at a local
minimum before it, but the grid compares duties on both sides of the fall:
from ``p_atm + 100`` kPa toward ``p_atm`` on the default fixed load, both
solvers hold 100 % at every step (cost 59,187.67), where a line search over
the whole duty range stops at 71.24 % (cost 60,891.0).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import plant as plant_mod
from .optim import golden_section  # noqa: F401  unused: perfbench's tracer test rebinds mpc.golden_section
from .plant import Count, LoadModel, Mode, PlantParams, PlantState, Seconds, Steps, Weight, check_fields
from .valvemap import SpoolMap, eval_spool, invert_spool, spool_range

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

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass
class MpcSolution:
    """A solve's duty and mode sequences, their cost, and what the solve ran.

    ``iterations`` counts the forward passes: 1 for NMPC; 3 for MI-NMPC, or
    2 with no switch to take (``max_switches`` 0 or a one-step horizon), where
    its switching pass is the constant-mode pass of the mode it takes.
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
    ``v`` on the grid interpolates there to ``v[cell] * frac0 + v[cell + 1] *
    frac``, with ``frac0 = 1 - frac``, as :func:`_interp` does at one
    pressure.  ``low[i]`` and ``high[i]`` are the least ``cell`` and the
    greatest ``cell + 1`` of any duty's step from grid pressure ``i``: the
    grid pressures its steps are interpolated between.
    """

    duties: tuple[float, ...]              # ascending
    fractions: tuple[float, ...]           # the spool fraction of each duty
    steps: tuple[plant_mod.HeldStep, ...]  # the held step of each duty
    nxt: np.ndarray
    cell: np.ndarray
    frac: np.ndarray
    frac0: np.ndarray
    low: list[int]
    high: list[int]


def _grid(params: PlantParams) -> tuple[float, float]:
    """The pressure grid's lowest pressure and inverse spacing."""
    return params.p_neg, (GRID_PRESSURES - 1) / (params.p_pos - params.p_neg)


def _cells(p: np.ndarray, p_neg: float, inv_h: float) -> tuple[np.ndarray, np.ndarray]:
    """The grid cell of each pressure in [p_neg, p_pos], and its place in it: :func:`_interp`'s split."""
    pos = (p - p_neg) * inv_h
    cell = np.minimum(pos.astype(np.intp), GRID_PRESSURES - 2)
    return cell, pos - cell


class _OutOfBand(Exception):
    """A forward pass read the backward pass outside its bands."""


def _interp(row: list[float], lo: int, p: float, p_neg: float, inv_h: float) -> float:
    """The value ``row`` of the grid pressures from ``lo`` on, interpolated at ``p``.

    ``p``'s cell must lie in the row, with its right end: a read outside it
    raises :class:`_OutOfBand`, also left of it, where a list index would wrap.
    """
    pos = (p - p_neg) * inv_h
    i = min(int(pos), GRID_PRESSURES - 2)
    f = pos - i
    i -= lo
    if not 0 <= i < len(row) - 1:
        raise _OutOfBand
    return row[i] * (1.0 - f) + row[i + 1] * f


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
        out.append(_Actions(tuple(duties), tuple(fractions), steps, nxt, cell, frac, 1.0 - frac,
                            cell.min(axis=0).tolist(), (cell + 1).max(axis=0).tolist()))
    return out[0], out[1]


# The least cost to go by stage k = 0..N (0 after the horizon) and mode of step
# k - 1: an array (switches left, grid pressure of stage k's band) per mode.
Values = list[dict[Mode, np.ndarray]]
# The cost of each grid duty by stage k = 1..N - 1 (stage 0 is empty) and its
# mode: an array (switches left after it, grid duty, grid pressure of stage
# k's band) per mode.
Costs = list[dict[Mode, np.ndarray]]
# The grid pressures each stage k = 0..N costs and its values span; stage 0,
# off the grid, spans the whole grid.
Bands = list[slice]

_FULL = slice(0, GRID_PRESSURES)


def _bands(table: tuple[_Actions, _Actions], first: dict, params: PlantParams, n: int,
           modes: tuple[Mode, ...]) -> Bands:
    """The grid pressures the forward pass from the exact start can read, by stage.

    Stage 1's band is the grid cells the held steps of ``first`` (every grid
    duty of ``modes`` from the start) land in, and stage k + 1's the hull of
    the cells the table's steps of every duty of ``modes`` from stage k's band
    land in; each is widened by one cell each way.  So an in-band cost reads
    only in-band values.  The margins cover the forward pass's steps from
    exact pressures off the grid; a read they miss is caught
    (:class:`_OutOfBand`) and the solve reruns on the full grid.
    """
    cells, _ = _cells(np.array([q for m in modes for q in first[m]]), *_grid(params))
    lo, hi = int(cells.min()), int(cells.max()) + 1
    bands = [_FULL]
    for _ in range(1, n + 1):
        band = slice(max(lo - 1, 0), min(hi + 2, GRID_PRESSURES))
        bands.append(band)
        lo = min(min(table[m].low[band]) for m in modes)
        hi = max(max(table[m].high[band]) for m in modes)
    return bands


def _values(
    table: tuple[_Actions, _Actions], ref_seq: Sequence[float], cfg: MpcConfig, modes: tuple[Mode, ...], layers: int,
    bands: Bands,
) -> tuple[Values, Costs]:
    """The backward pass: the value of every grid pressure of each stage's band, mode of the last step and switches left.

    A grid duty's cost from a grid pressure is the tracking and effort terms
    of its tabled step plus the next stage's value there, interpolated in
    the step's pressure cell; the costs are kept for the forward pass.  With
    a switch left, the value is the least of staying in the mode and, at
    ``w_sw`` more, taking the other with one switch fewer.  The layer of no
    switch left reads no other mode, so it is its mode's value and costs
    alone, bit for bit, whatever ``modes`` and ``layers`` are.  Stage 0 is
    left empty: its pressure is not on the grid.

    Stage k costs only the grid pressures of ``bands[k]`` (:func:`_bands`),
    and its costs and values span just that band.  A cost reads the next
    stage's values at its cell less ``bands[k + 1].start``, which the bands
    keep inside the next band, so each entry is the full grid's bit for bit.
    """
    n = cfg.horizon_steps
    last = bands[n]
    values: Values = [{} for _ in range(n)] + [dict.fromkeys(modes, np.zeros((layers, last.stop - last.start)))]
    costs: Costs = [{} for _ in range(n)]
    effort = {m: (cfg.w_u * np.array(table[m].fractions) ** 2)[:, None] for m in modes}
    for k in range(n - 1, 0, -1):
        band = bands[k]
        for m in modes:
            a, v = table[m], values[k + 1][m]
            cell = a.cell[:, band] - bands[k + 1].start
            e = a.nxt[:, band] - ref_seq[k]
            cost = costs[k][m] = np.take(v, cell, axis=1)
            cost *= a.frac0[:, band]
            cost += np.take(v, cell + 1, axis=1) * a.frac[:, band]
            cost += cfg.w_e * e * e + effort[m]
        best = {m: costs[k][m].min(axis=1) for m in modes}
        for m in modes:
            v = best[m]
            if layers > 1:
                v = v.copy()
                v[1:] = np.minimum(v[1:], best[Mode(1 - m)][:-1] + cfg.w_sw)
            values[k][m] = v
    return values, costs


def _forward(
    p0: float,
    ref_seq: Sequence[float],
    cfg: MpcConfig,
    params: PlantParams,
    table: tuple[_Actions, _Actions],
    values: Values,
    costs: Costs,
    modes: tuple[Mode, ...],
    left: int,
    first: dict,
    bands: Bands,
) -> tuple[list[float], list[Mode]]:
    """The forward pass from ``p0``: at each stage the least exact stage cost plus interpolated value.

    Stage 0 may take any of ``modes``, with ``left`` switches left; a later
    stage keeps the last step's mode or, at ``w_sw`` while a switch is left,
    takes the other.  Stage 0 reads the held step of every grid duty from
    ``p0`` from ``first``, which holds it for each of ``modes``.  A later
    stage ranks each option's grid duties by their backward-pass costs,
    interpolated at the exact pressure, and steps the best, then each way
    from it while the exact cost falls.  The stage keeps the stepped grid
    duty of least stage cost plus next value, and the pressure walks on by
    its held step, so it is the rollout's.

    ``costs`` and ``values`` span each stage's band (:func:`_bands`).  A value
    read outside it, in an exact candidate's cost, raises
    :class:`_OutOfBand` (:func:`_interp`).  The ranking's column lies in
    the band: the pressure is the held step of a duty whose value read at the
    stage before passed that index test, in the same cells.
    """
    dt, w_e, w_u, w_sw = cfg.dt_pred, cfg.w_e, cfg.w_u, cfg.w_sw
    p_neg, inv_h = _grid(params)
    p, u_seq, m_seq = p0, [], []
    for k, r in enumerate(ref_seq):
        lo = bands[k + 1].start   # the grid pressure stage k + 1's values start at
        if k == 0:
            options = [(m, left, 0.0) for m in modes]
        else:
            options = [(m_seq[-1], left, 0.0)]
            if left > 0:
                options.append((Mode(1 - m_seq[-1]), left - 1, w_sw))
            # p's cell, as _interp splits it, and its column in stage k's costs, which span its band
            pos = (p - p_neg) * inv_h
            i = min(int(pos), GRID_PRESSURES - 2)
            col, f = i - bands[k].start, pos - i
        costed = []   # (exact cost, duty index, its held step, mode, switches left)
        for m, after, sw in options:
            a, v = table[m], values[k + 1][m][after].tolist()

            def exact(j: int, q: float) -> tuple:
                x, e = a.fractions[j], q - r
                return w_e * e * e + w_u * x * x + sw + _interp(v, lo, q, p_neg, inv_h), j, q, m, after

            if k == 0:
                costed += [exact(j, q) for j, q in enumerate(first[m])]
                continue
            c = costs[k][m][after]
            jq = int(np.argmin(c[:, col] * (1.0 - f) + c[:, col + 1] * f))
            costed.append(exact(jq, a.steps[jq](p, dt)))
            start = costed[-1][0]
            for d in (-1, 1):   # step away from jq each way while the exact cost falls
                j, last = jq + d, start
                while 0 <= j < len(a.steps):
                    costed.append(exact(j, a.steps[j](p, dt)))
                    if not costed[-1][0] < last:
                        break
                    j, last = j + d, costed[-1][0]
        _, j, p, m, left = min(costed, key=lambda c: c[0])
        u_seq.append(table[m].duties[j])
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
    """The dynamic program over ``modes`` with up to ``switches`` mode changes; see :func:`minmpc_solve`.

    The held steps of every grid duty from ``p0`` are taken first: they give
    the bands (:func:`_bands`), and every pass's stage 0 reads them.  The
    backward pass costs only the bands; if a forward pass reads outside them
    (:class:`_OutOfBand`), the whole solve reruns with every band the whole
    grid.
    """
    _check_refs(ref_seq)
    _check_horizon(cfg.horizon_steps, ref_seq)
    table = _table(params, load, tuple(maps), cfg.dt_pred)
    # mode -> its grid duties' held steps from p0
    first = {m: [step(p0, cfg.dt_pred) for step in table[m].steps] for m in modes}

    def run(bands: Bands) -> list[tuple[list[float], list[Mode]]]:
        backward = _values(table, ref_seq, cfg, modes, switches + 1, bands)
        passes = [_forward(p0, ref_seq, cfg, params, table, *backward, modes, switches, first, bands)]
        if len(modes) > 1:
            # With no switch left the switching pass is the constant-mode pass of the mode it took.
            passes += [_forward(p0, ref_seq, cfg, params, table, *backward, (m,), 0, first, bands)
                       for m in modes if switches or m != passes[0][1][0]]
        return passes

    try:
        passes = run(_bands(table, first, params, cfg.horizon_steps, modes))
    except _OutOfBand:
        passes = run([_FULL] * (cfg.horizon_steps + 1))
    solutions = [(rollout_cost(p0, u, m_seq, ref_seq, cfg, params, maps, load), u, m_seq) for u, m_seq in passes]
    cost, u, m_seq = min(solutions, key=lambda s: (s[0], _switches(s[2]), s[1][0]))
    return MpcSolution(u_seq=tuple(u), m_seq=tuple(m_seq), cost=cost, iterations=len(passes))


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
    switch left.  Those layers are :func:`nmpc_solve`'s values and duty
    costs bit for bit, so each constant-mode pass returns NMPC's solution in
    its mode.  With no switch to take, the switching pass is the
    constant-mode pass of the mode it takes, which is not run again.  The
    solution is the least by ``(cost, switches, first duty)``, the first
    pass in that order on a tie, so it never costs more than NMPC in either
    mode.
    """
    switches = min(cfg.max_switches, cfg.horizon_steps - 1)
    return _solve(p0, ref_seq, cfg, params, maps, load, (Mode.DEFLATION, Mode.INFLATION), switches)
