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
  every grid pressure, built once per channel, load, maps and ``dt_pred``.
  One copy of its arrays serves both modes: pressure-major, ``(mode,
  pressure, duty)``, stacked in ``Mode`` order, a mode with fewer duties
  padded with its top duty, which changes no result (:func:`_stack`), and
  laid out as the backward pass reads it, with each mode set's reach;
- a backward pass (:func:`_values`): the cost of every grid duty from each
  grid pressure of a stage's band, reading the next stage's value by linear
  interpolation, and its least, the cost to go.  A stage is one gather and
  numpy pass for every mode of the solve, each entry formed as a pass per
  mode forms it, and keeps its values and costs as whole arrays with a row
  per mode;
- a forward pass (:func:`_forward`) from the exact start pressure, which
  at every stage steps the duties around the one the backward pass's costs
  rank best, and keeps the duty of least exact cost.  So every returned
  duty is one of its mode's grid duties.  A solve's forward passes share
  one memo of the held steps they take, so none is taken twice.

A stage's band (:func:`_bands`) is the grid pressures the forward pass can
read there: at stage 0 the two grid pressures of the start's cell, then the
table's reach from the band before, the hull of the cells, with their right
ends, of its steps.  A held step that does not fall along the pressure maps
a band's cell into the next band, so the forward pass's steps from exact
pressures read in band; the backward pass costs about 15 % of the grid's
entries for MI-NMPC and 9 % for NMPC on the benchmark's problems.  A read tests its
cell against the band, and one outside it, where a table's step falls,
raises; the solve then reruns with every band the whole grid.  Each value
is the full grid's bit for bit, so no solution depends on the bands.

The returned ``cost`` is :func:`rollout_cost` of the returned sequences, a
solve's one rollout.  MI-NMPC ranks its passes by that sum (:func:`_sum_cost`)
over the held steps each took, from the solve's memo: the table's steps are
``plant.step``'s and its fractions ``eval_spool``'s, so bit for bit the same.
The pressure grid bounds what the search sees, not where it walks: between
grid pressures the value is interpolated, so a solution is near the optimum,
not at it.  A stage compares exact stage costs, the held step from the exact
pressure, plus the next stage's interpolated value; the interpolated duty
costs only pick where a stage starts.  On the benchmark's 276 problems
of seeds 1 to 12, on the fixed and the bellow load, both solvers return what
a pass that steps every grid duty returns, from 13 % of its held steps.  A
start past a rail is ranked at that rail's cell, and its solve may cost a
few 1e-7 relative more than that pass's.
MI-NMPC's passes with no switch left read NMPC's values and duty costs bit
for bit, so, keeping the least of its passes, it never costs more than NMPC.
A stage's walk over the grid duties from where it starts assumes the
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
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import plant as plant_mod
from .optim import golden_section  # noqa: F401  unused: perfbench's tracer test rebinds mpc.golden_section
from .plant import Checked, Count, LoadModel, Mode, PlantParams, Seconds, Steps, Weight
from .valvemap import SpoolMap, eval_spool, invert_spool, spool_range

# The dynamic program's grid: pressures spanning [p_neg, p_pos], and spool
# fractions spanning each mode's spool_range.
GRID_PRESSURES = 200
GRID_FRACTIONS = 21
# The mode sets the backward pass stacks: one mode, or both in Mode order.
_MODE_SETS = ((Mode.DEFLATION,), (Mode.INFLATION,), (Mode.DEFLATION, Mode.INFLATION))
# The mode a switch from each mode takes.
_OTHER = (Mode.INFLATION, Mode.DEFLATION)


@dataclass(frozen=True)
class MpcConfig(Checked):
    horizon_steps: Steps = 10
    dt_pred: Seconds = 0.01            # prediction step
    w_e: Weight = 1.0e-6               # tracking weight, 1/Pa^2
    w_u: Weight = 1.0e-2               # effort weight on the spool fraction
    w_sw: Weight = 1.0                 # penalty per mode change within the horizon
    max_switches: Count = 1            # mode changes allowed within the horizon (MI-NMPC)


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
    _check_horizon(cfg.horizon_steps, u_seq, m_seq, ref_seq)

    def step(p: float, u: float, m: Mode) -> tuple[float, float]:
        x = eval_spool(u, maps[m])
        return plant_mod.step(p, x, m, cfg.dt_pred, params, load), x

    return _sum_cost(p0, u_seq, m_seq, ref_seq, cfg, step)


def _sum_cost(p0: float, u_seq: Sequence[float], m_seq: Sequence[Mode], ref_seq: Sequence[float],
              cfg: MpcConfig, step) -> float:
    """The cost of (u_seq, m_seq) from ``p0``, ``step(p, u, m)`` giving each stage's next pressure and spool fraction.

    The one sum of :func:`rollout_cost` and of :func:`_solve`'s ranking of its passes.
    """
    p, cost = p0, 0.0
    for u, m, r in zip(u_seq, m_seq, ref_seq):
        p, x = step(p, u, m)
        e = p - r
        cost += cfg.w_e * e * e + cfg.w_u * x * x
    return cost + cfg.w_sw * _switches(m_seq)


@dataclass(frozen=True)
class _Actions:
    """One mode's grid duties, their spool fractions and held steps."""

    duties: tuple[float, ...]              # ascending
    fractions: tuple[float, ...]           # the spool fraction of each duty
    steps: tuple[plant_mod.HeldStep, ...]  # the held step of each duty


@dataclass(frozen=True, eq=False)
class _Table:
    """The transition table: each mode's actions, and their held steps from every grid pressure.

    ``table[m]`` is mode ``m``'s :class:`_Actions`.  The arrays hold one copy
    of both modes' steps, pressure-major and stacked in ``Mode`` order:
    ``nxt[m, i, j]`` is the step of mode ``m``'s duty ``j`` from grid pressure
    ``i``; it lies in grid cell ``cell`` at ``frac`` of its width
    (:func:`_cells`), so a value ``v`` on the grid interpolates there to
    ``v[cell] * (1 - frac) + v[cell + 1] * frac``, as :func:`_interp` does at
    one pressure.  ``fractions[m, j]`` is the duty's spool fraction.  A mode
    with fewer duties than the other fills the last columns with its top
    duty's (:func:`_stack`).

    For the backward pass, ``at`` is a step's two reads, ``cell + m *
    GRID_PRESSURES`` and one more, flat over ``(mode, grid pressure)``, with
    weights ``(1 - frac, frac)``; ``reach[modes]`` is the least ``cell`` and
    greatest ``cell + 1`` by grid pressure.
    """

    actions: tuple[_Actions, _Actions]
    nxt: np.ndarray        # (mode, grid pressure, duty)
    fractions: np.ndarray  # (mode, duty)
    at: np.ndarray         # (read, mode, grid pressure, duty)
    weight: np.ndarray     # (read, mode, grid pressure, duty)
    reach: dict            # mode set -> (least cell, greatest cell + 1), each by grid pressure

    def __getitem__(self, m: Mode) -> _Actions:
        return self.actions[m]


def _grid(params: PlantParams) -> tuple[float, float]:
    """The pressure grid's lowest pressure and inverse spacing."""
    return params.p_neg, (GRID_PRESSURES - 1) / (params.p_pos - params.p_neg)


def _cells(p: np.ndarray, p_neg: float, inv_h: float) -> tuple[np.ndarray, np.ndarray]:
    """The grid cell of each pressure in [p_neg, p_pos], and its place in it: :func:`_interp`'s split."""
    pos = (p - p_neg) * inv_h
    cell = np.minimum(pos.astype(np.intp), GRID_PRESSURES - 2)
    return cell, pos - cell


def _cell(p: float, p_neg: float, inv_h: float) -> tuple[int, float]:
    """The grid cell the forward pass ranks ``p`` in, and its place in it: a start past a rail at that rail."""
    pos = min(max((p - p_neg) * inv_h, 0.0), GRID_PRESSURES - 1.0)
    i = min(int(pos), GRID_PRESSURES - 2)
    return i, pos - i


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
def _table(params: PlantParams, load: Optional[LoadModel], maps: tuple[SpoolMap, SpoolMap], dt: float) -> _Table:
    """The transition table of one channel, load, maps and step.

    A mode's duties are the lowest to reach each of ``GRID_FRACTIONS`` spool
    fractions spread evenly over its :func:`spool_range`
    (:func:`invert_spool`), and its map's top duty.
    """
    hold = plant_mod.rk4_hold(params, load)
    grid = np.linspace(params.p_neg, params.p_pos, GRID_PRESSURES).tolist()
    modes = []
    for m in Mode:
        spool_map = maps[m]
        fractions = np.linspace(*spool_range(spool_map), GRID_FRACTIONS).tolist()
        duties = sorted({invert_spool(x, spool_map) for x in fractions} | {spool_map.u_max})
        fractions = [eval_spool(u, spool_map) for u in duties]
        steps = [hold(x, m == Mode.INFLATION) for x in fractions]
        modes.append((duties, fractions, steps, [[step(p, dt) for p in grid] for step in steps]))
    return _stack(modes, params)


def _stack(modes: Sequence[tuple], params: PlantParams) -> _Table:
    """The table of each mode's ``(duties, fractions, steps, nxt)``, in ``Mode`` order, ``nxt[j][i]`` the step of duty ``j`` from grid pressure ``i``.

    The sorted set of a mode's duties can come out shorter than the other's.
    The stacked arrays then repeat its top duty's column up to the other's
    width, and that changes no result.  A forward pass walks only the mode's
    own ``len(steps)`` duties, so it never steps a padded duty.  A padded
    column's costs equal the top duty's, so it leaves every minimum over the
    duties unchanged, and, as ``argmin`` returns the first of equal entries,
    a ranking never starts at it, and it widens no reach.
    """
    width = max(len(duties) for duties, *_ in modes)

    def pad(row: Sequence) -> list:
        return list(row) + [row[-1]] * (width - len(row))

    nxt = np.ascontiguousarray(np.array([pad(rows) for *_, rows in modes]).transpose(0, 2, 1))
    cell, frac = _cells(nxt, *_grid(params))
    # Equivalent mutant: + -> -, as take wraps a negative index round the value row, two modes long.
    at = cell + (np.arange(len(modes)) * GRID_PRESSURES)[:, None, None]
    weight = np.stack((1.0 - frac, frac))
    reach = {ms: (cell[list(ms)].min(axis=(0, 2)).tolist(), (cell[list(ms)].max(axis=(0, 2)) + 1).tolist())
             for ms in _MODE_SETS}
    actions = tuple(_Actions(tuple(duties), tuple(fractions), tuple(steps)) for duties, fractions, steps, _ in modes)
    return _Table(actions, nxt, np.array([pad(fractions) for _, fractions, *_ in modes]),
                  np.stack((at, at + 1)), weight, reach)


# The least cost to go by stage k = 0..N (0 after the horizon): an array
# (switches left, mode of step k - 1, grid pressure of stage k's band).
Values = list[np.ndarray]
# The cost of each grid duty by stage k = 0..N - 1: an array (switches left
# after it, its mode, grid pressure of stage k's band, grid duty).
Costs = list[np.ndarray]
# The grid pressures each stage k = 0..N costs and its values span.
Bands = list[slice]

_FULL = slice(0, GRID_PRESSURES)


def _bands(table: _Table, p0: float, params: PlantParams, n: int, modes: tuple[Mode, ...]) -> Bands:
    """The grid pressures the forward pass from the exact start can read, by stage.

    Stage 0's band is the two grid pressures of the cell the forward pass
    ranks ``p0`` in (:func:`_cell`), and stage k + 1's the hull of the cells,
    with their right ends, that the table's steps of every duty of ``modes``
    from stage k's band land in (``table.reach``).  So an in-band cost reads
    only in-band values, and a held step that does not fall along the
    pressure reads in band; where a table breaks that, the read is caught
    (:class:`_OutOfBand`) and the solve reruns on the full grid.
    """
    low, high = table.reach[modes]
    i, _ = _cell(p0, *_grid(params))
    bands = [slice(i, i + 2)]
    for _ in range(n):
        band = bands[-1]
        bands.append(slice(min(low[band]), max(high[band]) + 1))
    return bands


def _mode_rows(values: Values) -> tuple[int, int]:
    """Each mode's row in a backward pass's stage arrays, by ``Mode``: its own over both modes, the one row over one."""
    return (0, 0) if values[-1].shape[1] == 1 else (0, 1)   # equivalent mutant: -2, as every stage has these rows


def _values(
    table: _Table, ref_seq: Sequence[float], cfg: MpcConfig, modes: tuple[Mode, ...], layers: int, bands: Bands,
) -> tuple[Values, Costs]:
    """The backward pass: the value of every grid pressure of each stage's band, mode of the last step and switches left.

    A grid duty's cost from a grid pressure is the tracking and effort terms
    of its tabled step plus the next stage's value there, interpolated in
    the step's pressure cell; the costs are kept for the forward pass.  With
    a switch left, the value is the least of staying in the mode and, at
    ``w_sw`` more, taking the other with one switch fewer.  The layer of no
    switch left reads no other mode, so it is its mode's value and costs
    alone, bit for bit, whatever ``modes`` and ``layers`` are.

    ``modes`` is one mode, or both in ``Mode`` order, and a layer with a
    switch left needs both; anything else raises ValueError.  Each stage is
    one numpy pass over the table's stacked rows of ``modes``: one gather
    of both reads of every step (``table.at``) from a grid of the next
    stage's values, ``(layer, mode, grid pressure)`` seen as a row per layer.
    Each cost entry is ``(v0 * w0 + v1 * w1) + stage``, with the stage cost
    ``w_e * e * e + effort`` formed in place in that order, as a pass per
    mode forms it; a mode's padded columns (:func:`_stack`) cost what its top
    duty costs.  ``values[k]`` and ``costs[k]`` are each stage's arrays
    whole, ``(layer, mode, band)`` and ``(layer, mode, band, duty)``, over
    ``modes`` in ``Mode`` order, never views of the grid; a forward pass
    reads a mode at its row (:func:`_mode_rows`).

    Stage k costs and writes only the grid pressures of ``bands[k]``
    (:func:`_bands`).  By the band rule it reads only cells of ``bands[k +
    1]``, which stage k + 1 wrote; grid entries outside a band may be stale,
    but nothing reads them, and on the full grid every stage writes every
    entry.  So each entry is the full grid's bit for bit.
    """
    if modes not in _MODE_SETS:
        raise ValueError(f"modes must be one mode or both in Mode order, got {modes!r}")
    if layers > 1 and len(modes) == 1:
        raise ValueError(f"{layers} layers need both modes: a switch takes the other mode")
    n, rows = cfg.horizon_steps, slice(modes[0], modes[-1] + 1)   # the table's stacked rows of modes
    effort = (cfg.w_u * table.fractions[rows] ** 2)[:, None]        # (mode, 1, duty)
    grid = np.zeros((layers, len(Mode), GRID_PRESSURES))            # (layer, mode, grid pressure)
    v = grid.reshape(layers, -1)   # equivalent mutant: -2, as numpy infers any negative size
    last = bands[n]
    values: Values = [None] * n + [np.zeros((layers, len(modes), last.stop - last.start))]
    costs: Costs = [None] * n
    for k in range(n - 1, -1, -1):
        band = bands[k]
        e = table.nxt[rows, band] - ref_seq[k]
        stage = e * cfg.w_e
        stage *= e
        stage += effort
        ends = v.take(table.at[:, rows, band], axis=1)   # (layer, read, mode, grid pressure, duty)
        ends *= table.weight[:, rows, band]
        cost = np.add(ends[:, 0], ends[:, 1])
        cost += stage
        best = cost.min(axis=3)
        if layers > 1:   # equivalent mutant: >=, as best[1:] is empty at one layer
            best[1:] = np.minimum(best[1:], best[:-1, ::-1] + cfg.w_sw)
        grid[:, rows, band] = values[k] = best
        costs[k] = cost
    return values, costs


def _forward(
    p0: float,
    ref_seq: Sequence[float],
    cfg: MpcConfig,
    params: PlantParams,
    table: _Table,
    values: Values,
    costs: Costs,
    modes: tuple[Mode, ...],
    left: int,
    bands: Bands,
    held: Optional[dict] = None,
) -> tuple[list[float], list[Mode]]:
    """The forward pass from ``p0``: at each stage the least exact stage cost plus interpolated value.

    Stage 0 may take any of ``modes``, with ``left`` switches left; a later
    stage keeps the last step's mode or, at ``w_sw`` while a switch is left,
    takes the other.  Each stage ranks each option's grid duties by their
    backward-pass costs, interpolated at the exact pressure (:func:`_cell`)
    between two cost rows, and steps the best, then leftward from it while
    the exact cost falls, then rightward.  The stage keeps the first
    stepped grid duty of least stage cost plus next value, and the pressure
    walks on by its held step, so it is the rollout's.

    ``held`` maps (mode, duty index, pressure) to the duty's held step from
    that pressure; a solve passes one dict to all its forward passes, which
    so never take one step twice.

    ``costs`` and ``values`` are :func:`_values`'s stage arrays, read at a
    mode's row (:func:`_mode_rows`), and span each stage's band (:func:`_bands`).
    A held step that does not fall along the pressure reads inside the next band;
    where a table breaks that, the read raises :class:`_OutOfBand`
    (:func:`_interp`).  The ranking's row lies in the band: at stage 0 the
    band is the start's cell, and later the pressure is the held step of a
    duty whose read at the stage before passed that test, in the same cells.
    """
    dt, w_e, w_u, w_sw = cfg.dt_pred, cfg.w_e, cfg.w_u, cfg.w_sw
    p_neg, inv_h = _grid(params)
    held = {} if held is None else held
    mode_row = _mode_rows(values)
    p, u_seq, m_seq = p0, [], []
    for k, r in enumerate(ref_seq):
        lo = bands[k + 1].start   # the grid pressure stage k + 1's values start at
        if k == 0:
            options = [(m, left, 0.0) for m in modes]
        else:
            options = [(m_seq[-1], left, 0.0)]
            if left > 0:
                options.append((_OTHER[m_seq[-1]], left - 1, w_sw))
        i, f = _cell(p, p_neg, inv_h)
        row = i - bands[k].start   # p's row in stage k's costs, which span its band
        best = math.inf
        for m, after, sw in options:
            a, v, c = table[m], values[k + 1][after, mode_row[m]].tolist(), costs[k][after, mode_row[m]]
            jq = int((c[row] * (1.0 - f) + c[row + 1] * f).argmin())
            start = math.inf
            for j, d in ((jq, -1), (jq + 1, 1)):   # jq and leftward, then rightward, while the exact cost falls
                last = start
                while 0 <= j < len(a.steps):
                    q = held.get((m, j, p))
                    if q is None:
                        q = held[m, j, p] = a.steps[j](p, dt)
                    x, e = a.fractions[j], q - r
                    cost = w_e * e * e + w_u * x * x + sw + _interp(v, lo, q, p_neg, inv_h)
                    if cost < best:
                        best, pick = cost, (j, q, m, after)
                    if not cost < last:
                        break
                    if j == jq:
                        start = cost
                    j, last = j + d, cost
        j, p, m, left = pick
        u_seq.append(table[m].duties[j])
        m_seq.append(m)
    return u_seq, m_seq


def _memo_step(table: _Table, held: dict, p: float, u: float, m: Mode) -> tuple[float, float]:
    """A :func:`_sum_cost` step: the held step of ``u`` from ``p`` that a forward pass took, from its memo ``held``."""
    j = table[m].duties.index(u)
    return held[m, j, p], table[m].fractions[j]


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

    The backward pass costs only the bands (:func:`_bands`); if a forward
    pass reads outside them (:class:`_OutOfBand`), the whole solve reruns
    with every band the whole grid.  Two or three passes are ranked by
    their costs summed from the held steps they took (:func:`_memo_step`),
    a lone pass not at all; only the pass returned is rolled out, for its
    ``cost``.
    """
    if not math.isfinite(p0):
        raise ValueError(f"p0 must be finite, got {p0!r}")
    _check_refs(ref_seq)
    _check_horizon(cfg.horizon_steps, ref_seq)
    table = _table(params, load, tuple(maps), cfg.dt_pred)
    held: dict = {}   # the held steps the solve's forward passes take, by (mode, duty index, pressure)

    def run(bands: Bands) -> list[tuple[list[float], list[Mode]]]:
        backward = _values(table, ref_seq, cfg, modes, switches + 1, bands)
        passes = [_forward(p0, ref_seq, cfg, params, table, *backward, modes, switches, bands, held)]
        if len(modes) > 1:   # equivalent mutant: >=, as NMPC's extra pass is its own mode's, filtered out
            # With no switch left the switching pass is the constant-mode pass of the mode it took.
            passes += [_forward(p0, ref_seq, cfg, params, table, *backward, (m,), 0, bands, held)
                       for m in modes if switches or m != passes[0][1][0]]
        return passes

    try:
        passes = run(_bands(table, p0, params, cfg.horizon_steps, modes))
    except _OutOfBand:
        passes = run([_FULL] * (cfg.horizon_steps + 1))   # equivalent mutant: + 2, as no pass reads a band past stage N
    step = functools.partial(_memo_step, table, held)
    u, m_seq = passes[0] if len(passes) == 1 else min(
        passes, key=lambda s: (_sum_cost(p0, *s, ref_seq, cfg, step), _switches(s[1]), s[0][0]))
    cost = rollout_cost(p0, u, m_seq, ref_seq, cfg, params, maps, load)
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
