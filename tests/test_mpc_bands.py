"""The MPC backward pass costs only the pressure band the forward pass can read, and no solution depends on it.

``mpc._bands`` gives each stage's band of grid pressures: the start's cell at
stage 0, then exactly the transition table's reach from the band before;
``mpc._values`` costs only those and keeps each stage's values on its band,
and a forward pass that reads outside them (``mpc._interp``'s index test)
reruns the solve on the full grid.  Every solution, with bands or with every
band the whole grid, is the full grid's bit for bit: duties, modes, cost and
forward passes, from any start, also one past a rail.
"""

import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pneuctrl import mpc as mpc_mod
from pneuctrl.config import default_bellow_load, default_load, default_maps, default_mpc_config, default_plant
from pneuctrl.mpc import minmpc_solve, nmpc_solve
from pneuctrl.plant import Mode

sys.path.append(str(Path(__file__).resolve().parents[1]))   # the repository root, for the benchmark's problems
from perfbench import inputs  # noqa: E402

PARAMS, MAPS = default_plant(), default_maps()
LOADS = {"none": None, "fixed": default_load(), "bellow": default_bellow_load()}
PRESSURE = st.floats(PARAMS.p_neg, PARAMS.p_pos)
# Up to 20 kPa past either rail, where a measured pressure can lie.
START = st.floats(PARAMS.p_neg - 2.0e4, PARAMS.p_pos + 2.0e4)


def _solve(solver, p0, refs, cfg, load, mode=Mode.INFLATION):
    if solver == "nmpc":
        return nmpc_solve(p0, refs, mode, cfg, PARAMS, MAPS, load)
    return minmpc_solve(p0, refs, cfg, PARAMS, MAPS, load)


def _on_full_grid(call):
    """``call()`` with every backward pass over the full grid."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mpc_mod, "_bands", lambda table, p0, params, n, modes: [mpc_mod._FULL] * (n + 1))
        return call()


def _count_backward_passes(mp):
    """Wrap ``mpc._values`` to count its calls; the returned list holds the count."""
    calls, values = [0], mpc_mod._values

    def counted(*args, **kwargs):
        calls[0] += 1
        return values(*args, **kwargs)

    mp.setattr(mpc_mod, "_values", counted)
    return calls


@st.composite
def problems(draw):
    """A start up to 20 kPa past a rail, a reference window of 1..10 steps on the rails, and a solve's settings."""
    n = draw(st.integers(1, 10))
    cfg = replace(default_mpc_config(), horizon_steps=n, max_switches=draw(st.integers(0, 2)),
                  dt_pred=draw(st.sampled_from([0.01, 0.02, 0.05])))
    return draw(START), draw(st.lists(PRESSURE, min_size=n, max_size=n)), cfg


@settings(max_examples=120, deadline=None)
@given(problem=problems(), load=st.sampled_from(sorted(LOADS)), mode=st.sampled_from(list(Mode)))
def test_the_bands_change_no_solution(problem, load, mode):
    p0, refs, cfg = problem
    for solver in ("nmpc", "mi-nmpc"):
        banded = _solve(solver, p0, refs, cfg, LOADS[load], mode)
        assert banded == _on_full_grid(lambda: _solve(solver, p0, refs, cfg, LOADS[load], mode))


@pytest.fixture(scope="module")
def bench_problems():
    """The ``mpc-solve`` problems of the benchmark's seeds 1 and 2."""
    with tempfile.TemporaryDirectory() as work:
        return [prob for seed in (1, 2) for prob in inputs.make_plan("mpc-solve", seed, 28, Path(work)).problems]


@pytest.mark.parametrize("load_name", ["fixed", "bellow"])
def test_the_bands_change_no_solution_of_the_benchmark_and_miss_no_read(load_name, bench_problems, monkeypatch):
    cfg, load = default_mpc_config(), LOADS[load_name]
    solves = [(solver, prob.p0, list(prob.refs), mode) for prob in bench_problems
              for solver, mode in [("mi-nmpc", None), ("nmpc", Mode.DEFLATION), ("nmpc", Mode.INFLATION)]]
    full = _on_full_grid(lambda: [_solve(solver, p0, refs, cfg, load, mode) for solver, p0, refs, mode in solves])
    calls = _count_backward_passes(monkeypatch)
    banded = [_solve(solver, p0, refs, cfg, load, mode) for solver, p0, refs, mode in solves]
    assert len(banded) == 3 * 46
    assert banded == full
    assert calls[0] == len(solves)   # one backward pass each: no solve reran on the full grid


@pytest.mark.parametrize("p0", [PARAMS.p_neg - 2.0e4, PARAMS.p_neg, PARAMS.p_atm - 3.0e4, PARAMS.p_pos,
                                PARAMS.p_pos + 2.0e4],
                         ids=["past-low-rail", "low-rail", "mid", "high-rail", "past-high-rail"])
@pytest.mark.parametrize("modes", mpc_mod._MODE_SETS, ids=["deflation", "inflation", "both"])
def test_a_band_is_the_reach_of_the_one_before_it(modes, p0):
    cfg = default_mpc_config()
    table = mpc_mod._table(PARAMS, default_load(), MAPS, cfg.dt_pred)
    bands = mpc_mod._bands(table, p0, PARAMS, cfg.horizon_steps, modes)
    # One band per stage 0..N: stage 0 is the two grid pressures of the start's cell; stage
    # N, after the horizon, is the reach of stage N - 1 like every other.
    i, _ = mpc_mod._cell(p0, *mpc_mod._grid(PARAMS))
    assert len(bands) == cfg.horizon_steps + 1 and bands[0] == slice(i, i + 2)
    for band, nxt in zip(bands, bands[1:]):
        # A step's cell is its first read less its mode's offset in the flat value grid.
        cells = [table.at[0, m, band] - m * mpc_mod.GRID_PRESSURES for m in modes]
        reach = [(cell.min(), cell.max() + 1) for cell in cells]
        assert (nxt.start, nxt.stop) == (min(lo for lo, _ in reach), max(hi for _, hi in reach) + 1)
    # Each band holds the one before it, and all of them lie well inside the grid.
    assert all(a.start >= b.start and a.stop <= b.stop for a, b in zip(bands, bands[1:]))
    assert bands[-1].stop - bands[-1].start < mpc_mod.GRID_PRESSURES // 2


@pytest.mark.parametrize("dt_pred", [0.01, 0.02, 0.05])
@pytest.mark.parametrize("load_name", ["fixed", "bellow"])
def test_every_default_table_step_rises_along_the_grid(load_name, dt_pred):
    """Each mode's tabled held steps do not fall from one grid pressure to the next.

    That is all the band rule needs: a step that does not fall along the
    pressure maps a pressure between two grid pressures of a band between
    their steps, so into the next band, and a forward pass from an exact
    pressure reads in band.  A table that breaks it is covered by the
    full-grid rerun (``test_a_read_outside_the_bands_reruns_the_solve_on_the_full_grid``).
    Measured: the least rise per cell is 865 Pa at 0.01 s and 431 Pa at
    0.02 s, both on the bellow; at 0.05 s it is 0, where steps clamp at a
    rail.
    """
    table = mpc_mod._table(PARAMS, LOADS[load_name], MAPS, dt_pred)
    for m in Mode:
        steps = table.nxt[m, :, :len(table[m].duties)]   # (grid pressure, duty)
        assert (np.diff(steps, axis=0) >= 0.0).all()


ATM = PARAMS.p_atm
N = default_mpc_config().horizon_steps
# From 30 kPa below atmosphere toward 150 kPa above it, the first step's best duty
# is the top inflation duty, whose step lands highest.
LOW_START, HIGH_REFS = ATM - 3.0e4, [ATM + 1.5e5] * N


def test_the_values_after_the_horizon_are_zero_rows_of_stage_n_band():
    cfg, modes = default_mpc_config(), (Mode.DEFLATION, Mode.INFLATION)
    table = mpc_mod._table(PARAMS, default_load(), MAPS, cfg.dt_pred)
    bands = mpc_mod._bands(table, LOW_START, PARAMS, N, modes)
    values, _ = mpc_mod._values(table, HIGH_REFS, cfg, modes, 2, bands)
    width = bands[N].stop - bands[N].start
    assert width < mpc_mod.GRID_PRESSURES
    for m in modes:
        assert values[N][m].shape == (2, width) and not values[N][m].any()


def _missing_read(read):
    """``mpc._interp`` that raises :class:`mpc._OutOfBand` at its ``read``-th call, as a read outside a band does.

    The bands form a chain each of whose bands holds the reach of the one
    before it, so a held step monotone in the pressure never reads outside
    them: a miss is forced instead.  The returned list holds whether it was.
    """
    calls, raised, interp = [0], [False], mpc_mod._interp

    def missing(*args):
        calls[0] += 1
        if calls[0] == read + 1:
            raised[0] = True
            raise mpc_mod._OutOfBand
        return interp(*args)

    return missing, raised


@pytest.mark.parametrize("read", [0, 12], ids=["first-read", "later-read"])
@pytest.mark.parametrize("solver", ["nmpc", "mi-nmpc"])
def test_a_read_outside_the_bands_reruns_the_solve_on_the_full_grid(read, solver, monkeypatch):
    cfg, load = default_mpc_config(), default_load()
    full = _on_full_grid(lambda: _solve(solver, LOW_START, HIGH_REFS, cfg, load))
    missing, raised = _missing_read(read)
    monkeypatch.setattr(mpc_mod, "_interp", missing)
    calls = _count_backward_passes(monkeypatch)
    assert _solve(solver, LOW_START, HIGH_REFS, cfg, load) == full
    assert raised[0] and calls[0] == 2


P_NEG, INV_H = mpc_mod._grid(PARAMS)
# A value on every grid pressure, none of them equal.
GRID_VALUES = np.random.default_rng(0).uniform(0.0, 1.0e3, mpc_mod.GRID_PRESSURES).tolist()


def _in_cell(cell, f=0.5):
    """A pressure ``f`` of the way across grid cell ``cell``."""
    return P_NEG + (cell + f) / INV_H


@pytest.mark.parametrize("lo, hi", [(1, 3), (40, 81), (150, 199)])
def test_a_read_tests_its_cell_against_the_row_it_reads(lo, hi):
    row = GRID_VALUES[lo:hi]   # the values of grid pressures [lo, hi)
    for cell in range(lo, hi - 1):
        for f in (0.001, 0.5, 0.999):
            p = _in_cell(cell, f)
            assert mpc_mod._interp(row, lo, p, P_NEG, INV_H) == mpc_mod._interp(GRID_VALUES, 0, p, P_NEG, INV_H)
    # Left of the row a bare list index would wrap to its end; right of it, the
    # cell's right end is not in the row.
    for cell in (lo - 1, hi - 1):
        with pytest.raises(mpc_mod._OutOfBand):
            mpc_mod._interp(row, lo, _in_cell(cell), P_NEG, INV_H)


@settings(max_examples=300, deadline=None)
@given(p=PRESSURE)
@example(p=PARAMS.p_neg)
@example(p=PARAMS.p_pos)
@example(p=float(np.nextafter(PARAMS.p_pos, 0.0)))
def test_a_read_of_a_whole_grid_row_never_raises(p):
    # So a full-grid rerun cannot raise _OutOfBand: every pressure a held step
    # gives lies on the rails or between them.  The grid's own indices
    # interpolate to the pressure's place on the grid.
    place = mpc_mod._interp([float(i) for i in range(mpc_mod.GRID_PRESSURES)], 0, p, P_NEG, INV_H)
    assert place == pytest.approx((p - P_NEG) * INV_H, abs=1e-9)


@settings(max_examples=300, deadline=None)
@given(p=START)
@example(p=PARAMS.p_neg - 2.0e4)
@example(p=PARAMS.p_neg)
@example(p=float(np.nextafter(PARAMS.p_pos, 0.0)))
@example(p=PARAMS.p_pos)
@example(p=PARAMS.p_pos + 2.0e4)
def test_the_forward_pass_and_the_table_split_a_pressure_alike(p):
    # mpc._cell ranks a start, up to 20 kPa past a rail, at that rail; mpc._cells splits
    # the table's steps, which lie within the rails.  Each gives a cell whose right end is
    # a grid pressure and a place in it, and within the rails they agree.
    top = mpc_mod.GRID_PRESSURES - 2
    i, f = mpc_mod._cell(p, P_NEG, INV_H)
    assert 0 <= i <= top and -1e-9 <= f <= 1.0 + 1e-9
    if p < PARAMS.p_neg or p > PARAMS.p_pos:
        assert (i, f) == ((0, 0.0) if p < PARAMS.p_neg else (top, 1.0))
        return
    cell, place = mpc_mod._cells(np.array([p]), P_NEG, INV_H)
    assert 0 <= cell[0] <= top and -1e-9 <= place[0] <= 1.0 + 1e-9
    assert cell[0] == i and place[0] == pytest.approx(f, abs=1e-9)
