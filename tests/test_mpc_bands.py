"""The MPC backward pass costs only the pressure band the forward pass can read, and no solution depends on it.

``mpc._bands`` gives each stage's band of grid pressures from the start's
held steps and the transition table; ``mpc._values`` costs only those and
keeps each stage's values on its band, and a forward pass that reads outside
them (``mpc._interp``'s index test) reruns the solve on the full grid.  Every
solution, with bands or with every band the whole grid, is the full grid's
bit for bit: duties, modes, cost and forward passes.
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


def _solve(solver, p0, refs, cfg, load, mode=Mode.INFLATION):
    if solver == "nmpc":
        return nmpc_solve(p0, refs, mode, cfg, PARAMS, MAPS, load)
    return minmpc_solve(p0, refs, cfg, PARAMS, MAPS, load)


def _on_full_grid(call):
    """``call()`` with every backward pass over the full grid."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mpc_mod, "_bands", lambda table, first, params, n, modes: [mpc_mod._FULL] * (n + 1))
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
    """A start and a reference window of 1..10 steps anywhere on the rails, and a solve's settings."""
    n = draw(st.integers(1, 10))
    cfg = replace(default_mpc_config(), horizon_steps=n, max_switches=draw(st.integers(0, 2)),
                  dt_pred=draw(st.sampled_from([0.01, 0.02, 0.05])))
    return draw(PRESSURE), draw(st.lists(PRESSURE, min_size=n, max_size=n)), cfg


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


def test_a_band_is_the_reach_of_the_one_before_it_widened_by_a_cell():
    cfg = default_mpc_config()
    table = mpc_mod._table(PARAMS, default_load(), MAPS, cfg.dt_pred)
    p0, modes = PARAMS.p_atm - 3.0e4, (Mode.DEFLATION, Mode.INFLATION)
    first = {m: [step(p0, cfg.dt_pred) for step in table[m].steps] for m in modes}
    bands = mpc_mod._bands(table, first, PARAMS, cfg.horizon_steps, modes)
    # One band per stage 0..N: stage 0, off the grid, spans the whole grid; stage N, after the
    # horizon, is the reach of stage N - 1 like every other.
    assert len(bands) == cfg.horizon_steps + 1 and bands[0] == mpc_mod._FULL
    cells, _ = mpc_mod._cells(np.array(first[Mode.DEFLATION] + first[Mode.INFLATION]), *mpc_mod._grid(PARAMS))
    assert (bands[1].start, bands[1].stop) == (cells.min() - 1, cells.max() + 3)
    inner = bands[1:]
    for band, nxt in zip(inner, inner[1:]):
        reach = [(table[m].cell[:, band].min(), table[m].cell[:, band].max() + 1) for m in modes]
        assert (nxt.start, nxt.stop) == (min(lo for lo, _ in reach) - 1, max(hi for _, hi in reach) + 2)
    # Each band holds the one before it, and all of them lie well inside the grid.
    assert all(a.start >= b.start and a.stop <= b.stop for a, b in zip(inner, inner[1:]))
    assert inner[-1].stop - inner[-1].start < mpc_mod.GRID_PRESSURES // 2


ATM = PARAMS.p_atm
N = default_mpc_config().horizon_steps
# From 30 kPa below atmosphere toward 150 kPa above it, the first step's best duty
# is the top inflation duty, whose step lands highest.
LOW_START, HIGH_REFS = ATM - 3.0e4, [ATM + 1.5e5] * N


def test_the_values_after_the_horizon_are_zero_rows_of_stage_n_band():
    cfg, modes = default_mpc_config(), (Mode.DEFLATION, Mode.INFLATION)
    table = mpc_mod._table(PARAMS, default_load(), MAPS, cfg.dt_pred)
    first = {m: [step(LOW_START, cfg.dt_pred) for step in table[m].steps] for m in modes}
    bands = mpc_mod._bands(table, first, PARAMS, N, modes)
    values, _ = mpc_mod._values(table, HIGH_REFS, cfg, modes, 2, bands)
    width = bands[N].stop - bands[N].start
    assert width < mpc_mod.GRID_PRESSURES
    for m in modes:
        assert values[N][m].shape == (2, width) and not values[N][m].any()


def _missing_bands(miss):
    """A band builder whose bands miss the forward path: all far below it, or stage 1's without its top cells.

    Far below it, the bands are the reach of the steps from ``p_neg``, the
    grid's first pressure: a chain the backward pass can read, as each band
    holds the reach of the one before it.  Without its top cells, stage 1's
    band misses only the best first steps.  Only the index test on value
    reads catches that: a pass that skipped the costs outside the band would
    take a lower first duty and stay in band after it.
    """
    bands = mpc_mod._bands

    def missing(table, first, params, n, modes):
        if miss == "far":
            return bands(table, {m: table[m].nxt[:, 0].tolist() for m in modes}, params, n, modes)
        out = bands(table, first, params, n, modes)
        out[1] = slice(out[1].start, out[1].stop - 3)
        return out

    return missing


@pytest.mark.parametrize("miss", ["far", "top-of-stage-1"])
@pytest.mark.parametrize("solver", ["nmpc", "mi-nmpc"])
def test_a_read_outside_the_bands_reruns_the_solve_on_the_full_grid(miss, solver, monkeypatch):
    cfg, load = default_mpc_config(), default_load()
    full = _on_full_grid(lambda: _solve(solver, LOW_START, HIGH_REFS, cfg, load))
    monkeypatch.setattr(mpc_mod, "_bands", _missing_bands(miss))
    calls = _count_backward_passes(monkeypatch)
    assert _solve(solver, LOW_START, HIGH_REFS, cfg, load) == full
    assert calls[0] == 2


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
