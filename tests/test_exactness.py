"""The fused RK4 kernel is exact, and the dynamic-programming MPC solvers keep their exact promises.

The held step is compared bit for bit with four ``pressure_rate``
evaluations combined by the classic RK4 weights.  The MPC solvers promise
less than optimality, but some things exactly: the returned cost is the
public ``rollout_cost`` of the returned sequences; MI-NMPC's layers of no
switch left are NMPC's values bit for bit, so it returns NMPC's solution in
a mode whenever that is the best it has, and never costs more; the
backward pass over both modes at once gives each mode's values and costs bit
for bit; the transition table is shared only by solves of equal channel,
load, maps and step.
"""

import math
import pickle
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np

from mpc_reference import reference_values
from pneuctrl import mpc as mpc_mod
from pneuctrl.config import default_bellow_load, default_load, default_maps, default_mpc_config, default_plant
from pneuctrl.mpc import minmpc_solve, nmpc_solve, rollout_cost
from pneuctrl.optim import golden_section
from pneuctrl.plant import LoadModel, Mode, rk4_hold, step
from plant_reference import pressure_rate
from pneuctrl.valvemap import SpoolMap

PARAMS = default_plant()
MAPS = default_maps()
LOADS = {"fixed": default_load(), "bellow": default_bellow_load(), "none": None}


def reference_step(p, x_bar, m, dt, params, load):
    """Classic RK4 from four rate evaluations, clamped to the source rails."""
    k1 = pressure_rate(p, x_bar, m, params, load)
    k2 = pressure_rate(p + 0.5 * dt * k1, x_bar, m, params, load)
    k3 = pressure_rate(p + 0.5 * dt * k2, x_bar, m, params, load)
    k4 = pressure_rate(p + dt * k3, x_bar, m, params, load)
    p_new = p + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return min(max(p_new, params.p_neg), params.p_pos)


N = default_mpc_config().horizon_steps
INFL, DEFL = Mode.INFLATION, Mode.DEFLATION
# Start below atmosphere and track a ramp that crosses it.
P0 = PARAMS.p_atm - 3.0e4
REFS = [PARAMS.p_atm - 2.0e4 + 8.0e3 * k for k in range(N)]


LOAD_CHOICES = [None, default_load(), default_bellow_load(),
                LoadModel.affine_bellow(v0=1.25e-5, k_v=8.93e-11, v_min=1.0e-6, v_max=2.5e-5)]


@settings(max_examples=300, deadline=None)
@given(
    p=st.floats(PARAMS.p_neg, PARAMS.p_pos),
    x_bar=st.floats(0.0, 1.0),
    m=st.sampled_from([INFL, DEFL]),
    dt=st.floats(1e-5, 0.5),
    load=st.sampled_from(LOAD_CHOICES),
)
def test_step_is_four_rate_rk4_and_stays_on_the_rails(p, x_bar, m, dt, load):
    out = step(p, x_bar, m, dt, PARAMS, load)
    assert PARAMS.p_neg <= out <= PARAMS.p_pos
    assert out.hex() == reference_step(p, x_bar, m, dt, PARAMS, load).hex()


def test_kernel_is_cached_per_params_and_load_value():
    assert rk4_hold(PARAMS, LoadModel.fixed(2.0e-5)) is rk4_hold(PARAMS, LoadModel.fixed(2.0e-5))
    assert rk4_hold(PARAMS, None) is not rk4_hold(PARAMS, default_bellow_load())
    assert rk4_hold(default_plant(), None) is not rk4_hold(PARAMS, None)


def test_params_with_built_kernels_still_pickle():
    rk4_hold(PARAMS, default_bellow_load())
    copy = pickle.loads(pickle.dumps(PARAMS))
    assert copy == PARAMS
    p = PARAMS.p_atm + 3e4
    args = (0.5, Mode.INFLATION, 1e-3)
    assert step(p, *args, copy, default_bellow_load()) == step(p, *args, PARAMS, default_bellow_load())


@pytest.mark.parametrize(
    "p, x_bar, dt, error",
    [
        (math.nan, 0.5, 1e-3, ValueError),          # non-finite pressure
        (PARAMS.p_atm, 1.5, 1e-3, ValueError),      # spool fraction outside [0, 1]
        (PARAMS.p_atm, 0.5, -1e-3, ValueError),     # non-positive step
        (PARAMS.p_atm + 3e4, 0.5, 1e308, ValueError),      # step past the declared 1e7 s
    ],
)
def test_step_keeps_its_checks(p, x_bar, dt, error):
    for load in (None, default_bellow_load()):
        with pytest.raises(error):
            step(p, x_bar, Mode.INFLATION, dt, PARAMS, load)


@settings(max_examples=200, deadline=None)
@given(
    lo=st.floats(-1e3, 1e3),
    width=st.floats(1e-3, 1e3),
    centre=st.floats(-0.5, 1.5),
    ripple=st.floats(0.0, 10.0),
    tol=st.floats(1e-6, 1.0),
)
def test_golden_section_argmin_in_bracket_and_value_is_f_of_it(lo, width, centre, ripple, tol):
    hi = lo + width

    def f(v):
        z = (v - lo) / width - centre
        return z * z + ripple * math.sin(7.0 * z)

    x, fx, evals = golden_section(f, lo, hi, tol=tol)
    assert lo <= x <= hi
    assert fx == f(x)
    assert 2 <= evals <= 200




# With one cubic for both modes the same duty gives the same spool fraction in
# either mode, so a table keyed without the mode would mix them up.
MI_MAPS = {
    "per-mode": MAPS,
    "one-cubic": (SpoolMap(a=MAPS[INFL].a, mode=DEFL), SpoolMap(a=MAPS[INFL].a, mode=INFL)),
}


@pytest.mark.parametrize("maps_name", sorted(MI_MAPS))
@pytest.mark.parametrize("load_name", sorted(LOADS))
@pytest.mark.parametrize("max_switches", [0, 1, 2])
def test_cost_is_the_rollout_of_the_returned_sequences(maps_name, load_name, max_switches):
    cfg = replace(default_mpc_config(), max_switches=max_switches)
    maps, load = MI_MAPS[maps_name], LOADS[load_name]
    for sol in [minmpc_solve(P0, REFS, cfg, PARAMS, maps, load)] + [
        nmpc_solve(P0, REFS, m, cfg, PARAMS, maps, load) for m in Mode
    ]:
        assert sol.cost == rollout_cost(P0, sol.u_seq, sol.m_seq, REFS, cfg, PARAMS, maps, load)
        assert sol.switches <= max_switches
        assert all(maps[m].u_min <= u <= maps[m].u_max for u, m in zip(sol.u_seq, sol.m_seq))


ATM = PARAMS.p_atm
# Starts and reference windows on both sides of atmosphere and across it.
CROSSING_PROBLEMS = {
    "ramp-up": (P0, REFS),
    "above-to-below": (ATM + 2.0e4, [ATM - 2.0e4] * N),
    "deep-vacuum-up": (ATM - 6.0e4, [ATM + 1.0e4] * N),
    "step-down": (ATM + 8.0e4, [ATM + 5.0e4] * 5 + [ATM - 3.0e4] * (N - 5)),
    "sine": (ATM, [ATM + 3.0e4 * math.sin(0.6 * (k + 1)) for k in range(N)]),
    "near-atm": (ATM - 5.0e3, [ATM + 5.0e3 - 1.0e3 * k for k in range(N)]),
}


@pytest.mark.parametrize("problem", sorted(CROSSING_PROBLEMS))
@pytest.mark.parametrize("load_name", sorted(LOADS))
def test_minmpc_layers_of_no_switch_left_are_nmpc_values(problem, load_name):
    p0, refs = CROSSING_PROBLEMS[problem]
    cfg = replace(default_mpc_config(), max_switches=2)
    table = mpc_mod._table(PARAMS, LOADS[load_name], MAPS, cfg.dt_pred)
    both, both_costs = mpc_mod._values(table, refs, cfg, (DEFL, INFL), 3, _full(cfg))
    for m in Mode:
        alone, alone_costs = mpc_mod._values(table, refs, cfg, (m,), 1, _full(cfg))
        row, alone_row = mpc_mod._mode_rows(both)[m], mpc_mod._mode_rows(alone)[m]
        for k in range(N + 1):
            assert both[k][0, row].tobytes() == alone[k][0, alone_row].tobytes()
        # So are the costs the forward pass ranks each stage's duties by.
        for k in range(N):
            assert both_costs[k][0, row].tobytes() == alone_costs[k][0, alone_row].tobytes()
        # Layers with switches left can only be lower.
        assert all((both[k][1:, row] <= both[k][:1, row]).all() for k in range(N))


@pytest.mark.parametrize("problem", sorted(CROSSING_PROBLEMS))
@pytest.mark.parametrize("load_name", sorted(LOADS))
@pytest.mark.parametrize("max_switches", [0, 1, 2])
def test_minmpc_is_nmpc_or_below_it_in_both_modes(problem, load_name, max_switches):
    p0, refs = CROSSING_PROBLEMS[problem]
    cfg = replace(default_mpc_config(), max_switches=max_switches)
    args = (cfg, PARAMS, MAPS, LOADS[load_name])
    mi = minmpc_solve(p0, refs, *args)
    fixed = [nmpc_solve(p0, refs, m, *args) for m in Mode]
    assert all(mi.cost <= sol.cost for sol in fixed)
    if max_switches == 0:
        # The switching pass then keeps one mode: MI-NMPC is the better NMPC solution.
        best = min(fixed, key=lambda sol: (sol.cost, sol.u_seq[0]))
        assert (mi.u_seq, mi.m_seq, mi.cost) == (best.u_seq, best.m_seq, best.cost)


def _full(cfg):
    """Every stage's band the whole grid: the bands of a full-grid rerun."""
    return [mpc_mod._FULL] * (cfg.horizon_steps + 1)


def _three_passes(p0, refs, cfg, load):
    """The switching pass and both constant-mode passes with no switch, least (cost, switches, first duty) first."""
    table = mpc_mod._table(PARAMS, load, MAPS, cfg.dt_pred)
    values, costs = mpc_mod._values(table, refs, cfg, (DEFL, INFL), 1, _full(cfg))
    best = None
    for modes in [(DEFL, INFL), (DEFL,), (INFL,)]:
        u, m_seq = mpc_mod._forward(p0, refs, cfg, PARAMS, table, values, costs, modes, 0, _full(cfg))
        cost = rollout_cost(p0, u, m_seq, refs, cfg, PARAMS, MAPS, load)
        if best is None or (cost, u[0]) < best[0]:
            best = ((cost, u[0]), (tuple(u), tuple(m_seq), cost))
    return best[1]


@pytest.mark.parametrize("load_name", sorted(LOADS))
@pytest.mark.parametrize("cfg", [replace(default_mpc_config(), max_switches=0),
                                 replace(default_mpc_config(), horizon_steps=1)], ids=["no-switch", "one-step"])
def test_with_no_switch_minmpc_runs_the_two_constant_mode_passes(load_name, cfg):
    # With no switch to take, the switching pass is the constant-mode pass of the mode
    # it starts in, so MI-NMPC runs that and the other mode's pass only.  It returns
    # what all three passes gave, the first in order on a tie: at atmosphere both
    # modes cost 0 at the lowest duty.
    problems = list(CROSSING_PROBLEMS.values()) + [(ATM, [ATM] * N)]
    for p0, refs in problems:
        refs = refs[:cfg.horizon_steps]
        sol = minmpc_solve(p0, refs, cfg, PARAMS, MAPS, LOADS[load_name])
        assert sol.iterations == 2
        assert (sol.u_seq, sol.m_seq, sol.cost) == _three_passes(p0, refs, cfg, LOADS[load_name])


def test_with_no_switch_the_other_modes_pass_can_win():
    # Near atmosphere the switching pass can take the mode whose constant-mode pass
    # costs more: here it takes inflation, and deflation's pass costs less.
    cfg = replace(default_mpc_config(), max_switches=0, horizon_steps=7, dt_pred=0.05)
    p0 = 99508.28720362335
    refs = [101718.48930402241, 101805.14673188906, 100199.77049798986, 96961.4683790224,
            101841.02657459115, 101519.12691778412, 98175.23756905645]
    table = mpc_mod._table(PARAMS, default_load(), MAPS, cfg.dt_pred)
    switching = mpc_mod._forward(p0, refs, cfg, PARAMS, table,
                                 *mpc_mod._values(table, refs, cfg, (DEFL, INFL), 1, _full(cfg)), (DEFL, INFL), 0,
                                 _full(cfg))
    sol = minmpc_solve(p0, refs, cfg, PARAMS, MAPS, default_load())
    assert (sol.iterations, switching[1][0], sol.m_seq[0]) == (2, INFL, DEFL)
    assert (sol.u_seq, sol.m_seq, sol.cost) == _three_passes(p0, refs, cfg, default_load())


def test_the_table_is_shared_by_equal_channels_only():
    dt = default_mpc_config().dt_pred
    table = mpc_mod._table(PARAMS, default_load(), MAPS, dt)
    assert mpc_mod._table(default_plant(), LoadModel.fixed(default_load().v0), default_maps(), dt) is table
    assert mpc_mod._table(PARAMS, default_load(), MAPS, 2 * dt) is not table
    assert mpc_mod._table(PARAMS, None, MAPS, dt) is not table
    # One action per grid fraction and the top duty, whose step is the held step's.
    for m, actions in zip(Mode, table):
        assert len(actions.duties) == mpc_mod.GRID_FRACTIONS + 1
        assert actions.duties[0] == MAPS[m].u_min and actions.duties[-1] == MAPS[m].u_max
        assert table.nxt[m].shape == (mpc_mod.GRID_PRESSURES, len(actions.duties))
        x = float(actions.fractions[-1])
        assert table.nxt[m, 0, -1] == rk4_hold(PARAMS, default_load())(x, m == INFL)(PARAMS.p_neg, dt)


def _assert_values_are_the_reference(table, refs, cfg, modes, layers, bands):
    """``mpc._values`` equals one pass per mode (``mpc_reference.reference_values``) bit for bit, padding aside.

    A mode's padded duty columns cost what its top duty costs.
    """
    values, costs = mpc_mod._values(table, refs, cfg, modes, layers, bands)
    ref_values, ref_costs = reference_values(table, refs, cfg, modes, layers, bands)
    for m in modes:
        d, row = len(table[m].duties), mpc_mod._mode_rows(values)[m]
        for k in range(cfg.horizon_steps + 1):
            assert values[k][:, row].shape == ref_values[k][m].shape
            assert values[k][:, row].tobytes() == ref_values[k][m].tobytes()
        for k in range(cfg.horizon_steps):
            assert costs[k][:, row].shape == (layers, bands[k].stop - bands[k].start, table.nxt.shape[2])
            assert costs[k][:, row, :, :d].tobytes() == ref_costs[k][m].transpose(0, 2, 1).tobytes()
            assert (costs[k][:, row, :, d:] == costs[k][:, row, :, d - 1:d]).all()


MODE_SETS = [((DEFL,), 1), ((INFL,), 1), ((DEFL, INFL), 1), ((DEFL, INFL), 2), ((DEFL, INFL), 3)]


@settings(max_examples=80, deadline=None)
@given(
    p0=st.floats(PARAMS.p_neg, PARAMS.p_pos),
    refs=st.integers(1, N).flatmap(lambda n: st.lists(st.floats(PARAMS.p_neg, PARAMS.p_pos), min_size=n, max_size=n)),
    load_name=st.sampled_from(["fixed", "bellow"]),
    modes_layers=st.sampled_from(MODE_SETS),
    banded=st.booleans(),
    weights=st.tuples(*(st.sampled_from([0.0, -0.0]) | st.floats(lo, hi)
                        for lo, hi in [(1e-9, 1e-3), (1e-4, 10.0), (1e-3, 100.0)])),
)
def test_the_backward_pass_over_stacked_modes_is_a_pass_per_mode(p0, refs, load_name, modes_layers, banded, weights):
    # Horizon 1 is the last stage alone, whose next values are all zero; each weight may be 0 or -0.0.
    w_e, w_u, w_sw = weights
    cfg = replace(default_mpc_config(), horizon_steps=len(refs), w_e=w_e, w_u=w_u, w_sw=w_sw)
    (modes, layers), table = modes_layers, mpc_mod._table(PARAMS, LOADS[load_name], MAPS, cfg.dt_pred)
    bands = mpc_mod._bands(table, p0, PARAMS, len(refs), modes) if banded else _full(cfg)
    _assert_values_are_the_reference(table, refs, cfg, modes, layers, bands)


def test_a_mode_with_fewer_duties_is_padded_with_its_top_duty():
    # Inflation keeps only its 15 lowest duties, so its columns 15..21 repeat duty 14's.
    cfg = default_mpc_config()
    full = mpc_mod._table(PARAMS, default_load(), MAPS, cfg.dt_pred)
    rows = []
    for m in Mode:
        d = 15 if m == INFL else len(full[m].duties)
        rows.append((full[m].duties[:d], full[m].fractions[:d], full[m].steps[:d], full.nxt[m, :, :d].T.tolist()))
    table = mpc_mod._stack(rows, PARAMS)
    assert table.nxt.shape == (2, mpc_mod.GRID_PRESSURES, len(full[DEFL].duties))
    assert len(table[INFL].duties) == len(table[INFL].steps) == 15
    assert (table.nxt[INFL, :, 15:] == table.nxt[INFL, :, 14:15]).all()
    assert (table.fractions[INFL, 15:] == table.fractions[INFL, 14]).all()
    assert table.nxt[DEFL].tobytes() == full.nxt[DEFL].tobytes()
    for p0, refs in CROSSING_PROBLEMS.values():
        for modes, layers in MODE_SETS:
            for bands in (mpc_mod._bands(table, p0, PARAMS, N, modes), _full(cfg)):
                _assert_values_are_the_reference(table, refs, cfg, modes, layers, bands)
        # No forward pass steps or keeps a padded duty.
        bands = mpc_mod._bands(table, p0, PARAMS, N, (DEFL, INFL))
        backward = mpc_mod._values(table, refs, cfg, (DEFL, INFL), 2, bands)
        for modes, left in [((DEFL, INFL), 1), ((INFL,), 0)]:
            u, m_seq = mpc_mod._forward(p0, refs, cfg, PARAMS, table, *backward, modes, left, bands)
            assert all(x in table[m].duties for x, m in zip(u, m_seq))


@pytest.mark.parametrize("modes, layers", [
    ((INFL, DEFL), 1), ((DEFL, DEFL), 2), ((), 1), ((INFL,), 2), ((DEFL,), 3),
])
def test_the_backward_pass_rejects_modes_it_cannot_stack(modes, layers):
    # Modes out of Mode order, or a layer with a switch left in one mode, which has no other mode to switch to.
    cfg = default_mpc_config()
    table = mpc_mod._table(PARAMS, default_load(), MAPS, cfg.dt_pred)
    with pytest.raises(ValueError, match="modes"):
        mpc_mod._values(table, REFS, cfg, modes, layers, _full(cfg))


def test_a_solve_reads_the_table_of_its_own_channel():
    # Same start and references, so both solves would read the same grid steps.
    c = PARAMS.conductances
    weaker = replace(PARAMS, conductances=replace(
        c, c_po=0.7 * c.c_po, c_on=0.7 * c.c_on, c_oa=0.7 * c.c_oa, c_ao=0.7 * c.c_ao))
    cfg = default_mpc_config()
    first = minmpc_solve(P0, REFS, cfg, PARAMS, MAPS, default_load())
    second = minmpc_solve(P0, REFS, cfg, weaker, MAPS, default_load())
    mpc_mod._table.cache_clear()
    assert minmpc_solve(P0, REFS, cfg, weaker, MAPS, default_load()) == second
    assert minmpc_solve(P0, REFS, cfg, PARAMS, MAPS, default_load()) == first
    assert second.cost != first.cost


def test_equal_keys_go_to_the_first_pass():
    # Every pass stays at atmosphere with the valve shut: cost 0, no switch, the
    # lowest duty.  The switching pass runs first and wins, in the mode whose
    # interpolated value is lower at atmosphere, on the grid or not.
    cfg, load = default_mpc_config(), default_load()
    refs = [PARAMS.p_atm] * N
    sol = minmpc_solve(PARAMS.p_atm, refs, cfg, PARAMS, MAPS, load)
    assert (sol.cost, sol.switches, sol.u_seq) == (0.0, 0, (MAPS[DEFL].u_min,) * N)
    table = mpc_mod._table(PARAMS, load, MAPS, cfg.dt_pred)
    values, costs = mpc_mod._values(table, refs, cfg, (DEFL, INFL), 2, _full(cfg))
    switching = mpc_mod._forward(
        PARAMS.p_atm, refs, cfg, PARAMS, table, values, costs, (DEFL, INFL), 1, _full(cfg))
    assert switching == (list(sol.u_seq), list(sol.m_seq))


@pytest.mark.parametrize("load_name", sorted(LOADS))
def test_every_duty_on_the_crossing_problems_is_a_grid_duty(load_name):
    # Each stage keeps one of its mode's grid duties, with a switch left or not.
    cfg, load = replace(default_mpc_config(), max_switches=2), LOADS[load_name]
    table = mpc_mod._table(PARAMS, load, MAPS, cfg.dt_pred)
    for p0, refs in CROSSING_PROBLEMS.values():
        solutions = [minmpc_solve(p0, refs, cfg, PARAMS, MAPS, load)]
        solutions += [nmpc_solve(p0, refs, m, cfg, PARAMS, MAPS, load) for m in Mode]
        for sol in solutions:
            assert all(u in table[m].duties for u, m in zip(sol.u_seq, sol.m_seq))
