"""The held RK4 step is exact: ``rk4_hold(params, load)(x_bar, inflation)(p, dt)``.

It is generated per variant (load kind, mode, branches taken) with the four
rate stages and ``shape_factor`` inlined, and it skips the branch whose
coefficient is zero; each held step is compared bit for bit with
``reference_step``, four public ``pressure_rate`` evaluations, which go
through ``plant.shape_factor``.
"""

import math
import pickle
from dataclasses import astuple, replace
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pneuctrl import plant as plant_mod
from pneuctrl.config import default_bellow_load, default_load
from pneuctrl.plant import Conductances, Mode, rk4_hold
from test_exactness import LOAD_CHOICES, PARAMS, reference_step

INFL, DEFL = Mode.INFLATION, Mode.DEFLATION
DTS = [1e-3, 1e-2, 1e-4, 0.25]


def _edges(params):
    """The rails, atmosphere, and each branch's choke boundary (shape-factor ratio = b) with its neighbours."""
    b = params.b
    chokes = [b * params.p_pos, params.p_neg / b, params.p_atm / b, b * params.p_atm]
    out = [params.p_neg, params.p_atm, params.p_pos]
    for p in chokes:
        out += [math.nextafter(p, -math.inf), p, math.nextafter(p, math.inf)]
    return [p for p in out if params.p_neg <= p <= params.p_pos]


def _with_edge_examples(test):
    for p, x_bar, m, load in product(_edges(PARAMS), [0.0, -0.0, 1.0], [INFL, DEFL], LOAD_CHOICES):
        test = example(params=PARAMS, p=p, x_bar=x_bar, m=m, load=load, dts=DTS)(test)
    return test


# Channels around the default: volume x0.25-x4, each conductance x0.5-x2, any valid b.
CHANNELS = st.builds(
    lambda volume, b, scales: replace(
        PARAMS, volume=PARAMS.volume * volume, b=b,
        conductances=Conductances(*(c * k for c, k in zip(astuple(PARAMS.conductances), scales))),
    ),
    st.floats(0.25, 4.0),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.tuples(*[st.floats(0.5, 2.0)] * 4),
)


@settings(max_examples=300, deadline=None)
@given(
    params=CHANNELS,
    p=st.floats(PARAMS.p_neg, PARAMS.p_pos),
    x_bar=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, -0.0, 1.0])),
    m=st.sampled_from([INFL, DEFL]),
    load=st.sampled_from(LOAD_CHOICES),
    dts=st.lists(st.floats(1e-5, 0.5), min_size=1, max_size=4),
)
@_with_edge_examples
def test_held_step_is_four_rate_rk4_for_every_dt(params, p, x_bar, m, load, dts):
    step = rk4_hold(params, load)(x_bar, m == INFL)
    for dt in dts:
        assert step(p, dt).hex() == reference_step(p, x_bar, m, dt, params, load).hex()


@pytest.mark.parametrize("load", [default_load(), default_bellow_load()], ids=["fixed", "bellow"])
@pytest.mark.parametrize("m", [INFL, DEFL], ids=["inflation", "deflation"])
@pytest.mark.parametrize(
    "x_bar, branches", [(0.0, "leak"), (-0.0, "leak"), (0.5, "main+leak"), (1.0, "main")],
    ids=["0", "-0", "0.5", "1"],
)
def test_each_variant_is_exact_at_the_rails_atmosphere_and_chokes(load, m, x_bar, branches):
    step = rk4_hold(PARAMS, load)(x_bar, m == INFL)
    kind = "fixed" if load.kind == "fixed" else "bellow"
    assert step.__code__.co_filename == f"<pneuctrl.plant held step: {kind}, {m.name.lower()}, {branches}>"
    for p, dt in product(_edges(PARAMS), DTS):
        assert step(p, dt).hex() == reference_step(p, x_bar, m, dt, PARAMS, load).hex()


def test_at_most_twelve_variants_are_compiled():
    for load, x_bar, inflation in product([None, default_bellow_load()], [0.0, 0.5, 1.0], [True, False]):
        rk4_hold(PARAMS, load)(x_bar, inflation)
    assert len(plant_mod._VARIANTS) == 12


def test_hold_is_cached_per_params_and_load_and_dropped_on_pickle():
    load = default_bellow_load()
    assert rk4_hold(PARAMS, load) is rk4_hold(PARAMS, default_bellow_load())
    assert rk4_hold(PARAMS, None) is not rk4_hold(PARAMS, load)
    copy = pickle.loads(pickle.dumps(PARAMS))
    assert copy._kernels == {}
    assert rk4_hold(copy, load)(0.5, True)(PARAMS.p_atm, 1e-3) == rk4_hold(PARAMS, load)(0.5, True)(PARAMS.p_atm, 1e-3)


@pytest.mark.parametrize("load", [None, default_bellow_load()], ids=["none", "bellow"])
@pytest.mark.parametrize("x_bar", [0.0, 0.5, 1.0])
def test_held_step_keeps_the_kernel_checks(load, x_bar):
    hold = rk4_hold(PARAMS, load)
    with pytest.raises(ValueError, match="spool fraction"):
        hold(x_bar + 1.5, True)
    step = hold(x_bar, True)
    with pytest.raises(ValueError, match="outlet pressure"):
        step(math.nan, 1e-3)
    with pytest.raises(ValueError, match="dt must be positive"):
        step(PARAMS.p_atm, -1e-3)
    with pytest.raises(ValueError, match="dt must be positive"):
        step(PARAMS.p_atm, 0.0)
    with pytest.raises(ArithmeticError):
        step(PARAMS.p_atm + 3e4, 1e308)


@pytest.mark.parametrize("load", [None, default_load(), default_bellow_load()], ids=["none", "fixed", "bellow"])
@pytest.mark.parametrize("x_bar", [0.0, -0.0], ids=["0", "-0"])
def test_closed_valve_step_does_not_depend_on_the_mode(load, x_bar):
    # The premise of the MPC solvers' one closed-valve step table for both modes.
    hold = rk4_hold(PARAMS, load)
    inflation, deflation = hold(x_bar, True), hold(x_bar, False)
    span = PARAMS.p_pos - PARAMS.p_neg
    # Both rails, atmosphere and the choke edges, and every 0.5 kPa between the rails.
    grid = _edges(PARAMS) + [PARAMS.p_neg + span * i / 580 for i in range(581)]
    for p, dt in product(grid, [1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 0.01, 0.015, 0.02]):
        assert inflation(p, dt).hex() == deflation(p, dt).hex()
