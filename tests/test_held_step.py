"""The held RK4 step is exact: ``rk4_hold(params, load)(x_bar, inflation)(p, dt)``.

It is generated per variant (load kind, mode, branches taken) with the four
rate stages and ``shape_factor`` inlined, and it skips the branch whose
coefficient is zero; each held step is compared bit for bit with
``reference_step``, four public ``pressure_rate`` evaluations, which go
through ``plant.shape_factor``.  One call of ``step(p, dt, n)`` must equal
``n`` single calls stopped at the first that returns its input, and one call
of the sample walk ``rk4_hold(params, load).walk(x_bar, inflation)`` must
equal a loop of single calls, one per sample gap, with the fit objectives'
sequential sum of squares and stop.
"""

import math
import pickle
from dataclasses import astuple, replace
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pneuctrl import plant as plant_mod
from pneuctrl.config import default_bellow_load, default_load
from pneuctrl.plant import Conductances, Mode, rk4_hold
from test_exactness import LOAD_CHOICES, PARAMS, reference_step

INFL, DEFL = Mode.INFLATION, Mode.DEFLATION
DTS = [1e-3, 1e-2, 1e-4, 0.25]


def _edges(params):
    """The rails, atmosphere, and each branch's choke boundary (shape-factor ratio = b), each with its neighbours."""
    b = params.b
    chokes = [b * params.p_pos, params.p_neg / b, params.p_atm / b, b * params.p_atm]
    out = []
    # Next to a rail or atmosphere a shape-factor ratio sits just below 1.
    for p in [params.p_neg, params.p_atm, params.p_pos] + chokes:
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


def single_steps(step, p, dt, n):
    """``n`` calls of ``step(p, dt)``, stopped at the first that returns its input: (p, steps taken)."""
    for taken in range(1, n + 1):
        p_new = step(p, dt)
        if p_new == p:
            break
        p = p_new
    return p_new, taken


def outcome(fn):
    """The bits of ``fn()``, or the type and message of its error."""
    try:
        return fn().hex()
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


# Examples where the stop fires mid-call: full supply into its rail, a closed valve at atmosphere.
STOPS = [(1.0, INFL, PARAMS.p_pos - 2000.0, 0.02, 60), (0.0, INFL, PARAMS.p_atm, 1e-3, 5),
         (0.0, DEFL, PARAMS.p_atm, 1e-3, 5), (-0.0, DEFL, PARAMS.p_atm, 0.5, 60)]


def _with_stop_examples(test):
    # Then the kernel's three errors: a NaN pressure, a zero dt, a dt past 1e7 s.
    errors = [(0.5, INFL, math.nan, 1e-3, 3), (0.5, INFL, PARAMS.p_atm, 0.0, 3), (1.0, INFL, PARAMS.p_atm + 3e4, 1e308, 3)]
    for (x_bar, m, p, dt, n), load in product(STOPS + errors, LOAD_CHOICES):
        test = example(params=PARAMS, p=p, x_bar=x_bar, m=m, load=load, dt=dt, n=n)(test)
    return test


@settings(max_examples=300, deadline=None)
@given(
    params=CHANNELS,
    # Up to 10 kPa outside the rails, as a noisy MPC start pressure can be.
    p=st.floats(PARAMS.p_neg - 1e4, PARAMS.p_pos + 1e4),
    x_bar=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, -0.0, 1.0])),
    m=st.sampled_from([INFL, DEFL]),
    load=st.sampled_from(LOAD_CHOICES),
    dt=st.floats(1e-5, 0.5),
    n=st.integers(1, 60),
)
@_with_stop_examples
def test_n_steps_in_one_call_are_n_single_steps_up_to_the_fixed_point(params, p, x_bar, m, load, dt, n):
    step = rk4_hold(params, load)(x_bar, m == INFL)
    assert outcome(lambda: step(p, dt, n)) == outcome(lambda: single_steps(step, p, dt, n)[0])


@pytest.mark.parametrize("load", LOAD_CHOICES, ids=["none", "fixed", "bellow", "bellow-half"])
@pytest.mark.parametrize("x_bar, m, p, dt, n", STOPS)
def test_the_stop_fires_mid_call_on_the_rail_and_at_atmosphere(load, x_bar, m, p, dt, n):
    step = rk4_hold(PARAMS, load)(x_bar, m == INFL)
    p_end, taken = single_steps(step, p, dt, n)
    assert taken < n and p_end in (PARAMS.p_pos, PARAMS.p_atm)
    assert step(p, dt, n).hex() == p_end.hex()


def test_zero_or_negative_n_takes_one_step():
    step = rk4_hold(PARAMS)(0.5, True)
    for n in (0, -3):
        assert step(PARAMS.p_atm, 1e-3, n).hex() == step(PARAMS.p_atm, 1e-3).hex()


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
    with pytest.raises(ValueError, match="dt must be positive"):
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


@settings(max_examples=500, deadline=None)
@given(
    x=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    y=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
@example(x=5e-324, y=math.nextafter(1.0, 0.0))
@example(x=math.nextafter(math.nextafter(1.0, 0.0), 0.0), y=math.nextafter(1.0, 0.0))
@example(x=0.5283, y=math.nextafter(1.0, 0.0))
def test_the_subsonic_ratio_never_exceeds_one(x, y):
    # Why the generated shape factor needs no ``arg <= 0.0`` test: for b < r < 1,
    # z <= 1, so 1 - z * z >= +0.0 and its square root is the guarded one.
    b, r = sorted((x, y))
    assume(b < r)
    z = (r - b) / (1.0 - b)
    assert z <= 1.0
    assert math.sqrt(1.0 - z * z).hex() == plant_mod.shape_factor(r, b).hex()


def looped_walk(step, p, times, meas, limit):
    """``step(p, dt)`` once per gap of ``times``, summing ``(p - meas) ** 2`` in sample order; stops past ``limit``."""
    out = [p]
    d = p - meas[0]
    sse = d * d
    for i in range(1, len(times)):
        p = step(p, times[i] - times[i - 1])
        out.append(p)
        d = p - meas[i]
        sse += d * d
        if sse > limit and sse < math.inf:
            break
    return out


def walk_outcome(fn):
    """The bits of each pressure ``fn()`` returns (their count is the stop index), or the error's type and message."""
    try:
        return [p.hex() for p in fn()]
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


# Each rail and atmosphere, and the floats next to them on both sides: one float step past a rail too.
RAIL_EDGES = [q for p in (PARAMS.p_neg, PARAMS.p_atm, PARAMS.p_pos)
              for q in (math.nextafter(p, -math.inf), p, math.nextafter(p, math.inf))]


@st.composite
def samples(draw):
    """Sample times from a start and 1 to 40 gaps of 1e-5 to 0.5 s, and one measured pressure per sample."""
    t0 = draw(st.sampled_from([0.0, 1.0, 2e9]))
    times = [t0]
    for gap in draw(st.lists(st.floats(1e-5, 0.5), min_size=1, max_size=40)):
        times.append(times[-1] + gap)
    meas = draw(st.lists(st.one_of(st.floats(PARAMS.p_neg, PARAMS.p_pos), st.sampled_from(RAIL_EDGES)),
                         min_size=len(times), max_size=len(times)))
    if draw(st.booleans()):
        # A NaN sample makes the sum NaN, and 1e200 makes it inf: neither stops the walk.
        meas[draw(st.integers(0, len(meas) - 1))] = draw(st.sampled_from([math.nan, 1e200]))
    return times, meas


def _with_walk_examples(test):
    # Every variant from the rails and atmosphere; then a zero gap, a NaN start and a dt past 1e7 s.
    ramp = ([0.01 * i for i in range(20)], [PARAMS.p_atm + 1e3 * i for i in range(20)])
    for load, x_bar, m, p in product([None, default_bellow_load()], [0.0, 0.5, 1.0], [INFL, DEFL], RAIL_EDGES):
        for limit in (0.0, 1e7, math.inf):
            test = example(params=PARAMS, p=p, x_bar=x_bar, m=m, load=load, samples=ramp, limit=limit)(test)
    errors = [(PARAMS.p_atm, ([0.0, 0.01, 0.01, 0.02], [PARAMS.p_atm] * 4)),
              (math.nan, ([0.0, 0.01, 0.02], [PARAMS.p_atm] * 3)),
              (PARAMS.p_atm + 3e4, ([0.0, 0.01, 1e308], [PARAMS.p_atm] * 3))]
    for (p, walk_samples), limit in product(errors, (0.0, math.inf)):
        test = example(params=PARAMS, p=p, x_bar=1.0, m=INFL, load=None, samples=walk_samples, limit=limit)(test)
    return test


@settings(max_examples=300, deadline=None)
@given(
    params=CHANNELS,
    p=st.one_of(st.floats(PARAMS.p_neg, PARAMS.p_pos), st.sampled_from(RAIL_EDGES)),
    x_bar=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, -0.0, 1.0])),
    m=st.sampled_from([INFL, DEFL]),
    load=st.sampled_from(LOAD_CHOICES),
    samples=samples(),
    limit=st.one_of(st.sampled_from([0.0, math.inf]), st.floats(0.0, 1e12)),
)
@_with_walk_examples
def test_the_sample_walk_is_single_steps_with_the_sequential_sum_and_stop(params, p, x_bar, m, load, samples, limit):
    times, meas = samples
    hold = rk4_hold(params, load)
    walk, step = hold.walk(x_bar, m == INFL), hold(x_bar, m == INFL)
    assert walk.__code__.co_filename == step.__code__.co_filename
    got = walk_outcome(lambda: walk(p, times, meas, limit))
    assert got == walk_outcome(lambda: looped_walk(step, p, times, meas, limit))
    bad_at = next((i for i, v in enumerate(meas) if math.isnan(v) or v == 1e200), None)
    if bad_at is not None and isinstance(got, list):
        # From that sample on, the sum is NaN or inf, and such a sum never stops the walk.
        assert len(got) <= bad_at or len(got) == len(times)


def test_the_sample_walk_checks_the_spool_fraction():
    with pytest.raises(ValueError, match="spool fraction"):
        rk4_hold(PARAMS).walk(1.5, True)


@pytest.mark.parametrize("load", [None, default_bellow_load()], ids=["fixed", "bellow"])
def test_the_held_step_and_walk_take_their_domain_edges_and_refuse_what_lies_past(load):
    # An infinite pressure is refused, a step of exactly 1e7 s taken; so for the sample walk.
    hold = rk4_hold(PARAMS, load)
    step, walk = hold(0.5, True), hold.walk(0.5, True)
    for p in (-math.inf, math.inf):
        with pytest.raises(ValueError, match="outlet pressure"):
            step(p, 1e-3)
        with pytest.raises(ValueError, match="outlet pressure"):
            walk(p, [0.0, 1e-3], [PARAMS.p_atm] * 2, math.inf)
    assert PARAMS.p_neg <= step(PARAMS.p_atm, 1e7) <= PARAMS.p_pos
    assert len(walk(PARAMS.p_atm, [0.0, 1e7], [PARAMS.p_atm] * 2, math.inf)) == 2


def test_the_sample_walk_goes_on_while_the_sum_equals_the_limit():
    # The first two samples match, so the sum after the first step is 0.0 == limit: the walk stops only after
    # the next one.
    step, walk = rk4_hold(PARAMS)(0.5, True), rk4_hold(PARAMS).walk(0.5, True)
    meas = [PARAMS.p_atm, step(PARAMS.p_atm, 1e-3), 0.0, 0.0]
    assert len(walk(PARAMS.p_atm, [0.0, 1e-3, 2e-3, 3e-3], meas, 0.0)) == 3
