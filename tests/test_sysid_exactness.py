"""The early exits of protocol synthesis and identification are exact.

``simulate_segment`` stops calling the RK4 kernel once a step returns its
input, and the fit objectives stop integrating once their sum of squares
exceeds the lowest value the golden-section search has seen.  Each is
compared here with a reference that does all the work: every substep
through the public ``plant.step``, and every objective evaluation through
``simulate_at_samples`` without the exit.  The spool fit's bound test,
which censors a deadband segment without searching it, is compared with a
reference that searches every segment.
"""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pneuctrl import plant as plant_mod
from pneuctrl import sysid
from pneuctrl.config import default_maps, default_plant
from pneuctrl.optim import golden_section
from pneuctrl.plant import Mode, PlantState, step
from pneuctrl.sysid import (
    SPOOL_BRACKET,
    SpoolPoint,
    StepTrace,
    SynthesisConfig,
    TraceDataError,
    identify_channel,
    simulate_at_samples,
    simulate_segment,
    synthesize_protocol,
)

PARAMS = default_plant()
MAPS = default_maps()
NOISY = SynthesisConfig(noise_sigma=500.0, seed=3)


def reference_segment(p0, x_bar, m, duration, params, sample_rate, sim_substep):
    """Every substep through public ``plant.step``, sampled on the sensor schedule."""
    n_sub = int(round(duration * sim_substep))
    dt = 1.0 / sim_substep
    state = PlantState(p_out=p0)
    ts, ps = [0.0], [p0]
    k = 1
    for j in range(1, n_sub + 1):
        state = step(state, x_bar, m, dt, params)
        t = j / sim_substep
        if t + 0.5 * dt >= k / sample_rate:
            ts.append(t)
            ps.append(state.p_out)
            k += 1
    return np.asarray(ts), np.asarray(ps), state.p_out


def full_sse_objective(trace, model):
    """Objective that integrates every sample and returns ``_sse`` of the whole trace."""
    def objective(v):
        x_bar, m, params = model(v)
        d = simulate_at_samples(float(trace.p[0]), trace.t, x_bar, m, params) - trace.p
        return float(np.dot(d, d))

    return objective


def trace_key(trace):
    return trace.t.tobytes(), trace.p.tobytes(), trace.u1, trace.u2, trace.kind


def outcome(fn):
    try:
        return fn()
    except TraceDataError as exc:
        return f"TraceDataError: {exc}"


@pytest.fixture(scope="module")
def noisy_traces():
    return synthesize_protocol(PARAMS, MAPS, cfg=NOISY)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Count the RK4 steps taken through held steps of ``plant.rk4_hold``."""
    calls = [0]
    build = plant_mod.rk4_hold

    def counting(params, load=None):
        hold = build(params, load)

        def counted_hold(x_bar, inflation):
            step = hold(x_bar, inflation)

            def counted(p, dt):
                calls[0] += 1
                return step(p, dt)

            return counted

        return counted_hold

    monkeypatch.setattr(plant_mod, "rk4_hold", counting)
    return calls


@pytest.mark.parametrize("cfg", [SynthesisConfig(), NOISY], ids=["noiseless", "noisy"])
def test_synthesize_protocol_matches_stepping_every_substep(monkeypatch, protocol_traces, noisy_traces, cfg):
    fast = protocol_traces if cfg.noise_sigma == 0.0 else noisy_traces
    monkeypatch.setattr(sysid, "simulate_segment", reference_segment)
    reference = synthesize_protocol(PARAMS, MAPS, cfg=cfg)
    assert len(fast) == len(reference) == 260
    assert [trace_key(tr) for tr in fast] == [trace_key(tr) for tr in reference]


# (duration s, sample rate Hz) on the 1 kHz substep: a sample on every
# substep, a rate that does not divide the substep's, a duration that is not
# a whole number of sample periods, and one under half a substep (no step).
SEGMENT_TIMINGS = [(4.0, 60.0), (4.0, 1000.0), (4.0, 7.3), (1.234, 60.0), (0.0004, 60.0)]


@pytest.mark.parametrize(
    "p0, x_bar, m",
    [
        (PARAMS.p_atm, 1.0, Mode.INFLATION),
        (PARAMS.p_atm, 0.0, Mode.DEFLATION),
        (PARAMS.p_atm + 1.5e5, 0.0, Mode.INFLATION),
        (PARAMS.p_atm - 5.0e4, 0.3, Mode.DEFLATION),
        # Moves, then sits on the supply rail from substep 54: its fixed point
        # falls between two samples at 60 Hz and at 7.3 Hz.
        (PARAMS.p_pos - 2.0e3, 1.0, Mode.INFLATION),
    ],
)
def test_simulate_segment_matches_reference(p0, x_bar, m):
    for duration, sample_rate in SEGMENT_TIMINGS:
        fast = simulate_segment(p0, x_bar, m, duration, PARAMS, sample_rate, 1000.0)
        ref = reference_segment(p0, x_bar, m, duration, PARAMS, sample_rate, 1000.0)
        assert fast[0].tobytes() == ref[0].tobytes()
        assert fast[1].tobytes() == ref[1].tobytes()
        assert fast[2] == ref[2]


def test_segment_stops_calling_the_kernel_at_its_fixed_point(kernel_calls):
    # A closed valve at atmosphere moves nothing: the first step is the fixed point.
    t, p, p_end = simulate_segment(PARAMS.p_atm, 0.0, Mode.INFLATION, 2.0, PARAMS, 60.0, 1000.0)
    assert kernel_calls[0] == 1
    assert len(t) == 121 and np.all(p == PARAMS.p_atm) and p_end == PARAMS.p_atm


@pytest.mark.parametrize("mode", [Mode.INFLATION, Mode.DEFLATION], ids=["inflation", "deflation"])
@pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "noisy"])
def test_identify_channel_matches_full_objectives(
    monkeypatch, kernel_calls, protocol_traces, noisy_traces, mode, noisy,
):
    traces = noisy_traces if noisy else protocol_traces
    fast = outcome(lambda: identify_channel(traces, mode, PARAMS))
    pruned_calls, kernel_calls[0] = kernel_calls[0], 0
    monkeypatch.setattr(sysid, "_pruned_sse_objective", full_sse_objective)
    reference = outcome(lambda: identify_channel(traces, mode, PARAMS))
    assert fast == reference
    assert pruned_calls < kernel_calls[0]
    if noisy and mode == Mode.DEFLATION:
        # This seed's deflation sweep fits a cubic that fails validation.
        assert "spool calibration failed" in fast
    else:
        assert isinstance(fast, sysid.ChannelIdResult)


@settings(max_examples=100, deadline=None)
@given(
    index=st.integers(0, 259),
    x_bar=st.floats(0.0, 1.0),
    scale=st.floats(0.0, 2.0),
)
def test_stopped_prediction_is_a_prefix_that_provably_loses(protocol_traces, index, x_bar, scale):
    trace = protocol_traces[index]
    p0 = float(trace.p[0])
    full = simulate_at_samples(p0, trace.t, x_bar, trace.mode, PARAMS)
    d = full - trace.p
    sse = float(np.dot(d, d))
    stop_above = scale * sse
    pred = simulate_at_samples(p0, trace.t, x_bar, trace.mode, PARAMS, meas=trace.p, stop_above=stop_above)
    assert pred.tobytes() == full[: len(pred)].tobytes()
    if len(pred) < len(full):
        assert sse > stop_above


@pytest.mark.parametrize("bad", [math.nan, 1e200], ids=["nan", "inf"])
def test_non_finite_sum_never_stops_a_prediction(protocol_traces, bad):
    trace = protocol_traces[0]
    meas = trace.p.copy()
    meas[1] = bad
    pred = simulate_at_samples(float(trace.p[0]), trace.t, 0.5, trace.mode, PARAMS, meas=meas, stop_above=0.0)
    assert len(pred) == len(trace.t)


@pytest.mark.parametrize("extra", [-1, 1], ids=["shorter", "longer"])
def test_measurements_of_another_length_are_rejected(protocol_traces, extra):
    trace = protocol_traces[0]
    n = len(trace.t)
    meas = np.resize(trace.p, n + extra)
    with pytest.raises(ValueError, match=f"meas has {n + extra} samples but t has {n}"):
        simulate_at_samples(float(trace.p[0]), trace.t, 0.5, trace.mode, PARAMS, meas=meas)


def running_min_pruned(f):
    """``f`` returning inf whenever its value exceeds the lowest value returned so far."""
    best = math.inf

    def g(v):
        nonlocal best
        value = f(v)
        if value > best:
            return math.inf
        best = min(best, value)
        return value

    return g


@settings(max_examples=300, deadline=None)
@given(
    lo=st.floats(-1e3, 1e3),
    width=st.floats(1e-3, 1e3),
    centre=st.floats(-0.5, 1.5),
    ripple=st.floats(0.0, 10.0),
    grid=st.sampled_from([0.0, 1e-3, 0.1, 1.0]),
    tol=st.floats(1e-6, 1.0),
)
def test_golden_section_on_a_running_min_pruned_objective_is_unchanged(lo, width, centre, ripple, grid, tol):
    hi = lo + width

    def f(v):
        z = (v - lo) / width - centre
        value = z * z + ripple * math.sin(7.0 * z)
        # A coarse grid makes plateaus, so ties between points are common.
        return round(value / grid) * grid if grid else value

    assert golden_section(running_min_pruned(f), lo, hi, tol=tol) == golden_section(f, lo, hi, tol=tol)


def test_pruned_fit_matches_full_fit_with_a_wrong_template(protocol_traces):
    # Far-off starting conductances make early evaluations lose by a wide margin.
    wrong = replace(PARAMS, conductances=replace(PARAMS.conductances, c_oa=1e-12, c_po=1e-9))
    decay = protocol_traces[1]
    assert decay.kind == "decay" and decay.mode == Mode.INFLATION
    fast = sysid.fit_decay_conductance(decay, "c_oa", wrong)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sysid, "_pruned_sse_objective", full_sse_objective)
        reference = sysid.fit_decay_conductance(decay, "c_oa", wrong)
    assert fast == reference


def searched_spool_segments(traces, params):
    """``fit_spool_segments`` with no bound test: every segment is searched."""
    lo, hi = SPOOL_BRACKET
    points = []
    for trace in traces:
        if trace.span < sysid.MIN_TRACE_SPAN and 30.0 <= trace.u2 <= 90.0:
            raise TraceDataError(f"segment at duty {trace.u2}% shows no pressure change; stuck data")
        objective = sysid._pruned_sse_objective(trace, lambda x, m=trace.mode: (x, m, params))
        x_hat, sse, _ = golden_section(objective, lo, hi, tol=1e-5)
        at_bound = x_hat <= lo + 1e-4 or x_hat >= hi - 1e-4
        residual = math.sqrt(sse / len(trace.p))
        points.append(SpoolPoint(u=trace.u2, x_hat=x_hat, residual=residual, at_bound=at_bound))
    return points


@functools.lru_cache(maxsize=None)
def noisy_protocol(seed):
    return synthesize_protocol(PARAMS, MAPS, cfg=SynthesisConfig(noise_sigma=500.0, seed=seed))


def sweep_of(traces, mode):
    """The sweep segments ``identify_channel`` hands to ``fit_spool_segments``, in its order."""
    sweep = [tr for tr in traces if tr.mode == mode and tr.kind == "rise" and tr.u2 < 100.0]
    return sorted(sweep, key=lambda tr: tr.u2)


def point_bits(p):
    return p.u.hex(), p.x_hat.hex(), p.residual.hex(), p.at_bound


@pytest.mark.parametrize("mode", [Mode.INFLATION, Mode.DEFLATION], ids=["inflation", "deflation"])
@pytest.mark.parametrize("seed", [None, 0, 1, 2], ids=["noiseless", "seed0", "seed1", "seed2"])
def test_bound_test_changes_only_the_censored_points(monkeypatch, protocol_traces, seed, mode):
    traces = protocol_traces if seed is None else noisy_protocol(seed)
    fast = outcome(lambda: identify_channel(traces, mode, PARAMS))
    with monkeypatch.context() as mp:
        mp.setattr(sysid, "fit_spool_segments", searched_spool_segments)
        reference = outcome(lambda: identify_channel(traces, mode, PARAMS))
    assert isinstance(fast, sysid.ChannelIdResult) and isinstance(reference, sysid.ChannelIdResult)
    assert fast.leak == reference.leak and fast.source == reference.source
    assert [a.hex() for a in fast.spool_map.a] == [a.hex() for a in reference.spool_map.a]

    params = sysid._with_conductance(PARAMS, fast.leak_name, fast.leak.value)
    params = sysid._with_conductance(params, fast.source_name, fast.source.value)
    lo = SPOOL_BRACKET[0]
    censored = 0
    assert len(fast.points) == len(reference.points)
    for trace, p, q in zip(sweep_of(traces, mode), fast.points, reference.points):
        assert (p.u, p.at_bound) == (q.u, q.at_bound)
        if p.x_hat == lo:
            censored += 1
            assert p.at_bound
            sse_lo = full_sse_objective(trace, lambda x: (x, mode, params))(lo)
            assert p.residual == math.sqrt(sse_lo / len(trace.p))
        else:
            assert point_bits(p) == point_bits(q)
    if seed is None:
        # The deadband: 10 inflation and 30 deflation segments of the default sweep.
        assert censored == (10 if mode == Mode.INFLATION else 30)
    else:
        assert censored > 0


@pytest.fixture
def searches(monkeypatch):
    """Count the golden-section searches ``sysid`` starts."""
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return golden_section(*args, **kwargs)

    monkeypatch.setattr(sysid, "golden_section", counted)
    return calls


def test_nan_sample_in_a_deadband_trace_is_searched(searches, protocol_traces):
    trace = sweep_of(protocol_traces, Mode.DEFLATION)[0]
    assert trace.u2 == 20.0
    p = trace.p.copy()
    p[5] = math.nan
    nan_trace = StepTrace(t=trace.t, p=p, u1=trace.u1, u2=trace.u2, kind=trace.kind)
    fast = sysid.fit_spool_segments([nan_trace], PARAMS)
    assert searches[0] == 1
    assert math.isnan(fast[0].residual)
    reference = searched_spool_segments([nan_trace], PARAMS)
    assert [point_bits(pt) for pt in fast] == [point_bits(pt) for pt in reference]


def test_deadband_segment_takes_two_evaluations_and_no_search(searches, kernel_calls, protocol_traces):
    trace = sweep_of(protocol_traces, Mode.DEFLATION)[0]
    assert trace.u2 == 20.0
    [point] = sysid.fit_spool_segments([trace], PARAMS)
    assert point.at_bound and point.x_hat == SPOOL_BRACKET[0]
    assert searches[0] == 0
    assert kernel_calls[0] <= 2 * (len(trace.t) - 1)


@pytest.mark.parametrize("mode", [Mode.INFLATION, Mode.DEFLATION], ids=["inflation", "deflation"])
def test_interior_segment_takes_at_most_two_evaluations_more_than_its_search(kernel_calls, protocol_traces, mode):
    trace = next(tr for tr in sweep_of(protocol_traces, mode) if tr.u2 == 50.0)
    [point] = sysid.fit_spool_segments([trace], PARAMS)
    fitted, kernel_calls[0] = kernel_calls[0], 0
    lo, hi = SPOOL_BRACKET
    objective = sysid._pruned_sse_objective(trace, lambda x: (x, mode, PARAMS))
    x_hat, sse, _ = golden_section(objective, lo, hi, tol=1e-5)
    assert not point.at_bound and point.x_hat == x_hat
    assert kernel_calls[0] < fitted <= kernel_calls[0] + 2 * (len(trace.t) - 1)
