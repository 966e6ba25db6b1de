"""Property tests of stated contracts: the hysteresis band, the spool-map
round trip, the control-tick schedule the config check relies on, and the
event schedule shared by the run loop and protocol synthesis."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pneuctrl.config import default_maps, default_pid_gains, default_plant, default_supervisor
from pneuctrl.control import SupervisorConfig, select_mode
from pneuctrl.experiment import (
    PidLoop, Reference, TimingConfig, control_tick_times, event_substeps, run_scenario,
)
from pneuctrl.plant import Mode
from pneuctrl.sysid import simulate_segment
from pneuctrl.valvemap import eval_spool, invert_spool

MAPS = default_maps()
modes = st.sampled_from([Mode.INFLATION, Mode.DEFLATION])


@settings(max_examples=500, deadline=None)
@given(
    p_ref=st.floats(-1e6, 1e6),
    h=st.floats(1e-3, 1e5),
    frac=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
    m_prev=modes,
)
def test_select_mode_holds_strictly_inside_the_band(p_ref, h, frac, m_prev):
    p = p_ref + frac * h
    if p_ref - h < p < p_ref + h:
        assert select_mode(p, p_ref, SupervisorConfig(h=h), m_prev) == m_prev


@settings(max_examples=500, deadline=None)
@given(m=modes, u=st.floats(0.0, 1.0))
def test_invert_spool_round_trips_attained_fractions(m, u):
    spool_map = MAPS[m]
    x = eval_spool(spool_map.u_min + u * (spool_map.u_max - spool_map.u_min), spool_map)
    assert abs(eval_spool(invert_spool(x, spool_map), spool_map) - x) <= 1e-6


def loop_tick_times(duration, timing):
    """The control schedule of ``run_scenario``'s loop, written as that loop."""
    n_sub = int(round(duration * timing.sim_substep))
    eps = 0.5 * (1.0 / timing.sim_substep)
    ticks = []
    for j in range(n_sub):
        t = j / timing.sim_substep
        if t + eps >= len(ticks) / timing.control_rate:
            ticks.append(t)
    return ticks


@settings(max_examples=300, deadline=None)
@given(
    substep=st.sampled_from([100.0, 250.0, 997.0, 1000.0, 1024.0]),
    ratio=st.floats(1.0, 50.0),
    duration=st.floats(1e-3, 3.0),
)
def test_control_tick_times_match_the_run_loop(substep, ratio, duration):
    timing = TimingConfig(sim_substep=substep, control_rate=max(1.0, substep / ratio))
    assert control_tick_times(duration, timing).tolist() == loop_tick_times(duration, timing)


def test_control_tick_times_match_a_run():
    timing = TimingConfig(control_rate=70.0, sim_substep=1000.0, noise_sigma=0.0)
    ref = Reference.multi_step([(0.0, 0.2), (20.0, 0.13)])
    controller = PidLoop(default_pid_gains(), default_supervisor(), 1.0 / timing.control_rate)
    traj = run_scenario(ref, controller, timing, default_plant(), MAPS)
    ticks = control_tick_times(ref.duration, timing)
    assert ticks.tolist() == traj.t.tolist()


def loop_event_substeps(n_sub, substep_hz, rate_hz):
    """The sensor and control rule of ``run_scenario``'s loop, written as that loop."""
    eps = 0.5 * (1.0 / substep_hz)
    fired = []
    for j in range(n_sub):
        if j / substep_hz + eps >= len(fired) / rate_hz:
            fired.append(j)
    return fired


def loop_segment_samples(n_sub, substep_hz, rate_hz):
    """The sample rule of ``simulate_segment``: p0 at substep 0, then substeps 1..n_sub."""
    eps = 0.5 * (1.0 / substep_hz)
    taken = [0]
    for j in range(1, n_sub + 1):
        if j / substep_hz + eps >= len(taken) / rate_hz:
            taken.append(j)
    return taken


# Event rates from a fiftieth of the substep to twelve times it, and equal to it.
rate_factors = st.one_of(st.just(1.0), st.floats(0.02, 1.0), st.floats(1.0, 12.0))


@settings(max_examples=400, deadline=None)
@given(
    substep=st.sampled_from([100.0, 250.0, 997.0, 1000.0, 1024.0]),
    factor=rate_factors,
    n_sub=st.integers(0, 2500),
)
def test_event_substeps_match_the_run_loop(substep, factor, n_sub):
    rate = substep * factor
    assert event_substeps(n_sub, substep, rate).tolist() == loop_event_substeps(n_sub, substep, rate)
    assert event_substeps(n_sub + 1, substep, rate).tolist() == loop_segment_samples(n_sub, substep, rate)


def test_event_substeps_at_a_rate_near_the_float_limit_fire_on_every_substep():
    assert event_substeps(500, 1000.0, 1e308).tolist() == event_substeps(500, 1000.0, 1000.0).tolist()


@settings(max_examples=60, deadline=None)
@given(
    substep=st.sampled_from([250.0, 997.0, 1000.0]),
    factor=rate_factors,
    duration=st.floats(0.01, 0.5),
)
def test_simulate_segment_samples_on_the_event_schedule(substep, factor, duration):
    params = default_plant()
    t, p, p_end = simulate_segment(params.p_atm, 0.6, Mode.INFLATION, duration, params, substep * factor, substep)
    taken = loop_segment_samples(int(round(duration * substep)), substep, substep * factor)
    assert t.tolist() == [j / substep for j in taken]
    assert len(p) == len(t) and p[0] == params.p_atm
    assert np.all(np.diff(p) >= 0.0) and p[-1] <= p_end


def test_sensor_faster_than_the_substep_samples_once_per_substep():
    timing = TimingConfig(control_rate=100.0, sensor_rate=3000.0, sim_substep=1000.0, noise_sigma=0.0)
    ref = Reference.multi_step([(20.0, 0.05)])
    controller = PidLoop(default_pid_gains(), default_supervisor(), 1.0 / timing.control_rate)
    traj = run_scenario(ref, controller, timing, default_plant(), MAPS, p_init=default_plant().p_atm)
    # Noiseless and sampled on every substep: each tick reads the true pressure.
    assert traj.p_meas.tolist() == traj.p_true.tolist()
