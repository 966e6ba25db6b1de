"""Property tests of stated contracts: the hysteresis band, the spool-map
round trip, and the control-tick schedule the config check relies on."""

from hypothesis import given, settings
from hypothesis import strategies as st

from pneuctrl.config import default_maps, default_pid_gains, default_plant, default_supervisor
from pneuctrl.control import SupervisorConfig, select_mode
from pneuctrl.experiment import PidLoop, Reference, TimingConfig, control_tick_times, run_scenario
from pneuctrl.plant import Mode
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
