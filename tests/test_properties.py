"""Property tests of stated contracts: the hysteresis band, the spool-map
round trip, the control-tick schedule the config check relies on, the event
schedule shared by the run loop and protocol synthesis, and the declared
physical domain of the configs."""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from pneuctrl.cli import main
from pneuctrl.config import CONTROLLER_NAMES, default_maps, default_pid_gains, default_plant, default_supervisor
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


# The channel constants declared Magnitude, within [1e-30, 1e30], but gamma, which must also exceed 1.
MAGNITUDE_PLANT_KEYS = ("rho_ref_kg_m3", "t_ref_k", "t_gas_k", "r_gas_j_kgk", "volume_m3")
CONDUCTANCE_KEYS = ("c_po", "c_on", "c_oa", "c_ao")


def magnitude(lo, hi):
    """Floats in [lo, hi] with 0 <= lo < hi, drawn across their decades as well as uniformly, both ends included."""
    low = math.log10(max(lo, 1e-300))
    logs = st.floats(low, max(low, math.log10(hi))).map(lambda e: min(hi, max(lo, 10.0 ** e)))
    return st.one_of(st.sampled_from([lo, hi]), st.floats(lo, hi), logs)


def signed(limit):
    return st.builds(lambda v, sign: sign * v, magnitude(0.0, limit), st.sampled_from([1.0, -1.0]))


@st.composite
def domain_configs(draw):
    """A scenario inside the declared domain that runs a few control ticks.

    Every bounded quantity is drawn across its declared range, up to both
    ends, but for the counts that set the work of a tick (horizon, sweeps,
    switches) and the run's length.  The draw also keeps the checks across
    entries: the rails' order, the rates' order, and a control tick in every
    metric window (stage holds and periods of two control periods or more).
    """
    p_neg, p_atm, p_pos = sorted(draw(st.lists(magnitude(0.0, 1e9), min_size=3, max_size=3)))
    assume(0.0 < p_neg < p_atm < p_pos)
    rate = draw(st.integers(1, 200))
    period = 1.0 / rate
    if draw(st.booleans()):
        stages = draw(st.lists(st.tuples(signed(1e6), magnitude(2.0 * period, 1e7)), min_size=1, max_size=3))
        reference = {"kind": "multi-step", "stages": stages}
    else:
        reference = {"kind": "sinusoid", "amplitude_kpa": draw(signed(1e6)),
                     "frequency_hz": draw(magnitude(1e-6, rate / 2.0)), "cycles": draw(st.integers(1, 10**6))}
    timing = {
        "control_rate_hz": rate, "sim_substep_hz": rate * draw(st.integers(1, 10)),
        "sensor_rate_hz": draw(magnitude(1e-6, 1e6)), "duration_s": draw(st.integers(3, 5)) * period,
        "noise_sigma_pa": draw(magnitude(0.0, 1e9)), "seed": draw(st.integers(0, 2**64)),
    }
    mpc = {
        "horizon_steps": draw(st.integers(1, 4)), "dt_pred_s": draw(magnitude(5e-324, 1e7)),
        "w_e": draw(magnitude(0.0, 1e100)), "w_u": draw(magnitude(0.0, 1e100)), "w_sw": draw(magnitude(0.0, 1e100)),
        "max_switches": draw(st.integers(0, 2)),
    }
    plant = {"p_pos_pa": p_pos, "p_atm_pa": p_atm, "p_neg_pa": p_neg, "gamma": draw(magnitude(_up(1.0), 1e30)),
             **{key: draw(magnitude(1e-30, 1e30)) for key in MAGNITUDE_PLANT_KEYS},
             "conductances": {key: draw(magnitude(1e-30, 1e30)) for key in CONDUCTANCE_KEYS}}
    load = {"v0_m3": draw(magnitude(1e-30, 1e30)), "k_v_m3_pa": draw(st.floats(allow_nan=False, allow_infinity=False))}
    if draw(st.booleans()):
        v_min, v_max = sorted(draw(st.lists(magnitude(1e-30, 1e30), min_size=2, max_size=2)))
        assume(v_min < v_max)
        load.update(kind="affine-bellow", v_min_m3=v_min, v_max_m3=v_max)
    return {"plant": plant, "load": load, "reference": reference, "timing": timing, "mpc": mpc}


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=domain_configs())
def test_any_config_inside_the_domain_runs_or_fails_as_a_solver(tmp_path, config):
    # A traceback fails the test: main lets any error but the four exit codes through.
    for controller in CONTROLLER_NAMES:
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**config, "controller": controller}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) in (0, 4)


def _up(x):
    return math.nextafter(x, math.inf)


def _down(x):
    return math.nextafter(x, -math.inf)


SINUSOID = {"kind": "sinusoid"}
# (command, config, JSON key at fault): each declared bound one step outside.
OUTSIDE = [
    *[("run", {"plant": {key: v}}, f"config.plant.{key}")
      for key in ("p_pos_pa", "p_neg_pa", "p_atm_pa") for v in (-5e-324, _up(1e9))],
    *[("run", {"plant": {key: v}}, f"config.plant.{key}")
      for key in MAGNITUDE_PLANT_KEYS for v in (_down(1e-30), _up(1e30))],
    *[("run", {"plant": {"gamma": v}}, "config.plant.gamma") for v in (1.0, _up(1e30))],
    *[("run", {"plant": {"conductances": {key: v}}}, f"config.plant.conductances.{key}")
      for key in CONDUCTANCE_KEYS for v in (_down(1e-30), _up(1e30))],
    *[("run", {"load": {"v0_m3": v}}, "config.load.v0_m3") for v in (_down(1e-30), _up(1e30))],
    *[("run", {"load": {"kind": "affine-bellow", key: v}}, f"config.load.{key}")
      for key, v in (("v_min_m3", _down(1e-30)), ("v_max_m3", _up(1e30)))],
    *[("run", {"reference": {"stages": [[level, 1.0]]}}, "config.reference.stages") for level in (_up(1e6), -_up(1e6))],
    *[("run", {"reference": {"stages": [[0.0, hold]]}}, "config.reference.stages") for hold in (0.0, _up(1e7))],
    *[("run", {"reference": {**SINUSOID, "amplitude_kpa": v}}, "config.reference.amplitude_kpa")
      for v in (_up(1e6), -_up(1e6))],
    *[("run", {"reference": {**SINUSOID, "frequency_hz": v}}, "config.reference.frequency_hz")
      for v in (_down(1e-6), _up(1e6))],
    *[("run", {"reference": {**SINUSOID, "cycles": v}}, "config.reference.cycles") for v in (0, 10**6 + 1)],
    *[("run", {"timing": {key: v}}, f"config.timing.{key}")
      for key in ("control_rate_hz", "sensor_rate_hz", "sim_substep_hz") for v in (_down(1e-6), _up(1e6))],
    *[("run", {"timing": {"duration_s": v}}, "config.timing.duration_s") for v in (0.0, _up(1e7))],
    *[("run", {"timing": {"noise_sigma_pa": v}}, "config.timing.noise_sigma_pa") for v in (-5e-324, _up(1e9))],
    *[("run", {"mpc": {"horizon_steps": v}}, "config.mpc.horizon_steps") for v in (0, 10**6 + 1)],
    *[("run", {"mpc": {"dt_pred_s": v}}, "config.mpc.dt_pred_s") for v in (0.0, _up(1e7))],
    *[("run", {"mpc": {key: v}}, f"config.mpc.{key}") for key in ("w_e", "w_u", "w_sw") for v in (-5e-324, _up(1e100))],
    *[("synthesize", {"synthesis": {key: v}}, f"config.synthesis.{key}")
      for key in ("sample_rate_hz", "sim_substep_hz") for v in (_down(1e-6), _up(1e6))],
    *[("synthesize", {"synthesis": {key: v}}, f"config.synthesis.{key}")
      for key in ("rise_s", "decay_s", "full_open_s", "full_decay_s") for v in (0.0, _up(1e7))],
    *[("synthesize", {"synthesis": {"noise_sigma_pa": v}}, "config.synthesis.noise_sigma_pa")
      for v in (-5e-324, _up(1e9))],
]


@pytest.mark.parametrize("command, config, key", OUTSIDE, ids=[f"{k}={json.dumps(c)}" for _, c, k in OUTSIDE])
def test_each_bound_one_step_outside_exits_2_naming_its_key(tmp_path, capsys, command, config, key):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: invalid {key}: ")


@pytest.mark.parametrize("controller, config, key", [
    ("pid", {"plant": {"gamma": 1e300}}, "config.plant.gamma"),
    ("pid", {"load": {"v0_m3": 1e-320}}, "config.load.v0_m3"),
    ("dm-smc", {"load": {"v0_m3": 1e-320}}, "config.load.v0_m3"),
], ids=["pid-gamma-1e300", "pid-v0-1e-320", "dm-smc-v0-1e-320"])
def test_a_constant_that_made_the_rates_nan_exits_2(tmp_path, capsys, controller, config, key):
    # Positive but past the Magnitude bound, each makes a stage rate NaN: refused before anything runs.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**config, "controller": controller}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: invalid {key}: ")
