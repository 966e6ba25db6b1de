"""The event-stepped closed loop, the reference stage table and the inline
spool inversion are exact, and so is the trajectory CSV writer.

Each is compared bit for bit with the form it replaced, kept here: the run
loop that visits every substep through two byte masks and draws one noise
sample at a time, the stage walk of ``reference_at``, the bisection of
``invert_spool`` through ``_cubic`` and ``_clip01``, and the writer that
formats each row with an f-string and rounds each compute time with
``round``.
"""

import math
import time
from bisect import bisect_left
from unittest import mock

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pneuctrl import plant as plant_mod
from pneuctrl.config import default_maps, default_pid_gains, default_smc_gains, default_supervisor
from pneuctrl.experiment import (
    DmSmcLoop, PidLoop, Reference, ScenarioEnd, TimingConfig, Trajectory, event_substeps,
    reference_at, run_duration, run_scenario, write_trajectory_csv,
)
from pneuctrl.plant import Mode
from pneuctrl.valvemap import (
    _INVERT_TOL, DEFAULT_SLOPE_TOL, SpoolMap, _clip01, _cubic, _min_slope_on, eval_spool, invert_spool,
)
from test_exactness import LOADS, PARAMS

MAPS = default_maps()


def sequential_sum(holds):
    acc = 0.0
    for hold in holds:
        acc += hold
    return acc


def walk_reference_at(ref, t, p_atm):
    """``reference_at`` as a walk over the stages, summing the holds on each call."""
    duration = sequential_sum(hold for _, hold in ref.stages) if ref.kind == "multi-step" else ref.duration
    if t < 0.0:
        raise ValueError("time must be non-negative")
    if t > duration * (1.0 + 1e-12):
        raise ScenarioEnd(f"t={t!r} beyond scenario end {duration!r}")
    if ref.kind == "multi-step":
        acc = 0.0
        for level, hold in ref.stages:
            acc += hold
            if t < acc:
                return p_atm + 1000.0 * level, 0.0
        return p_atm + 1000.0 * ref.stages[-1][0], 0.0
    w = 2.0 * math.pi * ref.frequency_hz
    p_ref = p_atm + 1000.0 * ref.amplitude_kpa * math.sin(w * t)
    return p_ref, 1000.0 * ref.amplitude_kpa * w * math.cos(w * t)


def substep_run(ref, controller, timing, params, maps, load=None, p_init=None):
    """``run_scenario`` as a loop over every substep, one scalar noise draw per sample."""
    duration = run_duration(ref, timing)
    rng = np.random.default_rng(timing.seed)
    dt_sub = 1.0 / timing.sim_substep
    n_sub = int(round(duration * timing.sim_substep))
    sensed = np.zeros(n_sub, dtype=np.uint8)
    sensed[event_substeps(n_sub, timing.sim_substep, timing.sensor_rate)] = 1
    ticked = np.zeros(n_sub, dtype=np.uint8)
    ticked[event_substeps(n_sub, timing.sim_substep, timing.control_rate)] = 1

    p = walk_reference_at(ref, 0.0, params.p_atm)[0] if p_init is None else p_init
    hold = plant_mod.rk4_hold(params, load)
    held = p
    step = hold(0.0, True)
    rows = {name: [] for name in ("t", "p_ref", "p_true", "p_meas", "u", "mode", "ct", "s", "x_star")}
    flags = []
    for j, sense, tick in zip(range(n_sub), sensed.tobytes(), ticked.tobytes()):
        if sense:
            noise = rng.normal(0.0, timing.noise_sigma) if timing.noise_sigma > 0.0 else 0.0
            held = p + noise
        if tick:
            t = j / timing.sim_substep
            p_ref, p_rate = walk_reference_at(ref, t, params.p_atm)
            t0 = time.perf_counter()
            out = controller.update(t, held, p_ref, p_rate)
            ct = time.perf_counter() - t0
            step = hold(eval_spool(out.u, maps[out.mode]), out.mode == Mode.INFLATION)
            for name, value in zip(rows, (t, p_ref, p, held, out.u, int(out.mode), ct, out.s, out.x_star)):
                rows[name].append(value)
            flags.append(out.flag)
        p = step(p, dt_sub)
    arrays = {name: np.asarray(v, dtype=int if name == "mode" else None) for name, v in rows.items()}
    return Trajectory(**arrays, flags=flags, duration=duration)


def outcome(lookup, ref, t):
    try:
        return lookup(ref, t, PARAMS.p_atm)
    except ScenarioEnd:
        return ScenarioEnd


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def make_controller(name, timing):
    dt = 1.0 / timing.control_rate
    if name == "pid":
        return PidLoop(default_pid_gains(), default_supervisor(), dt)
    return DmSmcLoop(PARAMS, MAPS, default_smc_gains(), default_supervisor(), dt)


@st.composite
def references(draw):
    if draw(st.booleans()):
        stages = st.lists(st.tuples(st.floats(-40.0, 100.0), st.floats(0.01, 0.4)), min_size=1, max_size=5)
        return Reference.multi_step(draw(stages))
    return Reference.sinusoid(draw(st.floats(0.0, 60.0)), draw(st.floats(0.5, 5.0)), draw(st.integers(1, 2)))


@st.composite
def timings(draw):
    substep = draw(st.sampled_from([100.0, 250.0, 997.0, 1000.0]))
    # Control from the substep rate down to a thirtieth of it; the sensor up
    # to four times faster than the substep.
    control = max(1.0, substep / draw(st.just(1.0) | st.floats(1.0, 30.0)))
    sensor = substep * draw(st.just(1.0) | st.floats(0.02, 1.0) | st.floats(1.0, 4.0))
    return dict(sim_substep=substep, control_rate=control, sensor_rate=sensor,
                noise_sigma=draw(st.sampled_from([0.0, 500.0])), seed=draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=150, deadline=None)
@given(
    ref=references(),
    timing=timings(),
    cut=st.none() | st.floats(0.0, 1.0),
    controller=st.sampled_from(["pid", "dm-smc"]),
    load_name=st.sampled_from(sorted(LOADS)),
    # 10 noise sigmas inside the rails, where the controllers accept a sample.
    p_init=st.none() | st.floats(PARAMS.p_neg + 5000.0, PARAMS.p_pos - 5000.0),
)
@example(ref=Reference.multi_step([(0.0, 0.3), (50.0, 0.25)]),
         timing=dict(sim_substep=1000.0, control_rate=1000.0, sensor_rate=3000.0, noise_sigma=500.0, seed=5),
         cut=0.6, controller="dm-smc", load_name="bellow", p_init=None)
def test_run_matches_the_substep_loop(ref, timing, cut, controller, load_name, p_init):
    # ``cut`` places the run's end anywhere in the reference, mid-stage included.
    timing = TimingConfig(duration=None if cut is None else max(1e-3, cut * ref.duration), **timing)
    load = LOADS[load_name]
    held_steps = []
    real_hold = plant_mod.rk4_hold

    def counting_hold(params, load):
        hold = real_hold(params, load)

        def held(x_bar, inflation):
            step = hold(x_bar, inflation)

            def counted(p, dt):
                held_steps.append(dt)
                return step(p, dt)
            return counted
        return held

    with mock.patch.object(plant_mod, "rk4_hold", counting_hold):
        got = run_scenario(ref, make_controller(controller, timing), timing, PARAMS, MAPS, load, p_init)
    want = substep_run(ref, make_controller(controller, timing), timing, PARAMS, MAPS, load, p_init)

    for name in ("t", "p_ref", "p_true", "p_meas", "u", "mode", "s", "x_star"):
        assert same_bits(getattr(got, name), getattr(want, name)), name
    assert got.flags == want.flags and got.duration == want.duration
    n_sub = int(round(got.duration * timing.sim_substep))
    assert held_steps == [1.0 / timing.sim_substep] * n_sub


@settings(max_examples=200, deadline=None)
@given(
    stages=st.lists(
        st.tuples(st.floats(-40.0, 100.0), st.floats(1e-3, 20.0) | st.sampled_from([0.1, 0.2, 0.3])),
        min_size=1, max_size=14,
    ),
    fracs=st.lists(st.floats(0.0, 1.0), max_size=20),
)
def test_stage_table_matches_the_stage_walk(stages, fracs):
    ref = Reference.multi_step(stages)
    holds = [hold for _, hold in ref.stages]
    assert ref.duration == sequential_sum(holds)
    ends = [sequential_sum(holds[:i + 1]) for i in range(len(holds))]
    assert ref.window_edges() == [0.0] + ends
    times = [f * ref.duration for f in fracs]
    for end in ends:
        times += [math.nextafter(end, -math.inf), end, math.nextafter(end, math.inf)]
    times.append(ref.duration * (1.0 + 2e-12))
    for t in times:
        assert outcome(reference_at, ref, t) == outcome(walk_reference_at, ref, t), t


def bisect_invert_spool(x, spool_map):
    """``invert_spool`` with its bisection through ``_cubic`` and ``_clip01``."""
    hull = spool_map._grid_hull
    if x <= hull[0]:
        return spool_map.u_min
    if x > hull[-1]:
        return spool_map.u_max
    j = bisect_left(hull, x)
    lo, hi = spool_map._grid_u[j - 1], spool_map._grid_u[j]
    f_lo = _clip01(_cubic(spool_map.a, lo)) - x
    while hi - lo > _INVERT_TOL:
        mid = 0.5 * (lo + hi)
        f_mid = _clip01(_cubic(spool_map.a, mid)) - x
        if (f_lo <= 0.0) == (f_mid <= 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# Slope 1.5e-5 (u - 60)^2 - 1.5e-3 per % duty: the map falls from 0.5 at
# 50% to 0.48 at 70%, within the slope tolerance.
DIPPING = SpoolMap(a=(-0.5, 0.0525, -9e-4, 5e-6))


def test_the_dipping_map_falls_within_the_slope_tolerance():
    assert -DEFAULT_SLOPE_TOL < _min_slope_on(DIPPING.a, DIPPING.u_min, DIPPING.u_max) < 0.0
    assert eval_spool(70.0, DIPPING) < eval_spool(50.0, DIPPING)


@st.composite
def spool_maps(draw):
    a = (draw(st.floats(-0.6, 0.4)), draw(st.floats(0.0, 0.05)),
         draw(st.floats(-5e-4, 5e-4)), draw(st.floats(-5e-6, 5e-6)))
    u_min = draw(st.floats(0.0, 40.0))
    u_max = draw(st.floats(u_min + 1.0, 100.0))
    try:
        return SpoolMap(a=a, u_min=u_min, u_max=u_max)
    except ValueError:   # not a valid calibration
        assume(False)


@st.composite
def inversion_cases(draw):
    """A map and an opening: any, or the map's value at a midpoint the bisection meets."""
    spool_map = draw(st.sampled_from([*MAPS, DIPPING]) | spool_maps())
    if draw(st.booleans()):
        return spool_map, draw(st.floats(0.0, 1.0))
    grid = spool_map._grid_u
    i = draw(st.integers(1, len(grid) - 1))
    lo, hi = grid[i - 1], grid[i]
    for go_up in draw(st.lists(st.booleans(), max_size=18)):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if go_up else (lo, mid)
    return spool_map, eval_spool(0.5 * (lo + hi), spool_map)


@settings(max_examples=600, deadline=None)
@given(case=inversion_cases())
def test_inline_inversion_matches_the_helper_bisection(case):
    spool_map, x = case
    assert invert_spool(x, spool_map) == bisect_invert_spool(x, spool_map)


def fstring_trajectory_csv(traj, path, p_atm):
    """``write_trajectory_csv`` with one f-string and one ``round`` per row."""
    gauge = [((traj.p_ref - p_atm) / 1000.0).tolist(), ((traj.p_true - p_atm) / 1000.0).tolist(),
             ((traj.p_meas - p_atm) / 1000.0).tolist()]
    columns = (traj.t.tolist(), *gauge, traj.u.tolist(), traj.mode.tolist(), traj.ct.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t_s,pref_kpa,ptrue_kpa,pmeas_kpa,u_pct,mode,ct_us\n")
        fh.writelines(
            f"{t:.4f},{p_ref:.6f},{p_true:.6f},{p_meas:.6f},{u:.4f},{int(m)},{round(ct * 1e6)}\n"
            for t, p_ref, p_true, p_meas, u, m, ct in zip(*columns)
        )


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(st.tuples(
        st.floats(0.0, 1e4), st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.floats(-1e6, 1e6),
        st.floats(0.0, 100.0), st.sampled_from([-1, 1]),
        # Compute times on and near half-microsecond ties, and up to hours.
        st.integers(0, 2 * 10**6).map(lambda k: k * 0.5e-6) | st.floats(0.0, 1e4),
    ), max_size=40),
)
def test_csv_writer_matches_the_row_by_row_writer(rows, tmp_path_factory):
    t, p_ref, p_true, p_meas, u, mode, ct = (np.asarray(col) for col in zip(*rows)) if rows else [np.zeros(0)] * 7
    nan = np.full(len(rows), math.nan)
    traj = Trajectory(t=t, p_ref=p_ref, p_true=p_true, p_meas=p_meas, u=u, mode=np.asarray(mode, dtype=int),
                      ct=ct, s=nan, x_star=nan, flags=[""] * len(rows))
    out = tmp_path_factory.mktemp("csv")
    write_trajectory_csv(traj, out / "got.csv", PARAMS.p_atm)
    fstring_trajectory_csv(traj, out / "want.csv", PARAMS.p_atm)
    assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()
