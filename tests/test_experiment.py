import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pneuctrl.config import default_mpc_config, default_multi_step_reference, default_timing
from pneuctrl.experiment import (
    CSV_BLOCK_ROWS,
    DmSmcLoop,
    MinmpcLoop,
    NmpcLoop,
    PidLoop,
    Reference,
    ScenarioEnd,
    TimingConfig,
    Trajectory,
    compute_metrics,
    control_tick_times,
    reference_at,
    run_scenario,
    write_trajectory_csv,
)

P_ATM = 1.01e5


def make_timing(**over):
    base = dict(control_rate=100.0, sensor_rate=60.0, sim_substep=1000.0,
                duration=None, noise_sigma=500.0, seed=0)
    base.update(over)
    return TimingConfig(**base)


def synthetic_trajectory(e_kpa, u, modes, dt=0.01):
    n = len(e_kpa)
    t = np.arange(n) * dt
    p_ref = np.full(n, P_ATM)
    p_true = p_ref + 1000.0 * np.asarray(e_kpa, dtype=float)
    return Trajectory(
        t=t, p_ref=p_ref, p_true=p_true, p_meas=p_true,
        u=np.asarray(u, dtype=float), mode=np.asarray(modes, dtype=int),
        ct=np.zeros(n), s=np.full(n, math.nan), x_star=np.full(n, math.nan),
        flags=[""] * n,
    )


class TestReference:
    def test_multi_step_stage_lookup(self):
        ref = Reference.multi_step([(0.0, 5.0), (50.0, 5.0), (100.0, 5.0)])
        p, rate = reference_at(ref, 7.0, P_ATM)
        assert p == P_ATM + 50e3
        assert rate == 0.0

    def test_multi_step_initial_stage(self):
        ref = Reference.multi_step([(0.0, 5.0), (50.0, 5.0)])
        p, rate = reference_at(ref, 0.0, P_ATM)
        assert p == P_ATM
        assert rate == 0.0

    def test_sinusoid_peak_and_zero_crossing(self):
        ref = Reference.sinusoid(amplitude_kpa=50.0, frequency_hz=0.5, cycles=3)
        p, rate = reference_at(ref, 0.5, P_ATM)  # quarter period: crest
        assert p == pytest.approx(P_ATM + 50e3)
        assert rate == pytest.approx(0.0, abs=1e-6)
        p, rate = reference_at(ref, 1.0, P_ATM)  # half period: descending zero
        assert p == pytest.approx(P_ATM, abs=1e-6)
        assert rate == pytest.approx(-50e3 * math.pi, rel=1e-12)

    def test_time_beyond_end_raises(self):
        ref = Reference.multi_step([(0.0, 1.0)])
        with pytest.raises(ScenarioEnd):
            reference_at(ref, 1.5, P_ATM)

    def test_duration_and_window_edges(self):
        ref = Reference.multi_step([(0.0, 2.0), (10.0, 3.0)])
        assert ref.duration == 5.0
        assert ref.window_edges() == [0.0, 2.0, 5.0]
        sine = Reference.sinusoid(50.0, 0.5, 3)
        assert sine.duration == 6.0
        assert sine.window_edges() == [0.0, 2.0, 4.0, 6.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            Reference.multi_step([])
        with pytest.raises(ValueError):
            Reference.multi_step([(0.0, 0.0)])
        with pytest.raises(ValueError):
            Reference.sinusoid(50.0, 0.0, 3)
        with pytest.raises(ValueError):
            Reference(kind="ramp")

    @pytest.mark.parametrize("make, field", [
        (lambda v: Reference.multi_step([(v, 1.0)]), "stages"),
        (lambda v: Reference.multi_step([(0.0, 1.0), (0.0, v)]), "stages"),
        (lambda v: Reference.sinusoid(v, 0.5, 3), "amplitude_kpa"),
        (lambda v: Reference.sinusoid(50.0, v, 3), "frequency_hz"),
    ], ids=["stage-level", "stage-hold", "amplitude_kpa", "frequency_hz"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_is_rejected_by_name(self, make, field, value):
        with pytest.raises(ValueError, match=field):
            make(value)


class TestTimingValidation:
    def test_rate_ordering(self):
        with pytest.raises(ValueError):
            make_timing(control_rate=2000.0)

    def test_sensor_rate_positive(self):
        with pytest.raises(ValueError):
            make_timing(sensor_rate=0.0)

    def test_noise_non_negative(self):
        with pytest.raises(ValueError):
            make_timing(noise_sigma=-1.0)

    def test_seed_non_negative(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            make_timing(seed=-1)

    @pytest.mark.parametrize("field", ["control_rate", "sensor_rate", "sim_substep", "duration", "noise_sigma"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_value_is_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            make_timing(**{field: value})


class TestRunScenario:
    def test_deterministic_for_fixed_seed(self, params, maps, smc_gains, supervisor, load):
        ref = Reference.multi_step([(0.0, 1.0), (50.0, 1.0)])
        timing = make_timing(seed=42)

        def run():
            ctrl = DmSmcLoop(params, maps, smc_gains, supervisor, dt=0.01)
            return run_scenario(ref, ctrl, timing, params, maps, load)

        a, b = run(), run()
        assert np.array_equal(a.p_true, b.p_true)
        assert np.array_equal(a.p_meas, b.p_meas)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.mode, b.mode)

    def test_different_seeds_differ(self, params, maps, smc_gains, supervisor, load):
        ref = Reference.multi_step([(50.0, 1.0)])
        ctrl = DmSmcLoop(params, maps, smc_gains, supervisor, dt=0.01)
        a = run_scenario(ref, ctrl, make_timing(seed=1), params, maps, load)
        ctrl = DmSmcLoop(params, maps, smc_gains, supervisor, dt=0.01)
        b = run_scenario(ref, ctrl, make_timing(seed=2), params, maps, load)
        assert not np.array_equal(a.p_meas, b.p_meas)

    def test_equilibrium_stays_inside_band(self, params, maps, smc_gains, supervisor, load):
        ref = Reference.multi_step([(0.0, 3.0)])
        timing = make_timing(noise_sigma=0.0)
        ctrl = DmSmcLoop(params, maps, smc_gains, supervisor, dt=0.01)
        traj = run_scenario(ref, ctrl, timing, params, maps, load)
        assert np.max(np.abs(traj.p_true - traj.p_ref)) <= supervisor.h

    def test_band_holding_after_first_entry(self, params, maps, smc_gains, supervisor, load):
        ref = Reference.multi_step([(100.0, 5.0)])
        timing = make_timing(noise_sigma=0.0)
        ctrl = DmSmcLoop(params, maps, smc_gains, supervisor, dt=0.01)
        traj = run_scenario(ref, ctrl, timing, params, maps, load, p_init=params.p_atm)
        e = np.abs(traj.p_true - traj.p_ref)
        inside = np.nonzero(e <= supervisor.h)[0]
        assert inside.size > 0
        first = inside[0]
        assert traj.t[first] < 1.5
        assert np.all(e[first:] <= supervisor.h)

    def test_tick_count_and_spacing(self, params, maps, smc_gains, supervisor, load):
        ref = Reference.multi_step([(0.0, 2.0)])
        ctrl = DmSmcLoop(params, maps, smc_gains, supervisor, dt=0.01)
        traj = run_scenario(ref, ctrl, make_timing(), params, maps, load)
        assert len(traj.t) == 200
        assert np.allclose(np.diff(traj.t), 0.01)

    def test_explicit_duration_truncates(self, params, maps, smc_gains, supervisor, load):
        ref = Reference.multi_step([(0.0, 5.0)])
        ctrl = DmSmcLoop(params, maps, smc_gains, supervisor, dt=0.01)
        traj = run_scenario(ref, ctrl, make_timing(duration=1.0), params, maps, load)
        assert len(traj.t) == 100


class TestComputeMetrics:
    def test_constant_error_ae_and_itae(self):
        # 2 kPa constant error over one 5 s stage
        n = 500
        traj = synthetic_trajectory([2.0] * n, [0.0] * n, [1] * n)
        ref = Reference.multi_step([(0.0, 5.0)])
        m = compute_metrics(traj, ref)
        assert m.ae == pytest.approx(2.0)
        # closed form 25 kPa s^2; rectangle rule on the control grid
        assert m.itae == pytest.approx(25.0, abs=0.2)
        assert m.e_ss == pytest.approx(2.0)
        assert m.max_abs_e == pytest.approx(2.0)

    def test_constant_duty_pwm_energy(self):
        n = 200  # 2 s at 100 Hz
        traj = synthetic_trajectory([0.0] * n, [50.0] * n, [1] * n)
        ref = Reference.multi_step([(0.0, 2.0)])
        m = compute_metrics(traj, ref)
        assert m.pwm_e == pytest.approx(100.0, rel=1e-9)

    def test_uneven_control_ticks_weigh_their_own_gaps(self):
        # At 300 Hz on the 1 kHz substep the ticks fall 3, 3 and 4 ms apart.
        t = control_tick_times(2.0, TimingConfig(control_rate=300.0))
        n = len(t)
        traj = replace(synthetic_trajectory([0.0] * n, [50.0] * n, [1] * n), t=t, duration=2.0)
        m = compute_metrics(traj, Reference.multi_step([(0.0, 2.0)]))
        assert m.pwm_e == pytest.approx(100.0, abs=1e-9)

    def test_switch_counting(self):
        modes = [1, 1, 0, 0, 1]
        traj = synthetic_trajectory([0.0] * 5, [0.0] * 5, modes)
        ref = Reference.multi_step([(0.0, 0.05)])
        m = compute_metrics(traj, ref)
        assert m.switches == 2

    def test_boundary_switch_attributed_to_later_window(self):
        modes = [1] * 100 + [0] * 100
        traj = synthetic_trajectory([0.0] * 200, [0.0] * 200, modes)
        ref = Reference.multi_step([(0.0, 1.0), (0.0, 1.0)])
        m = compute_metrics(traj, ref)
        assert m.per_window["switches"] == [0, 1]

    def test_pwm_energy_additive_over_windows(self):
        rng = np.random.default_rng(5)
        u = rng.uniform(0.0, 100.0, 400)
        traj = synthetic_trajectory([1.0] * 400, u, [1] * 400)
        split = Reference.multi_step([(0.0, 2.0), (0.0, 2.0)])
        whole = Reference.multi_step([(0.0, 4.0)])
        m_split = compute_metrics(traj, split)
        m_whole = compute_metrics(traj, whole)
        assert sum(m_split.per_window["pwm_e"]) == pytest.approx(
            m_whole.per_window["pwm_e"][0], rel=1e-12
        )

    def test_metrics_invariant_to_substep_refinement(self, params, maps, smc_gains, supervisor, load):
        ref = Reference.multi_step([(0.0, 2.0), (50.0, 3.0), (0.0, 3.0)])
        results = []
        for substep in (1000.0, 2000.0):
            ctrl = DmSmcLoop(params, maps, smc_gains, supervisor, dt=0.01)
            traj = run_scenario(ref, ctrl, make_timing(sim_substep=substep), params, maps, load)
            results.append(compute_metrics(traj, ref))
        assert results[1].ae == pytest.approx(results[0].ae, rel=0.01)
        assert results[1].itae == pytest.approx(results[0].itae, rel=0.01)
        assert results[1].pwm_e == pytest.approx(results[0].pwm_e, rel=0.01)

    def test_empty_window_rejected(self):
        traj = synthetic_trajectory([0.0] * 10, [0.0] * 10, [1] * 10)
        ref = Reference.multi_step([(0.0, 0.1), (0.0, 5.0)])
        with pytest.raises(ValueError):
            compute_metrics(traj, ref)


class TestTrajectoryCsv:
    def test_written_values_are_gauge_kpa(self, params, maps, smc_gains, supervisor, load, tmp_path):
        ref = Reference.multi_step([(50.0, 1.0)])
        ctrl = DmSmcLoop(params, maps, smc_gains, supervisor, dt=0.01)
        traj = run_scenario(ref, ctrl, make_timing(), params, maps, load)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path, params.p_atm)
        lines = path.read_text().splitlines()
        assert lines[0] == "t_s,pref_kpa,ptrue_kpa,pmeas_kpa,u_pct,mode,ct_us"
        assert len(lines) == len(traj.t) + 1
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(50.0)
        assert float(first[2]) == pytest.approx((traj.p_true[0] - params.p_atm) / 1000.0, abs=1e-5)
        assert first[5] in ("0", "1")

    def test_physical_columns_bit_stable(self, params, maps, smc_gains, supervisor, load, tmp_path):
        ref = Reference.multi_step([(50.0, 1.0)])
        timing = make_timing(seed=3)
        outs = []
        for name in ("a.csv", "b.csv"):
            ctrl = DmSmcLoop(params, maps, smc_gains, supervisor, dt=0.01)
            traj = run_scenario(ref, ctrl, timing, params, maps, load)
            path = tmp_path / name
            write_trajectory_csv(traj, path, params.p_atm)
            rows = [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]
            outs.append(rows)
        assert outs[0] == outs[1]


class TestLogMemory:
    """A run keeps its log in float64 buffers, and the CSV writer formats one block of rows at a time."""

    @staticmethod
    def traced_peak(fn, *args):
        """``fn(*args)`` and the peak of the memory it traced, in bytes."""
        tracemalloc.start()
        try:
            out = fn(*args)
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_a_run_traces_at_most_200_bytes_a_control_tick(self, params, maps, pid_gains, supervisor, load):
        # The default multi-step stages four times over: 260 s, 26,000 ticks at 100 Hz.
        ref = Reference.multi_step(list(default_multi_step_reference().stages) * 4)
        timing = default_timing()

        def run(ref):
            ctrl = PidLoop(pid_gains, supervisor, dt=1.0 / timing.control_rate)
            return run_scenario(ref, ctrl, timing, params, maps, load)

        # An untraced run first, so that what a process builds once is not counted.  It runs under a
        # no-op profile hook, which has CPython 3.11 give each generated held step the line array
        # tracemalloc reads on every allocation: without one the traced run takes ten times as long.
        sys.setprofile(lambda *args: None)
        try:
            run(default_multi_step_reference())
        finally:
            sys.setprofile(None)
        traj, peak = self.traced_peak(run, ref)
        assert len(traj.t) == 26_000
        assert peak / len(traj.t) <= 200, peak / len(traj.t)
        assert traj.mode.dtype == np.dtype(int)
        assert all(getattr(traj, name).dtype == np.float64
                   for name in ("t", "p_ref", "p_true", "p_meas", "u", "ct", "s", "x_star"))

    def test_the_csv_writer_holds_a_block_not_the_trajectory(self, tmp_path):
        rng = np.random.default_rng(0)
        peaks = []
        for n in (6_500, 26_000):
            p = P_ATM + rng.normal(0.0, 5e4, size=(3, n))
            traj = Trajectory(t=np.arange(n) * 0.01, p_ref=p[0], p_true=p[1], p_meas=p[2],
                              u=rng.uniform(0.0, 100.0, n), mode=rng.integers(0, 2, n), ct=rng.uniform(5e-6, 5e-5, n),
                              s=np.full(n, math.nan), x_star=np.full(n, math.nan), flags=[""] * n)
            _, peak = self.traced_peak(write_trajectory_csv, traj, tmp_path / f"{n}.csv", P_ATM)
            assert len((tmp_path / f"{n}.csv").read_text().splitlines()) == n + 1
            peaks.append(peak)
        assert peaks[1] <= 1.5 * peaks[0], peaks

    def test_a_run_traces_at_most_110_bytes_a_control_tick(self, params, maps, pid_gains, supervisor, load):
        # As above, but the bound leaves the log (80 B a tick) and the event substeps and kinds (about
        # 14 B) with little more: the noise draws and event gaps are held a block at a time.
        ref = Reference.multi_step(list(default_multi_step_reference().stages) * 4)
        timing = default_timing()

        def run(ref):
            return run_scenario(ref, PidLoop(pid_gains, supervisor, dt=1.0 / timing.control_rate), timing,
                                params, maps, load)

        sys.setprofile(lambda *args: None)
        try:
            run(default_multi_step_reference())
        finally:
            sys.setprofile(None)
        traj, peak = self.traced_peak(run, ref)
        assert len(traj.t) == 26_000
        assert peak / len(traj.t) <= 110, peak / len(traj.t)


B = CSV_BLOCK_ROWS


class TestBlockwiseNoise:
    """``run_scenario`` draws its sensor noise a block at a time, the stream of one vector draw."""

    # Sample counts around the block size, with the sensor on every control tick, so each logged
    # measurement is the logged true pressure plus that sample's draw.
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1), sigma=st.sampled_from([0.0, 1e-3, 500.0]) | st.floats(0.0, 1e4),
           n=st.sampled_from([0, 1, B - 1, B, B + 1, 2 * B + 1]))
    def test_samples_add_the_draws_of_one_vector(self, params, maps, pid_gains, supervisor, load, seed, sigma, n):
        # 1e-4 s is under half a substep: a run of no substeps, which samples nothing.
        timing = make_timing(sensor_rate=100.0, duration=n / 100.0 if n else 1e-4, noise_sigma=sigma, seed=seed)
        traj = run_scenario(Reference.multi_step([(50.0, 3.0)]), PidLoop(pid_gains, supervisor, dt=0.01),
                            timing, params, maps, load)
        noise = np.random.default_rng(seed).normal(0.0, sigma, size=n)
        assert len(traj.t) == n
        assert traj.p_meas.tobytes() == (traj.p_true + noise).tobytes()


class TestTruncatedRun:
    def test_scores_like_the_reference_cut_at_its_end(self, params, maps, smc_gains, supervisor, load):
        # DM-SMC looks no further than the present reference, so both runs are identical.
        full = Reference.multi_step([(0.0, 2.0), (50.0, 3.0), (0.0, 3.0)])
        cut = Reference.multi_step([(0.0, 2.0), (50.0, 1.5)])
        reports = []
        for ref, duration in ((full, 3.5), (cut, None)):
            ctrl = DmSmcLoop(params, maps, smc_gains, supervisor, dt=0.01)
            traj = run_scenario(ref, ctrl, make_timing(duration=duration), params, maps, load)
            report = compute_metrics(traj, ref).to_dict()
            report.pop("ct_mean_s")
            reports.append(report)
        assert reports[0] == reports[1]
        assert len(reports[0]["per_window"]["ae"]) == 2


class TestLongSinusoid:
    # Every period edge of 10**6 cycles, the most the domain allows, would
    # trace a peak of over 30 MB in config validation alone; a 0.5 s run reaches one.
    CYCLES = 10**6

    def test_a_short_run_builds_only_the_edges_it_reaches(self, params, maps, pid_gains, supervisor, load):
        import tracemalloc

        from pneuctrl.config import scenario_from_dict

        tracemalloc.start()
        try:
            sc = scenario_from_dict({"reference": {"kind": "sinusoid", "cycles": self.CYCLES},
                                     "controller": "pid", "timing": {"duration_s": 0.5}})
            ctrl = PidLoop(pid_gains, supervisor, dt=0.01)
            traj = run_scenario(sc.reference, ctrl, sc.timing, params, maps, load)
            report = compute_metrics(traj, sc.reference)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6, peak
        assert len(report.to_dict()["per_window"]["ae"]) == 1

    def test_cut_edges_match_the_full_list(self):
        ref = Reference.sinusoid(50.0, 0.3, 40)
        full = ref.window_edges()
        assert len(full) == 41
        for until in (0.0, 1.0, 10.0 / 3.0, 3.4, 50.0, ref.duration, math.inf):
            cut = ref.window_edges(until)
            assert cut == full[:len(cut)]
            assert cut[-1] > until or cut == full


class TestTickRecord:
    """The per-tick internals ``run_scenario`` logs beside each command."""

    REF = Reference.multi_step([(0.0, 0.2), (50.0, 0.3)])

    def test_pid_logs_no_internals(self, params, maps, pid_gains, supervisor, load):
        traj = run_scenario(self.REF, PidLoop(pid_gains, supervisor, dt=0.01), make_timing(), params, maps, load)
        assert len(traj.flags) == len(traj.t) == 50
        assert np.all(np.isnan(traj.s)) and np.all(np.isnan(traj.x_star))
        assert set(traj.flags) == {""}

    def test_dm_smc_logs_its_sliding_variable_and_spool_command(self, params, maps, smc_gains, supervisor, load):
        ctrl = DmSmcLoop(params, maps, smc_gains, supervisor, dt=0.01)
        traj = run_scenario(self.REF, ctrl, make_timing(), params, maps, load)
        assert len(traj.flags) == len(traj.t) == 50
        assert np.all(np.isfinite(traj.s)) and np.any(traj.s != 0.0)
        assert np.all((traj.x_star >= 0.0) & (traj.x_star <= 1.0))
        assert set(traj.flags) <= {"", "gain-guard"}

    @pytest.mark.parametrize("name", ["nmpc", "mi-nmpc"])
    def test_mpc_logs_no_internals(self, params, maps, supervisor, load, name):
        cfg = default_mpc_config()
        if name == "nmpc":
            ctrl = NmpcLoop(params, maps, load, cfg, supervisor, self.REF)
        else:
            ctrl = MinmpcLoop(params, maps, load, cfg, self.REF)
        traj = run_scenario(self.REF, ctrl, make_timing(), params, maps, load)
        assert len(traj.flags) == len(traj.t) == 50
        assert np.all(np.isnan(traj.s)) and np.all(np.isnan(traj.x_star))
        assert set(traj.flags) == {""}
