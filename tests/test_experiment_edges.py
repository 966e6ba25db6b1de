"""Where ``pneuctrl.experiment`` draws each boundary of a run's schedule and of its metric windows.

Each test pins one edge exactly, most at a value that lands on it in floating point: the
reference's end and its tolerance, the lowest control rate, an event due exactly half a substep
after a substep, a tick exactly a quarter tick gap before a window edge, a run cut exactly at, just
past or inside a stage, a tick at exactly 80 % of its window, and the shortest trajectory scored.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from pneuctrl import mpc
from pneuctrl.config import default_mpc_config
from pneuctrl.experiment import (
    MinmpcLoop,
    PidLoop,
    Reference,
    ScenarioEnd,
    TimingConfig,
    compute_metrics,
    event_substeps,
    metric_windows,
    reference_at,
    run_scenario,
)
from pneuctrl.plant import Mode
from test_experiment import P_ATM, synthetic_trajectory

TICKS = np.array([i / 100 for i in range(300)])   # 100 Hz, each tick time as near its value as a float is
EPS = 0.25 * 0.01   # a quarter of the tick gap: how far before a window edge a tick joins the next window


def trajectory(t, e_kpa=None, modes=None, duration=None):
    """A control-tick log at times ``t``: zero error and inflation unless ``e_kpa`` and ``modes`` say otherwise."""
    n = len(t)
    traj = synthetic_trajectory([0.0] * n if e_kpa is None else e_kpa, [0.0] * n, [1] * n if modes is None else modes)
    return replace(traj, t=np.asarray(t, dtype=float), duration=duration)


def windows(t, ref, duration):
    return [(w0, w1, idx.tolist()) for w0, w1, idx in metric_windows(np.asarray(t), ref, duration)]


class TestSchedule:
    def test_the_end_with_its_tolerance_is_inside_the_scenario(self):
        ref = Reference.multi_step([(10.0, 1.5), (20.0, 2.0)])
        end = ref.duration * (1.0 + 1e-12)
        assert reference_at(ref, end, P_ATM) == (P_ATM + 20000.0, 0.0)
        with pytest.raises(ScenarioEnd):
            reference_at(ref, np.nextafter(end, np.inf), P_ATM)

    @pytest.mark.parametrize("frequency_hz", [0.5, 2.0])
    def test_a_long_sinusoid_s_edges_reach_past_a_run_by_at_most_two_periods(self, frequency_hz):
        ref, period = Reference.sinusoid(10.0, frequency_hz, 10**4), 1.0 / frequency_hz
        for until in (0.3, 3.0, 7.7):
            edges = ref.window_edges(until)
            assert until < edges[-1] <= until + 2.0 * period

    def test_one_control_tick_a_second_is_the_lowest_rate(self):
        assert TimingConfig(control_rate=1.0, sensor_rate=1.0).control_rate == 1.0
        with pytest.raises(ValueError):
            TimingConfig(control_rate=np.nextafter(1.0, 0.0))

    def test_an_event_due_half_a_substep_after_a_substep_fires_on_it(self):
        # At 400 Hz on the 1 kHz substep, odd events fall due at 2.5, 7.5, ... ms: on substeps 2, 7, ...
        assert event_substeps(11, 1000.0, 400.0).tolist() == [0, 2, 5, 7, 10]
        assert event_substeps(26, 1000.0, 80.0).tolist() == [0, 12, 25]

    def test_a_long_run_s_schedule_takes_a_few_passes(self):
        # An event on each of 10**6 substeps: a start estimate far below each would take 10**6 passes.
        assert np.array_equal(event_substeps(10**6, 1000.0, 1000.0), np.arange(10**6))

    def test_the_mi_nmpc_loop_applies_the_first_step_s_mode(self, params, maps, load):
        # From 10 kPa gauge, 50 ms before the reference steps up, the solve deflates once, then inflates.
        cfg, ref, t, p = default_mpc_config(), Reference.multi_step([(0.0, 1.0), (50.0, 2.0)]), 0.95, params.p_atm + 1e4
        loop = MinmpcLoop(params, maps, load, cfg, ref)
        refs = [reference_at(ref, min(t + (k + 1) * cfg.dt_pred, ref.duration), params.p_atm)[0]
                for k in range(cfg.horizon_steps)]
        sol = mpc.minmpc_solve(p, refs, cfg, params, maps, load)
        assert sol.m_seq[:2] == (Mode.DEFLATION, Mode.INFLATION)
        assert loop.update(t, p, *reference_at(ref, t, params.p_atm))[:2] == (sol.u_seq[0], Mode.DEFLATION)

    def test_each_compute_time_lies_within_the_run(self, params, maps, pid_gains, supervisor, load):
        began = time.perf_counter()
        traj = run_scenario(Reference.multi_step([(20.0, 0.5)]), PidLoop(pid_gains, supervisor, 0.01),
                            TimingConfig(), params, maps, load)
        assert 0.0 <= traj.ct.min() and traj.ct.max() <= time.perf_counter() - began


class TestWindows:
    TWO = Reference.multi_step([(0.0, 1.0), (0.0, 1.0)])
    THREE = Reference.multi_step([(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)])

    def test_a_tick_within_a_quarter_gap_of_an_edge_joins_the_next_window(self):
        # 1 ms before the edge (closer than a quarter gap): next window; 4 ms before: this one.
        assert [len(idx) for _, _, idx in windows(TICKS, Reference.multi_step([(0.0, 1.001), (0.0, 1.0)]),
                                                  None)] == [100, 100]
        assert [len(idx) for _, _, idx in windows(TICKS, Reference.multi_step([(0.0, 1.004), (0.0, 1.0)]),
                                                  None)] == [101, 100]

    def test_a_tick_exactly_a_quarter_gap_before_an_edge_opens_the_next_window(self):
        assert 1.0025 - EPS == TICKS[100]
        got = windows(TICKS[:200], Reference.multi_step([(0.0, 1.0025), (0.0, 1.0)]), None)
        assert [idx for _, _, idx in got] == [list(range(100)), list(range(100, 200))]

    def test_the_quarter_gap_is_the_first_gap_wherever_the_ticks_start(self):
        assert windows(TICKS[100:200], self.TWO, None) == [(0.0, 1.0, []), (1.0, 2.0, list(range(100)))]

    def test_a_run_cut_inside_its_last_stage_ends_its_last_window_at_the_cut(self):
        assert [(w0, w1) for w0, w1, _ in windows(TICKS[:150], self.TWO, 1.5)] == [(0.0, 1.0), (1.0, 1.5)]

    def test_a_run_cut_a_quarter_gap_or_less_past_an_edge_ends_the_window_before_it_at_the_cut(self):
        for cut in (1.0 + EPS, 1.001):
            assert [(w0, w1, len(idx)) for w0, w1, idx in windows(TICKS[:100], self.THREE, cut)] == [(0.0, cut, 100)]

    def test_a_cut_run_drops_an_empty_last_window_and_keeps_one_of_one_tick(self):
        assert [len(idx) for _, _, idx in windows(TICKS[:100], self.THREE, 1.005)] == [100]
        assert [len(idx) for _, _, idx in windows(TICKS[:101], self.THREE, 1.01)] == [100, 1]

    def test_a_cut_run_keeps_an_empty_window_before_its_last(self):
        t = [0.0, 0.01, 2.0, 2.01]
        assert [(w0, w1, idx) for w0, w1, idx in windows(t, self.THREE, 2.5)] == [
            (0.0, 1.0, [0, 1]), (1.0, 2.0, []), (2.0, 2.5, [2, 3])]

    def test_a_run_of_the_reference_s_length_with_an_empty_last_window_is_rejected(self):
        with pytest.raises(ValueError, match="no samples in window"):
            compute_metrics(trajectory(TICKS[:100], duration=2.0), self.TWO)


class TestWindowMetrics:
    def test_two_ticks_are_enough_to_score(self):
        report = compute_metrics(trajectory([0.0, 0.01], e_kpa=[1.0, 3.0]), Reference.multi_step([(0.0, 0.02)]))
        assert report.ae == 2.0

    def test_a_later_window_s_itae_counts_time_from_its_start(self):
        # 2 kPa over the second 1 s window: each tick weighs (t - 1) * 2 * 0.01.
        e = [0.0] * 100 + [2.0] * 100
        report = compute_metrics(trajectory(TICKS[:200], e_kpa=e), TestWindows.TWO)
        assert report.per_window["itae"][0] == 0.0
        assert report.per_window["itae"][1] == pytest.approx(sum(i / 100 * 2.0 * 0.01 for i in range(100)))

    def test_a_switch_on_the_first_tick_of_a_window_from_the_tick_before_counts(self):
        # The first window holds tick 0 alone; the second opens on tick 1, which switches.
        modes = [0] + [1] * 199
        report = compute_metrics(trajectory(TICKS[:200], modes=modes),
                                 Reference.multi_step([(0.0, 0.01), (0.0, 1.99)]))
        assert report.per_window["switches"] == [0, 1]

    def test_a_switch_between_the_run_s_first_two_ticks_counts_once(self):
        report = compute_metrics(trajectory(TICKS[:100], modes=[0] + [1] * 99), Reference.multi_step([(0.0, 1.0)]))
        assert report.per_window["switches"] == [1]

    def test_the_steady_state_error_starts_at_exactly_80_percent_of_each_window(self):
        # 1 kPa at 4.0 s, 80 % into the first 5 s window, and at 9.0 s, 80 % into the second.
        t = [i / 100 for i in range(1000)]
        e = [1.0 if i in (400, 900) else 0.0 for i in range(1000)]
        report = compute_metrics(trajectory(t, e_kpa=e), Reference.multi_step([(0.0, 5.0), (0.0, 5.0)]))
        assert report.per_window["e_ss"] == [0.01, 0.01]

    def test_a_window_with_no_tick_in_its_last_20_percent_takes_its_last_tick_s_error(self):
        t = [0.0, 0.5, 1.0, 1.5]
        report = compute_metrics(trajectory(t, e_kpa=[1.0, 2.0, 3.0, 4.0], duration=2.0), TestWindows.TWO)
        assert report.per_window["e_ss"] == [2.0, 4.0]
