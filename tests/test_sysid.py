import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import pneuctrl
from pneuctrl.config import DEFAULT_DEFLATION_CUBIC, DEFAULT_INFLATION_CUBIC
from pneuctrl.plant import Conductances, Mode
from pneuctrl.sysid import (
    SPOOL_BRACKET,
    StepTrace,
    TraceDataError,
    fit_cubic,
    fit_decay_conductance,
    fit_source_conductance,
    fit_spool_segments,
    identify_channel,
    read_trace_csv,
    simulate_segment,
    synthesize_protocol,
    write_trace_csv,
)
from pneuctrl.valvemap import eval_spool


def make_trace(params, p0, x_bar, mode, duration, u2, kind, noise=0.0, seed=0):
    t, p, _ = simulate_segment(p0, x_bar, mode, duration, params, 60.0, 1000.0)
    if noise > 0.0:
        rng = np.random.default_rng(seed)
        p = p + rng.normal(0.0, noise, len(p))
    u1 = 100.0 if mode == Mode.INFLATION else 0.0
    return StepTrace(t=t, p=p, u1=u1, u2=u2, kind=kind)


# identification template with deliberately wrong conductances
def wrong_template(params):
    return replace(params, conductances=Conductances(1e-10, 1e-10, 1e-11, 1e-11))


class TestStepTraceValidation:
    def test_needs_enough_samples(self):
        with pytest.raises(ValueError):
            StepTrace(t=np.arange(5.0), p=np.zeros(5), u1=100.0, u2=0.0, kind="decay")

    def test_needs_increasing_time(self):
        t = np.array([0.0, 1.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
        with pytest.raises(ValueError):
            StepTrace(t=t, p=np.zeros(10), u1=100.0, u2=0.0, kind="decay")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            StepTrace(t=np.arange(10.0), p=np.zeros(10), u1=100.0, u2=0.0, kind="hold")


class TestDecayConductance:
    def test_recovers_c_oa_within_1pct(self, params):
        trace = make_trace(params, 2.8e5, 0.0, Mode.INFLATION, 4.0, 0.0, "decay")
        res = fit_decay_conductance(trace, "c_oa", wrong_template(params))
        assert res.value == pytest.approx(params.conductances.c_oa, rel=0.01)

    def test_recovers_c_ao_within_1pct(self, params):
        trace = make_trace(params, 2.0e4, 0.0, Mode.DEFLATION, 4.0, 0.0, "decay")
        res = fit_decay_conductance(trace, "c_ao", wrong_template(params))
        assert res.value == pytest.approx(params.conductances.c_ao, rel=0.01)

    def test_noisy_recovery_within_10pct_median(self, params):
        clean = make_trace(params, 2.8e5, 0.0, Mode.INFLATION, 4.0, 0.0, "decay")
        errs = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            noisy = StepTrace(
                t=clean.t, p=clean.p + rng.normal(0.0, 500.0, len(clean.p)),
                u1=clean.u1, u2=clean.u2, kind=clean.kind,
            )
            res = fit_decay_conductance(noisy, "c_oa", wrong_template(params))
            errs.append(abs(res.value / params.conductances.c_oa - 1.0))
        assert float(np.median(errs)) <= 0.10

    def test_flat_trace_at_atmosphere_rejected(self, params):
        trace = make_trace(params, params.p_atm, 0.0, Mode.INFLATION, 2.0, 0.0, "decay")
        with pytest.raises(TraceDataError):
            fit_decay_conductance(trace, "c_oa", params)

    def test_wrong_direction_rejected(self, params):
        trace = make_trace(params, 2.0e4, 0.0, Mode.DEFLATION, 4.0, 0.0, "decay")
        with pytest.raises(TraceDataError):
            fit_decay_conductance(trace, "c_oa", params)

    def test_unknown_name_rejected(self, params):
        trace = make_trace(params, 2.8e5, 0.0, Mode.INFLATION, 4.0, 0.0, "decay")
        with pytest.raises(ValueError):
            fit_decay_conductance(trace, "c_po", params)


class TestSourceConductance:
    def test_recovers_c_po_within_1pct(self, params):
        trace = make_trace(params, params.p_atm, 1.0, Mode.INFLATION, 2.0, 100.0, "rise")
        res = fit_source_conductance(trace, "c_po", wrong_template(params))
        assert res.value == pytest.approx(params.conductances.c_po, rel=0.01)

    def test_recovers_c_on_within_1pct(self, params):
        trace = make_trace(params, params.p_atm, 1.0, Mode.DEFLATION, 2.0, 100.0, "rise")
        res = fit_source_conductance(trace, "c_on", wrong_template(params))
        assert res.value == pytest.approx(params.conductances.c_on, rel=0.01)

    def test_motionless_trace_rejected(self, params):
        t = np.arange(0.0, 1.0, 1.0 / 60.0)
        trace = StepTrace(t=t, p=np.full(len(t), params.p_atm), u1=100.0, u2=100.0, kind="rise")
        with pytest.raises(TraceDataError):
            fit_source_conductance(trace, "c_po", params)

    def test_local_minimum_certificate(self, params):
        from pneuctrl.sysid import simulate_at_samples

        trace = make_trace(params, params.p_atm, 1.0, Mode.INFLATION, 2.0, 100.0, "rise")
        res = fit_source_conductance(trace, "c_po", wrong_template(params))

        def rms_at(c):
            p = replace(params, conductances=replace(params.conductances, c_po=c))
            pred = simulate_at_samples(float(trace.p[0]), trace.t, 1.0, Mode.INFLATION, p)
            return math.sqrt(float(np.mean((pred - trace.p) ** 2)))

        assert res.residual <= rms_at(0.5 * res.value)
        assert res.residual <= rms_at(2.0 * res.value)


class TestSpoolSegments:
    def test_recovers_interior_fraction(self, params):
        trace = make_trace(params, params.p_atm, 0.8, Mode.INFLATION, 3.0, 75.0, "rise")
        pts = fit_spool_segments([trace], params)
        assert pts[0].x_hat == pytest.approx(0.8, abs=0.01)
        assert not pts[0].at_bound

    def test_closed_segment_hits_lower_bound(self, params):
        trace = make_trace(params, params.p_atm + 40e3, 0.0, Mode.INFLATION, 3.0, 20.0, "rise")
        pts = fit_spool_segments([trace], params)
        assert pts[0].at_bound
        assert pts[0].x_hat <= SPOOL_BRACKET[0] + 1e-3

    def test_full_open_segment_hits_upper_bound(self, params):
        trace = make_trace(params, params.p_atm, 1.0, Mode.INFLATION, 3.0, 100.0, "rise")
        pts = fit_spool_segments([trace], params)
        assert pts[0].at_bound
        assert pts[0].x_hat >= SPOOL_BRACKET[1] - 1e-3

    def test_stuck_mid_duty_segment_rejected(self, params):
        t = np.arange(0.0, 2.0, 1.0 / 60.0)
        trace = StepTrace(t=t, p=np.full(len(t), params.p_atm), u1=100.0, u2=60.0, kind="rise")
        with pytest.raises(TraceDataError):
            fit_spool_segments([trace], params)


class TestFitCubic:
    @pytest.mark.parametrize("truth,mode", [
        (DEFAULT_INFLATION_CUBIC, Mode.INFLATION),
        (DEFAULT_DEFLATION_CUBIC, Mode.DEFLATION),
    ])
    def test_exact_recovery_from_sampled_pairs(self, truth, mode):
        us = np.arange(25.0, 96.0, 5.0)
        pairs = [(u, truth[0] + truth[1] * u + truth[2] * u * u + truth[3] * u ** 3) for u in us]
        m = fit_cubic(pairs, mode=mode)
        for k in range(4):
            assert m.a[k] == pytest.approx(truth[k], rel=1e-8)

    def test_noisy_pairs_fit_residual_bounded(self):
        truth = DEFAULT_INFLATION_CUBIC
        rng = np.random.default_rng(3)
        us = np.arange(22.0, 96.0, 1.0)
        worst = 0.0
        for _ in range(5):
            pairs = [
                (u, truth[0] + truth[1] * u + truth[2] * u * u + truth[3] * u ** 3
                 + rng.normal(0.0, 0.01))
                for u in us
            ]
            m = fit_cubic(pairs)
            resid = [abs(eval_spool(u, m) - max(0.0, min(1.0, x))) for u, x in pairs]
            worst = max(worst, float(np.sqrt(np.mean(np.square(resid)))))
        assert worst <= 0.02

    def test_too_few_pairs_rejected(self):
        with pytest.raises(ValueError):
            fit_cubic([(20.0, 0.0), (40.0, 0.5), (60.0, 0.8)])

    def test_duplicate_duties_rejected(self):
        pairs = [(30.0, 0.3), (30.0, 0.31), (30.0, 0.29), (30.0, 0.3), (30.0, 0.32)]
        with pytest.raises(ValueError):
            fit_cubic(pairs)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column", [0, 1])
    def test_non_finite_pair_rejected(self, bad, column):
        pairs = [[u, 0.01 * u] for u in (25.0, 45.0, 65.0, 85.0, 95.0)]
        pairs[2][column] = bad
        with pytest.raises(ValueError, match="finite"):
            fit_cubic(pairs)

    def test_leaves_numpy_ma_unimported(self):
        # np.unique imports numpy.ma on its first call, a cost paid by every sysid process.
        code = (
            "import sys\n"
            "from pneuctrl.sysid import fit_cubic\n"
            "fit_cubic([(u, 0.01 * u) for u in (25.0, 45.0, 65.0, 85.0, 95.0)])\n"
            "sys.exit('numpy.ma' in sys.modules)\n"
        )
        src = str(Path(pneuctrl.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_non_monotone_fit_signals_calibration_failure(self):
        # downward-opening parabola of duty: rises then falls hard
        pairs = [(u, 1.0 - ((u - 60.0) / 40.0) ** 2) for u in (20.0, 35.0, 50.0, 65.0, 80.0, 95.0)]
        with pytest.raises(ValueError):
            fit_cubic(pairs)


class TestIdentifyChannel:
    def test_full_round_trip_noiseless(self, params, maps, protocol_traces):
        for mode in (Mode.INFLATION, Mode.DEFLATION):
            res = identify_channel(protocol_traces, mode, wrong_template(params))
            truth = params.conductances
            assert res.leak.value == pytest.approx(getattr(truth, res.leak_name), rel=0.05)
            assert res.source.value == pytest.approx(getattr(truth, res.source_name), rel=0.05)
            u = 20.0
            while u <= 100.0:
                assert abs(eval_spool(u, res.spool_map) - eval_spool(u, maps[mode])) <= 0.02
                u += 0.5

    def test_missing_segments_reported(self, params, protocol_traces):
        only_sweep = [tr for tr in protocol_traces if tr.mode == Mode.INFLATION and tr.u2 < 100.0 and tr.kind == "rise"]
        with pytest.raises(TraceDataError) as exc:
            identify_channel(only_sweep, Mode.INFLATION, params)
        msg = str(exc.value)
        assert "decay" in msg and "fully-open" in msg

    def test_wrong_mode_rejected(self, params, protocol_traces):
        inflation_only = [tr for tr in protocol_traces if tr.mode == Mode.INFLATION]
        with pytest.raises(TraceDataError):
            identify_channel(inflation_only, Mode.DEFLATION, params)


class TestTraceCsv:
    def test_round_trip(self, params, tmp_path):
        trace = make_trace(params, 2.5e5, 0.0, Mode.INFLATION, 1.0, 0.0, "decay")
        path = tmp_path / "seg.csv"
        write_trace_csv(trace, path)
        back = read_trace_csv(path)
        assert back.u1 == trace.u1
        assert back.u2 == trace.u2
        assert back.kind == trace.kind
        assert np.allclose(back.t, trace.t, atol=1e-6)
        assert np.allclose(back.p, trace.p, atol=1e-5)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,pressure\n0,1\n")
        with pytest.raises(TraceDataError):
            read_trace_csv(path)

    def test_varying_inputs_rejected(self, tmp_path):
        path = tmp_path / "vary.csv"
        rows = ["t_s,p_pa,u1_pct,u2_pct,kind"]
        for i in range(12):
            rows.append(f"{i * 0.1:.6f},101325.0,100.0,{20.0 + i:.1f},rise")
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(TraceDataError):
            read_trace_csv(path)


class TestSynthesizeProtocol:
    def test_trace_inventory(self, protocol_traces):
        for mode in (Mode.INFLATION, Mode.DEFLATION):
            mine = [tr for tr in protocol_traces if tr.mode == mode]
            sweep = [tr for tr in mine if tr.kind == "rise" and tr.u2 < 100.0]
            full = [tr for tr in mine if tr.kind == "rise" and tr.u2 >= 100.0]
            decays = [tr for tr in mine if tr.kind == "decay"]
            assert len(sweep) == 64   # 51 fine steps + 13 coarse steps
            assert len(full) == 1
            assert len(decays) == 65  # one after every driven segment
            duties = sorted(tr.u2 for tr in sweep)
            assert duties[0] == 20.0
            assert duties[1] == pytest.approx(20.2)
            assert 95.0 in duties

    def test_noiseless_by_default(self, params, maps):
        from pneuctrl.sysid import SynthesisConfig

        cfg = SynthesisConfig(rise_duration=0.5, decay_duration=0.3,
                              full_open_duration=0.5, full_decay_duration=0.5)
        a = synthesize_protocol(params, maps, modes=(Mode.INFLATION,), cfg=cfg)
        b = synthesize_protocol(params, maps, modes=(Mode.INFLATION,), cfg=cfg)
        assert all(np.array_equal(x.p, y.p) for x, y in zip(a, b))

    def test_seeded_noise_reproducible(self, params, maps):
        from pneuctrl.sysid import SynthesisConfig

        cfg = SynthesisConfig(rise_duration=0.5, decay_duration=0.3,
                              full_open_duration=0.5, full_decay_duration=0.5,
                              noise_sigma=500.0, seed=9)
        a = synthesize_protocol(params, maps, modes=(Mode.INFLATION,), cfg=cfg)
        b = synthesize_protocol(params, maps, modes=(Mode.INFLATION,), cfg=cfg)
        assert all(np.array_equal(x.p, y.p) for x, y in zip(a, b))

    def test_writes_csv_files(self, params, maps, tmp_path):
        from pneuctrl.sysid import SynthesisConfig

        cfg = SynthesisConfig(rise_duration=0.5, decay_duration=0.3,
                              full_open_duration=0.5, full_decay_duration=0.5)
        traces = synthesize_protocol(params, maps, modes=(Mode.INFLATION,), cfg=cfg,
                                     out_dir=tmp_path)
        files = sorted(tmp_path.glob("*.csv"))
        assert len(files) == len(traces)
        back = read_trace_csv(files[0])
        assert back.mode == Mode.INFLATION

    @pytest.mark.parametrize("field", ["sample_rate", "sim_substep", "rise_duration", "decay_duration",
                                       "full_open_duration", "full_decay_duration", "noise_sigma"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_setting_is_rejected_by_name(self, field, value):
        from pneuctrl.sysid import SynthesisConfig

        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            SynthesisConfig(**{field: value})

    def test_negative_seed_is_rejected(self):
        from pneuctrl.sysid import SynthesisConfig

        with pytest.raises(ValueError, match="seed must be non-negative"):
            SynthesisConfig(seed=-1)

    @pytest.mark.parametrize("field", ["rise_duration", "decay_duration", "full_open_duration",
                                       "full_decay_duration"])
    def test_a_segment_too_short_for_ten_samples_is_rejected(self, params, field):
        from pneuctrl.sysid import SynthesisConfig

        # At 60 Hz on the 1 kHz substep the tenth sample falls on substep 150.
        assert len(simulate_segment(params.p_atm, 0.0, Mode.INFLATION, 0.15, params, 60.0, 1000.0)[0]) == 10
        assert len(simulate_segment(params.p_atm, 0.0, Mode.INFLATION, 0.149, params, 60.0, 1000.0)[0]) == 9
        assert getattr(SynthesisConfig(**{field: 0.15}), field) == 0.15
        with pytest.raises(ValueError, match=f"^{field} is too short: a segment needs at least 10 samples$"):
            SynthesisConfig(**{field: 0.149})

    def test_the_sample_count_agrees_with_simulate_segment_at_any_rate(self):
        import tracemalloc

        from pneuctrl.sysid import SynthesisConfig

        # At 1 mHz the tenth sample falls on substep 9,000,000, near the substep cap.
        SynthesisConfig(sample_rate=1e-3, rise_duration=9000.0, decay_duration=9000.0,
                        full_open_duration=9000.0, full_decay_duration=10_000.0)
        with pytest.raises(ValueError, match="^rise_duration is too short"):
            SynthesisConfig(sample_rate=1e-3, rise_duration=8999.0)
        # At the substep rate the check places ten samples, not the ten million of the segment.
        tracemalloc.start()
        try:
            SynthesisConfig(sample_rate=1000.0, rise_duration=10_000.0, full_decay_duration=10_000.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6, peak
