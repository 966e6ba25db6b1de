"""Acceptance suite: one test per headline criterion, each printing a
PASS line with the measured numbers (run with -s to see them)."""

import time
from dataclasses import replace

import numpy as np
import pytest

from pneuctrl.config import (
    default_load,
    default_maps,
    default_mpc_config,
    default_multi_step_reference,
    default_pid_gains,
    default_plant,
    default_sinusoid_reference,
    default_smc_gains,
    default_supervisor,
    default_timing,
)
from pneuctrl.experiment import (
    DmSmcLoop,
    MinmpcLoop,
    PidLoop,
    Reference,
    TimingConfig,
    compute_metrics,
    run_scenario,
)
from mpc_reference import descent_oracle
from pneuctrl.mpc import MpcConfig, minmpc_solve
from pneuctrl.plant import Conductances, Mode
from pneuctrl.plant import branch_flows, drift, gain, step as plant_step
from plant_reference import net_outlet_flow
from pneuctrl.sysid import StepTrace, fit_decay_conductance, fit_source_conductance, identify_channel, synthesize_protocol
from pneuctrl.valvemap import eval_spool

PARAMS = default_plant()
MAPS = default_maps()
SUP = default_supervisor()
SMC_GAINS = default_smc_gains()
PID_GAINS = default_pid_gains()
LOAD = default_load()
H = SUP.h


def timed_scenario(controller_factory, ref, timing, p_init=None):
    t0 = time.perf_counter()
    traj = run_scenario(ref, controller_factory(), timing, PARAMS, MAPS, LOAD, p_init=p_init)
    elapsed = time.perf_counter() - t0
    return traj, compute_metrics(traj, ref), elapsed


@pytest.fixture(scope="module")
def multistep_smc():
    ref = default_multi_step_reference()
    return timed_scenario(
        lambda: DmSmcLoop(PARAMS, MAPS, SMC_GAINS, SUP, dt=0.01), ref, default_timing(),
    ) + (ref,)


@pytest.fixture(scope="module")
def multistep_pid():
    ref = default_multi_step_reference()
    return timed_scenario(
        lambda: PidLoop(PID_GAINS, SUP, dt=0.01), ref, default_timing(),
    ) + (ref,)


@pytest.fixture(scope="module")
def sinusoid_smc():
    ref = default_sinusoid_reference()
    return timed_scenario(
        lambda: DmSmcLoop(PARAMS, MAPS, SMC_GAINS, SUP, dt=0.01), ref, default_timing(),
    ) + (ref,)


@pytest.fixture(scope="module")
def sinusoid_pid():
    ref = default_sinusoid_reference()
    return timed_scenario(
        lambda: PidLoop(PID_GAINS, SUP, dt=0.01), ref, default_timing(),
    ) + (ref,)


def test_criterion_01_hybrid_form_equivalence():
    t0 = time.perf_counter()
    k = PARAMS.gas_energy / PARAMS.volume
    worst = 0.0
    for i in range(200):
        p = PARAMS.p_neg + (PARAMS.p_pos - PARAMS.p_neg) * i / 199.0
        flows = branch_flows(p, PARAMS)
        scale = k * (flows.a_po + flows.a_on + flows.a_oa + flows.a_ao)
        for m in (Mode.DEFLATION, Mode.INFLATION):
            g_m = gain(p, m, PARAMS)
            f = drift(p, PARAMS)
            for x in (0.0, 0.25, 0.5, 0.75, 1.0):
                lhs = f + g_m * x
                rhs = k * net_outlet_flow(x, p, m, PARAMS)
                rel = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs), scale)
                worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: hybrid-form equivalence, worst rel err {worst:.2e}, {elapsed:.2f} s")


def test_criterion_02_full_open_step_speed():
    t0 = time.perf_counter()
    p, t = PARAMS.p_atm, 0.0
    target = PARAMS.p_atm + 100e3 - 5e3
    while p < target and t < 2.0:
        p, t = plant_step(p, 1.0, Mode.INFLATION, 1e-3, PARAMS, LOAD), t + 1e-3
    elapsed = time.perf_counter() - t0
    assert 0.10 <= t <= 0.40
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 2 PASS: full-open 0->95 kPa gauge in {t:.3f} s (band 0.10-0.40), {elapsed:.2f} s")


def test_criterion_03_multistep_tracking_bands(multistep_smc):
    traj, metrics, elapsed, ref = multistep_smc
    assert 0.5 <= metrics.ae <= 3.0
    assert metrics.e_ss <= 1.5
    assert metrics.switches <= 2.0
    assert elapsed < 10.0
    print(
        f"\nACCEPTANCE 3 PASS: multi-step DM-SMC AE={metrics.ae:.2f} kPa (band 0.5-3.0), "
        f"e_ss={metrics.e_ss:.2f} kPa (<=1.5), switches/stage={metrics.switches:.2f} (<=2), {elapsed:.1f} s"
    )


def test_criterion_04_controller_ordering_multistep(multistep_smc, multistep_pid):
    _, smc_metrics, _, _ = multistep_smc
    _, pid_metrics, _, _ = multistep_pid
    smc_total = sum(smc_metrics.per_window["switches"])
    pid_total = sum(pid_metrics.per_window["switches"])
    assert smc_metrics.ae < pid_metrics.ae
    assert smc_total < pid_total
    print(
        f"\nACCEPTANCE 4 PASS: shared-seed multi-step AE {smc_metrics.ae:.2f} < {pid_metrics.ae:.2f} kPa, "
        f"total switches {smc_total} < {pid_total}"
    )


def test_criterion_05_sinusoid_tracking(sinusoid_smc, sinusoid_pid):
    _, smc_metrics, elapsed, _ = sinusoid_smc
    _, pid_metrics, _, _ = sinusoid_pid
    assert smc_metrics.ae <= 2.0
    assert smc_metrics.ae < pid_metrics.ae
    assert 1.0 <= smc_metrics.switches <= 3.0
    assert elapsed < 10.0
    print(
        f"\nACCEPTANCE 5 PASS: 0.5 Hz sinusoid DM-SMC AE={smc_metrics.ae:.2f} kPa (<=2.0, PID {pid_metrics.ae:.2f}), "
        f"switches/period={smc_metrics.switches:.2f} (2 +/- 1), {elapsed:.1f} s"
    )


def test_criterion_06_identification_round_trip():
    t0 = time.perf_counter()
    traces = synthesize_protocol(PARAMS, MAPS, modes=(Mode.INFLATION, Mode.DEFLATION))
    template = replace(PARAMS, conductances=Conductances(1e-10, 1e-10, 1e-11, 1e-11))
    truth = PARAMS.conductances

    worst_cond = 0.0
    worst_map = 0.0
    picked = {}
    for mode in (Mode.INFLATION, Mode.DEFLATION):
        res = identify_channel(traces, mode, template)
        for name, value in ((res.leak_name, res.leak.value), (res.source_name, res.source.value)):
            worst_cond = max(worst_cond, abs(value / getattr(truth, name) - 1.0))
        u = 20.0
        while u <= 100.0:
            worst_map = max(worst_map, abs(eval_spool(u, res.spool_map) - eval_spool(u, MAPS[mode])))
            u += 0.25
        mine = [tr for tr in traces if tr.mode == mode]
        picked[mode] = (
            max((tr for tr in mine if tr.kind == "decay" and tr.u2 == 0.0),
                key=lambda tr: abs(float(tr.p[0]) - PARAMS.p_atm)),
            max((tr for tr in mine if tr.kind == "rise" and tr.u2 >= 100.0), key=lambda tr: tr.span),
        )
    assert worst_cond <= 0.05
    assert worst_map <= 0.02

    med_errs = []
    for mode, leak, src in ((Mode.INFLATION, "c_oa", "c_po"), (Mode.DEFLATION, "c_ao", "c_on")):
        decay, rise = picked[mode]
        for name, trace, fitter, x in ((leak, decay, fit_decay_conductance, 0.0),
                                       (src, rise, fit_source_conductance, 1.0)):
            errs = []
            for seed in range(20):
                rng = np.random.default_rng(seed)
                noisy = StepTrace(t=trace.t, p=trace.p + rng.normal(0.0, 500.0, len(trace.p)),
                                  u1=trace.u1, u2=trace.u2, kind=trace.kind)
                fit = fitter(noisy, name, template)
                errs.append(abs(fit.value / getattr(truth, name) - 1.0))
            med_errs.append((name, float(np.median(errs))))
    worst_noisy = max(e for _, e in med_errs)
    elapsed = time.perf_counter() - t0
    assert worst_noisy <= 0.15
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 6 PASS: identification round trip, conductances within {worst_cond * 100:.2f}% "
        f"(noiseless, <=5%), median noisy within {worst_noisy * 100:.2f}% (<=15%), "
        f"spool map |dx| {worst_map:.4f} (<=0.02), {elapsed:.1f} s"
    )


def test_criterion_07_reaching_law():
    ref = Reference.multi_step([(100.0, 5.0)])
    timing = replace(default_timing(), noise_sigma=0.0)
    ctrl = DmSmcLoop(PARAMS, MAPS, SMC_GAINS, SUP, dt=0.01)
    traj = run_scenario(ref, ctrl, timing, PARAMS, MAPS, LOAD, p_init=PARAMS.p_atm)
    mu = SMC_GAINS[Mode.INFLATION].mu
    checked = 0
    violations = 0
    for k in range(len(traj.s) - 1):
        if abs(traj.s[k]) > mu and 0.0 < traj.x_star[k] < 1.0:
            checked += 1
            if abs(traj.s[k + 1]) > abs(traj.s[k]):
                violations += 1
    assert checked > 0
    assert violations == 0
    print(f"\nACCEPTANCE 7 PASS: reaching law, |s| non-increasing at {checked} applicable ticks, 0 violations")


def test_criterion_08_hysteresis_holds_inside_band(multistep_smc, multistep_pid, sinusoid_smc, sinusoid_pid):
    total_switches = 0
    for traj, _, _, _ in (multistep_smc, multistep_pid, sinusoid_smc, sinusoid_pid):
        for k in range(1, len(traj.mode)):
            if traj.mode[k] != traj.mode[k - 1]:
                total_switches += 1
                strictly_inside = (
                    traj.p_ref[k] - H < traj.p_meas[k] < traj.p_ref[k] + H
                )
                assert not strictly_inside, f"switch at t={traj.t[k]} inside the deadband"
    print(f"\nACCEPTANCE 8 PASS: hysteresis respected at all {total_switches} logged switches across 4 runs")


def test_criterion_09_compute_time(multistep_smc, multistep_pid):
    _, smc_metrics, _, _ = multistep_smc
    _, pid_metrics, _, _ = multistep_pid
    ref = Reference.multi_step([(50.0, 0.5)])
    timing = TimingConfig(control_rate=10.0, sensor_rate=60.0, sim_substep=1000.0,
                          noise_sigma=0.0, seed=0)
    ctrl = MinmpcLoop(PARAMS, MAPS, LOAD, default_mpc_config(), ref)
    traj = run_scenario(ref, ctrl, timing, PARAMS, MAPS, LOAD)
    minmpc_ct = float(np.mean(traj.ct))
    assert smc_metrics.ct_mean < 1e-3
    assert pid_metrics.ct_mean < 1e-4
    assert minmpc_ct >= 10.0 * smc_metrics.ct_mean
    print(
        f"\nACCEPTANCE 9 PASS: mean update times DM-SMC {smc_metrics.ct_mean * 1e3:.3f} ms (<1), "
        f"PID {pid_metrics.ct_mean * 1e3:.4f} ms (<0.1), MI-NMPC {minmpc_ct * 1e3:.1f} ms "
        f"({minmpc_ct / smc_metrics.ct_mean:.0f}x DM-SMC, >=10x)"
    )


def test_criterion_10_minmpc_small_horizon_optimality():
    n = 6
    # The oracle: one sweep of coordinate descent on each of the 2^N mode sequences.
    cfg = MpcConfig(horizon_steps=n, dt_pred=0.01, max_switches=n - 1)
    rng = np.random.default_rng(2024)
    worst = -np.inf
    for _ in range(20):
        p0 = float(rng.uniform(PARAMS.p_atm - 75e3, PARAMS.p_atm + 175e3))
        ref = float(rng.uniform(PARAMS.p_atm - 75e3, PARAMS.p_atm + 175e3))
        refs = [ref] * n
        sol = minmpc_solve(p0, refs, cfg, PARAMS, MAPS, LOAD)
        oracle = descent_oracle(p0, refs, cfg, PARAMS, MAPS, LOAD, sweeps=1)
        worst = max(worst, (sol.cost - oracle) / oracle)
    assert worst <= 1e-9
    print(f"\nACCEPTANCE 10 PASS: N={n} joint optimization at or below the 2^N brute force on 20 states, "
          f"worst relative excess {worst:.2e}")
