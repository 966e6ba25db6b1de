"""Tests of the benchmark itself.  Run from the repository root::

    python3 -m pytest -q perfbench

The counter test runs one small traced workload twice (about a minute).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import phases  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_tracer_rebinds_names_imported_by_name_and_restores_them():
    from pneuctrl import cli, experiment, mpc, optim, sysid

    original = optim.golden_section
    with Tracer():
        assert mpc.golden_section is sysid.golden_section is optim.golden_section
        assert mpc.golden_section is not original
        assert cli.run_scenario is experiment.run_scenario
        assert cli.run_scenario.__wrapped__ is not None
    assert mpc.golden_section is sysid.golden_section is optim.golden_section is original


def test_self_time_excludes_wrapped_children():
    from pneuctrl import config, control

    params, maps = config.default_plant(), config.default_maps()
    state = control.ControllerState(mode=control.Mode.INFLATION)
    with Tracer() as tracer:
        for _ in range(50):
            control.smc_update(state, params.p_atm, params.p_atm + 5e4, 0.0,
                               config.default_smc_gains(), params, maps,
                               config.default_supervisor(), 0.01)
    smc = tracer.get("control.smc_update")
    children = sum(tracer.get(n).total_s for n in ("plant.drift", "plant.gain", "valvemap.invert_spool"))
    assert smc.calls == 50
    assert tracer.get("plant.branch_flows").calls == 3 * 50
    assert smc.self_s == pytest.approx(smc.total_s - children, abs=1e-9)
    assert tracer.edges[("control.smc_update", "plant.drift")] == 50


@pytest.fixture(scope="module")
def two_traced_runs(tmp_path_factory):
    """One small plan (the smallest size of every phase) run twice under the tracer."""
    plan = inputs.make_plan("closed-loop", 3, 1, tmp_path_factory.mktemp("plan"))
    out = []
    for _ in range(2):
        tally = phases.Tally()
        with Tracer() as tracer:
            res = phases.run_all(plan, tally)
        out.append((tracer, res, tally))
    return out


def test_traced_work_counters_repeat_exactly(two_traced_runs):
    (a, _, _), (b, _, _) = two_traced_runs
    for name in ("plant.step", "mpc.rollout_cost", "sysid.simulate_at_samples", "optim.golden_section"):
        assert a.get(name).calls == b.get(name).calls > 0
    assert a.get("optim.golden_section").extra["evals"] == b.get("optim.golden_section").extra["evals"]


def test_reported_metrics_match_benchmark_json(two_traced_runs):
    tracer, res, _ = two_traced_runs[0]
    layer = run.per_layer_metrics(tracer, res, overhead=0.1)
    assert {n: u for n, (_, u) in layer.items()} == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert run.UNITS == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert sorted(inputs.WORKLOADS) == sorted(w["name"] for w in BENCHMARK["workloads"])


def test_mi_nmpc_cost_above_nmpc_is_rejected():
    from pneuctrl import config, mpc
    from pneuctrl.plant import Mode

    params = config.default_plant()
    refs = [params.p_atm + 2e4] * 10
    args = (config.default_mpc_config(), params, config.default_maps(), config.default_load())
    nm = mpc.nmpc_solve(params.p_atm, refs, Mode.INFLATION, *args)
    assert checks.check_mi_not_worse(nm.cost, nm.cost) == []
    assert checks.check_mi_not_worse(nm.cost * (1 + 1e-6), nm.cost)


def _identification(scale: float) -> dict:
    """An ``identification.json`` as the CLI writes it, with ``c_po`` scaled."""
    from pneuctrl import config
    from pneuctrl.plant import Mode
    from pneuctrl.sysid import ChannelIdResult, IdResult

    c = config.DEFAULT_CONDUCTANCES
    result = ChannelIdResult(
        mode=Mode.INFLATION,
        leak=IdResult(c.c_oa, 1.0, 30),
        source=IdResult(c.c_po * scale, 1.0, 30),
        spool_map=config.default_maps()[Mode.INFLATION],
        points=[],
    )
    return json.loads(json.dumps(result.to_dict()))


def test_conductance_scaled_by_1_2_is_rejected():
    from pneuctrl import config

    synth = config.default_synthesis_dict()
    truth = {"conductances": synth["plant"]["conductances"], "maps": synth["maps"]}
    found, cond_err, map_err = checks.check_identification("inflation", _identification(1.0), truth)
    assert found == [] and cond_err == pytest.approx(0.0) and map_err == 0.0
    found, cond_err, _ = checks.check_identification("inflation", _identification(1.2), truth)
    assert cond_err == pytest.approx(0.2) and any("c_po" in p for p in found)


def test_pressure_outside_the_rails_is_rejected():
    assert checks.check_rails("run", [0.0, 199.0, -91.0], -91.0, 199.0) == []
    assert checks.check_rails("run", [0.0, 199.01], -91.0, 199.0)
    assert checks.check_rails("run", [-91.01, 0.0], -91.0, 199.0)


def test_tracking_checks_reject_smc_behind_pid_and_ae_out_of_band():
    assert checks.check_tracking("s", 2.6, 4.8, multistep=True) == []
    assert checks.check_tracking("s", 5.0, 4.8, multistep=False)
    assert checks.check_tracking("s", 3.2, 4.8, multistep=True)


def test_nominal_cpu_scales_by_the_sampled_reference_and_drops_it():
    from hostspeed import REF_NOMINAL_S, SpeedSampler

    speed = SpeedSampler()
    ref = 2 * REF_NOMINAL_S                    # the host runs at half the nominal speed
    # sample times lie before this process's own CPU time, as real ones do
    speed.samples = [(0.010, ref), (0.015, ref), (0.020, ref)]
    # 12 ms of CPU holds two samples: 12 ms - 2 ref of the call's own work, at half speed
    assert speed.nominal_cpu(0.011, 0.023) == pytest.approx((0.012 - 2 * ref) / 2)
    # a call between samples takes the mean speed of the sample before it and
    # of one taken right after it
    nominal = speed.nominal_cpu(0.0205, 0.0207)
    after = speed.samples[-1][1]
    assert len(speed.samples) == 4
    assert nominal == pytest.approx(0.0002 * (0.5 + REF_NOMINAL_S / after) / 2)


def test_tail_percentile_leaves_ten_solves_beyond():
    for n in (20, 30, 100):
        q = run.tail_percentile(n)
        assert n * (100 - q) >= 1000 > n * (99 - q)


def test_without_sources_the_benchmark_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sysid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
