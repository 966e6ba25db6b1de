"""Exit codes for malformed inputs: 2 for a config error, 3 for bad trace data
or an output path that cannot be a directory, 4 for a model whose rates leave
the float range.

A metric window (stage or period) that holds no control tick is a config
error.  Also: a run cut short by ``duration_s`` still scores the windows it
covers.
"""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from pneuctrl import cli
from pneuctrl import sysid as sysid_mod
from pneuctrl.cli import main
from pneuctrl.config import CONTROLLER_NAMES, default_scenario_dict, default_synthesis_dict, scenario_from_dict
from pneuctrl.experiment import MAX_SUBSTEPS
from pneuctrl.plant import Mode
from pneuctrl.sysid import TRACE_COLUMNS, SynthesisConfig, write_trace_csv


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("mpc", "horizon_steps", 2.7),
        ("mpc", "horizon_steps", True),
        ("mpc", "max_switches", False),
        ("mpc", "max_switches", "1"),
        ("timing", "seed", True),
        ("timing", "seed", 0.5),
        ("timing", "seed", -1),
    ],
)
def test_non_integral_scenario_entry_exits_2(tmp_path, capsys, section, key, value):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({section: {key: value}}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"config.{section}.{key}" in capsys.readouterr().err


def test_the_dropped_mpc_iteration_cap_key_exits_2_naming_it(tmp_path, capsys):
    # The MPC solvers have no iteration cap, so ``max_iters`` is an unknown key.
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"mpc": {"max_iters": 3}}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "max_iters" in capsys.readouterr().err


def test_non_integral_sinusoid_cycles_exits_2(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    ref = {"kind": "sinusoid", "amplitude_kpa": 50.0, "frequency_hz": 0.5, "cycles": 2.5}
    path.write_text(json.dumps({"reference": ref}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "config.reference.cycles" in capsys.readouterr().err


@pytest.mark.parametrize("value", [True, 3.25, -1])
def test_non_integral_synthesis_seed_exits_2(tmp_path, capsys, value):
    path = tmp_path / "synth.json"
    path.write_text(json.dumps({"synthesis": {"seed": value}}))
    assert main(["synthesize", "--config", str(path), "--out", str(tmp_path / "traces")]) == 2
    assert "config.synthesis.seed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "compare", "synthesize"])
def test_negative_seed_option_exits_2(tmp_path, capsys, command):
    args = [command, "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "out"), "--seed", "-1"]
    if command == "compare":
        args += ["--controllers", "pid,dm-smc"]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("command, config", [
    ("run", {"reference": {"kind": "sinusoid", "cycles": "DIGITS"}}),
    ("synthesize", {"synthesis": {"seed": "DIGITS"}}),
])
def test_integer_too_long_to_parse_exits_2(tmp_path, capsys, command, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config).replace('"DIGITS"', "1" * 5001))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert str(path) in capsys.readouterr().err


def test_integral_float_is_accepted(tmp_path):
    path = tmp_path / "scenario.json"
    cfg = {
        "reference": {"kind": "multi-step", "stages": [[0.0, 0.5], [50.0, 0.5]]},
        "mpc": {"horizon_steps": 4.0},
        "timing": {"seed": 3.0},
    }
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("controller", CONTROLLER_NAMES)
def test_source_conductance_past_the_domain_exits_2_under_every_controller(tmp_path, capsys, controller):
    # c_po 1e300 would make the supply branch flow inf: every controller's run must be refused, not hold the valve shut.
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"controller": controller, "plant": {"conductances": {"c_po": 1e300}},
                                "reference": {"stages": [[0, 0.1], [50, 0.1]]}}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "invalid config.plant.conductances.c_po: " in capsys.readouterr().err


def test_malformed_trace_value_exits_3(tmp_path, capsys):
    traces = tmp_path / "traces"
    traces.mkdir()
    rows = [",".join(TRACE_COLUMNS)] + [f"{0.01 * i},150000.0,100.0,60.0,rise" for i in range(12)]
    rows[5] = "0.04,abc,100.0,60.0,rise"
    (traces / "seg.csv").write_text("\n".join(rows) + "\n")
    assert main(["sysid", "--traces", str(traces), "--mode", "inflation"]) == 3
    err = capsys.readouterr().err
    assert "seg.csv" in err and "line 6" in err


@pytest.mark.parametrize(
    "overrides",
    [
        {"timing": {"duration_s": 1.0}},
        # The cut falls just past a period or stage edge, before that window's first tick.
        {
            "reference": {"kind": "sinusoid", "amplitude_kpa": 50.0, "frequency_hz": 0.3, "cycles": 3},
            "timing": {"control_rate_hz": 100.0, "duration_s": 3.34},
        },
        {
            "reference": {"kind": "multi-step", "stages": [[0.0, 1.003], [50.0, 2.0]]},
            "timing": {"control_rate_hz": 100.0, "duration_s": 1.009},
        },
    ],
)
def test_truncated_run_scores_the_windows_it_covers(tmp_path, overrides):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(overrides))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())["metrics"]
    assert len(metrics["per_window"]["ae"]) == 1
    assert metrics["ae_kpa"] == metrics["per_window"]["ae"][0]


def test_run_shorter_than_two_control_ticks_exits_2(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"reference": {"kind": "multi-step", "stages": [[0.0, 0.005]]}}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "two control ticks" in capsys.readouterr().err


def test_failed_spool_calibration_exits_3(tmp_path, capsys):
    # With this noise and seed the deflation sweep fits a cubic that falls too steeply.
    synth = tmp_path / "synth.json"
    synth.write_text(json.dumps({"synthesis": {"noise_sigma_pa": 500}}))
    traces = tmp_path / "traces"
    assert main(["synthesize", "--config", str(synth), "--out", str(traces), "--seed", "3"]) == 0
    capsys.readouterr()
    assert main(["sysid", "--traces", str(traces), "--mode", "deflation", "--out", str(tmp_path / "id")]) == 3
    err = capsys.readouterr().err
    assert "deflation spool calibration failed" in err


@pytest.fixture(scope="module")
def default_inflation_traces(tmp_path_factory):
    """``pneuctrl synthesize`` output for the default synthesis config, inflation only."""
    work = tmp_path_factory.mktemp("default_inflation")
    (work / "synth.json").write_text(json.dumps({"modes": ["inflation"]}))
    assert main(["synthesize", "--config", str(work / "synth.json"), "--out", str(work / "traces")]) == 0
    return work / "traces"


@pytest.mark.parametrize("name, line", [
    ("inflation_110_rise_u050.0.csv", 2),    # a sweep segment's first sample, where its model starts
    ("inflation_110_rise_u050.0.csv", 6),
    ("inflation_000_rise_u100.0.csv", 6),    # the source fit's segment
])
def test_trace_pressure_outside_the_domain_exits_3(tmp_path, capsys, default_inflation_traces, name, line):
    traces = tmp_path / "traces"
    traces.mkdir()
    for f in default_inflation_traces.glob("*.csv"):
        (traces / f.name).write_bytes(f.read_bytes())
    lines = (traces / name).read_text().splitlines()
    row = lines[line - 1].split(",")
    row[1] = "1e200"
    lines[line - 1] = ",".join(row)
    (traces / name).write_text("\n".join(lines) + "\n")
    out = tmp_path / "id"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sysid", "--traces", str(traces), "--mode", "inflation", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {traces / name}: line {line}: pressure outside ±1e9 Pa in row ")
    assert not out.exists()


def test_trace_samples_further_apart_than_the_seconds_bound_exit_3(tmp_path, capsys, default_inflation_traces):
    # About 1e297 s apart: each held step of a fit would land on a rail.
    name = "inflation_110_rise_u050.0.csv"
    traces = tmp_path / "traces"
    traces.mkdir()
    for f in default_inflation_traces.glob("*.csv"):
        (traces / f.name).write_bytes(f.read_bytes())
    lines = (traces / name).read_text().splitlines()
    for k, i in enumerate(range(5, len(lines))):
        row = lines[i].split(",")
        row[0] = repr(1e300 * (1 + k * 1e-3))
        lines[i] = ",".join(row)
    (traces / name).write_text("\n".join(lines) + "\n")
    out = tmp_path / "id"
    assert main(["sysid", "--traces", str(traces), "--mode", "inflation", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {traces / name}: line 6: sample spacing over 1e7 s in row ")
    assert not out.exists()


def write_trace(traces, rows):
    traces.mkdir()
    (traces / "seg.csv").write_text("\n".join([",".join(TRACE_COLUMNS)] + rows) + "\n")


@pytest.mark.parametrize(
    "rows, message",
    [
        ([f"{0.01 * i},150000.0,100.0,60.0,rise" for i in range(3)], "at least 10 samples"),
        ([f"{0.01 * (i // 2)},150000.0,100.0,60.0,rise" for i in range(12)], "strictly increasing"),
    ],
    ids=["three-rows", "repeated-timestamps"],
)
def test_trace_the_segment_checks_reject_exits_3(tmp_path, capsys, rows, message):
    traces = tmp_path / "traces"
    write_trace(traces, rows)
    assert main(["sysid", "--traces", str(traces), "--mode", "inflation"]) == 3
    err = capsys.readouterr().err
    assert "seg.csv" in err and message in err


@pytest.mark.parametrize("column", range(4))
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_trace_value_exits_3(tmp_path, capsys, column, value):
    rows = [[f"{0.01 * i}", "150000.0", "100.0", "60.0", "rise"] for i in range(12)]
    rows[4][column] = value
    traces = tmp_path / "traces"
    write_trace(traces, [",".join(r) for r in rows])
    assert main(["sysid", "--traces", str(traces), "--mode", "inflation"]) == 3
    err = capsys.readouterr().err
    assert "seg.csv" in err and "line 6" in err and "non-finite" in err


@pytest.mark.parametrize(
    "reference, message",
    [
        ({"kind": "multi-step", "stages": [[0, 1.0], [50, 0.001], [0, 1.0]]}, "stage 2 "),
        # Periods of 5 ms at 100 Hz control: the second one falls between ticks.
        ({"kind": "sinusoid", "amplitude_kpa": 10.0, "frequency_hz": 200.0, "cycles": 3}, "period 2 "),
    ],
    ids=["stage", "period"],
)
def test_window_without_a_control_tick_exits_2(tmp_path, capsys, reference, message):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"reference": reference}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert message in err and "holds no control tick" in err


@pytest.mark.parametrize("reference", [
    {"kind": "multi-step", "stages": [[0, 1e308], [10, 1e308]]},
    {"kind": "sinusoid", "amplitude_kpa": 50.0, "frequency_hz": 1e-310, "cycles": 3},
], ids=["stage-holds", "sinusoid"])
def test_reference_longer_than_a_float_exits_2(tmp_path, capsys, reference):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"reference": reference}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "config.reference" in capsys.readouterr().err


@pytest.mark.parametrize("stages", [[[0, 1e308], [0, 1e308]], [[0, 1.0], [50, 1.7e308], [0, 1.7e308]]],
                         ids=["two-holds", "three-holds"])
def test_stage_holds_summing_past_the_float_range_name_the_stages(tmp_path, capsys, stages):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"reference": {"kind": "multi-step", "stages": stages}}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "invalid config.reference.stages: stages: a hold must be at most 1e7 s" in err


def test_sinusoid_longer_than_a_float_keeps_its_own_message(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    ref = {"kind": "sinusoid", "amplitude_kpa": 50.0, "frequency_hz": 1e-310, "cycles": 3}
    path.write_text(json.dumps({"reference": ref}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "invalid config.reference.frequency_hz: frequency_hz must lie in [1e-6, 1e6] Hz" in capsys.readouterr().err


def test_cycle_count_too_large_for_a_float_exits_2(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    ref = {"kind": "sinusoid", "amplitude_kpa": 50.0, "frequency_hz": 0.5, "cycles": 10**400}
    path.write_text(json.dumps({"reference": ref}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "config.reference.cycles" in capsys.readouterr().err


FINEST = {"sim_substep_hz": 1e6}


@pytest.mark.parametrize(
    "command, overrides, key",
    [
        ("run", {"reference": {"stages": [[0, 1e7]]}, "timing": FINEST}, "config.reference.stages"),
        ("run", {"reference": {"kind": "sinusoid", "frequency_hz": 1e-6, "cycles": 1000000}, "timing": FINEST},
         "config.reference.cycles / config.reference.frequency_hz"),
        ("run", {"timing": {**FINEST, "duration_s": 1e7}, "reference": {"stages": [[0, 1e7]]}},
         "config.timing.duration_s"),
        ("synthesize", {"synthesis": {"rise_s": 1e7, "sim_substep_hz": 1e6}}, "config.synthesis.rise_s"),
    ],
)
def test_duration_whose_substep_count_overflows_exits_2(tmp_path, capsys, command, overrides, key):
    # The longest runs of the declared domain at its finest substep: 1e13 substeps or more.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(overrides))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err


def test_cut_run_with_an_empty_inner_window_exits_2(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    ref = {"kind": "multi-step", "stages": [[0, 1.0], [50, 0.001], [0, 1.0]]}
    path.write_text(json.dumps({"reference": ref, "timing": {"duration_s": 1.5}}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "stage 2 " in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, windows",
    [
        # The middle stage is exactly one control period long: it holds one tick.
        ({"reference": {"kind": "multi-step", "stages": [[0, 1.0], [50, 0.01], [0, 1.0]]}}, 3),
        ({}, 13),
        ({"reference": {"kind": "sinusoid", "amplitude_kpa": 50.0, "frequency_hz": 0.5, "cycles": 3}}, 3),
    ],
    ids=["one-period-stage", "default-multi-step", "default-sinusoid"],
)
def test_windows_with_a_tick_each_still_run(tmp_path, overrides, windows):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"controller": "pid", **overrides}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())["metrics"]
    assert len(metrics["per_window"]["ae"]) == windows


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "overrides, where",
    [
        ({"plant": {"p_pos_pa": None}}, "config.plant.p_pos_pa"),
        ({"plant": {"p_pos_pa": "3e5"}}, "config.plant.p_pos_pa"),
        ({"maps": {"inflation": {"a": 5}}}, "config.maps.inflation.a"),
        ({"maps": {"deflation": {"a": [1.0, "2", 3.0, 4.0]}}}, "config.maps.deflation.a"),
        ({"timing": {"duration_s": [1]}}, "config.timing.duration_s"),
        ({"timing": {"duration_s": NAN}}, "config.timing.duration_s"),
        ({"timing": {"noise_sigma_pa": NAN}}, "config.timing.noise_sigma_pa"),
        ({"mpc": {"w_e": NAN}}, "config.mpc.w_e"),
        ({"smc": {"inflation": {"k_i": INF}}}, "config.smc.inflation.k_i"),
        ({"load": {"v0_m3": INF}}, "config.load.v0_m3"),
        ({"supervisor": {"h": True}}, "config.supervisor.h"),
        ({"reference": {"kind": "sinusoid", "amplitude_kpa": -INF}}, "config.reference.amplitude_kpa"),
    ],
)
def test_wrong_typed_or_non_finite_number_exits_2(tmp_path, capsys, overrides, where):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(overrides))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert where in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, where",
    [
        ({"modes": 5}, "config.modes"),
        ({"modes": [["inflation"]]}, "config.modes"),
        ({"synthesis": {"rise_s": NAN}}, "config.synthesis.rise_s"),
        ({"plant": {"conductances": {"c_po": "1e-10"}}}, "config.plant.conductances.c_po"),
    ],
)
def test_wrong_typed_synthesis_entry_exits_2(tmp_path, capsys, overrides, where):
    path = tmp_path / "synth.json"
    path.write_text(json.dumps(overrides))
    assert main(["synthesize", "--config", str(path), "--out", str(tmp_path / "traces")]) == 2
    assert where in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, overrides, key, message",
    [
        ("run", {"timing": {"noise_sigma_pa": -1}}, "config.timing.noise_sigma_pa", "noise_sigma must be non-negative"),
        ("run", {"load": {"v0_m3": -1}}, "config.load.v0_m3", "v0 must be positive"),
        ("run", {"mpc": {"dt_pred_s": 0}}, "config.mpc.dt_pred_s", "dt_pred must be positive"),
        ("run", {"plant": {"volume_m3": -1}}, "config.plant.volume_m3", "volume must be positive"),
        ("synthesize", {"synthesis": {"rise_s": -1}}, "config.synthesis.rise_s", "rise_duration must be positive"),
        ("run", {"mpc": {"w_u": -1}}, "config.mpc.w_u", "w_u must be non-negative"),
        ("run", {"plant": {"conductances": {"c_po": -1}}}, "config.plant.conductances.c_po",
         "c_po must be positive"),
        ("run", {"plant": {"t_gas_k": 0}}, "config.plant.t_gas_k", "t_gas must be positive"),
        ("run", {"reference": {"kind": "sinusoid", "frequency_hz": 0}}, "config.reference.frequency_hz",
         "frequency_hz must be positive"),
        # A check across several entries names the section and writes each entry as its key.
        ("run", {"timing": {"control_rate_hz": 0.5}}, "config.timing",
         "rates must satisfy sim_substep_hz >= control_rate_hz >= 1"),
        ("synthesize", {"synthesis": {"sample_rate_hz": 2000}}, "config.synthesis",
         "rates must satisfy sim_substep_hz >= sample_rate_hz > 0"),
        ("run", {"plant": {"p_neg_pa": 2.0e5}}, "config.plant",
         "pressures must satisfy 0 < p_neg_pa < p_atm_pa < p_pos_pa"),
    ],
    ids=["timing", "load", "mpc", "plant", "synthesis", "mpc-weight", "conductance", "gas", "sinusoid",
         "timing-rates", "synthesis-rates", "plant-pressures"],
)
def test_range_error_names_the_json_key(tmp_path, capsys, command, overrides, key, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(overrides))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"invalid {key}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("synthesis, key", [
    ({"sample_rate_hz": 2.0}, "config.synthesis.rise_s"),
    ({"rise_s": 0.1}, "config.synthesis.rise_s"),
    ({"full_decay_s": 0.1}, "config.synthesis.full_decay_s"),
])
def test_a_segment_too_short_for_ten_samples_exits_2(tmp_path, capsys, synthesis, key):
    path = tmp_path / "synth.json"
    path.write_text(json.dumps({"synthesis": synthesis}))
    assert main(["synthesize", "--config", str(path), "--out", str(tmp_path / "traces")]) == 2
    err = capsys.readouterr().err
    assert f"invalid {key}: " in err and "a segment needs at least 10 samples" in err
    assert not (tmp_path / "traces").exists()


def test_traces_ending_in_a_blank_line_identify_the_same(tmp_path):
    synth = tmp_path / "synth.json"
    short = {"rise_s": 0.6, "decay_s": 0.4, "full_open_s": 0.6, "full_decay_s": 1.5}
    synth.write_text(json.dumps({"modes": ["inflation"], "synthesis": short}))
    traces = tmp_path / "traces"
    assert main(["synthesize", "--config", str(synth), "--out", str(traces)]) == 0
    results = []
    for run in ("plain", "blank-line"):
        if run == "blank-line":
            for f in traces.glob("*.csv"):
                f.write_text(f.read_text() + "\n")
        out = tmp_path / run
        assert main(["sysid", "--traces", str(traces), "--mode", "inflation", "--out", str(out)]) == 0
        results.append((out / "identification.json").read_text())
    assert results[0] == results[1]


def test_trace_row_with_wrong_column_count_names_the_line(tmp_path, capsys):
    rows = [f"{0.01 * i},150000.0,100.0,60.0,rise" for i in range(12)]
    rows[6] = "0.06,150000.0,100.0"
    traces = tmp_path / "traces"
    write_trace(traces, rows)
    assert main(["sysid", "--traces", str(traces), "--mode", "inflation"]) == 3
    err = capsys.readouterr().err
    assert "seg.csv" in err and "line 8" in err and "malformed row" in err


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("name", [
    None, 7, "../../escaped", "a/b", "..", "", "a\0b", "\ud800", pytest.param("n" * 241, id="241-bytes"),
])
def test_scenario_name_that_is_not_one_directory_name_exits_2(tmp_path, monkeypatch, capsys, command, name):
    # Without --out the outputs go to out/<name>, so the name must stay inside out/.
    work = tmp_path / "a" / "b"
    work.mkdir(parents=True)
    monkeypatch.chdir(work)
    (work / "scenario.json").write_text(json.dumps({"name": name}))
    argv = [command, "--config", "scenario.json"]
    if command == "compare":
        argv += ["--controllers", "pid,dm-smc"]
    assert main(argv) == 2
    assert "config.name" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["a", "b", "scenario.json"]


def test_repeated_synthesis_mode_exits_2(tmp_path, capsys):
    path = tmp_path / "synth.json"
    path.write_text(json.dumps({"modes": ["inflation", "inflation"]}))
    assert main(["synthesize", "--config", str(path), "--out", str(tmp_path / "traces")]) == 2
    assert "config.modes" in capsys.readouterr().err
    assert not (tmp_path / "traces").exists()


VALID_ROWS = [f"{0.01 * i},150000.0,100.0,60.0,rise" for i in range(12)]


def test_trace_csv_that_is_not_utf8_exits_3(tmp_path, capsys):
    traces = tmp_path / "traces"
    write_trace(traces, VALID_ROWS)
    with open(traces / "seg.csv", "ab") as fh:
        fh.write(b"\xff\xfe")
    assert main(["sysid", "--traces", str(traces), "--mode", "inflation"]) == 3
    err = capsys.readouterr().err
    assert "seg.csv" in err and "UTF-8" in err


def test_csv_entry_that_is_a_directory_exits_3(tmp_path, capsys):
    traces = tmp_path / "traces"
    write_trace(traces, VALID_ROWS)
    (traces / "zz.csv").mkdir()
    assert main(["sysid", "--traces", str(traces), "--mode", "inflation"]) == 3
    assert "zz.csv" in capsys.readouterr().err


def config_argv(command, config, tmp_path):
    """Arguments that make ``command`` load ``config``; ``sysid`` reads valid traces first."""
    out = str(tmp_path / "out")
    if command == "sysid":
        traces = tmp_path / "traces"
        write_trace(traces, VALID_ROWS)
        return ["sysid", "--traces", str(traces), "--mode", "inflation", "--config", str(config), "--out", out]
    extra = ["--controllers", "pid,dm-smc"] if command == "compare" else []
    return [command, "--config", str(config), "--out", out] + extra


CONFIG_COMMANDS = ["run", "compare", "synthesize", "sysid"]


@pytest.mark.parametrize("command", CONFIG_COMMANDS)
def test_config_that_is_not_utf8_exits_2(tmp_path, capsys, command):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"name": "x\xff"}')
    assert main(config_argv(command, path, tmp_path)) == 2
    err = capsys.readouterr().err
    assert "config.json" in err and "UTF-8" in err


@pytest.mark.parametrize("command", CONFIG_COMMANDS)
@pytest.mark.parametrize("kind", ["directory", "missing"])
def test_config_path_that_is_a_directory_or_missing_exits_3(tmp_path, capsys, command, kind):
    path = tmp_path / "config.json"
    if kind == "directory":
        path.mkdir()
    assert main(config_argv(command, path, tmp_path)) == 3
    assert "config.json" in capsys.readouterr().err


DEEP = "[" * 200_000 + "]" * 200_000


@pytest.mark.parametrize("command", CONFIG_COMMANDS)
@pytest.mark.parametrize("text", [DEEP, '{"timing": {"seed": ' + DEEP + "}}"], ids=["document", "entry"])
def test_config_nested_past_the_decoder_depth_exits_2(tmp_path, capsys, command, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main(config_argv(command, path, tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "config.json" in err


@pytest.mark.parametrize("mode", ["INFLATION", "bogus"])
def test_sysid_mode_that_is_not_a_mode_name_exits_2(tmp_path, capsys, mode):
    traces = tmp_path / "traces"
    write_trace(traces, VALID_ROWS)
    assert main(["sysid", "--traces", str(traces), "--mode", mode, "--out", str(tmp_path / "id")]) == 2
    assert f"--mode must be inflation or deflation, got {mode!r}" in capsys.readouterr().err
    assert not (tmp_path / "id").exists()


@pytest.fixture(scope="module")
def inflation_trace_dir(tmp_path_factory, protocol_traces):
    """The noiseless inflation protocol as trace CSVs, so ``sysid`` gets through its fit."""
    traces = tmp_path_factory.mktemp("protocol")
    for i, trace in enumerate(tr for tr in protocol_traces if tr.mode == Mode.INFLATION):
        write_trace_csv(trace, traces / f"{i:03d}.csv")
    return traces


@pytest.mark.parametrize("command", CONFIG_COMMANDS)
@pytest.mark.parametrize("under_a_file", [False, True], ids=["file", "under-file"])
def test_out_that_is_a_file_or_under_one_exits_3(tmp_path, capsys, inflation_trace_dir, command, under_a_file):
    existing = tmp_path / "afile"
    existing.write_text("")
    out = existing / "sub" if under_a_file else existing
    if command == "synthesize":
        config = tmp_path / "synth.json"
        short = {"rise_s": 0.2, "decay_s": 0.2, "full_open_s": 0.2, "full_decay_s": 0.2}
        config.write_text(json.dumps({"modes": ["inflation"], "synthesis": short}))
        argv = ["synthesize", "--config", str(config), "--out", str(out)]
    elif command == "sysid":
        argv = ["sysid", "--traces", str(inflation_trace_dir), "--mode", "inflation", "--out", str(out)]
    else:
        config = tmp_path / "scenario.json"
        config.write_text("{}")
        argv = [command, "--config", str(config), "--out", str(out)]
        if command == "compare":
            argv += ["--controllers", "pid,dm-smc"]
    assert main(argv) == 3
    assert str(out) in capsys.readouterr().err
    assert existing.read_text() == ""


def test_sysid_fits_only_the_traces_of_its_mode(tmp_path, monkeypatch, params, protocol_traces):
    traces = tmp_path / "traces"
    traces.mkdir()
    for i, trace in enumerate(protocol_traces):
        write_trace_csv(trace, traces / f"{i:03d}.csv")
    received, identify = [], sysid_mod.identify_channel
    monkeypatch.setattr(sysid_mod, "identify_channel", lambda tr, *args: received.append(tr) or identify(tr, *args))
    assert main(["sysid", "--traces", str(traces), "--mode", "deflation", "--out", str(tmp_path / "id")]) == 0
    deflation = [tr for tr in protocol_traces if tr.mode == Mode.DEFLATION]
    assert len(received) == 1 and [tr.mode for tr in received[0]] == [Mode.DEFLATION] * len(deflation)
    assert [tr.u2 for tr in received[0]] == [tr.u2 for tr in deflation]
    # What it writes is what identifying from every trace it read gives.
    every = [sysid_mod.read_trace_csv(path) for path in sorted(traces.glob("*.csv"))]
    assert json.loads((tmp_path / "id" / "identification.json").read_text()) == json.loads(
        json.dumps(identify(every, Mode.DEFLATION, params).to_dict()))
    # Every file is still read and checked: a bad inflation trace fails a deflation call.
    (traces / "zzz.csv").write_text("\n".join([",".join(TRACE_COLUMNS), *VALID_ROWS[:4], "0.04,nan,100.0,60.0,rise",
                                               *VALID_ROWS[5:]]) + "\n")
    assert main(["sysid", "--traces", str(traces), "--mode", "deflation", "--out", str(tmp_path / "id2")]) == 3
    assert not (tmp_path / "id2").exists()


def test_trace_field_longer_than_the_csv_field_limit_exits_3(tmp_path, capsys):
    rows = list(VALID_ROWS)
    rows[4] = "0.04," + "1" * 200_000 + ",100.0,60.0,rise"   # line 6 of the file
    traces = tmp_path / "traces"
    write_trace(traces, rows)
    assert main(["sysid", "--traces", str(traces), "--mode", "inflation"]) == 3
    err = capsys.readouterr().err
    assert "seg.csv" in err and "line 6" in err and "field limit" in err


@pytest.mark.parametrize("command", ["run", "compare", "sysid"])
def test_path_component_too_long_for_the_file_system_exits_3(tmp_path, capsys, command):
    long = tmp_path / ("n" * 300)   # above the usual 255-byte limit of one name
    if command == "sysid":
        argv = ["sysid", "--traces", str(long), "--mode", "inflation"]
    else:
        config = tmp_path / "scenario.json"
        config.write_text("{}")
        argv = [command, "--config", str(config), "--out", str(long)]
        if command == "compare":
            argv += ["--controllers", "pid,dm-smc"]
    assert main(argv) == 3
    assert "data error" in capsys.readouterr().err


# One second of simulation more than MAX_SUBSTEPS allows at the default 1 kHz substep.
ABOVE_CAP_S = MAX_SUBSTEPS / 1000.0 + 1.0


@pytest.mark.parametrize(
    "command, overrides, key",
    [
        ("run", {"reference": {"stages": [[0, 1e7]]}}, "config.reference.stages"),
        ("run", {"reference": {"stages": [[0, 1.0], [50, ABOVE_CAP_S - 1.0]]}}, "config.reference.stages"),
        ("run", {"reference": {"kind": "sinusoid", "frequency_hz": 1e-6, "cycles": 3}},
         "config.reference.cycles / config.reference.frequency_hz"),
        ("run", {"reference": {"kind": "sinusoid", "frequency_hz": 3.0 / ABOVE_CAP_S, "cycles": 3}},
         "config.reference.cycles / config.reference.frequency_hz"),
        ("run", {"timing": {"duration_s": 1e7}, "reference": {"stages": [[0, 1e7]]}},
         "config.timing.duration_s"),
        ("synthesize", {"synthesis": {"rise_s": 1e7}}, "config.synthesis.rise_s"),
        ("synthesize", {"synthesis": {"decay_s": ABOVE_CAP_S}}, "config.synthesis.decay_s"),
    ],
)
def test_duration_above_the_substep_cap_exits_2(tmp_path, capsys, command, overrides, key):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(overrides))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert key in err and f"{MAX_SUBSTEPS:,} substeps" in err
    assert not (tmp_path / "out").exists()


def test_the_substep_cap_admits_its_own_count():
    # At the cap, a configured run is accepted: its checks place only control ticks.
    at_cap_s = MAX_SUBSTEPS / 1000.0
    scenario = scenario_from_dict({"reference": {"stages": [[0, 1.0], [50, at_cap_s - 1.0]]}})
    assert scenario.reference.duration == at_cap_s
    assert SynthesisConfig(rise_duration=at_cap_s).rise_duration == at_cap_s


def test_repeated_compare_controller_exits_2(tmp_path, capsys):
    args = ["compare", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "out"),
            "--controllers", "pid,dm-smc,pid"]
    assert main(args) == 2
    assert "'pid' more than once" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def scalar_entries(section, path=()):
    """(path, default value) of every scalar entry below the top level of a default config."""
    for key, value in section.items():
        if isinstance(value, dict):
            yield from scalar_entries(value, path + (key,))
        elif path and not isinstance(value, list):
            yield path + (key,), value


def overlay(path, value):
    """A config that sets the entry at ``path`` to ``value``."""
    for key in reversed(path):
        value = {key: value}
    return value


TYPED_CASES = [
    (command, path, bad)
    for command, defaults in (("run", default_scenario_dict()), ("synthesize", default_synthesis_dict()))
    for path, default in scalar_entries(defaults)
    for bad in (True, False, "1") + ((1.5,) if type(default) is int else ())
]


@pytest.mark.parametrize(
    "command, path, bad", TYPED_CASES, ids=[f"{c}-{'.'.join(p)}-{b!r}" for c, p, b in TYPED_CASES],
)
def test_every_scalar_entry_is_typed(tmp_path, capsys, command, path, bad):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(overlay(path, bad)))
    assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert f"config.{'.'.join(path)}" in capsys.readouterr().err


def test_sensor_at_any_finite_rate_runs_as_one_at_the_substep_rate(tmp_path):
    # The physical columns: every column but the last, ct_us, a wall-clock time.  1e6 Hz is the top rate.
    columns = []
    for rate in (1000.0, 1e6):
        path = tmp_path / f"sensor-{rate}.json"
        path.write_text(json.dumps({"timing": {"sensor_rate_hz": rate, "duration_s": 1.0}}))
        out = tmp_path / f"out-{rate}"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        with open(out / "trajectory.csv") as fh:
            columns.append([line.rsplit(",", 1)[0] for line in fh])
    assert columns[0] == columns[1]


@pytest.mark.parametrize("reference, key", [
    ({"kind": "sinusoid", "amplitude_kpa": 1e306}, "amplitude_kpa"),
    ({"kind": "multi-step", "stages": [[0, 1.0], [1e306, 1.0]]}, "stages"),
    ({"kind": "sinusoid", "amplitude_kpa": 1e303, "frequency_hz": 50}, "amplitude_kpa"),
], ids=["amplitude", "level", "peak-rate"])
def test_reference_overflowing_in_pascals_exits_2(tmp_path, capsys, reference, key):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"controller": "dm-smc", "reference": reference}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"invalid config.reference.{key}: " in capsys.readouterr().err


# Outside the declared domain: a level of 1e305 kPa is finite in pascals, but its squared tracking error is not.
FAR_STAGES = [[0, 0.1], [1e305, 0.1]]


@pytest.mark.parametrize("controller", ["nmpc", "mi-nmpc"])
@pytest.mark.parametrize("reference", [
    {"kind": "multi-step", "stages": FAR_STAGES},
    {"kind": "multi-step", "stages": [[-1e305, 0.1], [0, 0.1]]},
    {"kind": "sinusoid", "amplitude_kpa": 1e304, "frequency_hz": 0.5},
], ids=["level-above", "level-below", "amplitude"])
def test_a_reference_whose_horizon_cost_overflows_exits_2_under_an_mpc(tmp_path, capsys, controller, reference):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"controller": controller, "reference": reference}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    key = "stages" if reference["kind"] == "multi-step" else "amplitude_kpa"
    assert f"config error: invalid config.reference.{key}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_compare_rejects_a_far_reference_before_any_run(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"reference": {"kind": "multi-step", "stages": FAR_STAGES}}))
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(path), "--controllers", "pid,mi-nmpc", "--out", str(out)]) == 2
    assert "config error: invalid config.reference.stages: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("controller", ["dm-smc", "pid", "nmpc", "mi-nmpc"])
def test_a_reference_at_the_edge_of_the_domain_runs(tmp_path, controller):
    path = tmp_path / "scenario.json"
    stages = [[0, 0.1], [1e6, 0.1], [-1e6, 0.1]]
    path.write_text(json.dumps({"controller": controller, "reference": {"kind": "multi-step", "stages": stages}}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("command", CONFIG_COMMANDS)
@pytest.mark.parametrize("text", ["[]", '"plant"'], ids=["array", "string"])
def test_a_config_that_is_not_an_object_exits_2(tmp_path, capsys, command, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main(config_argv(command, path, tmp_path)) == 2
    kind = "synthesis" if command == "synthesize" else "scenario"
    assert capsys.readouterr().err == f"config error: {kind} config must be a JSON object\n"


@pytest.mark.parametrize("command, config, message", [
    ("run", {"plant": 5}, "expected an object at config.plant"),
    ("run", {"timing": []}, "expected an object at config.timing"),
    ("synthesize", {"plant": 5}, "expected an object at config.plant"),
    ("synthesize", {"synthesis": 3}, "expected an object at config.synthesis"),
    ("synthesize", {"modes": []}, "config.modes must name at least one mode"),
])
def test_a_config_section_that_is_not_an_object_or_names_no_mode_exits_2(tmp_path, capsys, command, config, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(config_argv(command, path, tmp_path)) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("error", [OverflowError("rate left the float range"), ZeroDivisionError("float division")])
def test_an_arithmetic_error_inside_a_command_exits_4(monkeypatch, capsys, error):
    def fail(args):
        raise error

    monkeypatch.setattr(cli, "cmd_defaults", fail)
    assert main(["defaults"]) == 4
    assert capsys.readouterr().err == f"solver failure: {error}\n"


def test_sysid_identifies_with_the_plant_of_its_config(tmp_path):
    # The protocol comes from a channel of 3e-5 m^3, not the default 2e-5 m^3.  With that
    # volume in --config the fit recovers the channel's conductances; with the default
    # plant it reads them off by the volume ratio, 2/3.
    plant = {"volume_m3": 3e-5}
    synth, scenario, traces = tmp_path / "synth.json", tmp_path / "scenario.json", tmp_path / "traces"
    synth.write_text(json.dumps({"plant": plant, "modes": ["inflation"]}))
    scenario.write_text(json.dumps({"plant": plant}))
    assert main(["synthesize", "--config", str(synth), "--out", str(traces)]) == 0
    found = {}
    for name, extra in [("config", ["--config", str(scenario)]), ("default", [])]:
        out = tmp_path / name
        assert main(["sysid", "--traces", str(traces), "--mode", "inflation", "--out", str(out), *extra]) == 0
        conductances = json.loads((out / "identification.json").read_text())["conductances"]
        found[name] = {key: c["value"] for key, c in conductances.items()}
    assert found["config"]["c_oa"] == pytest.approx(6.94e-12, rel=5e-3)
    assert found["config"]["c_po"] == pytest.approx(2.64e-10, rel=5e-3)
    assert found["default"]["c_oa"] == pytest.approx(4.63e-12, rel=5e-3)
    assert found["default"]["c_po"] == pytest.approx(1.76e-10, rel=5e-3)


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("command", ["defaults", "run"])
def test_a_closed_standard_output_exits_0_with_nothing_on_stderr(tmp_path, command, unbuffered):
    # The reader of stdout closes it before the command prints, as `head` does once it has its
    # lines: no data error, and run's files are written all the same.  Buffered, the print's
    # write waits for a flush; unbuffered, the print writes.
    config = tmp_path / "short.json"
    config.write_text(json.dumps({"timing": {"duration_s": 0.5}}))
    argv = {"defaults": ["defaults"], "run": ["run", "--config", str(config), "--out", str(tmp_path / "out")]}[command]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-m", "pneuctrl.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (0, b"")
    if command == "run":
        assert list(json.loads((tmp_path / "out" / "metrics.json").read_text())) == ["controller", "metrics"]
