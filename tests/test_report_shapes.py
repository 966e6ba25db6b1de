"""The shapes of metrics.json, compare.json and compare.txt: their keys and row
labels in order, their values against the library's ``compute_metrics``, and
the compare CT column against the trajectory's ``ct_us`` column.
"""

import csv
import json
from dataclasses import replace

import pytest

from pneuctrl.cli import _make_controller, main
from pneuctrl.config import load_scenario
from pneuctrl.experiment import compute_metrics, run_scenario

CONTROLLERS = ("pid", "dm-smc", "nmpc", "mi-nmpc")
SEED = 5
METRICS_KEYS = [
    "e_ss_kpa", "ae_kpa", "itae_kpa_s2", "pwm_e_pct_s", "switches", "max_abs_e_kpa", "ct_mean_s", "per_window",
]
COMPARE_KEYS = ["e_ss", "ae", "itae", "pwm_e", "switches", "max_abs_e", "ct_ms", "per_window"]
PER_WINDOW_KEYS = ["ae", "itae", "pwm_e", "switches", "e_ss", "max_abs_e"]
TABLE_LABELS = [
    "Metric", "e_ss [kPa]", "AE [kPa]", "ITAE [kPa s^2]", "PWM-E [% s]", "Switches", "max|e| [kPa]", "CT [ms]",
]
# The compare.json values that are not wall time, each under its MetricsReport field.
UNTIMED = ("e_ss", "ae", "itae", "pwm_e", "switches", "max_abs_e")


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    """A short multi-step config, its ``compare`` of every controller, and one ``run``."""
    root = tmp_path_factory.mktemp("report")
    config = root / "scenario.json"
    stages = [[0, 0.3], [40, 0.4], [-20, 0.3]]
    reference = {"kind": "multi-step", "stages": stages}
    config.write_text(json.dumps({"controller": "dm-smc", "reference": reference}))
    args = ["--config", str(config), "--seed", str(SEED)]
    assert main(["compare", *args, "--controllers", ",".join(CONTROLLERS), "--out", str(root / "cmp")]) == 0
    assert main(["run", *args, "--out", str(root / "run")]) == 0
    scenario = load_scenario(config)
    scenario.timing = replace(scenario.timing, seed=SEED)
    return root, scenario


def library_metrics(scenario, name):
    traj = run_scenario(
        scenario.reference, _make_controller(name, scenario), scenario.timing,
        scenario.plant, scenario.maps, scenario.load,
    )
    return compute_metrics(traj, scenario.reference)


def test_metrics_json_keys_and_values(study):
    root, scenario = study
    doc = json.loads((root / "run" / "metrics.json").read_text())
    assert list(doc) == ["controller", "metrics"] and doc["controller"] == "dm-smc"
    metrics = doc["metrics"]
    assert list(metrics) == METRICS_KEYS
    assert list(metrics["per_window"]) == PER_WINDOW_KEYS
    want = library_metrics(scenario, "dm-smc")
    got = {k: v for k, v in metrics.items() if k not in ("ct_mean_s", "per_window")}
    assert got == {
        "e_ss_kpa": want.e_ss, "ae_kpa": want.ae, "itae_kpa_s2": want.itae, "pwm_e_pct_s": want.pwm_e,
        "switches": want.switches, "max_abs_e_kpa": want.max_abs_e,
    }
    assert metrics["per_window"] == want.per_window


def test_compare_json_keys_and_values(study):
    root, scenario = study
    doc = json.loads((root / "cmp" / "compare.json").read_text())
    assert list(doc) == ["scenario", "seed", "results"]
    assert doc["seed"] == SEED and list(doc["results"]) == list(CONTROLLERS)
    for name, row in doc["results"].items():
        assert list(row) == COMPARE_KEYS, name
        assert list(row["per_window"]) == PER_WINDOW_KEYS, name
        want = library_metrics(scenario, name)
        assert {k: row[k] for k in UNTIMED} == {k: getattr(want, k) for k in UNTIMED}, name
        assert row["per_window"] == want.per_window, name


def test_compare_ct_is_the_mean_of_the_ct_us_column(study):
    root, _ = study
    results = json.loads((root / "cmp" / "compare.json").read_text())["results"]
    for name in CONTROLLERS:
        with open(root / "cmp" / f"trajectory_{name}.csv", newline="") as fh:
            ct_us = [int(row["ct_us"]) for row in csv.DictReader(fh)]
        # Each ct_us cell is rounded to the microsecond.
        mean_ms = sum(ct_us) / len(ct_us) / 1000.0
        assert results[name]["ct_ms"] == pytest.approx(mean_ms, abs=0.0005 + 1e-9), name


def test_compare_txt_rows(study):
    root, _ = study
    lines = (root / "cmp" / "compare.txt").read_text().splitlines()
    assert lines[0].split() == ["Metric", *CONTROLLERS]
    width = lines[0].index("Metric") + len("Metric")
    assert [line[:width].strip() for line in lines] == TABLE_LABELS
    for line in lines[1:]:
        assert len(line.split()) - len(line[:width].split()) == len(CONTROLLERS)
