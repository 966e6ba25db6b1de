import inspect
import json

import pytest

from pneuctrl.cli import main
from pneuctrl.config import (
    CONTROLLER_NAMES,
    CONTROLLERS,
    ConfigError,
    default_scenario_dict,
    default_synthesis_dict,
    scenario_from_dict,
    synthesis_from_dict,
)
from pneuctrl.experiment import Tick
from pneuctrl.plant import Mode


@pytest.fixture()
def tiny_scenario(tmp_path):
    cfg = {
        "name": "tiny",
        "controller": "dm-smc",
        "reference": {"kind": "multi-step", "stages": [[0.0, 0.5], [50.0, 1.0]]},
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(cfg))
    return path


class TestScenarioConfig:
    def test_defaults_resolve(self):
        sc = scenario_from_dict({})
        assert sc.controller == "dm-smc"
        assert sc.plant.p_pos == 3.0e5
        assert sc.supervisor.h == 5000.0
        assert sc.reference.kind == "multi-step"
        assert len(sc.reference.stages) == 13

    def test_emit_then_reload_is_identical(self):
        d = default_scenario_dict()
        a = scenario_from_dict(d)
        b = scenario_from_dict(json.loads(json.dumps(d)))
        assert a.plant == b.plant
        assert a.maps[0].a == b.maps[0].a
        assert a.maps[1].a == b.maps[1].a
        assert a.supervisor == b.supervisor
        assert a.smc_gains == b.smc_gains
        assert a.pid_gains == b.pid_gains
        assert a.mpc == b.mpc
        assert a.reference == b.reference
        assert a.timing == b.timing

    def test_unknown_key_rejected_with_name(self):
        with pytest.raises(ConfigError) as exc:
            scenario_from_dict({"plant": {"bogus_knob": 1.0}})
        assert "bogus_knob" in str(exc.value)

    def test_top_level_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as exc:
            scenario_from_dict({"plantt": {}})
        assert "plantt" in str(exc.value)

    def test_invalid_hysteresis_names_h(self):
        with pytest.raises(ConfigError) as exc:
            scenario_from_dict({"supervisor": {"h": -1.0}})
        assert "h" in str(exc.value)

    def test_unknown_controller_rejected(self):
        with pytest.raises(ConfigError):
            scenario_from_dict({"controller": "lqr"})

    def test_controller_names_are_the_table_keys_in_order(self):
        assert CONTROLLER_NAMES == tuple(CONTROLLERS) == ("pid", "dm-smc", "nmpc", "mi-nmpc")

    @pytest.mark.parametrize("name", CONTROLLER_NAMES)
    def test_each_table_entry_builds_a_loop_from_the_default_scenario(self, name):
        sc = scenario_from_dict({"controller": name})
        p_atm = sc.plant.p_atm
        tick = CONTROLLERS[name](sc).update(0.0, p_atm, p_atm + 5.0e4, 0.0)
        assert isinstance(tick, Tick) and isinstance(tick.mode, Mode)

    LOOP_PARAMETERS = {
        "pid": ("gains", "supervisor", "dt"),
        "dm-smc": ("params", "maps", "gains", "supervisor", "dt"),
        "nmpc": ("params", "maps", "load", "cfg", "supervisor", "ref"),
        "mi-nmpc": ("params", "maps", "load", "cfg", "ref"),
    }

    @staticmethod
    def _short_horizon(name):
        return scenario_from_dict({"controller": name, "mpc": {"horizon_steps": 3}})

    @pytest.mark.parametrize("name", CONTROLLER_NAMES)
    def test_each_loop_is_built_from_its_inputs_alone(self, name):
        loop_type = type(CONTROLLERS[name](self._short_horizon(name)))
        assert tuple(inspect.signature(loop_type).parameters) == self.LOOP_PARAMETERS[name]

    @pytest.mark.parametrize("name", CONTROLLER_NAMES)
    def test_loops_of_one_scenario_keep_separate_memory(self, name):
        sc = self._short_horizon(name)
        p_atm = sc.plant.p_atm
        used, other = CONTROLLERS[name](sc), CONTROLLERS[name](sc)
        # Far above the reference: the supervisor moves the used loop to deflation.
        for k in range(3):
            used.update(0.01 * k, p_atm + 8.0e4, p_atm, 0.0)
        # Inside the hysteresis band a loop keeps the mode it remembers, so a
        # loop that shared the used one's memory would tick in deflation.
        first = (0.0, p_atm + 1.0e3, p_atm, 0.0)
        assert other.update(*first) == CONTROLLERS[name](sc).update(*first)

    @pytest.mark.parametrize("name", CONTROLLER_NAMES)
    def test_loops_compare_by_identity_and_hash(self, name):
        sc = self._short_horizon(name)
        a, b = CONTROLLERS[name](sc), CONTROLLERS[name](sc)
        assert a != b
        assert len({a, b}) == 2

    def test_partial_overrides_merge_with_defaults(self):
        sc = scenario_from_dict({"timing": {"seed": 7}})
        assert sc.timing.seed == 7
        assert sc.timing.control_rate == 100.0

    def test_sinusoid_reference(self):
        sc = scenario_from_dict({"reference": {"kind": "sinusoid", "frequency_hz": 0.25, "cycles": 2}})
        assert sc.reference.kind == "sinusoid"
        assert sc.reference.duration == 8.0

    def test_synthesis_defaults_resolve(self):
        spec = synthesis_from_dict({})
        assert spec.cfg.sample_rate == 60.0
        assert len(spec.modes) == 2

    def test_synthesis_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as exc:
            synthesis_from_dict({"synthesis": {"warp": 9}})
        assert "warp" in str(exc.value)

    def test_synthesis_defaults_emit_reload(self):
        d = default_synthesis_dict()
        a = synthesis_from_dict(d)
        b = synthesis_from_dict(json.loads(json.dumps(d)))
        assert a.plant == b.plant
        assert a.cfg == b.cfg
        assert a.modes == b.modes


class TestCliRun:
    def test_run_writes_outputs(self, tiny_scenario, tmp_path):
        out = tmp_path / "out"
        rc = main(["run", "--config", str(tiny_scenario), "--out", str(out)])
        assert rc == 0
        assert (out / "trajectory.csv").exists()
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["controller"] == "dm-smc"
        assert metrics["metrics"]["ae_kpa"] >= 0.0

    def test_run_is_reproducible_apart_from_compute_time(self, tiny_scenario, tmp_path):
        outs = []
        for sub in ("o1", "o2"):
            out = tmp_path / sub
            assert main(["run", "--config", str(tiny_scenario), "--out", str(out), "--seed", "5"]) == 0
            rows = [
                line.rsplit(",", 1)[0]
                for line in (out / "trajectory.csv").read_text().splitlines()
            ]
            outs.append(rows)
        assert outs[0] == outs[1]

    def test_invalid_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"supervisor": {"h": -5.0}}))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2

    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", "--config", str(bad)]) == 2


class TestCliCompare:
    def test_two_controllers(self, tiny_scenario, tmp_path, capsys):
        out = tmp_path / "cmp"
        rc = main([
            "compare", "--config", str(tiny_scenario),
            "--controllers", "pid,dm-smc", "--out", str(out),
        ])
        assert rc == 0
        table = (out / "compare.txt").read_text()
        assert "pid" in table and "dm-smc" in table
        assert "AE [kPa]" in table and "CT [ms]" in table
        combined = json.loads((out / "compare.json").read_text())
        assert set(combined["results"]) == {"pid", "dm-smc"}
        assert (out / "trajectory_pid.csv").exists()
        assert (out / "trajectory_dm-smc.csv").exists()

    def test_single_controller_is_usage_error(self, tiny_scenario):
        assert main(["compare", "--config", str(tiny_scenario), "--controllers", "dm-smc"]) == 2

    def test_unknown_controller_is_usage_error(self, tiny_scenario):
        assert main(["compare", "--config", str(tiny_scenario), "--controllers", "pid,lqr"]) == 2


class TestCliSysidChain:
    @pytest.fixture()
    def synth_config(self, tmp_path):
        cfg = {
            "modes": ["inflation"],
            "synthesis": {
                "rise_s": 0.6, "decay_s": 0.4, "full_open_s": 0.6, "full_decay_s": 1.5,
            },
        }
        path = tmp_path / "synth.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_synthesize_then_identify(self, synth_config, tmp_path, capsys):
        traces_dir = tmp_path / "traces"
        assert main(["synthesize", "--config", str(synth_config), "--out", str(traces_dir)]) == 0
        files = list(traces_dir.glob("*.csv"))
        assert len(files) == 130  # 64 sweep rises + 1 full-open + 65 decays

        out = tmp_path / "ident"
        rc = main(["sysid", "--traces", str(traces_dir), "--mode", "inflation", "--out", str(out)])
        assert rc == 0
        result = json.loads((out / "identification.json").read_text())
        c_oa = result["conductances"]["c_oa"]["value"]
        c_po = result["conductances"]["c_po"]["value"]
        assert c_oa == pytest.approx(6.94e-12, rel=0.05)
        assert c_po == pytest.approx(2.64e-10, rel=0.05)

    def test_mode_mismatch_exits_3(self, synth_config, tmp_path):
        traces_dir = tmp_path / "traces"
        assert main(["synthesize", "--config", str(synth_config), "--out", str(traces_dir)]) == 0
        assert main(["sysid", "--traces", str(traces_dir), "--mode", "deflation"]) == 3

    def test_empty_directory_exits_3(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        assert main(["sysid", "--traces", str(empty), "--mode", "inflation"]) == 3

    def test_bad_mode_flag_exits_2(self, tmp_path):
        assert main(["sysid", "--traces", str(tmp_path), "--mode", "sideways"]) == 2


class TestCliDefaults:
    def test_scenario_defaults_parse(self, capsys):
        assert main(["defaults"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == default_scenario_dict()

    def test_synthesis_defaults_parse(self, capsys):
        assert main(["defaults", "--kind", "synthesis"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == default_synthesis_dict()
