"""Every parameter record holds its fields to their declared types, for the
library and the JSON config alike.

A ``float`` field takes a finite real number, never a bool, and keeps it as a
float; an ``int`` field takes an integer, never a bool; ``Optional[...]`` also
takes None.  Also: a bellow load needs a positive ``v_min``, and a sensor
noise level whose draws overflow is a solver failure, not a traceback.
"""

import json
import math
from dataclasses import fields, replace

import pytest

from pneuctrl.cli import main
from pneuctrl.config import (
    default_maps,
    default_pid_gains,
    default_plant,
    default_supervisor,
    default_synthesis_dict,
    scenario_from_dict,
    synthesis_from_dict,
)
from pneuctrl.experiment import PidLoop, Reference, TimingConfig, run_scenario
from pneuctrl.plant import LoadModel, Mode, field_rule
from pneuctrl.valvemap import SpoolMap


def _default_records():
    """One default instance of every parameter record, by its type name; the
    reference is a sinusoid, which reads every field but its stages."""
    sc = scenario_from_dict({"reference": {"kind": "sinusoid"}})
    records = [sc.plant, sc.plant.conductances, sc.load, sc.maps[Mode.INFLATION], sc.supervisor,
               sc.smc_gains[Mode.INFLATION], sc.pid_gains[Mode.INFLATION], sc.mpc, sc.reference, sc.timing,
               synthesis_from_dict(default_synthesis_dict()).cfg]
    return {type(record).__name__: record for record in records}


RECORDS = _default_records()


def _fields_holding(kind):
    return [
        (name, f.name)
        for name, record in RECORDS.items()
        for f in fields(record)
        if f.init and type(getattr(record, f.name)) is kind
    ]


INT_FIELDS = _fields_holding(int)
FLOAT_FIELDS = _fields_holding(float)


def test_the_field_lists_reach_every_int_field():
    assert set(INT_FIELDS) == {
        ("MpcConfig", "horizon_steps"), ("MpcConfig", "max_iters"), ("MpcConfig", "max_switches"),
        ("Reference", "cycles"), ("TimingConfig", "seed"), ("SynthesisConfig", "seed"),
    }
    assert len(FLOAT_FIELDS) >= 40


@pytest.mark.parametrize("kind, name", INT_FIELDS, ids=[f"{k}.{n}" for k, n in INT_FIELDS])
@pytest.mark.parametrize("value", [2.5, 2.0, True, "1", None])
def test_every_int_field_takes_only_an_integer(kind, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
        replace(RECORDS[kind], **{name: value})


@pytest.mark.parametrize("kind, name", FLOAT_FIELDS, ids=[f"{k}.{n}" for k, n in FLOAT_FIELDS])
@pytest.mark.parametrize("value", [True, False, "1", None, [1.0]])
def test_every_float_field_takes_only_a_real_number(kind, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be a real number, got "):
        replace(RECORDS[kind], **{name: value})


# Fields whose range holds no integer at all.
NO_INTEGER_IN_RANGE = {("PlantParams", "b")}


@pytest.mark.parametrize("kind, name", FLOAT_FIELDS, ids=[f"{k}.{n}" for k, n in FLOAT_FIELDS])
def test_every_float_field_stores_an_integer_as_a_float(kind, name):
    record = RECORDS[kind]
    default = getattr(record, name)
    for value in dict.fromkeys([int(default), round(default), 1, 2, 0]):
        try:
            built = replace(record, **{name: value})
        except ValueError as exc:
            assert not str(exc).startswith(f"{name} must be a real number"), exc
            continue
        stored = getattr(built, name)
        assert type(stored) is float and stored == value
        assert built == replace(record, **{name: float(value)})
        return
    assert (kind, name) in NO_INTEGER_IN_RANGE, "no integer in the field's range"


def _bounded_fields():
    """(record, field, bound type) of every field declared with a bound, ``Optional[...]`` unwrapped."""
    return [
        (name, f.name, f.type[9:-1] if f.type.startswith("Optional[") else f.type)
        for name, record in RECORDS.items()
        for f in fields(record)
        if f.init and field_rule(f.type)[1] is not None
    ]


BOUNDED_FIELDS = _bounded_fields()


def test_the_bounded_field_list_reaches_every_declared_bound():
    by_type = {}
    for kind, name, bound in BOUNDED_FIELDS:
        by_type.setdefault(bound, set()).add(f"{kind}.{name}")
    assert by_type == {
        "Positive": {
            "Conductances.c_po", "Conductances.c_on", "Conductances.c_oa", "Conductances.c_ao",
            "PlantParams.rho_ref", "PlantParams.t_ref", "PlantParams.t_gas", "PlantParams.r_gas",
            "PlantParams.volume", "LoadModel.v0", "SupervisorConfig.h", "SmcGains.lam", "SmcGains.eta",
            "SmcGains.mu", "MpcConfig.dt_pred", "TimingConfig.sensor_rate", "TimingConfig.duration",
            "SynthesisConfig.rise_duration", "SynthesisConfig.decay_duration",
            "SynthesisConfig.full_open_duration", "SynthesisConfig.full_decay_duration",
        },
        "NonNegative": {
            "SmcGains.k_i", "PidGains.k_p", "PidGains.k_i", "PidGains.k_d", "MpcConfig.w_e", "MpcConfig.w_u",
            "MpcConfig.w_sw", "TimingConfig.noise_sigma", "SynthesisConfig.noise_sigma",
        },
        "Count": {"MpcConfig.max_switches", "Reference.cycles", "TimingConfig.seed", "SynthesisConfig.seed"},
        "PositiveCount": {"MpcConfig.horizon_steps", "MpcConfig.max_iters"},
    }


# Per bound type: the values just past its bound, the message, and its boundary value if it holds one.
BOUNDS = {
    "Positive": ([0.0, -0.0, 0, -1e-300], "must be positive", None),
    "NonNegative": ([-5e-324, -1.0, -1], "must be non-negative", 0.0),
    "Count": ([-1, -(10 ** 30)], "must be non-negative", 0),
    "PositiveCount": ([0, -1], "must be >= 1", 1),
}


@pytest.mark.parametrize("kind, name, bound", BOUNDED_FIELDS, ids=[f"{k}.{n}" for k, n, _ in BOUNDED_FIELDS])
def test_every_bounded_field_is_held_to_its_bound(kind, name, bound):
    past, message, boundary = BOUNDS[bound]
    for value in past:
        with pytest.raises(ValueError, match=f"^{name} {message}$"):
            replace(RECORDS[kind], **{name: value})
    if boundary is not None:
        # A sinusoid needs a cycle; a multi-step reference reads no cycle count.
        record = Reference.multi_step([(0.0, 1.0)]) if kind == "Reference" else RECORDS[kind]
        replace(record, **{name: boundary})


def test_a_bounded_field_checks_its_type_before_its_bound():
    with pytest.raises(ValueError, match="^h must be a real number, got '-1'$"):
        replace(RECORDS["SupervisorConfig"], h="-1")
    with pytest.raises(ValueError, match="^max_switches must be an integer, got -1.5$"):
        replace(RECORDS["MpcConfig"], max_switches=-1.5)


def test_config_names_the_gain_that_breaks_its_bound():
    with pytest.raises(ValueError, match=r"^invalid config\.smc\.inflation\.eta: eta must be positive$"):
        scenario_from_dict({"smc": {"inflation": {"eta": 0}}})


@pytest.mark.parametrize("mode", [1, 5, 0, "inflation", None])
def test_a_spool_map_mode_must_be_a_mode(mode):
    with pytest.raises(ValueError, match=f"^mode must be a Mode, got {mode!r}$"):
        SpoolMap(a=(0.0, 0.01, 0.0, 0.0), mode=mode)
    assert SpoolMap(a=(0.0, 0.01, 0.0, 0.0), mode=Mode.DEFLATION).to_dict()["mode"] == "deflation"


def test_an_integer_too_large_for_a_float_is_not_finite():
    with pytest.raises(ValueError, match="^h must be finite$"):
        replace(RECORDS["SupervisorConfig"], h=10 ** 400)


def test_an_optional_float_also_takes_none():
    assert TimingConfig(duration=None).duration is None
    assert type(TimingConfig(duration=3).duration) is float
    with pytest.raises(ValueError, match="^duration must be a real number, got '3'$"):
        TimingConfig(duration="3")


class TestReference:
    def test_sinusoid_keeps_a_whole_cycle_count(self):
        with pytest.raises(ValueError, match="^cycles must be an integer, got 2.5$"):
            Reference.sinusoid(50.0, 0.5, 2.5)
        with pytest.raises(ValueError, match="^cycles must be an integer, got True$"):
            Reference(kind="sinusoid", cycles=True)

    def test_stages_are_stored_as_float_pairs(self):
        ref = Reference.multi_step([[1, 2], (3, 4.5)])
        assert ref.stages == ((1.0, 2.0), (3.0, 4.5))
        assert all(type(v) is float for stage in ref.stages for v in stage)

    @pytest.mark.parametrize("kind", ["multi-step", "sinusoid"])
    @pytest.mark.parametrize("stages, message", [
        ("x", "stages must be a sequence of"),
        (5, "stages must be a sequence of"),
        ([(1.0, 2.0, 3.0)], "stages must be a sequence of"),
        ([(True, 1.0)], "stages: a level must be a real number"),
        ([(0.0, "1")], "stages: a hold must be a real number"),
        ([(math.nan, 1.0)], "stages: a level must be finite"),
    ])
    def test_both_kinds_check_their_stage_pairs(self, kind, stages, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            Reference(kind=kind, stages=stages)

    def test_a_kind_keeps_only_the_fields_it_reads(self):
        sine = Reference(kind="sinusoid", stages=((0.0, 1.0),), amplitude_kpa=20, frequency_hz=1, cycles=2)
        assert sine == Reference.sinusoid(20.0, 1.0, 2)
        steps = Reference(kind="multi-step", stages=((0.0, 1.0),), amplitude_kpa=20, frequency_hz=1, cycles=2)
        assert steps == Reference.multi_step([(0.0, 1.0)])

    @pytest.mark.parametrize("kind", ["multi-step", "sinusoid"])
    def test_a_negative_cycle_count_is_rejected_for_both_kinds(self, kind):
        with pytest.raises(ValueError, match="^cycles must be non-negative$"):
            Reference(kind=kind, stages=((0.0, 1.0),), cycles=-1)

    @pytest.mark.parametrize("reference, built", [
        ({"kind": "sinusoid"}, Reference.sinusoid(50.0, 0.5, 3)),
        ({"kind": "sinusoid", "amplitude_kpa": 20, "frequency_hz": 1, "cycles": 2.0},
         Reference.sinusoid(20.0, 1.0, 2)),
        ({"kind": "multi-step", "stages": [[0, 1], [50, 2]]},
         Reference.multi_step([(0.0, 1.0), (50.0, 2.0)])),
    ])
    def test_config_builds_the_library_record(self, reference, built):
        assert scenario_from_dict({"reference": reference}).reference == built


class TestSpoolMap:
    def test_coefficients_and_bounds_are_stored_as_floats(self):
        m = SpoolMap(a=[0, 1, 0, 0], u_min=0, u_max=1)
        assert m.a == (0.0, 1.0, 0.0, 0.0) and type(m.u_min) is float
        assert all(type(v) is float for v in m.a)

    @pytest.mark.parametrize("a, message", [
        (5, "^a must be four cubic coefficients, got 5$"),
        ((0.0, 1.0, 0.0), "^a must be four cubic coefficients"),
        ((0.0, 1.0, 0.0, True), "^a must be a real number, got True$"),
        ((0.0, "1", 0.0, 0.0), "^a must be a real number, got '1'$"),
    ])
    def test_coefficients_are_four_real_numbers(self, a, message):
        with pytest.raises(ValueError, match=message):
            SpoolMap(a=a)


def _run(tmp_path, config, command="run"):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return main([command, "--config", str(path), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("command, path, message", [
    ("run", ("timing", "seed"), "seed must be an integer, got 2.5"),
    ("run", ("reference", "cycles"), "cycles must be an integer, got 2.5"),
    ("run", ("mpc", "horizon_steps"), "horizon_steps must be an integer, got 2.5"),
    ("synthesize", ("synthesis", "seed"), "seed must be an integer, got 2.5"),
])
def test_config_reports_the_record_type_rule_by_key(tmp_path, capsys, command, path, message):
    config = {path[0]: {path[1]: 2.5}}
    if path[1] == "cycles":
        config[path[0]]["kind"] = "sinusoid"
    assert _run(tmp_path, config, command) == 2
    assert f"invalid config.{'.'.join(path)}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("stages", ["x", 5, [[0.0, 1.0, 2.0]], [["0", 1.0]]])
def test_sinusoid_config_with_malformed_stages_exits_2(tmp_path, capsys, stages):
    assert _run(tmp_path, {"reference": {"kind": "sinusoid", "stages": stages}}) == 2
    assert "config.reference.stages" in capsys.readouterr().err


def test_multi_step_config_with_a_negative_cycle_count_exits_2(tmp_path, capsys):
    assert _run(tmp_path, {"reference": {"cycles": -1}}) == 2
    assert "config.reference.cycles" in capsys.readouterr().err


BELLOW_AT_ZERO = {"kind": "affine-bellow", "v0_m3": 1e-5, "k_v_m3_pa": 1e-9, "v_min_m3": 0, "v_max_m3": 2e-5}


def test_bellow_with_a_zero_lower_volume_is_rejected():
    with pytest.raises(ValueError, match="^v_min must satisfy 0 < v_min < v_max"):
        LoadModel.affine_bellow(v0=1e-5, k_v=1e-9, v_min=0.0, v_max=2e-5)
    # A fixed load never reads the bounds.
    assert LoadModel(kind="fixed", v_min=0.0).v_min == 0.0


def test_bellow_config_with_a_zero_lower_volume_exits_2(tmp_path, capsys):
    assert _run(tmp_path, {"load": BELLOW_AT_ZERO, "reference": {"stages": [[-80, 1]]}}) == 2
    assert "invalid config.load.v_min_m3: " in capsys.readouterr().err


def test_noise_whose_draws_overflow_is_an_arithmetic_error():
    timing = TimingConfig(noise_sigma=1e308)
    controller = PidLoop(default_pid_gains(), default_supervisor(), 1.0 / timing.control_rate)
    with pytest.raises(ArithmeticError, match="noise_sigma"):
        run_scenario(Reference.multi_step([(0.0, 2.0)]), controller, timing, default_plant(), default_maps())


@pytest.mark.parametrize("command", ["run", "compare"])
def test_noise_whose_draws_overflow_exits_4(tmp_path, capsys, command):
    config = {"controller": "pid", "reference": {"stages": [[0, 2]]}, "timing": {"noise_sigma_pa": 1e308}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    args = [command, "--config", str(path), "--out", str(tmp_path / "out")]
    if command == "compare":
        args += ["--controllers", "pid,dm-smc"]
    assert main(args) == 4
    assert "solver failure: noise_sigma" in capsys.readouterr().err


def test_synthesis_noise_whose_draws_overflow_exits_4(tmp_path, capsys):
    short = {"noise_sigma_pa": 1e308, "rise_s": 0.5, "decay_s": 0.5, "full_open_s": 0.5, "full_decay_s": 0.5}
    path = tmp_path / "synth.json"
    path.write_text(json.dumps({"modes": ["inflation"], "synthesis": short}))
    assert main(["synthesize", "--config", str(path), "--out", str(tmp_path / "traces")]) == 4
    err = capsys.readouterr().err
    assert err == "solver failure: noise_sigma 1e+308 Pa draws a non-finite noise sample\n"
    assert not (tmp_path / "traces").exists()
