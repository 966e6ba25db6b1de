"""The defaults have one source: the factories, the parsed empty config and
the printed defaults agree, and a config survives a JSON round trip."""

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pneuctrl.cli import main
from pneuctrl.config import (
    _LOAD_KEYS,
    _MPC_KEYS,
    _PLANT_KEYS,
    _SYNTHESIS_KEYS,
    _TIMING_KEYS,
    CONTROLLER_NAMES,
    ConfigError,
    default_load,
    default_maps,
    default_mpc_config,
    default_multi_step_reference,
    default_pid_gains,
    default_plant,
    default_scenario_dict,
    default_smc_gains,
    default_supervisor,
    default_synthesis_dict,
    default_timing,
    scenario_from_dict,
    synthesis_from_dict,
)
from pneuctrl.control import PidGains, SmcGains, SupervisorConfig
from pneuctrl.experiment import Reference, TimingConfig
from pneuctrl.mpc import MpcConfig
from pneuctrl.plant import Checked, Conductances, LoadModel, Mode, PlantParams
from pneuctrl.sysid import SynthesisConfig
from pneuctrl.valvemap import SpoolMap

GOLDEN = Path(__file__).parent / "golden"


def test_empty_scenario_equals_the_factories():
    sc = scenario_from_dict({})
    assert sc.plant == default_plant()
    assert sc.load == default_load()
    assert sc.maps == default_maps()
    assert sc.supervisor == default_supervisor()
    assert sc.smc_gains == default_smc_gains()
    assert sc.pid_gains == default_pid_gains()
    assert sc.mpc == default_mpc_config()
    assert sc.reference == default_multi_step_reference()
    assert sc.timing == default_timing()


def test_the_model_volume_is_the_default_load_volume():
    # DM-SMC inverts the model at ``plant.volume``; the default fixed load must be that volume.
    assert default_plant().volume == default_load().v0
    assert default_scenario_dict()["plant"]["volume_m3"] == default_scenario_dict()["load"]["v0_m3"]


def test_empty_synthesis_equals_the_defaults():
    spec = synthesis_from_dict({})
    assert spec.cfg == SynthesisConfig()
    assert spec.plant == default_plant()
    assert spec.maps == default_maps()
    assert spec.modes == (Mode.INFLATION, Mode.DEFLATION)


def _own_keys(section):
    """The keys of the per-mode sections of a section keyed by field name."""
    return {key for mode_section in section.values() for key in mode_section}


_DEFAULT = default_scenario_dict()

# For each record the config builds, the init fields its JSON section reaches.
REACHED = {
    PlantParams: set(_PLANT_KEYS.values()) | {"conductances"},   # config builds the conductances
    Conductances: set(_DEFAULT["plant"]["conductances"]),
    LoadModel: set(_LOAD_KEYS.values()),
    SpoolMap: _own_keys(_DEFAULT["maps"]) | {"mode"},            # config fixes the mode by section
    SupervisorConfig: set(_DEFAULT["supervisor"]),
    SmcGains: _own_keys(_DEFAULT["smc"]),
    PidGains: _own_keys(_DEFAULT["pid"]),
    MpcConfig: set(_MPC_KEYS.values()),
    Reference: set(_DEFAULT["reference"]),
    TimingConfig: set(_TIMING_KEYS.values()),
    SynthesisConfig: set(_SYNTHESIS_KEYS.values()),
}


@pytest.mark.parametrize("record", list(REACHED), ids=lambda r: r.__name__)
def test_every_record_field_is_reached_by_a_config_key(record):
    # A field no key reaches is a setting only the library can change; the
    # package keeps such a value a module constant instead.
    assert {f.name for f in dataclasses.fields(record) if f.init} == REACHED[record], record.__name__


@pytest.mark.parametrize("record", list(REACHED), ids=lambda r: r.__name__)
def test_every_config_built_record_inherits_the_field_check(record):
    # So no record the config builds can skip check_fields.
    assert issubclass(record, Checked), record.__name__


def test_default_dicts_are_fresh_per_call():
    for make in (default_scenario_dict, default_synthesis_dict):
        a = make()
        a["plant"]["conductances"]["c_po"] = 1.0
        a["maps"]["inflation"]["a"][0] = 1.0
        assert make() != a


def test_printed_defaults_match_the_golden_copies(capsys):
    for argv, name in ((["defaults"], "defaults_scenario.json"),
                       (["defaults", "--kind", "synthesis"], "defaults_synthesis.json")):
        assert main(argv) == 0
        assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")


def _section(**fields):
    """An optional override section: any subset of ``fields``."""
    return st.fixed_dictionaries({}, optional=fields)


def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


scalar_overrides = st.fixed_dictionaries({}, optional={
    # Lone surrogates (category Cs) are not valid names; see NOT_ONE_DIRECTORY_NAME.
    "name": st.text(st.characters(blacklist_characters="/\\\0", blacklist_categories=["Cs"]),
                    min_size=1, max_size=12).filter(
        lambda name: name not in (".", "..")),
    "controller": st.sampled_from(CONTROLLER_NAMES),
    "plant": _section(
        p_pos_pa=finite(2.0e5, 5.0e5), p_neg_pa=finite(1.0e3, 5.0e4), b=finite(0.1, 0.5),
        gamma=finite(1.1, 1.7), t_gas_k=finite(250.0, 350.0), volume_m3=finite(1e-6, 1e-4),
        conductances=_section(c_po=finite(1e-11, 1e-9), c_ao=finite(1e-13, 1e-11)),
    ),
    "load": _section(
        kind=st.sampled_from(["fixed", "affine-bellow"]), v0_m3=finite(1e-6, 5e-5),
        k_v_m3_pa=finite(0.0, 1e-10),
    ),
    "maps": _section(inflation=_section(u_max=finite(90.0, 100.0))),
    "supervisor": _section(h=finite(100.0, 1e4)),
    "smc": _section(deflation=_section(lam=finite(0.5, 10.0), k_i=finite(0.0, 2.0))),
    "pid": _section(inflation=_section(k_p=finite(0.0, 1.0), k_d=finite(0.0, 0.1))),
    "mpc": _section(
        horizon_steps=st.integers(1, 20), w_e=finite(0.0, 1e-5), w_sw=finite(0.0, 5.0),
        max_switches=st.integers(0, 3),
    ),
    "reference": _section(
        kind=st.sampled_from(["multi-step", "sinusoid"]), amplitude_kpa=finite(0.0, 100.0),
        frequency_hz=finite(0.1, 2.0), cycles=st.integers(1, 4),
    ),
    "timing": _section(
        control_rate_hz=st.sampled_from([50.0, 100.0, 200.0]), sensor_rate_hz=finite(10.0, 200.0),
        duration_s=st.none() | finite(0.5, 100.0), noise_sigma_pa=finite(0.0, 1000.0),
        seed=st.integers(0, 2**31),
    ),
})


def _overlay(base, over):
    return {k: _overlay(v, over[k]) if isinstance(v, dict) and k in over else over.get(k, v)
            for k, v in base.items()}


# Every name the strategy above leaves out is a config error.
NOT_ONE_DIRECTORY_NAME = st.one_of(
    st.sampled_from(["", ".", ".."]),
    st.tuples(
        st.text(max_size=6),
        st.sampled_from("/\\\0") | st.characters(whitelist_categories=["Cs"]),
        st.text(max_size=6),
    ).map("".join),
    st.integers(241, 400).map(lambda n: "n" * n),
    st.none() | st.booleans() | st.integers() | st.lists(st.text(max_size=3), max_size=2),
)


@given(name=NOT_ONE_DIRECTORY_NAME)
def test_a_name_that_is_not_one_directory_name_is_a_config_error(name):
    with pytest.raises(ConfigError, match="config.name"):
        scenario_from_dict({"name": name})


@settings(max_examples=60, deadline=None)
@given(overrides=scalar_overrides)
def test_emit_then_reload_is_the_identity(overrides):
    emitted = json.dumps(_overlay(default_scenario_dict(), overrides))
    assert scenario_from_dict(json.loads(emitted)) == scenario_from_dict(overrides)
