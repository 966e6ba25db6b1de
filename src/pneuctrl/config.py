"""Default parameters and strict JSON scenario configuration.

Defaults reproduce the identified desk-scale channel: source and sink
pressures, the four branch conductances, the per-mode spool-fraction
cubics, and the tuned controller gains.  Scenario configs are plain JSON
mirroring the library types; unknown keys are rejected with the offending
key named.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Optional

from .control import PidGains, SmcGains, SupervisorConfig
from .experiment import MAX_SUBSTEPS, Reference, TimingConfig, control_tick_times, metric_windows, run_duration
from .mpc import MpcConfig
from .plant import Conductances, LoadModel, Mode, PlantParams
from .sysid import SynthesisConfig
from .valvemap import SpoolMap


class ConfigError(ValueError):
    """Invalid or unknown scenario configuration entry."""


DEFAULT_CONDUCTANCES = Conductances(
    c_po=2.64e-10,
    c_on=3.44e-10,
    c_oa=6.94e-12,
    c_ao=4.52e-12,
)

# Inflation / deflation cubic coefficients (a0, a1, a2, a3), duty in percent.
DEFAULT_INFLATION_CUBIC = (-1.48, 8.96e-2, -1.09e-3, 4.38e-6)
DEFAULT_DEFLATION_CUBIC = (-2.27, 1.25e-1, -1.62e-3, 6.95e-6)

MULTI_STEP_LEVELS_KPA = (0.0, 50.0, 100.0, 150.0, 200.0, 150.0, 100.0, 50.0, 0.0, -40.0, -80.0, -40.0, 0.0)
MULTI_STEP_HOLD_S = 5.0

# Per-mode config sections, in Mode index order.
_MODES = {"deflation": Mode.DEFLATION, "inflation": Mode.INFLATION}


def default_plant() -> PlantParams:
    return _plant(default_scenario_dict()["plant"])


def default_maps() -> tuple[SpoolMap, SpoolMap]:
    """(deflation, inflation) spool maps, indexable by Mode."""
    return _maps(default_scenario_dict()["maps"])


def default_smc_gains() -> tuple[SmcGains, SmcGains]:
    """(deflation, inflation) sliding-mode gain sets."""
    return _gains(SmcGains, default_scenario_dict()["smc"], "config.smc")


def default_pid_gains() -> tuple[PidGains, PidGains]:
    """(deflation, inflation) PID gain sets, duty % per kPa."""
    return _gains(PidGains, default_scenario_dict()["pid"], "config.pid")


def default_supervisor() -> SupervisorConfig:
    return _supervisor(default_scenario_dict()["supervisor"])


def default_mpc_config() -> MpcConfig:
    return MpcConfig()


def default_load() -> LoadModel:
    return LoadModel()


def default_bellow_load() -> LoadModel:
    # Affine bellow spanning roughly 0-25 mL across the bipolar gauge range.
    return LoadModel.affine_bellow(v0=1.25e-5, k_v=8.93e-11, v_min=1.0e-6, v_max=2.5e-5)


def default_multi_step_reference() -> Reference:
    return _reference(default_scenario_dict()["reference"])


def default_sinusoid_reference(
    frequency_hz: float = Reference.frequency_hz, cycles: int = Reference.cycles,
) -> Reference:
    return Reference.sinusoid(amplitude_kpa=Reference.amplitude_kpa, frequency_hz=frequency_hz, cycles=cycles)


def default_timing() -> TimingConfig:
    return TimingConfig()


@dataclass
class ScenarioConfig:
    """Fully resolved scenario: plant, load, maps, controller, reference, timing."""

    name: str
    controller: str
    plant: PlantParams
    load: LoadModel
    maps: tuple[SpoolMap, SpoolMap]
    supervisor: SupervisorConfig
    smc_gains: tuple[SmcGains, SmcGains]
    pid_gains: tuple[PidGains, PidGains]
    mpc: MpcConfig
    reference: Reference
    timing: TimingConfig


CONTROLLER_NAMES = ("pid", "dm-smc", "nmpc", "mi-nmpc")

# JSON key -> dataclass field of the plant section (but its conductances).
_PLANT_KEYS = {
    "p_pos_pa": "p_pos", "p_neg_pa": "p_neg", "p_atm_pa": "p_atm", "b": "b", "rho_ref_kg_m3": "rho_ref",
    "t_ref_k": "t_ref", "t_gas_k": "t_gas", "gamma": "gamma", "r_gas_j_kgk": "r_gas", "volume_m3": "volume",
}
# JSON key -> field of the sections whose defaults are their dataclass's
# defaults, in printed order.
_LOAD_KEYS = {"kind": "kind", "v0_m3": "v0", "k_v_m3_pa": "k_v", "v_min_m3": "v_min", "v_max_m3": "v_max"}
_MPC_KEYS = {
    "horizon_steps": "horizon_steps", "dt_pred_s": "dt_pred", "w_e": "w_e", "w_u": "w_u",
    "w_sw": "w_sw", "max_iters": "max_iters", "max_switches": "max_switches",
}
_TIMING_KEYS = {
    "control_rate_hz": "control_rate", "sensor_rate_hz": "sensor_rate", "sim_substep_hz": "sim_substep",
    "duration_s": "duration", "noise_sigma_pa": "noise_sigma", "seed": "seed",
}
_SYNTHESIS_KEYS = {
    "sample_rate_hz": "sample_rate", "sim_substep_hz": "sim_substep", "rise_s": "rise_duration",
    "decay_s": "decay_duration", "full_open_s": "full_open_duration",
    "full_decay_s": "full_decay_duration", "noise_sigma_pa": "noise_sigma", "seed": "seed",
}


def _emit(obj: Any, keys: dict[str, str]) -> dict:
    return {key: getattr(obj, field) for key, field in keys.items()}


def default_scenario_dict() -> dict:
    """The effective default configuration as a plain JSON-ready dict.

    The one place the defaults are written; the ``default_*`` factories build
    from it.  Its load, mpc and timing sections are the dataclass defaults.
    """
    return {
        "name": "multistep-dm-smc",
        "controller": "dm-smc",
        "plant": {
            "p_pos_pa": 3.0e5,
            "p_neg_pa": 1.0e4,
            "p_atm_pa": 1.01e5,
            "b": 0.26,
            "rho_ref_kg_m3": 1.185,
            "t_ref_k": 293.15,
            "t_gas_k": 293.15,
            "gamma": 1.4,
            "r_gas_j_kgk": 287.0,
            "volume_m3": 2.0e-5,
            "conductances": asdict(DEFAULT_CONDUCTANCES),
        },
        "load": _emit(LoadModel(), _LOAD_KEYS),
        "maps": {
            "inflation": {"a": list(DEFAULT_INFLATION_CUBIC), "u_min": SpoolMap.u_min, "u_max": SpoolMap.u_max},
            "deflation": {"a": list(DEFAULT_DEFLATION_CUBIC), "u_min": SpoolMap.u_min, "u_max": SpoolMap.u_max},
        },
        "supervisor": {"h": 5000.0},
        "smc": {
            "inflation": {"lam": 2.8, "eta": 5.0e3, "mu": 1.0e3, "k_i": 0.8},
            "deflation": {"lam": 4.0, "eta": 5.0e3, "mu": 1.0e3, "k_i": 0.8},
        },
        "pid": {
            "inflation": {"k_p": 0.32, "k_i": 0.3, "k_d": 0.02},
            "deflation": {"k_p": 0.6, "k_i": 0.2, "k_d": 0.01},
        },
        "mpc": _emit(MpcConfig(), _MPC_KEYS),
        "reference": {
            "kind": "multi-step",
            "stages": [[level, MULTI_STEP_HOLD_S] for level in MULTI_STEP_LEVELS_KPA],
            "amplitude_kpa": Reference.amplitude_kpa,
            "frequency_hz": Reference.frequency_hz,
            "cycles": Reference.cycles,
        },
        "timing": _emit(TimingConfig(), _TIMING_KEYS),
    }


@dataclass
class SynthesisSpec:
    """Resolved synthesis config: channel truth plus timing/noise settings."""

    plant: PlantParams
    maps: tuple[SpoolMap, SpoolMap]
    modes: tuple[Mode, ...]
    cfg: SynthesisConfig


def default_synthesis_dict() -> dict:
    base = default_scenario_dict()
    return {
        "plant": base["plant"],
        "maps": base["maps"],
        "modes": ["inflation", "deflation"],
        "synthesis": _emit(SynthesisConfig(), _SYNTHESIS_KEYS),
    }


def _merge(base: Any, over: Any, path: str) -> Any:
    """Overlay ``over`` on ``base``, rejecting unknown keys at every level."""
    if not isinstance(base, dict):
        return over
    if not isinstance(over, dict):
        raise ConfigError(f"expected an object at {path}")
    for key in over:
        if key not in base:
            raise ConfigError(f"unknown key {key!r} in {path}")
    return {k: _merge(v, over[k], f"{path}.{k}") if k in over else v for k, v in base.items()}


def _strict_int(value: Any, where: str) -> int:
    """An integer config entry: a non-negative integer or integral float, never a bool."""
    if isinstance(value, int) and not isinstance(value, bool) and value >= 0:
        return value
    if isinstance(value, float) and value.is_integer() and value >= 0.0:
        return int(value)
    raise ConfigError(f"{where} must be a non-negative integer, got {value!r}")


def _number(value: Any, where: str) -> float:
    """A numeric config entry: a finite integer or float, never a bool."""
    # The comparison is exact for integers of any size and false for NaN.
    if isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max:
        return float(value)
    raise ConfigError(f"{where} must be a finite number, got {value!r}")


def _make(cls: Any, where: str, keys: Optional[dict[str, str]] = None, **kwargs: Any) -> Any:
    """``cls(**kwargs)``, its own range checks reported as config errors.

    ``keys`` maps JSON keys to fields (by default each keyword names itself).
    An error that opens with a field, or names just one, names its key; one
    that names several, a check across entries, names the section and writes
    each field as its key.
    """
    try:
        return cls(**kwargs)
    except ValueError as exc:
        msg = str(exc)
        keys = {k: k for k in kwargs} if keys is None else keys
        first = msg.partition(" ")[0]
        named = [k for k, f in keys.items() if f == first]
        named = named or [k for k, f in keys.items() if re.search(rf"\b{f}\b", msg)]
        if len(named) == 1:
            raise ConfigError(f"invalid {where}.{named[0]}: {msg}") from exc
        for key in named:
            msg = re.sub(rf"\b{keys[key]}\b", key, msg)
        raise ConfigError(f"invalid {where}: {msg}") from exc


def _numbers(section: dict, where: str) -> dict[str, float]:
    return {key: _number(value, f"{where}.{key}") for key, value in section.items()}


def _section(cls: Any, section: dict, keys: dict[str, str], where: str) -> Any:
    """A dataclass with defaults from its section; each entry is checked
    against the type of the field's default (an ``int`` is strict, ``None``
    also admits ``null``, a ``str`` is left to the dataclass)."""
    defaults, kwargs = cls(), {}
    for key, field in keys.items():
        value, default = section[key], getattr(defaults, field)
        if isinstance(default, str) or (default is None and value is None):
            kwargs[field] = value
        elif isinstance(default, int):
            kwargs[field] = _strict_int(value, f"{where}.{key}")
        else:
            kwargs[field] = _number(value, f"{where}.{key}")
    return _make(cls, where, keys, **kwargs)


def _plant(p: dict) -> PlantParams:
    n = _numbers({k: v for k, v in p.items() if k != "conductances"}, "config.plant")
    conductances = _make(Conductances, "config.plant.conductances",
                         **_numbers(p["conductances"], "config.plant.conductances"))
    fields = {field: n[key] for key, field in _PLANT_KEYS.items()}
    return _make(PlantParams, "config.plant", _PLANT_KEYS, conductances=conductances, **fields)


def _maps(maps: dict) -> tuple[SpoolMap, SpoolMap]:
    def build(md: dict, mode: Mode, where: str) -> SpoolMap:
        if not isinstance(md["a"], list):
            raise ConfigError(f"{where}.a must be a list of numbers, got {md['a']!r}")
        a = tuple(_number(v, f"{where}.a[{i}]") for i, v in enumerate(md["a"]))
        bounds = _numbers({k: md[k] for k in ("u_min", "u_max")}, where)
        return _make(SpoolMap, where, a=a, mode=mode, **bounds)

    return tuple(build(maps[name], mode, f"config.maps.{name}") for name, mode in _MODES.items())


def _gains(cls: Any, section: dict, where: str) -> tuple:
    """(deflation, inflation) gain sets of one controller section."""
    return tuple(
        _make(cls, f"{where}.{name}", **_numbers(section[name], f"{where}.{name}")) for name in _MODES
    )


def _supervisor(sup: dict) -> SupervisorConfig:
    return _make(SupervisorConfig, "config.supervisor", **_numbers(sup, "config.supervisor"))


def _reference(r: dict) -> Reference:
    where = "config.reference"
    stages = r["stages"]
    if not (isinstance(stages, list) and all(isinstance(s, list) and len(s) == 2 for s in stages)):
        raise ConfigError(f"{where}.stages must be a list of [level_kpa, hold_s] pairs, got {stages!r}")
    stages = [(_number(lv, f"{where}.stages"), _number(hold, f"{where}.stages")) for lv, hold in stages]
    sine = {
        "amplitude_kpa": _number(r["amplitude_kpa"], f"{where}.amplitude_kpa"),
        "frequency_hz": _number(r["frequency_hz"], f"{where}.frequency_hz"),
        "cycles": _strict_int(r["cycles"], f"{where}.cycles"),
    }
    if r["kind"] == "multi-step":
        return _make(Reference.multi_step, where, stages=stages)
    if r["kind"] == "sinusoid":
        return _make(Reference.sinusoid, where, {key: key for key in sine}, **sine)
    raise ConfigError(f"unknown reference kind {r['kind']!r} in {where}.kind")


def _modes(names: Any) -> tuple[Mode, ...]:
    if not isinstance(names, list):
        raise ConfigError(f"config.modes must be a list of mode names, got {names!r}")
    for name in names:
        if not isinstance(name, str) or name not in _MODES:
            raise ConfigError(f"unknown mode {name!r} in config.modes")
    if not names:
        raise ConfigError("config.modes must name at least one mode")
    if len(set(names)) != len(names):
        raise ConfigError(f"config.modes names a mode more than once: {names!r}")
    return tuple(_MODES[name] for name in names)


def synthesis_from_dict(raw: dict) -> SynthesisSpec:
    if not isinstance(raw, dict):
        raise ConfigError("synthesis config must be a JSON object")
    d = _merge(default_synthesis_dict(), raw, "config")
    return SynthesisSpec(
        plant=_plant(d["plant"]),
        maps=_maps(d["maps"]),
        modes=_modes(d["modes"]),
        cfg=_section(SynthesisConfig, d["synthesis"], _SYNTHESIS_KEYS, "config.synthesis"),
    )


def _read_json(path: str | Path) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path} is not valid UTF-8: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
        except ValueError as exc:   # an integer longer than Python's int parsing limit
            raise ConfigError(f"unreadable JSON in {path}: {exc}") from exc


def load_synthesis(path: str | Path) -> SynthesisSpec:
    return synthesis_from_dict(_read_json(path))


# Longest scenario name in UTF-8 bytes: ``<name>-compare`` stays within the
# usual 255-byte limit of one file name.
_NAME_MAX_BYTES = 240


def _scenario_name(name: Any) -> str:
    """The name is the default output directory under ``out/``: one plain path component."""
    if not isinstance(name, str):
        raise ConfigError(f"config.name must be a string, got {name!r}")
    bad = name in ("", ".", "..") or any(c in name for c in "/\\\0")
    try:
        bad = bad or len(name.encode("utf-8")) > _NAME_MAX_BYTES
    except UnicodeEncodeError:   # a lone surrogate, which JSON allows
        bad = True
    if bad:
        raise ConfigError(f"config.name must be one directory name, got {name!r}")
    return name


def scenario_from_dict(raw: dict) -> ScenarioConfig:
    """Build a validated scenario from a JSON dict layered over the defaults."""
    if not isinstance(raw, dict):
        raise ConfigError("scenario config must be a JSON object")
    d = _merge(default_scenario_dict(), raw, "config")

    controller = d["controller"]
    if controller not in CONTROLLER_NAMES:
        raise ConfigError(f"unknown controller {controller!r}; expected one of {CONTROLLER_NAMES}")
    sc = ScenarioConfig(
        name=_scenario_name(d["name"]),
        controller=controller,
        plant=_plant(d["plant"]),
        load=_section(LoadModel, d["load"], _LOAD_KEYS, "config.load"),
        maps=_maps(d["maps"]),
        supervisor=_supervisor(d["supervisor"]),
        smc_gains=_gains(SmcGains, d["smc"], "config.smc"),
        pid_gains=_gains(PidGains, d["pid"], "config.pid"),
        mpc=_section(MpcConfig, d["mpc"], _MPC_KEYS, "config.mpc"),
        reference=_reference(d["reference"]),
        timing=_section(TimingConfig, d["timing"], _TIMING_KEYS, "config.timing"),
    )

    # Metrics need two control ticks, and one in every window they score.
    reference, timing = sc.reference, sc.timing
    run_s = run_duration(reference, timing)
    if run_s * timing.sim_substep > MAX_SUBSTEPS:
        if timing.duration is not None and timing.duration <= reference.duration:
            where = "config.timing.duration_s"
        elif reference.kind == "multi-step":
            where = "config.reference.stages"
        else:
            where = "config.reference.cycles / config.reference.frequency_hz"
        raise ConfigError(
            f"{where}: a run of {run_s!r} s takes more than {MAX_SUBSTEPS:,} substeps at "
            f"config.timing.sim_substep_hz {timing.sim_substep!r} Hz"
        )
    ticks = control_tick_times(run_s, timing)
    if len(ticks) < 2:
        raise ConfigError(
            f"config.timing: a run of {run_s!r} s is shorter than two control ticks "
            f"at {timing.control_rate!r} Hz"
        )
    window = "stage" if reference.kind == "multi-step" else "period"
    for i, (w0, w1, idx) in enumerate(metric_windows(ticks, reference, run_s)):
        if idx.size == 0:
            raise ConfigError(
                f"config.reference: {window} {i + 1} ([{w0!r}, {w1!r}) s) holds no control "
                f"tick at {timing.control_rate!r} Hz"
            )
    return sc


def load_scenario(path: str | Path) -> ScenarioConfig:
    return scenario_from_dict(_read_json(path))
