"""Default parameters and strict JSON scenario configuration.

Defaults reproduce the identified desk-scale channel: source and sink
pressures, the four branch conductances, the per-mode spool-fraction
cubics, and the tuned controller gains.  Scenario configs are plain JSON
mirroring the library types; unknown keys are rejected with the offending
key named.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from .control import PidGains, SmcGains, SupervisorConfig
from .experiment import Reference, TimingConfig, control_tick_times, metric_windows, run_duration
from .mpc import MpcConfig
from .plant import Conductances, LoadModel, Mode, PlantParams
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


def default_plant(volume: float = 2.0e-5) -> PlantParams:
    return PlantParams(
        p_pos=3.0e5,
        p_neg=1.0e4,
        p_atm=1.01e5,
        b=0.26,
        rho_ref=1.185,
        t_ref=293.15,
        t_gas=293.15,
        gamma=1.4,
        r_gas=287.0,
        volume=volume,
        conductances=DEFAULT_CONDUCTANCES,
    )


def default_maps() -> tuple[SpoolMap, SpoolMap]:
    """(deflation, inflation) spool maps, indexable by Mode."""
    deflation = SpoolMap(a=DEFAULT_DEFLATION_CUBIC, mode=Mode.DEFLATION)
    inflation = SpoolMap(a=DEFAULT_INFLATION_CUBIC, mode=Mode.INFLATION)
    return (deflation, inflation)


def default_smc_gains() -> tuple[SmcGains, SmcGains]:
    """(deflation, inflation) sliding-mode gain sets."""
    deflation = SmcGains(lam=4.0, eta=5.0e3, mu=1.0e3, k_i=0.8)
    inflation = SmcGains(lam=2.8, eta=5.0e3, mu=1.0e3, k_i=0.8)
    return (deflation, inflation)


def default_pid_gains() -> tuple[PidGains, PidGains]:
    """(deflation, inflation) PID gain sets, duty % per kPa."""
    deflation = PidGains(k_p=0.6, k_i=0.2, k_d=0.01)
    inflation = PidGains(k_p=0.32, k_i=0.3, k_d=0.02)
    return (deflation, inflation)


def default_supervisor() -> SupervisorConfig:
    return SupervisorConfig(h=5000.0)


def default_mpc_config() -> MpcConfig:
    return MpcConfig()


def default_load() -> LoadModel:
    return LoadModel.fixed(2.0e-5)


def default_bellow_load() -> LoadModel:
    # Affine bellow spanning roughly 0-25 mL across the bipolar gauge range.
    return LoadModel.affine_bellow(v0=1.25e-5, k_v=8.93e-11, v_min=1.0e-6, v_max=2.5e-5)


def default_multi_step_reference() -> Reference:
    return Reference.multi_step([(level, MULTI_STEP_HOLD_S) for level in MULTI_STEP_LEVELS_KPA])


def default_sinusoid_reference(frequency_hz: float = 0.5, cycles: int = 3) -> Reference:
    return Reference.sinusoid(amplitude_kpa=50.0, frequency_hz=frequency_hz, cycles=cycles)


def default_timing(duration: Optional[float] = None) -> TimingConfig:
    return TimingConfig(
        control_rate=100.0,
        sensor_rate=60.0,
        sim_substep=1000.0,
        duration=duration,
        noise_sigma=500.0,
        seed=0,
    )


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


def default_scenario_dict() -> dict:
    """The effective default configuration as a plain JSON-ready dict."""
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
            "conductances": {
                "c_po": 2.64e-10,
                "c_on": 3.44e-10,
                "c_oa": 6.94e-12,
                "c_ao": 4.52e-12,
            },
        },
        "load": {"kind": "fixed", "v0_m3": 2.0e-5, "k_v_m3_pa": 0.0, "v_min_m3": 1.0e-6, "v_max_m3": 2.5e-5},
        "maps": {
            "inflation": {"a": list(DEFAULT_INFLATION_CUBIC), "u_min": 20.0, "u_max": 100.0},
            "deflation": {"a": list(DEFAULT_DEFLATION_CUBIC), "u_min": 20.0, "u_max": 100.0},
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
        "mpc": {
            "horizon_steps": 10,
            "dt_pred_s": 0.01,
            "w_e": 1.0e-6,
            "w_u": 1.0e-2,
            "w_sw": 1.0,
            "max_iters": 3,
            "max_switches": 1,
        },
        "reference": {
            "kind": "multi-step",
            "stages": [[level, MULTI_STEP_HOLD_S] for level in MULTI_STEP_LEVELS_KPA],
            "amplitude_kpa": 50.0,
            "frequency_hz": 0.5,
            "cycles": 3,
        },
        "timing": {
            "control_rate_hz": 100.0,
            "sensor_rate_hz": 60.0,
            "sim_substep_hz": 1000.0,
            "duration_s": None,
            "noise_sigma_pa": 500.0,
            "seed": 0,
        },
    }


@dataclass
class SynthesisSpec:
    """Resolved synthesis config: channel truth plus timing/noise settings."""

    plant: PlantParams
    maps: tuple[SpoolMap, SpoolMap]
    modes: tuple[Mode, ...]
    cfg: "SynthesisConfig"


def default_synthesis_dict() -> dict:
    base = default_scenario_dict()
    return {
        "plant": base["plant"],
        "maps": base["maps"],
        "modes": ["inflation", "deflation"],
        "synthesis": {
            "sample_rate_hz": 60.0,
            "sim_substep_hz": 1000.0,
            "rise_s": 3.0,
            "decay_s": 2.0,
            "full_open_s": 2.0,
            "full_decay_s": 4.0,
            "noise_sigma_pa": 0.0,
            "seed": 0,
        },
    }


def synthesis_from_dict(raw: dict) -> SynthesisSpec:
    from .sysid import SynthesisConfig

    if not isinstance(raw, dict):
        raise ConfigError("synthesis config must be a JSON object")

    def merge(base: Any, over: Any, path: str) -> Any:
        if isinstance(base, dict):
            if not isinstance(over, dict):
                raise ConfigError(f"expected an object at {path}")
            for key in over:
                if key not in base:
                    raise ConfigError(f"unknown key {key!r} in {path}")
            return {k: merge(base[k], over[k], f"{path}.{k}") if k in over else base[k] for k in base}
        return over

    d = merge(default_synthesis_dict(), raw, "config")
    scenario_like = {"plant": d["plant"], "maps": d["maps"]}
    resolved = scenario_from_dict(scenario_like)

    modes = []
    for name in d["modes"]:
        if name == "inflation":
            modes.append(Mode.INFLATION)
        elif name == "deflation":
            modes.append(Mode.DEFLATION)
        else:
            raise ConfigError(f"unknown mode {name!r} in config.modes")
    if not modes:
        raise ConfigError("config.modes must name at least one mode")

    s = d["synthesis"]
    try:
        cfg = SynthesisConfig(
            sample_rate=float(s["sample_rate_hz"]),
            sim_substep=float(s["sim_substep_hz"]),
            rise_duration=float(s["rise_s"]),
            decay_duration=float(s["decay_s"]),
            full_open_duration=float(s["full_open_s"]),
            full_decay_duration=float(s["full_decay_s"]),
            noise_sigma=float(s["noise_sigma_pa"]),
            seed=_strict_int(s["seed"], "config.synthesis.seed"),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid synthesis settings: {exc}") from exc
    return SynthesisSpec(plant=resolved.plant, maps=resolved.maps, modes=tuple(modes), cfg=cfg)


def load_synthesis(path: str | Path) -> SynthesisSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    return synthesis_from_dict(raw)


def _strict_int(value: Any, where: str) -> int:
    """An integer config entry: an integer or an integral float, never a bool."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{where} must be an integer, got {value!r}")


def _require_keys(d: dict, allowed: set[str], where: str) -> None:
    for key in d:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")


def _get(d: dict, key: str, where: str) -> Any:
    if key not in d:
        raise ConfigError(f"missing key {key!r} in {where}")
    return d[key]


def _merged_with_defaults(raw: dict) -> dict:
    """Overlay ``raw`` on the defaults, rejecting unknown keys at every level."""
    def merge(base: Any, over: Any, path: str) -> Any:
        if isinstance(base, dict):
            if not isinstance(over, dict):
                raise ConfigError(f"expected an object at {path}")
            for key in over:
                if key not in base:
                    raise ConfigError(f"unknown key {key!r} in {path}")
            return {k: merge(base[k], over[k], f"{path}.{k}") if k in over else base[k] for k in base}
        return over

    out = merge(default_scenario_dict(), raw, "config")
    return out


def scenario_from_dict(raw: dict) -> ScenarioConfig:
    """Build a validated scenario from a JSON dict layered over the defaults."""
    if not isinstance(raw, dict):
        raise ConfigError("scenario config must be a JSON object")
    d = _merged_with_defaults(raw)

    controller = d["controller"]
    if controller not in CONTROLLER_NAMES:
        raise ConfigError(f"unknown controller {controller!r}; expected one of {CONTROLLER_NAMES}")

    p = d["plant"]
    c = p["conductances"]
    try:
        conductances = Conductances(
            c_po=float(c["c_po"]), c_on=float(c["c_on"]),
            c_oa=float(c["c_oa"]), c_ao=float(c["c_ao"]),
        )
        plant = PlantParams(
            p_pos=float(p["p_pos_pa"]),
            p_neg=float(p["p_neg_pa"]),
            p_atm=float(p["p_atm_pa"]),
            b=float(p["b"]),
            rho_ref=float(p["rho_ref_kg_m3"]),
            t_ref=float(p["t_ref_k"]),
            t_gas=float(p["t_gas_k"]),
            gamma=float(p["gamma"]),
            r_gas=float(p["r_gas_j_kgk"]),
            volume=float(p["volume_m3"]),
            conductances=conductances,
        )
    except ValueError as exc:
        raise ConfigError(f"invalid plant parameters: {exc}") from exc

    ld = d["load"]
    try:
        load = LoadModel(
            kind=ld["kind"],
            v0=float(ld["v0_m3"]),
            k_v=float(ld["k_v_m3_pa"]),
            v_min=float(ld["v_min_m3"]),
            v_max=float(ld["v_max_m3"]),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid load model: {exc}") from exc

    def build_map(md: dict, mode: Mode, where: str) -> SpoolMap:
        _require_keys(md, {"a", "u_min", "u_max"}, where)
        try:
            return SpoolMap(
                a=tuple(float(v) for v in _get(md, "a", where)),
                u_min=float(md.get("u_min", 20.0)),
                u_max=float(md.get("u_max", 100.0)),
                mode=mode,
            )
        except ValueError as exc:
            raise ConfigError(f"invalid spool map in {where}: {exc}") from exc

    maps = (
        build_map(d["maps"]["deflation"], Mode.DEFLATION, "config.maps.deflation"),
        build_map(d["maps"]["inflation"], Mode.INFLATION, "config.maps.inflation"),
    )

    sup = d["supervisor"]
    try:
        supervisor = SupervisorConfig(h=float(sup["h"]))
    except ValueError as exc:
        raise ConfigError(f"invalid supervisor config: 'h' {exc}") from exc

    def build_smc(sd: dict, where: str) -> SmcGains:
        try:
            return SmcGains(
                lam=float(sd["lam"]), eta=float(sd["eta"]),
                mu=float(sd["mu"]), k_i=float(sd["k_i"]),
            )
        except ValueError as exc:
            raise ConfigError(f"invalid gains in {where}: {exc}") from exc

    def build_pid(pd: dict, where: str) -> PidGains:
        try:
            return PidGains(k_p=float(pd["k_p"]), k_i=float(pd["k_i"]), k_d=float(pd["k_d"]))
        except ValueError as exc:
            raise ConfigError(f"invalid gains in {where}: {exc}") from exc

    smc_gains = (
        build_smc(d["smc"]["deflation"], "config.smc.deflation"),
        build_smc(d["smc"]["inflation"], "config.smc.inflation"),
    )
    pid_gains = (
        build_pid(d["pid"]["deflation"], "config.pid.deflation"),
        build_pid(d["pid"]["inflation"], "config.pid.inflation"),
    )

    m = d["mpc"]
    try:
        mpc = MpcConfig(
            horizon_steps=_strict_int(m["horizon_steps"], "config.mpc.horizon_steps"),
            dt_pred=float(m["dt_pred_s"]),
            w_e=float(m["w_e"]),
            w_u=float(m["w_u"]),
            w_sw=float(m["w_sw"]),
            max_iters=_strict_int(m["max_iters"], "config.mpc.max_iters"),
            max_switches=_strict_int(m["max_switches"], "config.mpc.max_switches"),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid mpc config: {exc}") from exc

    r = d["reference"]
    kind = r["kind"]
    try:
        if kind == "multi-step":
            reference = Reference.multi_step([(float(lv), float(hold)) for lv, hold in r["stages"]])
        elif kind == "sinusoid":
            reference = Reference.sinusoid(
                amplitude_kpa=float(r["amplitude_kpa"]),
                frequency_hz=float(r["frequency_hz"]),
                cycles=_strict_int(r["cycles"], "config.reference.cycles"),
            )
        else:
            raise ConfigError(f"unknown reference kind {kind!r}")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid reference: {exc}") from exc

    t = d["timing"]
    try:
        timing = TimingConfig(
            control_rate=float(t["control_rate_hz"]),
            sensor_rate=float(t["sensor_rate_hz"]),
            sim_substep=float(t["sim_substep_hz"]),
            duration=None if t["duration_s"] is None else float(t["duration_s"]),
            noise_sigma=float(t["noise_sigma_pa"]),
            seed=_strict_int(t["seed"], "config.timing.seed"),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid timing config: {exc}") from exc
    # Metrics need two control ticks, and one in every window they score.
    run_s = run_duration(reference, timing)
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

    return ScenarioConfig(
        name=str(d["name"]),
        controller=controller,
        plant=plant,
        load=load,
        maps=maps,
        supervisor=supervisor,
        smc_gains=smc_gains,
        pid_gains=pid_gains,
        mpc=mpc,
        reference=reference,
        timing=timing,
    )


def load_scenario(path: str | Path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    return scenario_from_dict(raw)
