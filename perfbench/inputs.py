"""Seeded inputs of the benchmark: scenario configs, MPC problems, synthesis configs.

Everything the program receives is generated here from the workload seed, so
the same seed gives the same inputs.  The seed draws the sensor-noise seed of
each closed-loop pass and the MPC problems; identification runs the default,
noiseless protocol (see :func:`_synth_passes`), the same in every run.

Every workload runs all three phases (closed loop, MPC solves,
identification), because every run reports every end-to-end metric; the
workload decides which phase fills ``--seconds`` and which run at their small
companion size.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("closed-loop", "mpc-solve", "sysid")

CONTROLLERS = ("dm-smc", "pid")
NOISE_SIGMA_PA = 500.0

# Companion sizes: closed-loop passes, MPC problems, identification passes.
COMPANION_SIZES = {"closed-loop": 3, "mpc-solve": 12, "sysid": 1}
# CPU seconds of one unit on the 2-vCPU x86 machine of the baseline, as the
# host's load leaves it on average: a closed-loop pass (four ``run`` calls),
# an MPC problem (both solvers), an identification pass (``synthesize`` plus
# two ``sysid`` calls).
UNIT_S = {"closed-loop": 1.6, "mpc-solve": 0.58, "sysid": 10.0}

# MPC problem design: initial pressures span this gauge range (kPa) in
# P0_CELLS cells, and the reference windows cycle through WINDOW_TEMPLATES
# templates (even: multi-step stage boundaries, odd: sinusoid phases).  The
# seed moves each problem by a small jitter inside its cell and template, so
# the mean cost over a run stays comparable from seed to seed.
P0_RANGE_KPA = (-75.0, 175.0)
P0_CELLS = 8
WINDOW_TEMPLATES = 8
P0_JITTER = 0.2            # share of a cell
TIME_JITTER_S = 0.02
PHASE_JITTER_RAD = 0.05


def phase_sizes(workload: str, seconds: int) -> dict[str, int]:
    """Units per phase: the other phases at companion size, the workload's
    own phase filling the rest of ``seconds``.

    At ``seconds=28`` that is 7 closed-loop passes, 23 MPC problems or 2
    identification passes.  The sizes depend only on ``seconds``, so work
    counters repeat exactly for a seed.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    sizes = dict(COMPANION_SIZES)
    others_s = sum(n * UNIT_S[phase] for phase, n in sizes.items() if phase != workload)
    sizes[workload] = max(2, sizes[workload], round((seconds - others_s) / UNIT_S[workload]))
    return sizes


@dataclass(frozen=True)
class LoopRun:
    """One ``pneuctrl run`` call: a scenario config under one controller."""

    scenario: str
    controller: str
    config: Path
    sim_s: float


@dataclass(frozen=True)
class MpcProblem:
    p0: float
    refs: tuple[float, ...]
    prev_mode: int


@dataclass(frozen=True)
class Plan:
    workload: str
    seed: int
    seconds: int
    work_dir: Path
    loop_runs: tuple[LoopRun, ...]
    loop_seeds: tuple[int, ...]          # sensor-noise seed of each closed-loop pass
    problems: tuple[MpcProblem, ...]
    synth_passes: tuple[Path, ...]       # synthesis config of each identification pass
    truth: dict                          # channel the synthesis configs describe
    rails_kpa: tuple[float, float]       # (p_neg, p_pos) of the scenarios, gauge kPa


def _write_json(path: Path, obj: dict) -> Path:
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")
    return path


def _loop_runs(work_dir: Path) -> tuple[LoopRun, ...]:
    from pneuctrl import config as config_mod

    bellow = config_mod.default_bellow_load()
    base = config_mod.default_scenario_dict()
    base["timing"]["noise_sigma_pa"] = NOISE_SIGMA_PA
    multistep = dict(base, name="multistep-fixed")
    sinusoid = dict(
        base,
        name="sinusoid-bellow",
        reference=dict(base["reference"], kind="sinusoid", amplitude_kpa=50.0, frequency_hz=0.5, cycles=3),
        load={"kind": bellow.kind, "v0_m3": bellow.v0, "k_v_m3_pa": bellow.k_v,
              "v_min_m3": bellow.v_min, "v_max_m3": bellow.v_max},
    )
    runs = []
    for scenario in (multistep, sinusoid):
        ref = config_mod.scenario_from_dict(scenario).reference
        for controller in CONTROLLERS:
            path = work_dir / f"{scenario['name']}-{controller}.json"
            _write_json(path, dict(scenario, controller=controller))
            runs.append(LoopRun(scenario["name"], controller, path, ref.duration))
    return tuple(runs)


def mpc_problems(rng: np.random.Generator, n: int) -> tuple[MpcProblem, ...]:
    """``n`` open-loop problems: a start pressure and a 10-step reference window.

    Step windows sit at a stage boundary of the default multi-step reference,
    either straddling it or 2 s after it; sinusoid windows start at quarter
    phases of the default 0.5 Hz, 50 kPa sinusoid.  Windows at the 0 -> -40
    and -40 -> 0 kPa boundaries and at phases 0 and pi cross atmosphere, where
    the choice of mode matters; so do starts on the other side of atmosphere
    from the reference.
    """
    from pneuctrl import config as config_mod
    from pneuctrl.experiment import reference_at
    from pneuctrl.mpc import MpcConfig

    params = config_mod.default_plant()
    cfg = MpcConfig()
    steps = config_mod.default_multi_step_reference()
    sine = config_mod.default_sinusoid_reference()
    hold = config_mod.MULTI_STEP_HOLD_S
    n_boundaries = len(steps.stages) - 1
    lo, hi = P0_RANGE_KPA
    cell_kpa = (hi - lo) / P0_CELLS
    problems = []
    for i in range(n):
        rnd, t = divmod(i, WINDOW_TEMPLATES)
        cell = (5 * i + rnd) % P0_CELLS
        p0 = params.p_atm + 1e3 * (lo + (cell + 0.5 + P0_JITTER * (rng.random() - 0.5)) * cell_kpa)
        jitter = rng.random() - 0.5
        if t % 2 == 0:
            boundary = 1 + (3 * (t // 2) + 5 * rnd) % n_boundaries
            offset = -0.05 if (t // 2) % 2 == 0 else 2.0
            t0 = boundary * hold + offset + TIME_JITTER_S * jitter
            ref = steps
        else:
            phase = 2.0 * math.pi * ((t // 2) / 4 + 0.125 * (rnd % 2)) + PHASE_JITTER_RAD * jitter
            t0 = phase / (2.0 * math.pi * sine.frequency_hz)
            ref = sine
        refs = tuple(
            reference_at(ref, t0 + (k + 1) * cfg.dt_pred, params.p_atm)[0]
            for k in range(cfg.horizon_steps)
        )
        problems.append(MpcProblem(p0=p0, refs=refs, prev_mode=int(rng.integers(2))))
    return tuple(problems)


def _synth_passes(work_dir: Path, n: int) -> tuple[Path, ...]:
    """The synthesis config of each of ``n`` identification passes.

    Every pass synthesizes the default protocol, which is noiseless: the
    regime in which acceptance 6 bounds the identified spool map.  With
    500 Pa protocol noise ``sysid --mode deflation`` fails on most noise
    seeds (see README.md, Known failures), and a workload must be one on
    which every operation succeeds.
    """
    from pneuctrl import config as config_mod

    path = _write_json(work_dir / "synth.json", config_mod.default_synthesis_dict())
    return (path,) * n


def _draw_seeds(rng: np.random.Generator, n: int) -> list[int]:
    return [int(v) for v in rng.integers(0, 2**31 - 1, size=n)]


def make_plan(workload: str, seed: int, seconds: int, work_dir: Path) -> Plan:
    """Generate and write every input of one run into ``work_dir``."""
    from pneuctrl import config as config_mod

    sizes = phase_sizes(workload, seconds)
    work_dir.mkdir(parents=True, exist_ok=True)
    loop_rng, mpc_rng = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
    synth = config_mod.default_synthesis_dict()
    plant = config_mod.default_scenario_dict()["plant"]
    return Plan(
        workload=workload,
        seed=seed,
        seconds=seconds,
        work_dir=work_dir,
        loop_runs=_loop_runs(work_dir),
        loop_seeds=tuple(_draw_seeds(loop_rng, sizes["closed-loop"])),
        problems=mpc_problems(mpc_rng, sizes["mpc-solve"]),
        synth_passes=_synth_passes(work_dir, sizes["sysid"]),
        truth={"conductances": synth["plant"]["conductances"], "maps": synth["maps"]},
        rails_kpa=(
            (plant["p_neg_pa"] - plant["p_atm_pa"]) / 1e3,
            (plant["p_pos_pa"] - plant["p_atm_pa"]) / 1e3,
        ),
    )
