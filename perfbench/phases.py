"""The work of one run: closed-loop passes, MPC problems and identification passes.

Each phase is a closed loop with one client: one process, one thread, each
call issued after the previous one returns.  Phases call pneuctrl through its
public API (``cli.main`` or the solver functions), looked up at call time so
that a tracer installed around a run sees every call.  Every call is an
operation; an operation fails when the call raises, exits non-zero, or its
output fails a check.

Calls are timed in process CPU time.  The work is single-threaded and
compute-bound, so CPU time is the wall time the call takes when the core is
not shared: on a shared virtual machine wall time also counts the time the
host runs other guests.  CPU time still counts how much other guests slow
the core, so an untraced run converts it to the nominal speed of the host
(:mod:`hostspeed`).  :func:`run_all` also spreads the units of every phase
evenly over the run instead of running the phases one after the other, so a
metric averages over the whole run.
"""

from __future__ import annotations

import io
import json
import shutil
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

import checks
from hostspeed import SpeedSampler
from inputs import CONTROLLERS, Plan

# The default identification protocol: two modes, each a fully-open segment,
# its decay, and 64 sweep segments with their decays.
EXPECTED_TRACES = 260
ID_MODES = ("inflation", "deflation")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def _cli(argv: list) -> tuple[object, float, float]:
    """Call ``pneuctrl.cli.main``; returns (exit code or crash text, start, end
    process time).

    The CLI's own printing is captured and dropped, so the benchmark's
    result stays the last line of standard output.
    """
    from pneuctrl import cli

    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        start = time.process_time()
        try:
            code = cli.main([str(a) for a in argv])
        except Exception as exc:  # a crash inside the program is a failed operation
            code = traceback.format_exception_only(exc)[-1].strip()
        end = time.process_time()
    return code, start, end


@dataclass
class RunResult:
    # closed loop, per controller and pass: CPU s and mean AE of both scenarios
    loop_cpu_s: dict[str, list[float]] = field(default_factory=lambda: {c: [] for c in CONTROLLERS})
    loop_ae_kpa: dict[str, list[float]] = field(default_factory=lambda: {c: [] for c in CONTROLLERS})
    loop_sim_s: dict[str, float] = field(default_factory=dict)     # simulated s per pass
    # MPC: CPU s per solve, MI-NMPC optimal costs, sweeps and iteration caps of every solve
    solve_s: dict[str, list[float]] = field(default_factory=lambda: {"mi-nmpc": [], "nmpc": []})
    mi_costs: list[float] = field(default_factory=list)
    sweeps: list[int] = field(default_factory=list)
    iter_caps: list[bool] = field(default_factory=list)
    # identification: CPU s per pass, and quality per identified mode
    synth_s: list[float] = field(default_factory=list)
    identify_s: dict[int, float] = field(default_factory=dict)
    cond_err: list[float] = field(default_factory=list)   # worst relative conductance error
    map_err: list[float] = field(default_factory=list)
    cpu_s: float = 0.0
    nominal_cpu_s: float = 0.0     # cpu_s at nominal speed, when sampled
    wall_s: float = 0.0


class Runner:
    """Executes the units of one plan and collects timings and check outcomes."""

    def __init__(self, plan: Plan, tally: Tally, speed: SpeedSampler | None):
        from pneuctrl import config

        self.plan = plan
        self.tally = tally
        self.speed = speed
        self.result = RunResult(loop_sim_s={
            c: sum(r.sim_s for r in plan.loop_runs if r.controller == c) for c in CONTROLLERS
        })
        self.params, self.maps = config.default_plant(), config.default_maps()
        self.load, self.supervisor = config.default_load(), config.default_supervisor()
        self.mpc_cfg = config.default_mpc_config()

    def cpu(self, start: float, end: float) -> float:
        """CPU seconds between two process times, at nominal speed when sampled."""
        return self.speed.nominal_cpu(start, end) if self.speed else end - start

    def loop_pass(self, seed: int) -> None:
        """``pneuctrl run`` for every scenario and controller under one noise seed."""
        plan, result = self.plan, self.result
        lo_kpa, hi_kpa = plan.rails_kpa
        cpu = dict.fromkeys(CONTROLLERS, 0.0)
        ae: dict[tuple[str, str], float] = {}
        problems: dict[tuple[str, str], list[str]] = {}
        for run in plan.loop_runs:
            key = (run.scenario, run.controller)
            out = plan.work_dir / f"loop-{run.scenario}-{run.controller}"
            code, start, end = _cli(["run", "--config", run.config, "--out", out, "--seed", seed])
            cpu[run.controller] += self.cpu(start, end)
            name = f"run {run.scenario} {run.controller} seed {seed}"
            problems[key] = checks.check_exit(name, code)
            if code == 0:
                ptrue = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1, usecols=2, ndmin=1)
                problems[key] += checks.check_rails(name, ptrue, lo_kpa, hi_kpa)
                with open(out / "metrics.json", encoding="utf-8") as fh:
                    ae[key] = json.load(fh)["metrics"]["ae_kpa"]
        for run in plan.loop_runs:
            key, key_pid = (run.scenario, run.controller), (run.scenario, "pid")
            if run.controller == "dm-smc" and key in ae and key_pid in ae:
                problems[key] += checks.check_tracking(
                    f"{run.scenario} seed {seed}", ae[key], ae[key_pid],
                    multistep=run.scenario == "multistep-fixed",
                )
            self.tally.record(problems[key])
        for c in CONTROLLERS:
            result.loop_cpu_s[c].append(cpu[c])
            scenario_ae = [v for (_, ctrl), v in ae.items() if ctrl == c]
            if scenario_ae:
                result.loop_ae_kpa[c].append(sum(scenario_ae) / len(scenario_ae))

    def _solve(self, name: str, fn, *args):
        start = time.process_time()
        try:
            sol = fn(*args)
        except Exception as exc:  # a crash inside the solver is a failed operation
            self.tally.record([f"{name}: {traceback.format_exception_only(exc)[-1].strip()}"])
            return None
        self.result.solve_s[name.split()[-1]].append(self.cpu(start, time.process_time()))
        self.result.sweeps.append(sol.iterations)
        self.result.iter_caps.append(sol.hit_iter_cap)
        return sol

    def mpc_problem(self, i: int) -> None:
        """Solve problem ``i`` with MI-NMPC, and with NMPC under the supervisor's mode."""
        from pneuctrl import control, mpc
        from pneuctrl.plant import Mode

        prob = self.plan.problems[i]
        refs = list(prob.refs)
        setup = (self.mpc_cfg, self.params, self.maps, self.load)
        bounds = [(m.u_min, m.u_max) for m in self.maps]
        mi = self._solve(f"problem {i} mi-nmpc", mpc.minmpc_solve, prob.p0, refs, *setup)
        mode = control.select_mode(prob.p0, refs[0], self.supervisor, Mode(prob.prev_mode))
        nm = self._solve(f"problem {i} nmpc", mpc.nmpc_solve, prob.p0, refs, mode, *setup)
        if mi is not None:
            self.result.mi_costs.append(mi.cost)
            problems = checks.check_solution(f"problem {i} mi-nmpc", mi.cost, mi.u_seq, mi.m_seq, bounds)
            if nm is not None:
                problems += checks.check_mi_not_worse(mi.cost, nm.cost)
            self.tally.record(problems)
        if nm is not None:
            self.tally.record(checks.check_solution(f"problem {i} nmpc", nm.cost, nm.u_seq, nm.m_seq, bounds))

    def synthesize(self, k: int) -> None:
        """``pneuctrl synthesize`` of identification pass ``k``: the default protocol."""
        traces = self.plan.work_dir / f"traces-{k}"
        code, start, end = _cli(["synthesize", "--config", self.plan.synth_passes[k], "--out", traces])
        self.result.synth_s.append(self.cpu(start, end))
        name = f"synthesize pass {k}"
        problems = checks.check_exit(name, code)
        n_files = len(list(traces.glob("*.csv"))) if traces.is_dir() else 0
        if code == 0 and n_files != EXPECTED_TRACES:
            problems.append(f"{name}: wrote {n_files} trace CSVs, expected {EXPECTED_TRACES}")
        self.tally.record(problems)

    def identify(self, k: int, mode: str) -> None:
        """``pneuctrl sysid`` of one mode on the traces of pass ``k``."""
        traces = self.plan.work_dir / f"traces-{k}"
        out = self.plan.work_dir / f"sysid-{k}-{mode}"
        code, start, end = _cli(["sysid", "--traces", traces, "--mode", mode, "--out", out])
        self.result.identify_s[k] = self.result.identify_s.get(k, 0.0) + self.cpu(start, end)
        name = f"sysid {mode} pass {k}"
        problems = checks.check_exit(name, code)
        if code == 0:
            with open(out / "identification.json", encoding="utf-8") as fh:
                found, cond_err, map_err = checks.check_identification(mode, json.load(fh), self.plan.truth)
            problems += [f"{name}: {p}" for p in found]
            self.result.cond_err.append(cond_err)
            self.result.map_err.append(map_err)
        self.tally.record(problems)
        if mode == ID_MODES[-1]:
            shutil.rmtree(traces, ignore_errors=True)


def schedule(plan: Plan, runner: Runner) -> list:
    """Every unit of the run, each phase's units spread evenly over the run.

    Unit ``i`` of a phase with ``n`` units sits at position (i + 0.5) / n;
    the three calls of an identification pass split its slot in three, so
    each ``sysid`` follows its ``synthesize``.
    """
    units = []
    n = len(plan.loop_seeds)
    units += [((i + 0.5) / n, lambda s=s: runner.loop_pass(s)) for i, s in enumerate(plan.loop_seeds)]
    n = len(plan.problems)
    units += [((i + 0.5) / n, lambda i=i: runner.mpc_problem(i)) for i in range(n)]
    n = len(plan.synth_passes)
    for k in range(n):
        units.append(((k + 1 / 6) / n, lambda k=k: runner.synthesize(k)))
        units += [((k + (j + 1.5) / 3) / n, lambda k=k, m=m: runner.identify(k, m))
                  for j, m in enumerate(ID_MODES)]
    units.sort(key=lambda unit: unit[0])
    return [fn for _, fn in units]


def run_all(plan: Plan, tally: Tally, speed: SpeedSampler | None = None) -> RunResult:
    """Execute every unit of ``plan``; with ``speed``, calls are timed at nominal speed."""
    runner = Runner(plan, tally, speed)
    cpu, wall = time.process_time(), time.perf_counter()
    for unit in schedule(plan, runner):
        unit()
    end = time.process_time()
    runner.result.cpu_s = end - cpu
    runner.result.nominal_cpu_s = runner.cpu(cpu, end)
    runner.result.wall_s = time.perf_counter() - wall
    return runner.result
