"""Seeded benchmark of pneuctrl: closed-loop, mpc-solve and sysid workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload closed-loop --seed 1 --seconds 28 --trace 0

Every run executes the three phases (closed loop, MPC solves, identification);
the workload's own phase fills ``--seconds`` and the other two run at a small
companion size, so each run reports every end-to-end metric.
``--trace 0`` reports the end-to-end metrics of an untraced run, its times
converted to the host's nominal speed (``hostspeed.py``).  ``--trace 1``
runs the same work once untraced and once with pneuctrl's public functions
wrapped as spans, and reports the per-layer metrics.  The last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

# The client is one thread: without this, numpy's BLAS starts a worker thread
# on import, and its CPU time would count in the measured process time.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import inputs  # noqa: E402  (after the thread setting, which numpy reads on import)
import phases  # noqa: E402
from hostspeed import REF_NOMINAL_S, SpeedSampler  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench-work"
SETUP_PROBES = 5

UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "dm-smc.sim_s_per_s": "s/s",
    "pid.sim_s_per_s": "s/s",
    "dm-smc.ae_kpa": "kPa",
    "pid.ae_kpa": "kPa",
    "mi-nmpc.solve_ms_p50": "ms",
    "mi-nmpc.solve_ms_tail": "ms",
    "nmpc.solve_ms_p50": "ms",
    "nmpc.solve_ms_tail": "ms",
    "mi-nmpc.cost_mean": "cost",
    "synth_s": "s",
    "identify_s": "s",
}

# Per-layer span metrics: "<module>.<function>.<calls|total_s|self_s>".
SPAN_METRICS = (
    "plant.step.calls", "plant.step.total_s", "plant.step.self_s",
    "plant.branch_flows.calls", "plant.drift.calls", "plant.gain.calls",
    "control.smc_update.total_s",
    "valvemap.invert_spool.calls", "valvemap.invert_spool.total_s",
    "valvemap.eval_spool.calls", "valvemap.eval_spool.total_s",
    "experiment.run_scenario.self_s", "experiment.reference_at.calls",
    "experiment.write_trajectory_csv.total_s", "experiment.compute_metrics.total_s",
    "mpc.rollout_cost.calls", "mpc.rollout_cost.total_s",
    "optim.golden_section.calls", "optim.golden_section.total_s",
    "sysid.simulate_segment.calls", "sysid.simulate_segment.total_s",
    "sysid.write_trace_csv.total_s",
    "sysid.simulate_at_samples.calls", "sysid.simulate_at_samples.total_s",
    "sysid.fit_spool_segments.total_s", "sysid.fit_decay_conductance.total_s",
    "sysid.fit_source_conductance.total_s", "sysid.read_trace_csv.total_s",
    "config.load_scenario.total_s", "config.load_synthesis.total_s",
    "cli.main.self_s",
)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n_home: int) -> int:
    """Highest whole percentile with at least 10 of ``n_home`` solves beyond it."""
    return max(50, (100 * (n_home - 10)) // n_home)


def measure_setup(args, work: Path) -> float:
    """Median CPU time, at nominal speed, of a fresh interpreter importing
    pneuctrl and generating the inputs (``setup_probe.py``)."""
    times = []
    for k in range(SETUP_PROBES):
        probe_dir = work / f"setup-{k}"
        cmd = [sys.executable, str(HERE / "setup_probe.py"), args.workload, str(args.seed),
               str(args.seconds), str(probe_dir)]
        probe = json.loads(subprocess.run(cmd, check=True, cwd=Path.cwd(), capture_output=True,
                                          text=True).stdout)
        times.append(probe["cpu_s"] * statistics.fmean(REF_NOMINAL_S / ref for ref in probe["refs"]))
        shutil.rmtree(probe_dir, ignore_errors=True)
    return statistics.median(times)


def end_to_end_metrics(res, setup_s: float, n_home_solves: int) -> dict[str, float]:
    q = tail_percentile(n_home_solves)
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mi-nmpc.cost_mean": statistics.fmean(res.mi_costs),
        "synth_s": statistics.fmean(res.synth_s),
        "identify_s": statistics.fmean(res.identify_s.values()),
    }
    for c in ("dm-smc", "pid"):
        cpu = res.loop_cpu_s[c]
        values[f"{c}.sim_s_per_s"] = res.loop_sim_s[c] * len(cpu) / sum(cpu)
        values[f"{c}.ae_kpa"] = statistics.fmean(res.loop_ae_kpa[c])
    for solver in ("mi-nmpc", "nmpc"):
        ms = [1e3 * s for s in res.solve_s[solver]]
        values[f"{solver}.solve_ms_p50"] = statistics.median(ms)
        values[f"{solver}.solve_ms_tail"] = percentile(ms, q)
    return values


def per_layer_metrics(tracer, res, overhead: float) -> dict[str, tuple[float, str]]:
    out: dict[str, tuple[float, str]] = {}
    for metric in SPAN_METRICS:
        name, field = metric.rsplit(".", 1)
        out[metric] = (getattr(tracer.get(name), field), "count" if field == "calls" else "s")
    for name in ("control.smc_update", "control.pid_update"):
        us = [1e6 * d for d in tracer.get(name).durations]
        out[f"{name}.us_p50"] = (percentile(us, 50), "us")
        out[f"{name}.us_p99"] = (percentile(us, 99), "us")
    gs = tracer.get("optim.golden_section")
    out["optim.golden_section.evals"] = (int(gs.extra.get("evals", 0)), "count")
    solves = tracer.get("mpc.minmpc_solve").calls + tracer.get("mpc.nmpc_solve").calls
    out["mpc.rollouts_per_solve"] = (tracer.get("mpc.rollout_cost").calls / solves, "count")
    out["mpc.sweeps_per_solve"] = (statistics.fmean(res.sweeps), "count")
    out["mpc.iter_cap_frac"] = (statistics.fmean(res.iter_caps), "ratio")
    spool = tracer.get("sysid.fit_spool_segments").extra
    out["sysid.at_bound_frac"] = (spool.get("at_bound", 0) / spool["points"], "ratio")
    out["id.cond_err_pct"] = (100.0 * max(res.cond_err), "%")
    out["id.map_err"] = (max(res.map_err), "fraction")
    out["trace.overhead_frac"] = (overhead, "ratio")
    return out


def report(plan, tally, lines: list[str]) -> None:
    print(f"workload {plan.workload} seed {plan.seed} seconds {plan.seconds}: "
          f"{len(plan.loop_seeds)} closed-loop passes, {len(plan.problems)} MPC problems, "
          f"{len(plan.synth_passes)} identification passes")
    for line in lines:
        print(line)
    for problem in tally.problems:
        print(f"FAILED {problem}")
    print(f"operations: {tally.attempted} attempted, {tally.failed} failed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path.cwd()
    src = root / "src"
    if not (src / "pneuctrl" / "__init__.py").is_file():
        print(f"error: no pneuctrl sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import pneuctrl

    if Path(pneuctrl.__file__).resolve().parent != (src / "pneuctrl").resolve():
        print(f"error: imported pneuctrl from {pneuctrl.__file__}, not from {src}", file=sys.stderr)
        return 2

    work = root / WORK_DIR / str(os.getpid())
    try:
        plan = inputs.make_plan(args.workload, args.seed, args.seconds, work / "inputs")
        n_home_solves = inputs.phase_sizes("mpc-solve", args.seconds)["mpc-solve"]
        tally = phases.Tally()
        if args.trace:
            # Both executions run under the speed sampler, so the overhead
            # compares CPU at nominal speed; span times include its reference
            # loops (under 1% of the run).
            with SpeedSampler() as speed:
                plain = phases.run_all(plan, tally, speed)
                with Tracer() as tracer:
                    traced = phases.run_all(plan, tally, speed)
            overhead = traced.nominal_cpu_s / plain.nominal_cpu_s - 1.0
            metrics = per_layer_metrics(tracer, traced, overhead)
            lines = [f"untraced: CPU {plain.cpu_s:.3f} s ({plain.nominal_cpu_s:.3f} s nominal), "
                     f"wall {plain.wall_s:.3f} s",
                     f"traced: CPU {traced.cpu_s:.3f} s ({traced.nominal_cpu_s:.3f} s nominal), "
                     f"wall {traced.wall_s:.3f} s"]
            lines += [
                f"span {name}: calls {s.calls} total {s.total_s:.4f} s self {s.self_s:.4f} s"
                for name, s in sorted(tracer.stats.items())
            ]
            lines += [f"edge {parent or '-'} > {child}: {calls}"
                      for (parent, child), calls in sorted(tracer.edges.items())]
        else:
            setup_s = measure_setup(args, work)
            with SpeedSampler() as speed:
                res = phases.run_all(plan, tally, speed)
            values = end_to_end_metrics(res, setup_s, n_home_solves)
            metrics = {name: (values[name], unit) for name, unit in UNITS.items()}
            q = tail_percentile(n_home_solves)
            refs = [ref for _, ref in speed.samples]
            lines = [f"phases: CPU {res.cpu_s:.3f} s, wall {res.wall_s:.3f} s; "
                     f"{len(refs)} reference loops, median {1e3 * statistics.median(refs):.3f} ms, "
                     f"fastest {1e3 * min(refs):.3f} ms (nominal {1e3 * REF_NOMINAL_S:.3f} ms)"]
            lines += [
                f"{solver}.solve_ms_tail is p{q} of {len(res.solve_s[solver])} solves"
                for solver in ("mi-nmpc", "nmpc")
            ]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass

    report(plan, tally, lines)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
