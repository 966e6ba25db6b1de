"""A/B harness: the working tree against a base commit, on what an exact change must keep.

Run from the repository root: ``python tests/ab.py --base REV CHECK...``, each CHECK one of ``solutions``,
``trajectories``, ``work``, ``memory``, ``solve-time`` and ``run-time``.  REV is extracted with ``git archive`` into a
temporary directory.  The MPC problems are built once per check, by the head's ``perfbench/inputs.py``, and
handed to both sides.  Each measurement runs in a process of its own on one side's ``src/``, ``tests/`` and
``perfbench/``, writing no bytecode, in a temporary directory: the checkout is never written.  Each check
prints a Markdown report; the sizes a test reduces are its arguments.  It exits 0 whatever differs, since it
reports, and 1 when a side cannot run.  pytest does not collect this file.
"""

import argparse
import contextlib
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

CONTROLLERS = "pid,dm-smc,nmpc,mi-nmpc"
# The checkout, the base commit's tree and the base commit's short name.
Sides = NamedTuple("Sides", [("head", Path), ("base", Path), ("rev", str)])
# The side process: this file loaded by path runs one measurement, its result to a file: ``compare`` prints.
_SIDE = ("import importlib.util, json, pathlib, sys; spec = importlib.util.spec_from_file_location('ab', sys.argv[1]); "
         "ab = sys.modules['ab'] = importlib.util.module_from_spec(spec); spec.loader.exec_module(ab); "
         "pathlib.Path('result.json').write_text(json.dumps(ab.MEASURES[sys.argv[2]](**json.load(sys.stdin))))")


@contextlib.contextmanager
def extract(rev: str, root: Path):
    """The sides: the checkout at ``root``, ``rev``'s tree from ``git archive`` in a temporary directory, its name."""
    with tempfile.TemporaryDirectory(prefix="ab-") as work:
        tar = str(Path(work, "base.tar"))
        for command in (["git", "archive", "--prefix=base/", "-o", tar, rev], ["tar", "-xf", tar, "-C", work]):
            done = subprocess.run(command, cwd=root, capture_output=True, text=True)
            if done.returncode:
                raise SystemExit(f"ab: {' '.join(command)}: {done.stderr.strip()}")
        short = subprocess.run(["git", "rev-parse", "--short=7", rev], cwd=root, capture_output=True, text=True)
        yield Sides(root, Path(work, "base"), short.stdout.strip())


def run_side(root: Path, measure: str, **payload):
    """``measure(**payload)`` in a process of its own on ``root``'s packages, and its JSON result."""
    path = os.pathsep.join(str(root / part) for part in ("src", "tests", ""))
    command = [sys.executable, "-B", "-c", _SIDE, os.path.abspath(__file__), measure]
    with tempfile.TemporaryDirectory(prefix="ab-side-") as cwd:
        done = subprocess.run(command, input=json.dumps(payload), capture_output=True, text=True, cwd=cwd,
                              env=dict(os.environ, PYTHONPATH=path))
        if done.returncode:
            raise SystemExit(f"ab: {measure} on {root} exited {done.returncode}:\n{done.stderr}")
        return json.loads(Path(cwd, "result.json").read_text())


def _problems(seeds):
    """Each ``mpc-solve`` problem of ``seeds``: a label, p0, refs, and NMPC's mode, the supervisor's as the bench's."""
    from perfbench import inputs
    from pneuctrl import config, control
    with tempfile.TemporaryDirectory() as work:
        plans = [(seed, inputs.make_plan("mpc-solve", seed, 28, Path(work))) for seed in seeds]
    return [[f"seed {seed} problem {i}", p.p0, list(p.refs),
             int(control.select_mode(p.p0, p.refs[0], config.default_supervisor(), control.Mode(p.prev_mode)))]
            for seed, plan in plans for i, p in enumerate(plan.problems)]


def _solutions(problems):
    from pneuctrl import config, mpc
    from pneuctrl.plant import Mode
    params, maps, cfg = config.default_plant(), config.default_maps(), config.default_mpc_config()
    out = []
    for load in (config.default_load(), config.default_bellow_load()):
        for label, p0, refs, _ in problems:
            solves = [("mi-nmpc", mpc.minmpc_solve(p0, refs, cfg, params, maps, load))]
            solves += [(f"nmpc {m.name.lower()}", mpc.nmpc_solve(p0, refs, m, cfg, params, maps, load)) for m in Mode]
            out += [[f"{load.kind} load, {label}, {name}",
                     [list(s.u_seq), [int(m) for m in s.m_seq], s.cost.hex(), s.iterations]] for name, s in solves]
    return out


def _trajectories(seeds, duration):
    from pneuctrl import cli
    out, timing = [], {"timing": {"duration_s": duration}} if duration else {}
    for reference, raw in (("multi-step", {}), ("sinusoid", {"reference": {"kind": "sinusoid"}})):
        Path(f"{reference}.json").write_text(json.dumps({**raw, **timing}))
        for seed in seeds:
            argv = ["compare", "--config", f"{reference}.json", "--controllers", CONTROLLERS, "--seed", str(seed),
                    "--out", f"{reference}-{seed}"]
            cli.main(argv)   # on an error it says why, and the CSVs below are missing
            for name in CONTROLLERS.split(","):   # each line but its last column, ct_us, the compute time
                lines = Path(argv[-1], f"trajectory_{name}.csv").read_text().splitlines()
                out.append([f"{reference} seed {seed}, {name}", [line.rsplit(",", 1)[0] for line in lines]])
    return out


def _work(problems):
    from mpc_reference import grid_share, held_steps
    from pneuctrl import config, mpc
    params, maps, cfg = config.default_plant(), config.default_maps(), config.default_mpc_config()
    rollouts, rollout_cost, rows = [], mpc.rollout_cost, []
    mpc.rollout_cost = lambda *args: rollouts.append(args) or rollout_cost(*args)   # counts its calls
    for load in (config.default_load(), config.default_bellow_load()):
        mpc.minmpc_solve(params.p_atm, [params.p_atm] * cfg.horizon_steps, cfg, params, maps, load)   # the table
        totals = {"mi-nmpc": [0, 0.0, 0, 0, 0.0], "nmpc": [0, 0.0, 0, 0, 0.0]}
        for _, p0, refs, mode in problems:
            for name, args in [("mi-nmpc", (mpc.minmpc_solve, p0, refs, cfg, params, maps, load)),
                               ("nmpc", (mpc.nmpc_solve, p0, refs, mode, cfg, params, maps, load))]:
                rollouts.clear()
                (sol, share, passes), steps = held_steps(grid_share, *args)
                for i, value in enumerate((steps, share, passes - 1, len(rollouts), sol.cost)):
                    totals[name][i] += value
        rows += [[f"{name}, {load.kind}", *"{:.1f} {:.3f} {:.3f} {:.2f} {:.4f}".format(
                  *(total / len(problems) for total in sums)).split()] for name, sums in totals.items()]
    return rows


def _traced_peak(call):
    """``call()``'s result and the peak of the memory it traced, in bytes.

    It runs untraced first under a no-op profile hook, which gives each generated held step the line array
    that tracemalloc would otherwise decode on every allocation (CPython 3.11).
    """
    import tracemalloc
    sys.setprofile(lambda *args: None)
    call()
    sys.setprofile(None)
    tracemalloc.start()
    out = call()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return out, peak


def _memory(duration, synthesis):
    from pneuctrl import cli, config
    from pneuctrl.experiment import run_scenario, write_trajectory_csv
    rows, timing = [], {"timing": {"duration_s": duration}} if duration else {}
    for name in ("dm-smc", "pid"):
        scenario = config.scenario_from_dict({"controller": name, **timing})

        def run():
            traj = run_scenario(scenario.reference, config.CONTROLLERS[name](scenario), scenario.timing,
                                scenario.plant, scenario.maps, scenario.load)
            write_trajectory_csv(traj, Path(f"{name}.csv"), scenario.plant.p_atm)
            return len(traj.t)

        ticks, peak = _traced_peak(run)
        rows.append([name, str(ticks), f"{peak / 1e6:.3f}", f"{peak / ticks:.1f}"])
    # The noiseless protocol, synthesized outside the trace; then one identification call.
    Path("synthesis.json").write_text(json.dumps({"synthesis": synthesis}))
    cli.main(["synthesize", "--config", "synthesis.json", "--out", "traces"])
    code, peak = _traced_peak(lambda: cli.main(["sysid", "--traces", "traces", "--mode", "deflation"]))
    rows.append([f"sysid --mode deflation, exit {code}", "-", f"{peak / 1e6:.3f}", "-"])
    return rows


def _load_base(base_src):
    """The base side's package, imported from ``base_src`` as ``pneuctrl_base`` beside the head's ``pneuctrl``."""
    spec = importlib.util.spec_from_file_location("pneuctrl_base", Path(base_src, "pneuctrl", "__init__.py"),
                                                  submodule_search_locations=[str(Path(base_src, "pneuctrl"))])
    spec.loader.exec_module(sys.modules.setdefault("pneuctrl_base", importlib.util.module_from_spec(spec)))


def _ratio_rows(ratios):
    """One row per labelled list of head/base ratios: its label, the pairs, the median and the IQR."""
    return [[label, str(len(rs)), f"{statistics.median(rs):.3f}",
             "{:.3f}–{:.3f}".format(*statistics.quantiles(rs, n=4)[::2])] for label, rs in ratios.items()]


def _solve_time(problems, base_src, rounds):
    _load_base(base_src)
    sides = []   # head, base: each the package's mpc module and the solves' setup
    for pkg in ("pneuctrl", "pneuctrl_base"):
        mpc, cfg = (importlib.import_module(f"{pkg}.{name}") for name in ("mpc", "config"))
        sides.append((mpc, (cfg.default_mpc_config(), cfg.default_plant(), cfg.default_maps(), cfg.default_load())))
        mpc.minmpc_solve(*problems[0][1:3], *sides[-1][1])   # the side's table, built outside the timing
    ratios = {"mi-nmpc": [], "nmpc": []}
    for r in range(rounds):
        for i, (_, p0, refs, mode) in enumerate(problems):
            for name, out in ratios.items():
                calls = [(mpc.minmpc_solve, (p0, refs, *setup)) if name == "mi-nmpc"
                         else (mpc.nmpc_solve, (p0, refs, mode, *setup)) for mpc, setup in sides]
                cpu = [0.0, 0.0]
                for side in ((0, 1) if (r + i) % 2 == 0 else (1, 0)):
                    start = time.process_time()
                    calls[side][0](*calls[side][1])
                    cpu[side] = time.process_time() - start
                out.append(cpu[0] / cpu[1])
    return _ratio_rows(ratios)


def _run_time(base_src, duration, rounds):
    from pneuctrl import config
    _load_base(base_src)
    bellow = config.default_bellow_load()
    timing = {"noise_sigma_pa": 500.0, **({"duration_s": duration} if duration else {})}
    scenarios = {   # the default multi-step on the fixed load; the bench's sinusoid on the bellow
        "multi-step": {},
        "bellow sinusoid": {"reference": {"kind": "sinusoid", "amplitude_kpa": 50.0, "frequency_hz": 0.5, "cycles": 3},
                            "load": {"kind": bellow.kind, "v0_m3": bellow.v0, "k_v_m3_pa": bellow.k_v,
                                     "v_min_m3": bellow.v_min, "v_max_m3": bellow.v_max}},
    }
    runs = {}   # label -> the run's arguments
    for scenario, raw in scenarios.items():
        for name in ("pid", "dm-smc"):
            path = Path(f"{name} {scenario}.json".replace(" ", "-"))
            path.write_text(json.dumps({**raw, "controller": name, "timing": timing}))
            runs[f"{name}, {scenario}"] = ["run", "--config", str(path), "--out", path.stem]
    mains = [importlib.import_module(f"{pkg}.cli").main for pkg in ("pneuctrl", "pneuctrl_base")]
    for main in mains:   # each side's first run of each, outside the timing
        for argv in runs.values():
            main(argv)
    ratios = {label: [] for label in runs}
    for r in range(rounds):
        for i, (label, argv) in enumerate(runs.items()):
            cpu = [0.0, 0.0]
            for side in ((0, 1) if (r + i) % 2 == 0 else (1, 0)):
                start = time.process_time()
                mains[side](argv)
                cpu[side] = time.process_time() - start
            ratios[label].append(cpu[0] / cpu[1])
    return _ratio_rows(ratios)


# Each measurement, run in a side's process: it returns labelled values to compare, or table rows.
MEASURES = {m.__name__[1:].replace("_", "-"): m for m in (_problems, _solutions, _trajectories, _work, _memory,
                                                           _solve_time, _run_time)}


def _equal(sides: Sides, heading: str, what: str, measure: str, **payload) -> None:
    """Whether each side's labelled values are equal: all, or how many differ and the first."""
    head, base = (run_side(root, measure, **payload) for root in sides[:2])
    differ = [label for (label, a), (_, b) in zip(head, base) if a != b]   # both sides label alike
    verdict = f"{len(differ)} differ; the first: {differ[0]}" if differ else "all equal"
    print(f"#### {heading} against base {sides.rev}\n\n{len(head)} {what}: {verdict}.\n")


def _table(sides: Sides, heading: str, columns: list[str], head: list, base: list | None = None) -> None:
    """``head``'s rows under ``columns``; with ``base``'s, each head row then its base row, the side in column 2."""
    if base is not None:
        head = [[row[0], side, *row[1:]] for pair in zip(head, base) for side, row in zip(("head", "base"), pair)]
    print(f"#### {heading} against base {sides.rev}\n\n| {' | '.join(columns)} |\n"
          f"| --- | --- |{' ---: |' * (len(columns) - 2)}")
    print("".join(f"| {' | '.join(row)} |\n" for row in head))


def solutions(sides: Sides, seeds=range(1, 13)) -> None:
    """The 1,656 MPC solves of seeds 1-12 (MI-NMPC, NMPC in each mode; fixed and bellow load): equal or not."""
    _equal(sides, "MPC solutions", "solves, (u_seq, m_seq, cost.hex(), iterations)", "solutions",
           problems=run_side(sides.head, "problems", seeds=list(seeds)))


def trajectories(sides: Sides, seeds=range(3), duration=None) -> None:
    """``pneuctrl compare`` of all four controllers, default multi-step and sinusoid: equal CSVs or not."""
    _equal(sides, "Closed-loop trajectories", "trajectory CSVs, every column but ct_us", "trajectories",
           seeds=list(seeds), duration=duration)


def work(sides: Sides, seeds=(1,)) -> None:
    """Held steps, grid share, full-grid reruns, rollouts and mean cost per solve of the 23 seed-1 problems."""
    problems = run_side(sides.head, "problems", seeds=list(seeds))
    _table(sides, f"MPC held steps per solve ({len(problems)} mpc-solve problems)",
           ["solver, load", "side", "held steps per solve", "grid share of the backward pass",
            "full-grid reruns per solve", "rollout_cost calls per solve", "mean cost"],
           *(run_side(root, "work", problems=problems) for root in sides[:2]))


def memory(sides: Sides, duration=None, synthesis=None) -> None:
    """The traced peak per control tick of a default DM-SMC and PID run, each with its CSV write, and that of
    one ``pneuctrl sysid --mode deflation`` on the default noiseless protocol (``synthesis`` overrides it)."""
    _table(sides, "Run memory", ["call", "side", "control ticks", "traced peak, MB", "bytes per tick"],
           *(run_side(root, "memory", duration=duration, synthesis=synthesis or {}) for root in sides[:2]))


def solve_time(sides: Sides, seeds=(1,), rounds=10) -> None:
    """The per-solve CPU-time ratio head/base, both packages in one process, over interleaved rounds."""
    rows = run_side(sides.head, "solve-time", problems=run_side(sides.head, "problems", seeds=list(seeds)),
                    base_src=str(sides.base / "src"), rounds=rounds)
    _table(sides, "MPC solve time", ["solver", "pairs", "CPU time per solve, head/base: median", "IQR"], rows)


def run_time(sides: Sides, duration=None, rounds=20) -> None:
    """The per-run CPU-time ratio head/base of ``pneuctrl run``, PID and DM-SMC on the default multi-step and the
    bench's bellow sinusoid at 500 Pa noise, both packages in one process, over interleaved rounds."""
    rows = run_side(sides.head, "run-time", base_src=str(sides.base / "src"), duration=duration, rounds=rounds)
    _table(sides, "Closed-loop run time", ["controller, scenario", "pairs", "CPU time per run, head/base: median",
                                           "IQR"], rows)


CHECKS = {check.__name__.replace("_", "-"): check for check in (solutions, trajectories, work, memory, solve_time,
                                                                 run_time)}


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, metavar="REV", help="the commit to compare the working tree with")
    parser.add_argument("checks", nargs="+", choices=CHECKS, metavar="CHECK", help=", ".join(CHECKS))
    args = parser.parse_args(argv)
    with extract(args.base, Path.cwd()) as sides:
        for name in args.checks:
            CHECKS[name](sides)


if __name__ == "__main__":
    main()
