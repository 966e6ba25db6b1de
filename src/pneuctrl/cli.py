"""Command-line entry points.

Thin bindings over the library: every behavior here is reachable through
the modules directly.  Exit codes: 0 ok, also when the reader of standard
output closed it, 2 config error, 3 data error, 4 solver failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import config as config_mod
from . import sysid as sysid_mod
from .config import ConfigError, ScenarioConfig
from .experiment import METRICS, compute_metrics, run_scenario, write_trajectory_csv
from .plant import MODE_NAMES

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_SOLVER = 4


def _load_scenario(args) -> ScenarioConfig:
    scenario = config_mod.load_scenario(args.config)
    if args.seed is not None:
        scenario.timing = replace(scenario.timing, seed=args.seed)
    return scenario


def _write_json(path: Path, obj) -> None:
    """``obj`` as indented JSON, one trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _run_one(scenario: ScenarioConfig, controller_name: str):
    controller = config_mod.CONTROLLERS[controller_name](scenario)
    traj = run_scenario(
        scenario.reference, controller, scenario.timing,
        scenario.plant, scenario.maps, scenario.load,
    )
    metrics = compute_metrics(traj, scenario.reference)
    return traj, metrics


def cmd_run(args) -> int:
    scenario = _load_scenario(args)
    out_dir = Path(args.out) if args.out else Path("out") / scenario.name
    out_dir.mkdir(parents=True, exist_ok=True)
    traj, metrics = _run_one(scenario, scenario.controller)
    write_trajectory_csv(traj, out_dir / "trajectory.csv", scenario.plant.p_atm)
    _write_json(out_dir / "metrics.json", {"controller": scenario.controller, "metrics": metrics.to_dict()})
    print(
        f"{scenario.name} [{scenario.controller}] "
        f"AE={metrics.ae:.3f} kPa e_ss={metrics.e_ss:.3f} kPa "
        f"switches={metrics.switches:.2f} ct={metrics.ct_mean * 1e3:.3f} ms -> {out_dir}"
    )
    return EXIT_OK


def format_compare_table(results: dict[str, dict]) -> str:
    names = list(results)
    widths = [max(len(m.label) for m in METRICS)] + [max(len(n), 10) for n in names]
    lines = ["  ".join(h.rjust(w) for h, w in zip(["Metric"] + names, widths))]
    for m in METRICS:
        cells = [m.label] + [m.fmt.format(results[name][m.compare_key]) for name in names]
        lines.append("  ".join(c.rjust(w) for c, w in zip(cells, widths)))
    return "\n".join(lines)


def cmd_compare(args) -> int:
    controllers = [c.strip() for c in args.controllers.split(",") if c.strip()]
    if len(controllers) < 2:
        print("error: --controllers needs at least two comma-separated names", file=sys.stderr)
        return EXIT_CONFIG
    for i, name in enumerate(controllers):
        if name not in config_mod.CONTROLLER_NAMES:
            print(f"error: unknown controller {name!r}", file=sys.stderr)
            return EXIT_CONFIG
        if name in controllers[:i]:
            print(f"error: --controllers names {name!r} more than once", file=sys.stderr)
            return EXIT_CONFIG
    scenario = _load_scenario(args)
    out_dir = Path(args.out) if args.out else Path("out") / f"{scenario.name}-compare"
    out_dir.mkdir(parents=True, exist_ok=True)

    results = {}
    for name in controllers:
        traj, metrics = _run_one(scenario, name)
        write_trajectory_csv(traj, out_dir / f"trajectory_{name}.csv", scenario.plant.p_atm)
        results[name] = {m.compare_key: getattr(metrics, m.field) * m.scale for m in METRICS}
        results[name]["per_window"] = metrics.per_window
    table = format_compare_table(results)
    summary = {"scenario": scenario.name, "seed": scenario.timing.seed, "results": results}
    _write_json(out_dir / "compare.json", summary)
    with open(out_dir / "compare.txt", "w", encoding="utf-8") as fh:
        fh.write(table + "\n")
    print(table)
    return EXIT_OK


def cmd_sysid(args) -> int:
    mode = MODE_NAMES.get(args.mode)
    if mode is None:
        print(f"error: --mode must be inflation or deflation, got {args.mode!r}", file=sys.stderr)
        return EXIT_CONFIG
    traces_dir = Path(args.traces)
    files = sorted(traces_dir.glob("*.csv")) if traces_dir.is_dir() else []
    if not files:
        print(f"error: no trace CSVs found in {traces_dir}", file=sys.stderr)
        return EXIT_DATA
    # Every file is read and checked; only the traces of --mode, those identify_channel fits, are kept.
    traces = [tr for tr in map(sysid_mod.read_trace_csv, files) if tr.mode == mode]

    if args.config:
        scenario = config_mod.load_scenario(args.config)
        params = scenario.plant
    else:
        params = config_mod.default_plant()

    result = sysid_mod.identify_channel(traces, mode, params)
    out_dir = Path(args.out) if args.out else Path("out") / f"sysid-{args.mode}"
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "identification.json", result.to_dict())
    print(
        f"{args.mode}: {result.leak_name}={result.leak.value:.4e} "
        f"(rms {result.leak.residual:.1f} Pa), "
        f"{result.source_name}={result.source.value:.4e} "
        f"(rms {result.source.residual:.1f} Pa), "
        f"spool cubic {['%.4e' % c for c in result.spool_map.a]} -> {out_dir}"
    )
    return EXIT_OK


def cmd_synthesize(args) -> int:
    synth = config_mod.load_synthesis(args.config)
    if args.seed is not None:
        synth.cfg = replace(synth.cfg, seed=args.seed)
    traces = sysid_mod.synthesize_protocol(
        synth.plant, synth.maps, modes=synth.modes, cfg=synth.cfg, out_dir=args.out,
    )
    print(f"wrote {len(traces)} trace files to {args.out}")
    return EXIT_OK


def cmd_defaults(args) -> int:
    if args.kind == "scenario":
        print(json.dumps(config_mod.default_scenario_dict(), indent=2))
    else:
        print(json.dumps(config_mod.default_synthesis_dict(), indent=2))
    return EXIT_OK


def _seed(text: str) -> int:
    """A ``--seed`` value; argparse turns its errors into a usage error (exit 2)."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pneuctrl",
        description="Simulate, control, and identify switched bipolar-pressure pneumatic channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one closed-loop scenario")
    p_run.add_argument("--config", required=True, help="scenario config JSON")
    p_run.add_argument("--out", default=None, help="output directory (default out/<name>)")
    p_run.add_argument("--seed", type=_seed, default=None, help="override the scenario seed")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run several controllers on a shared scenario")
    p_cmp.add_argument("--config", required=True, help="scenario config JSON")
    p_cmp.add_argument("--controllers", required=True, help="comma-separated controller names")
    p_cmp.add_argument("--out", default=None)
    p_cmp.add_argument("--seed", type=_seed, default=None)
    p_cmp.set_defaults(func=cmd_compare)

    p_id = sub.add_parser("sysid", help="identify conductances and the spool map from traces")
    p_id.add_argument("--traces", required=True, help="directory of step-trace CSVs")
    p_id.add_argument("--mode", required=True, help="inflation or deflation")
    p_id.add_argument("--config", default=None, help="scenario config supplying plant constants")
    p_id.add_argument("--out", default=None)
    p_id.set_defaults(func=cmd_sysid)

    p_syn = sub.add_parser("synthesize", help="generate protocol traces from a known channel")
    p_syn.add_argument("--config", required=True, help="synthesis config JSON")
    p_syn.add_argument("--out", required=True, help="output directory for trace CSVs")
    p_syn.add_argument("--seed", type=_seed, default=None)
    p_syn.set_defaults(func=cmd_synthesize)

    p_def = sub.add_parser("defaults", help="print a default config JSON")
    p_def.add_argument("--kind", choices=("scenario", "synthesis"), default="scenario")
    p_def.set_defaults(func=cmd_defaults)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()   # so a closed reader shows here, not in the interpreter's exit flush
        return code
    except BrokenPipeError:
        # The reader of stdout closed it; a command prints after writing its files.  As Python's
        # signal docs advise, point stdout at devnull, where the exit flush drops what is left.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (sysid_mod.TraceDataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ArithmeticError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
