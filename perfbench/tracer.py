"""Span tracing of pneuctrl's public functions, installed from outside the package.

Each wrapped call is one span with a name, a start, an end and a parent (the
innermost wrapped call open when it started).  Spans are folded into
per-name totals when they close rather than kept, so a traced run of millions
of plant steps stays small in memory.  Self time is a span's duration minus
the time of its wrapped children.

Functions imported by name (``from .optim import golden_section``) live in
several module namespaces; :meth:`Tracer.install` rebinds every pneuctrl
module attribute that refers to a wrapped function, and :meth:`uninstall`
puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

# Layer boundaries: module -> public functions wrapped as spans.
LAYERS = {
    "plant": ("step", "branch_flows", "drift", "gain"),
    "valvemap": ("eval_spool", "invert_spool"),
    "control": ("smc_update", "pid_update"),
    "experiment": ("run_scenario", "reference_at", "compute_metrics", "write_trajectory_csv"),
    "mpc": ("rollout_cost", "nmpc_solve", "minmpc_solve"),
    "optim": ("golden_section",),
    "sysid": (
        "simulate_segment", "simulate_at_samples", "write_trace_csv", "read_trace_csv",
        "fit_decay_conductance", "fit_source_conductance", "fit_spool_segments",
        "identify_channel", "synthesize_protocol",
    ),
    "config": ("load_scenario", "load_synthesis"),
    "cli": ("main",),
}

# Spans whose individual durations are kept for percentiles.
KEEP_DURATIONS = ("control.smc_update", "control.pid_update")


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)
    extra: dict[str, float] = field(default_factory=dict)


def _golden_section_evals(result, stats: SpanStats) -> None:
    stats.extra["evals"] = stats.extra.get("evals", 0) + result[2]


def _spool_points(result, stats: SpanStats) -> None:
    stats.extra["points"] = stats.extra.get("points", 0) + len(result)
    stats.extra["at_bound"] = stats.extra.get("at_bound", 0) + sum(p.at_bound for p in result)


# Counters read from return values.
RESULT_HOOKS: dict[str, Callable] = {
    "optim.golden_section": _golden_section_evals,
    "sysid.fit_spool_segments": _spool_points,
}


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        self.edges: dict[tuple[str, str], int] = {}    # (parent, child) -> calls
        self._open: list[list] = []                     # [name, child time] per open span
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stats = self.stats.setdefault(name, SpanStats())
        keep = name in KEEP_DURATIONS
        hook = RESULT_HOOKS.get(name)
        open_spans = self._open
        edges = self.edges
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = open_spans[-1][0] if open_spans else ""
            frame = [name, 0.0]
            open_spans.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                open_spans.pop()
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - frame[1]
                if keep:
                    stats.durations.append(duration)
                if open_spans:
                    open_spans[-1][1] += duration
                edge = (parent, name)
                edges[edge] = edges.get(edge, 0) + 1
            if hook is not None:
                hook(result, stats)
            return result

        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        originals = {}
        for module_name, names in LAYERS.items():
            module = importlib.import_module(f"pneuctrl.{module_name}")
            for fname in names:
                fn = getattr(module, fname)
                originals[id(fn)] = (fn, self._wrap(f"{module_name}.{fname}", fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "pneuctrl" and not mod_name.startswith("pneuctrl."):
                continue
            for attr, value in list(vars(module).items()):
                entry = originals.get(id(value))
                if entry is not None and entry[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name, SpanStats())
