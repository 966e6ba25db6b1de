"""Identification of branch conductances and the duty-to-spool calibration.

The procedure works per mode from constant-input step responses:

1. a passive leakage segment (delivery valve closed) isolates the
   atmospheric branch and fixes its conductance;
2. a fully-open segment isolates the source branch and fixes its
   conductance;
3. with conductances fixed, each constant-duty segment yields one
   least-squares spool-fraction estimate, and a cubic fit of the
   (duty, spool) pairs gives the calibration map.

Every fit is a one-dimensional bracketed minimization of the mismatch
between the measured pressures and a model trajectory integrated at the
trace's own sample times.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, NoReturn, Optional, Sequence

import numpy as np

from . import plant as plant_mod
from .experiment import MAX_SUBSTEPS, event_substeps, noise_draws
from .optim import golden_section
from .plant import Count, Mode, NonNegative, PlantParams, Positive, check_fields
from .valvemap import SpoolMap, eval_spool


class TraceDataError(ValueError):
    """Trace does not carry the information the requested fit needs."""


# Bracket for conductance fits, m^3 s^-1 Pa^-1 (searched in log space).
CONDUCTANCE_BRACKET = (1e-13, 1e-8)
# Search interval for per-segment spool fractions.
SPOOL_BRACKET = (1e-3, 1.0 - 1e-3)
# A spool estimate within this distance of a search bound is flagged at_bound.
AT_BOUND_MARGIN = 1e-4
# A trace must move at least this far (Pa) to be considered informative.
MIN_TRACE_SPAN = 200.0
# Minimum initial offset from atmosphere for a decay fit, Pa.
MIN_DECAY_OFFSET = 2000.0
# Fewest samples a segment may hold.
MIN_SEGMENT_SAMPLES = 10


@dataclass(frozen=True)
class StepTrace:
    """One constant-input segment of the identification protocol."""

    t: np.ndarray          # sample times, s, strictly increasing
    p: np.ndarray          # measured outlet pressure, absolute Pa
    u1: float              # polarity-selector duty, % (100 inflation, 0 deflation)
    u2: float              # delivery-valve duty, %
    kind: str              # "rise" (driven) or "decay" (passive leakage)

    def __post_init__(self) -> None:
        t = np.asarray(self.t, dtype=float)
        p = np.asarray(self.p, dtype=float)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "p", p)
        if t.ndim != 1 or p.shape != t.shape:
            raise ValueError("t and p must be 1-D arrays of equal length")
        if len(t) < MIN_SEGMENT_SAMPLES:
            raise ValueError(f"a segment needs at least {MIN_SEGMENT_SAMPLES} samples")
        if not np.all(np.diff(t) > 0.0):
            raise ValueError("timestamps must be strictly increasing")
        if self.kind not in ("rise", "decay"):
            raise ValueError(f"unknown segment kind {self.kind!r}")

    @property
    def mode(self) -> Mode:
        return Mode.INFLATION if self.u1 >= 50.0 else Mode.DEFLATION

    @property
    def span(self) -> float:
        return float(np.max(self.p) - np.min(self.p))


@dataclass(frozen=True)
class IdResult:
    value: float
    residual: float        # RMS pressure mismatch at the optimum, Pa
    iterations: int

    def to_dict(self) -> dict:
        return {"value": self.value, "residual_pa": self.residual, "iterations": self.iterations}


@dataclass(frozen=True)
class SpoolPoint:
    """Spool fraction identified from one constant-duty segment."""

    u: float
    x_hat: float
    residual: float
    at_bound: bool


def simulate_at_samples(
    p0: float,
    t: Sequence[float],
    x_bar: float,
    m: Mode,
    params: PlantParams,
    *,
    meas: Optional[np.ndarray] = None,
    stop_above: float = math.inf,
) -> np.ndarray:
    """Model pressures at the given sample times, starting from p0 at t[0].

    With ``meas`` (one measured pressure per sample time), the squared
    mismatch is summed sample by sample, and the prediction stops early,
    returning only the samples computed so far, once that sum exceeds
    ``stop_above`` by more than rounding explains: ``_sse`` of the full
    prediction would then exceed ``stop_above`` too.  The slack, a relative
    1e-9 + n * 2**-51 for n samples, covers the difference between this
    sequential sum and ``np.dot``: each is within about n * 2**-53 of the
    exact sum.  A NaN or inf sum never stops the prediction.
    """
    step = plant_mod.rk4_hold(params)(x_bar, m == Mode.INFLATION)
    out = [p0]
    p = p0
    if meas is not None:
        ms = np.asarray(meas, dtype=float).tolist()
        if len(ms) != len(t):
            raise ValueError(f"meas has {len(ms)} samples but t has {len(t)}")
        limit = stop_above * (1.0 + 1e-9 + len(ms) * 2.0 ** -51)
        d = p0 - ms[0]
        sse = d * d
    for i, dt in enumerate(np.diff(t).tolist(), 1):
        p = step(p, dt)
        out.append(p)
        if meas is not None:
            d = p - ms[i]
            sse += d * d
            if sse > limit and sse < math.inf:
                break
    return np.asarray(out)


def _sse(pred: np.ndarray, meas: np.ndarray) -> float:
    d = pred - meas
    return float(np.dot(d, d))


def _pruned_sse_objective(trace: StepTrace, model: Callable[[float], tuple]) -> Callable[[float], float]:
    """Golden-section objective: squared mismatch to ``trace`` of the model ``model(v)``.

    ``model(v)`` gives the ``(x_bar, mode, params)`` to simulate.
    ``golden_section`` compares each new value only with the lowest value it
    has been returned so far: by induction its retained interior point is
    always the running minimum, and the loser of a comparison is dropped.  So
    an evaluation whose partial sum already exceeds that minimum stops and
    returns inf, which loses the comparison the full value would have lost.
    Every value the search keeps or returns, and its evaluation count, stay
    as without the exit.  NaN values, which lose every comparison, cannot
    break this: the kernel's results are finite, so a NaN comes from a NaN in
    ``trace.p``, every finished evaluation is then NaN, and the bound stays
    inf.  A finished evaluation whose sum overflows raises TraceDataError:
    every overflowing value ties, so a search could not tell its points apart.
    """
    p0 = float(trace.p[0])
    best = math.inf

    def objective(v: float) -> float:
        nonlocal best
        x_bar, m, params = model(v)
        pred = simulate_at_samples(p0, trace.t, x_bar, m, params, meas=trace.p, stop_above=best)
        if len(pred) < len(trace.p):
            return math.inf
        with np.errstate(over="ignore"):
            sse = _sse(pred, trace.p)
        if sse == math.inf:
            raise TraceDataError(
                f"{trace.mode.name.lower()} {trace.kind} at {trace.u2} % duty: "
                "the squared pressure mismatch overflows a float"
            )
        best = min(best, sse)
        return sse

    return objective


# The (leak, source) conductances identified in each mode.
_BRANCHES = {Mode.INFLATION: ("c_oa", "c_po"), Mode.DEFLATION: ("c_ao", "c_on")}


def _with_conductance(params: PlantParams, which: str, c: float) -> PlantParams:
    return replace(params, conductances=replace(params.conductances, **{which: c}))


def _fit_conductance(trace: StepTrace, params: PlantParams, which: str, x_bar: float, m: Mode) -> IdResult:
    lo, hi = CONDUCTANCE_BRACKET
    objective = _pruned_sse_objective(
        trace, lambda log_c: (x_bar, m, _with_conductance(params, which, 10.0 ** log_c))
    )
    log_c, sse, evals = golden_section(objective, math.log10(lo), math.log10(hi), tol=1e-4)
    value = 10.0 ** log_c
    residual = math.sqrt(sse / len(trace.p))
    return IdResult(value=value, residual=residual, iterations=evals)


def fit_decay_conductance(trace: StepTrace, which: str, params: PlantParams) -> IdResult:
    """Fit the atmospheric-branch conductance from a passive decay segment.

    ``which`` is "c_oa" for a decay from above atmosphere or "c_ao" for the
    return from below; the delivery valve must have been closed (spool 0).
    """
    if which not in ("c_oa", "c_ao"):
        raise ValueError("which must be 'c_oa' or 'c_ao'")
    p0 = float(trace.p[0])
    p_end = float(trace.p[-1])
    offset = p0 - params.p_atm
    if abs(offset) < MIN_DECAY_OFFSET:
        raise TraceDataError(
            f"decay starts {offset:.0f} Pa from atmosphere; no leakage information"
        )
    if which == "c_oa" and not (offset > 0.0 and p_end < p0 - MIN_TRACE_SPAN):
        raise TraceDataError("c_oa needs a decaying trace starting above atmosphere")
    if which == "c_ao" and not (offset < 0.0 and p_end > p0 + MIN_TRACE_SPAN):
        raise TraceDataError("c_ao needs a rising trace starting below atmosphere")
    return _fit_conductance(trace, params, which, x_bar=0.0, m=trace.mode)


def fit_source_conductance(trace: StepTrace, which: str, params: PlantParams) -> IdResult:
    """Fit the source-branch conductance from a fully-open segment.

    ``which`` is "c_po" (inflation toward the supply) or "c_on" (deflation
    toward the vacuum sink); the leakage conductances in ``params`` must
    already be identified.
    """
    if which not in ("c_po", "c_on"):
        raise ValueError("which must be 'c_po' or 'c_on'")
    if trace.span < MIN_TRACE_SPAN:
        raise TraceDataError("segment shows no pressure motion; cannot fit a source branch")
    m = Mode.INFLATION if which == "c_po" else Mode.DEFLATION
    return _fit_conductance(trace, params, which, x_bar=1.0, m=m)


def fit_spool_segments(traces: Iterable[StepTrace], params: PlantParams) -> list[SpoolPoint]:
    """Least-squares spool fraction for each constant-duty segment.

    Conductances in ``params`` must be fixed beforehand.  Estimates landing
    on the search bounds are flagged; they carry only saturation information.

    Before searching, a bound test evaluates the objective at the lower bound
    ``lo`` and at ``lo + AT_BOUND_MARGIN``.  If the second value is not below
    the first, the cost, assumed unimodal as ``golden_section`` assumes it,
    has its minimum in ``[lo, lo + AT_BOUND_MARGIN]``: the segment lies in the
    valve deadband and is censored without a search.  Its point, and so its
    ``calibration_pairs`` entry, reports ``x_hat = lo`` exactly, the RMS
    residual at ``lo`` and ``at_bound = True``; like every at-bound point it
    stays out of the cubic fit.  Only
    the lower bound is tested: no default segment ends on the upper one, and
    a test there would cost every interior segment two more evaluations.  A
    NaN value never censors a segment, which is then searched as before.
    """
    lo, hi = SPOOL_BRACKET
    points = []
    for trace in traces:
        if trace.span < MIN_TRACE_SPAN and 30.0 <= trace.u2 <= 90.0:
            raise TraceDataError(
                f"segment at duty {trace.u2}% shows no pressure change; stuck data"
            )

        def model(x, m=trace.mode):
            return x, m, params

        # The bound test: its second evaluation stops as soon as it passes the first.
        bound_test = _pruned_sse_objective(trace, model)
        sse_lo = bound_test(lo)
        if bound_test(lo + AT_BOUND_MARGIN) >= sse_lo:
            x_hat, sse = lo, sse_lo
        else:
            # A fresh objective: its pruning bound must be the search's own running minimum.
            x_hat, sse, _ = golden_section(_pruned_sse_objective(trace, model), lo, hi, tol=1e-5)
        at_bound = x_hat <= lo + AT_BOUND_MARGIN or x_hat >= hi - AT_BOUND_MARGIN
        residual = math.sqrt(sse / len(trace.p))
        points.append(SpoolPoint(u=trace.u2, x_hat=x_hat, residual=residual, at_bound=at_bound))
    return points


def fit_cubic(pairs: Sequence[tuple[float, float]], mode: Mode = Mode.INFLATION) -> SpoolMap:
    """Ordinary least-squares cubic through (duty, spool) calibration pairs.

    Requires finite pairs and at least four distinct duties; the resulting
    map must pass the monotonicity validation of :class:`SpoolMap` or the
    calibration fails.
    """
    us = np.asarray([p[0] for p in pairs], dtype=float)
    xs = np.asarray([p[1] for p in pairs], dtype=float)
    if len(us) < 4:
        raise ValueError("need at least 4 calibration pairs")
    if not (np.isfinite(us).all() and np.isfinite(xs).all()):
        raise ValueError("calibration pairs must be finite")
    # A set, not np.unique, whose first call imports numpy.ma.
    if len(set(us.tolist())) < 4:
        raise ValueError("need at least 4 distinct duty levels")
    design = np.vander(us, 4, increasing=True)
    coeffs, _, rank, _ = np.linalg.lstsq(design, xs, rcond=None)
    if rank < 4:
        raise ValueError("rank-deficient calibration design; duties too clustered")
    return SpoolMap(a=tuple(coeffs), mode=mode)


@dataclass
class ChannelIdResult:
    """Output of the full per-mode identification chain."""

    mode: Mode
    leak: IdResult         # c_oa (inflation) or c_ao (deflation)
    source: IdResult       # c_po (inflation) or c_on (deflation)
    spool_map: SpoolMap
    points: list[SpoolPoint]

    @property
    def leak_name(self) -> str:
        return _BRANCHES[self.mode][0]

    @property
    def source_name(self) -> str:
        return _BRANCHES[self.mode][1]

    def to_dict(self) -> dict:
        return {
            "mode": self.mode.name.lower(),
            "conductances": {
                self.leak_name: self.leak.to_dict(),
                self.source_name: self.source.to_dict(),
            },
            "spool_map": self.spool_map.to_dict(),
            "calibration_pairs": [
                {"u_pct": p.u, "x_hat": p.x_hat, "residual_pa": p.residual, "at_bound": p.at_bound}
                for p in self.points
            ],
        }


def identify_channel(traces: Sequence[StepTrace], mode: Mode, params: PlantParams) -> ChannelIdResult:
    """Run the three-step identification chain for one mode.

    Expects the protocol's segments: passive decays (delivery duty 0),
    one fully-open segment (duty 100), and the constant-duty sweep.  The
    decay with the largest initial offset from atmosphere drives the leak
    fit; the fully-open segment drives the source fit; the remaining sweep
    segments, excluding saturated estimates, drive the cubic calibration.
    """
    mine = [tr for tr in traces if tr.mode == mode]
    if not mine:
        raise TraceDataError(f"no traces for mode {mode.name.lower()}")
    decays = [tr for tr in mine if tr.kind == "decay" and tr.u2 == 0.0]
    full_open = [tr for tr in mine if tr.kind == "rise" and tr.u2 >= 100.0]
    sweep = [tr for tr in mine if tr.kind == "rise" and tr.u2 < 100.0]
    missing = []
    if not decays:
        missing.append("passive decay (duty 0)")
    if not full_open:
        missing.append("fully-open segment (duty 100)")
    if len(sweep) < 4:
        missing.append("duty sweep (at least 4 levels)")
    if missing:
        raise TraceDataError(
            f"{mode.name.lower()} protocol incomplete; missing: " + "; ".join(missing)
        )

    leak_name, source_name = _BRANCHES[mode]

    decay = max(decays, key=lambda tr: abs(float(tr.p[0]) - params.p_atm))
    leak = fit_decay_conductance(decay, leak_name, params)
    params = _with_conductance(params, leak_name, leak.value)

    rise = max(full_open, key=lambda tr: tr.span)
    source = fit_source_conductance(rise, source_name, params)
    params = _with_conductance(params, source_name, source.value)

    points = fit_spool_segments(sorted(sweep, key=lambda tr: tr.u2), params)
    interior = [(p.u, p.x_hat) for p in points if not p.at_bound]
    if len(interior) < 4:
        raise TraceDataError("fewer than 4 unsaturated sweep segments; cannot fit the map")
    try:
        spool_map = fit_cubic(interior, mode=mode)
    except ValueError as exc:
        raise TraceDataError(f"{mode.name.lower()} spool calibration failed: {exc}") from exc
    return ChannelIdResult(mode=mode, leak=leak, source=source, spool_map=spool_map, points=points)


# ---------------------------------------------------------------------------
# Trace CSV I/O and protocol synthesis

TRACE_COLUMNS = ("t_s", "p_pa", "u1_pct", "u2_pct", "kind")


def write_trace_csv(trace: StepTrace, path: str | Path) -> None:
    """One row per sample: ``%.6f`` time and pressure, ``%.1f`` duties, CRLF line ends.

    These are the bytes ``csv.writer`` writes: no field needs quoting.
    """
    tail = f",{trace.u1:.1f},{trace.u2:.1f},{trace.kind}\r\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\r\n")
        fh.write("".join([f"{t:.6f},{p:.6f}{tail}" for t, p in zip(trace.t.tolist(), trace.p.tolist())]))


def read_trace_csv(path: str | Path) -> StepTrace:
    try:
        ts, ps, u1s, u2s, kinds = _read_columns(path)
    except (ValueError, csv.Error):     # UnicodeDecodeError is a ValueError
        _raise_first_fault(path)
    if len(set(u1s)) != 1 or len(set(u2s)) != 1 or len(set(kinds)) != 1:
        raise TraceDataError(f"{path}: inputs must be constant within a segment")
    try:
        return StepTrace(t=np.asarray(ts), p=np.asarray(ps), u1=u1s[0], u2=u2s[0], kind=kinds[0])
    except ValueError as exc:
        raise TraceDataError(f"{path}: {exc}") from exc


def _read_columns(path: str | Path) -> tuple[list, list, list, list, tuple]:
    """The trace's columns, parsed one column at a time; raises ValueError on any fault.

    A file this rejects is read again by ``_raise_first_fault``, which names the fault.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        rows = list(filter(None, reader))    # blank lines read as empty rows
    if header is None or tuple(header) != TRACE_COLUMNS or set(map(len, rows)) != {5}:
        raise ValueError("not a well-formed trace")
    t, p, u1, u2, kinds = zip(*rows)
    ts, ps, u1s, u2s = (list(map(float, col)) for col in (t, p, u1, u2))
    if not np.isfinite([ts, ps, u1s, u2s]).all():
        raise ValueError("non-finite value")
    return ts, ps, u1s, u2s, kinds


def _raise_first_fault(path: str | Path) -> NoReturn:
    """Re-read a trace ``_read_columns`` rejected, row by row, and raise the error naming its first fault."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or tuple(header) != TRACE_COLUMNS:
                raise TraceDataError(f"{path}: expected columns {','.join(TRACE_COLUMNS)}")
            for row in filter(None, reader):    # blank lines read as empty rows
                if len(row) != 5:
                    raise TraceDataError(f"{path}: line {reader.line_num}: malformed row {row!r}")
                try:
                    values = [float(v) for v in row[:4]]
                except ValueError as exc:
                    raise TraceDataError(f"{path}: line {reader.line_num}: malformed row {row!r}: {exc}") from exc
                if not all(map(math.isfinite, values)):
                    raise TraceDataError(f"{path}: line {reader.line_num}: non-finite value in row {row!r}")
        except csv.Error as exc:   # a field longer than csv.field_size_limit(), for one
            raise TraceDataError(f"{path}: line {reader.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise TraceDataError(f"{path}: not valid UTF-8: {exc}") from exc
    # Every row passed: _read_columns rejects such a file only when it has no data row.
    raise TraceDataError(f"{path}: empty trace")


def sweep_duties() -> list[float]:
    """Delivery-duty sweep: every 0.2 % over the opening knee, 20-30 %, then every 5 % to 95 %."""
    return [round(20.0 + k * 0.2, 10) for k in range(51)] + [float(u) for u in range(35, 100, 5)]


def simulate_segment(
    p0: float,
    x_bar: float,
    m: Mode,
    duration: float,
    params: PlantParams,
    sample_rate: float,
    sim_substep: float,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Integrate at the fine substep, sampling at the sensor rate; returns (t, p, p_end).

    Samples fall on ``event_substeps`` over substeps 0 to ``n_sub``, the
    sensor schedule of ``run_scenario``; the one on substep 0 is p0.
    """
    n_sub = int(round(duration * sim_substep))
    dt = 1.0 / sim_substep
    step = plant_mod.rk4_hold(params)(x_bar, m == Mode.INFLATION)
    samples = event_substeps(n_sub + 1, sim_substep, sample_rate)
    p = p0
    ps = []
    moving = True
    # Each sample, then the steps up to the next one (the last up to n_sub).
    for n_steps in np.diff(samples, append=n_sub).tolist():
        ps.append(p)
        if moving:
            for _ in range(n_steps):
                # (x_bar, m, dt) are fixed within the segment and the step is
                # a pure function: once it returns its input, so does every
                # later one, so no later step is taken.
                p_next = step(p, dt)
                if p_next == p:
                    moving = False
                    break
                p = p_next
    return samples / sim_substep, np.asarray(ps), p


@dataclass(frozen=True)
class SynthesisConfig:
    """Timing and noise settings for synthetic protocol generation."""

    sample_rate: float = 60.0
    sim_substep: float = 1000.0
    rise_duration: Positive = 3.0
    decay_duration: Positive = 2.0
    full_open_duration: Positive = 2.0
    full_decay_duration: Positive = 4.0
    noise_sigma: NonNegative = 0.0
    seed: Count = 0

    def __post_init__(self) -> None:
        check_fields(self)
        if not (self.sim_substep >= self.sample_rate > 0.0):
            raise ValueError("rates must satisfy sim_substep >= sample_rate > 0")
        for name in ("rise_duration", "decay_duration", "full_open_duration", "full_decay_duration"):
            if getattr(self, name) * self.sim_substep > MAX_SUBSTEPS:
                raise ValueError(f"{name} is too long: it takes more than {MAX_SUBSTEPS:,} substeps")
            # simulate_segment's samples, placed only as far as the last one needed could fall.
            n = round(getattr(self, name) * self.sim_substep) + 1
            n = min(n, MIN_SEGMENT_SAMPLES * self.sim_substep / self.sample_rate + 2)
            if len(event_substeps(int(n), self.sim_substep, self.sample_rate)) < MIN_SEGMENT_SAMPLES:
                raise ValueError(f"{name} is too short: a segment needs at least {MIN_SEGMENT_SAMPLES} samples")


def synthesize_protocol(
    params: PlantParams,
    maps: tuple[SpoolMap, SpoolMap],
    modes: Sequence[Mode] = (Mode.INFLATION, Mode.DEFLATION),
    cfg: SynthesisConfig = SynthesisConfig(),
    out_dir: Optional[str | Path] = None,
) -> list[StepTrace]:
    """Generate the full identification protocol from a known channel.

    Sweep segments are driven through the ground-truth spool map; the
    fully-open and passive segments force spool fractions 1 and 0 exactly
    (constant energization and a closed valve sit outside PWM modulation).
    Optionally writes one CSV per segment into ``out_dir``.
    """
    rng = np.random.default_rng(cfg.seed)
    traces: list[StepTrace] = []

    def emit(t, p, u1, u2, kind):
        traces.append(StepTrace(t=t, p=p + noise_draws(rng, cfg.noise_sigma, len(p)), u1=u1, u2=u2, kind=kind))

    for mode in modes:
        u1 = 100.0 if mode == Mode.INFLATION else 0.0
        # Driven segments as (u2, spool fraction, rise s, decay s), each followed
        # by its passive decay.  The fully-open one anchors the conductance
        # fits, so it comes first and gets the longest records.
        segments = [(100.0, 1.0, cfg.full_open_duration, cfg.full_decay_duration)]
        segments += [(duty, eval_spool(duty, maps[mode]), cfg.rise_duration, cfg.decay_duration)
                     for duty in sweep_duties()]
        for u2, x, rise_s, decay_s in segments:
            t, p, p_end = simulate_segment(params.p_atm, x, mode, rise_s, params, cfg.sample_rate, cfg.sim_substep)
            emit(t, p, u1, u2, "rise")
            t, p, _ = simulate_segment(p_end, 0.0, mode, decay_s, params, cfg.sample_rate, cfg.sim_substep)
            emit(t, p, u1, 0.0, "decay")

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for i, trace in enumerate(traces):
            name = f"{trace.mode.name.lower()}_{i:03d}_{trace.kind}_u{trace.u2:05.1f}.csv"
            write_trace_csv(trace, out / name)
    return traces
