"""Closed-loop scenario execution, reference generation, and benchmark metrics.

The simulation advances the plant on a fine fixed substep; a sensor samples
the true pressure at its own rate with seeded Gaussian noise, and the
controller reads the latest held sample at the control rate (zero-order
hold everywhere).  Logged trajectories feed the stage- or period-windowed
metrics used to compare controllers.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Protocol

import numpy as np

from . import mpc as mpc_mod
from . import plant as plant_mod
from .control import (
    ControllerState,
    PidGains,
    PidState,
    SmcGains,
    SupervisorConfig,
    pid_update,
    select_mode,
    smc_update,
)
from .plant import Count, LoadModel, Mode, NonNegative, PlantParams, Positive, check_fields, finite_float
from .valvemap import SpoolMap, eval_spool


class ScenarioEnd(ValueError):
    """Reference queried past the end of the scenario."""


@dataclass(frozen=True)
class Reference:
    """Pressure reference: a multi-step stage list or a sinusoid.

    Levels and amplitude are gauge kPa; :func:`reference_at` converts to
    absolute pascals.
    """

    kind: str
    stages: tuple[tuple[float, float], ...] = ()
    amplitude_kpa: float = 50.0
    frequency_hz: float = 0.5
    cycles: Count = 3

    def __post_init__(self) -> None:
        # Both kinds check their stage pairs, though only a multi-step reads them.
        if not (isinstance(self.stages, (tuple, list))
                and all(isinstance(s, (tuple, list)) and len(s) == 2 for s in self.stages)):
            raise ValueError(f"stages must be a sequence of (level_kpa, hold_s) pairs, got {self.stages!r}")
        stages = tuple((finite_float(lv, "stages: a level"), finite_float(hold, "stages: a hold"))
                       for lv, hold in self.stages)
        object.__setattr__(self, "stages", stages)
        check_fields(self)
        if self.kind == "multi-step":
            if not stages:
                raise ValueError("stages: a multi-step reference needs at least one stage")
            # Cumulative stage ends, added in stage order: the stage table of
            # reference_at and window_edges, kept out of the fields (and so
            # out of repr, == and the emitted config).
            ends, acc = [], 0.0
            for level, hold in stages:
                if not hold > 0.0:
                    raise ValueError("stages: a hold must be positive and finite")
                if not math.isfinite(1000.0 * level):
                    raise ValueError("stages: a level overflows a float in pascals")
                acc += hold
                ends.append(acc)
            if not math.isfinite(acc):
                raise ValueError("stages: the holds sum past the float range")
            object.__setattr__(self, "_ends", tuple(ends))
        elif self.kind == "sinusoid":
            if self.frequency_hz <= 0.0:
                raise ValueError("frequency_hz must be positive")
            if self.cycles < 1:
                raise ValueError("cycles must be at least 1")
            try:
                duration = self.cycles / self.frequency_hz
            except OverflowError:
                raise ValueError("cycles is too large: cycles / frequency_hz overflows a float") from None
            if not math.isfinite(duration):
                raise ValueError("duration (cycles / frequency_hz) must be finite")
            # reference_at's peak rate; as frequency_hz > 0, finite only if the amplitude in pascals is.
            if not math.isfinite(1000.0 * self.amplitude_kpa * (2.0 * math.pi * self.frequency_hz)):
                raise ValueError("amplitude_kpa: the amplitude or its peak rate overflows a float in pascals")
        else:
            raise ValueError(f"kind must be 'multi-step' or 'sinusoid', got {self.kind!r}")
        # The fields its kind does not read take their defaults, so two
        # references of one shape compare equal however they were built.
        for name in ("amplitude_kpa", "frequency_hz", "cycles") if self.kind == "multi-step" else ("stages",):
            object.__setattr__(self, name, getattr(Reference, name))

    @classmethod
    def multi_step(cls, stages: list[tuple[float, float]]) -> "Reference":
        return cls(kind="multi-step", stages=stages)

    @classmethod
    def sinusoid(cls, amplitude_kpa: float, frequency_hz: float, cycles: int) -> "Reference":
        return cls(kind="sinusoid", amplitude_kpa=amplitude_kpa, frequency_hz=frequency_hz, cycles=cycles)

    @property
    def duration(self) -> float:
        if self.kind == "multi-step":
            # The stage table's last end, not sum(), which 3.12+ compensates.
            return self._ends[-1]
        return self.cycles / self.frequency_hz

    def window_edges(self, until: float = math.inf) -> list[float]:
        """Window boundaries for metrics: stage starts or period starts, plus the end.

        A sinusoid's stop within two periods past ``until``, so a run ending there costs its length.
        """
        if self.kind == "multi-step":
            return [0.0, *self._ends]
        period = 1.0 / self.frequency_hz
        return [i * period for i in range(int(min(self.cycles, until / period + 2.0)) + 1)]


def reference_at(ref: Reference, t: float, p_atm: float) -> tuple[float, float]:
    """Reference pressure (absolute Pa) and its rate (Pa/s) at time ``t``."""
    if t < 0.0:
        raise ValueError("time must be non-negative")
    if t > ref.duration * (1.0 + 1e-12):
        raise ScenarioEnd(f"t={t!r} beyond scenario end {ref.duration!r}")
    if ref.kind == "multi-step":
        # The first stage ending after t; past the last end, the last stage.
        i = min(bisect_right(ref._ends, t), len(ref.stages) - 1)
        return p_atm + 1000.0 * ref.stages[i][0], 0.0
    w = 2.0 * math.pi * ref.frequency_hz
    p_ref = p_atm + 1000.0 * ref.amplitude_kpa * math.sin(w * t)
    rate = 1000.0 * ref.amplitude_kpa * w * math.cos(w * t)
    return p_ref, rate


@dataclass(frozen=True)
class TimingConfig:
    """Rates, duration, sensor noise, and the RNG seed of one scenario run.

    The sensor samples at most once per ``sim_substep``: a ``sensor_rate``
    above it is accepted and samples once per substep, as a sensor at the
    substep rate would.
    """

    control_rate: float = 100.0
    sensor_rate: Positive = 60.0
    sim_substep: float = 1000.0
    duration: Optional[Positive] = None
    noise_sigma: NonNegative = 500.0
    seed: Count = 0

    def __post_init__(self) -> None:
        check_fields(self)
        if not (self.sim_substep >= self.control_rate >= 1.0):
            raise ValueError("rates must satisfy sim_substep >= control_rate >= 1")


@dataclass
class Trajectory:
    """Control-tick log of one closed-loop run.  Pressures are absolute Pa."""

    t: np.ndarray
    p_ref: np.ndarray
    p_true: np.ndarray
    p_meas: np.ndarray
    u: np.ndarray
    mode: np.ndarray
    ct: np.ndarray                       # controller compute time per tick, s
    s: np.ndarray                        # sliding variable (NaN for non-SMC)
    x_star: np.ndarray                   # commanded spool fraction (NaN if n/a)
    flags: list[str] = field(default_factory=list)
    duration: Optional[float] = None     # simulated length, s (None: the whole reference)


class Tick(NamedTuple):
    """What one controller update commands and logs."""

    u: float                             # PWM duty, %
    mode: Mode                           # active polarity mode
    s: float = math.nan                  # sliding variable (NaN for non-SMC)
    x_star: float = math.nan             # commanded spool fraction (NaN if n/a)
    flag: str = ""                       # "gain-guard", "iter-cap" or ""


class ControllerLoop(Protocol):
    def update(self, t: float, p_meas: float, p_ref: float, p_ref_rate: float) -> Tick:
        """Return this tick's command and logged internals."""


@dataclass(eq=False)
class DmSmcLoop:
    """Dual-mode sliding-mode controller bound to one scenario loop."""

    params: PlantParams
    maps: tuple[SpoolMap, SpoolMap]
    gains: tuple[SmcGains, SmcGains]
    supervisor: SupervisorConfig
    dt: float
    state: ControllerState = field(init=False, default=ControllerState(mode=Mode.INFLATION))

    def update(self, t, p_meas, p_ref, p_ref_rate):
        u, state = smc_update(
            self.state, p_meas, p_ref, p_ref_rate,
            self.gains, self.params, self.maps, self.supervisor, self.dt,
        )
        self.state = state
        return Tick(u, state.mode, state.s, state.x_star, "gain-guard" if state.gain_guard else "")


@dataclass(eq=False)
class PidLoop:
    """Mode-gated PID controller bound to one scenario loop."""

    gains: tuple[PidGains, PidGains]
    supervisor: SupervisorConfig
    dt: float
    state: PidState = field(init=False, default=PidState(mode=Mode.INFLATION))

    def update(self, t, p_meas, p_ref, p_ref_rate):
        u, self.state = pid_update(self.state, p_meas, p_ref, self.gains, self.supervisor, self.dt)
        return Tick(u, self.state.mode)


def _horizon_refs(ref: Reference, cfg: mpc_mod.MpcConfig, p_atm: float, t: float) -> list[float]:
    """The reference (absolute Pa) at each prediction step after ``t``, held at its end past it."""
    t_last = ref.duration
    return [reference_at(ref, min(t + (k + 1) * cfg.dt_pred, t_last), p_atm)[0]
            for k in range(cfg.horizon_steps)]


@dataclass(eq=False)
class NmpcLoop:
    """Receding-horizon NMPC under the hysteresis-selected mode."""

    params: PlantParams
    maps: tuple[SpoolMap, SpoolMap]
    load: LoadModel
    cfg: mpc_mod.MpcConfig
    supervisor: SupervisorConfig
    ref: Reference
    mode: Mode = field(init=False, default=Mode.INFLATION)
    prev_u: Optional[tuple[float, ...]] = field(init=False, default=None)

    def update(self, t, p_meas, p_ref, p_ref_rate):
        self.mode = select_mode(p_meas, p_ref, self.supervisor, self.mode)
        warm = None if self.prev_u is None else self.prev_u[1:] + self.prev_u[-1:]
        sol = mpc_mod.nmpc_solve(
            p_meas, _horizon_refs(self.ref, self.cfg, self.params.p_atm, t), self.mode,
            self.cfg, self.params, self.maps, self.load, u_init=warm,
        )
        self.prev_u = tuple(sol.u_seq)
        return Tick(sol.u_seq[0], self.mode, flag="iter-cap" if sol.hit_iter_cap else "")


@dataclass(eq=False)
class MinmpcLoop:
    """Receding-horizon MPC optimizing mode sequence and duty jointly."""

    params: PlantParams
    maps: tuple[SpoolMap, SpoolMap]
    load: LoadModel
    cfg: mpc_mod.MpcConfig
    ref: Reference

    def update(self, t, p_meas, p_ref, p_ref_rate):
        sol = mpc_mod.minmpc_solve(
            p_meas, _horizon_refs(self.ref, self.cfg, self.params.p_atm, t),
            self.cfg, self.params, self.maps, self.load,
        )
        return Tick(sol.u_seq[0], sol.m_seq[0], flag="iter-cap" if sol.hit_iter_cap else "")


def run_duration(ref: Reference, timing: TimingConfig) -> float:
    """Simulated length of one run, s: the timing's duration capped at the reference's."""
    if timing.duration is None:
        return ref.duration
    return min(timing.duration, ref.duration)


# Most substeps a configured run or synthesis segment may take: 10,000 s, 2.78
# simulated hours, at 1 kHz.  A config error, before event_substeps allocates.
MAX_SUBSTEPS = 10**7


def event_substeps(n_sub: int, substep_hz: float, rate_hz: float) -> np.ndarray:
    """Substeps, of ``n_sub`` at ``substep_hz``, on which an event at ``rate_hz`` fires.

    Substep j sits at ``j / substep_hz``; event k fires on the first substep
    after event k - 1's whose time plus half a substep reaches
    ``k / rate_hz``, so at most one event fires per substep and a rate above
    the substep's falls behind.  This is the schedule of the sensor and the
    controller in ``run_scenario`` and of the samples in
    ``sysid.simulate_segment``.
    """
    eps = 0.5 * (1.0 / substep_hz)
    # Event k needs k / rate_hz <= (n_sub - 1) / substep_hz + eps, and at most
    # one fires per substep, so no more than this many events fit.
    k = np.arange(min(n_sub, int(min(rate_hz, substep_hz) * n_sub / substep_hz) + 2))
    due = k / rate_hz
    # First substep whose time plus eps reaches the event's due time: start
    # below it (rounding moves the estimate by far less than two substeps)
    # and step up with the loop's own test.
    first = np.maximum(np.floor((due - eps) * substep_hz) - 2.0, 0.0)
    while np.any(behind := first / substep_hz + eps < due):
        first += behind
    # j[k] = max(j[k - 1] + 1, first[k]): one event per substep at most.
    j = np.maximum.accumulate(first - k) + k
    return j[j < n_sub].astype(int)


def control_tick_times(duration: float, timing: TimingConfig) -> np.ndarray:
    """Times of the control ticks that ``run_scenario`` logs in a run of ``duration`` s."""
    n_sub = int(round(duration * timing.sim_substep))
    return event_substeps(n_sub, timing.sim_substep, timing.control_rate) / timing.sim_substep


def noise_draws(rng: np.random.Generator, sigma: float, n: int) -> np.ndarray:
    """``n`` zero-mean Gaussian noise samples of ``sigma`` Pa; ArithmeticError if one is not finite.

    At zero ``sigma`` every sample is +0.0, which leaves any positive pressure it is added to as it was.
    """
    draws = rng.normal(0.0, sigma, size=n)
    if not np.isfinite(draws).all():
        raise ArithmeticError(f"noise_sigma {sigma!r} Pa draws a non-finite noise sample")
    return draws


def run_scenario(
    ref: Reference,
    controller: ControllerLoop,
    timing: TimingConfig,
    params: PlantParams,
    maps: tuple[SpoolMap, SpoolMap],
    load: Optional[LoadModel] = None,
    p_init: Optional[float] = None,
) -> Trajectory:
    """Execute one closed-loop scenario and log every control tick.

    Deterministic for a fixed seed: the plant substep, sensor schedule, and
    noise draws are all derived from the timing config alone.
    """
    duration = run_duration(ref, timing)
    rng = np.random.default_rng(timing.seed)
    f_sub = timing.sim_substep
    dt_sub = 1.0 / f_sub
    n_sub = int(round(duration * f_sub))
    sensed = event_substeps(n_sub, f_sub, timing.sensor_rate)
    # What fires on each substep: 1 a sensor sample, 2 a control tick.
    fired = np.zeros(n_sub, dtype=np.uint8)
    fired[sensed] = 1
    fired[event_substeps(n_sub, f_sub, timing.control_rate)] |= 2
    events = np.flatnonzero(fired)
    # One vector draw gives the stream of one scalar draw per sample.
    noise = iter(noise_draws(rng, timing.noise_sigma, sensed.size).tolist())

    p = reference_at(ref, 0.0, params.p_atm)[0] if p_init is None else p_init
    hold = plant_mod.rk4_hold(params, load)

    rows_t, rows_ref, rows_true, rows_meas = [], [], [], []
    rows_u, rows_mode, rows_ct, rows_s, rows_x = [], [], [], [], []
    flags: list[str] = []

    # Each event, in substep order, then the plant steps up to the next one.
    # Substep 0 holds the first sensor sample and the first control tick,
    # so ``held`` and ``step`` are set before the plant first steps.
    j = 0   # the event's substep
    for n_steps, what in zip(np.diff(events, append=n_sub).tolist(), fired[events].tobytes()):
        if what & 1:
            held = p + next(noise)
        if what & 2:
            t = j / f_sub
            p_ref, p_rate = reference_at(ref, t, params.p_atm)
            t0 = time.perf_counter()
            out = controller.update(t, held, p_ref, p_rate)
            ct = time.perf_counter() - t0
            step = hold(eval_spool(out.u, maps[out.mode]), out.mode == Mode.INFLATION)
            rows_t.append(t)
            rows_ref.append(p_ref)
            rows_true.append(p)
            rows_meas.append(held)
            rows_u.append(out.u)
            rows_mode.append(int(out.mode))
            rows_ct.append(ct)
            rows_s.append(out.s)
            rows_x.append(out.x_star)
            flags.append(out.flag)
        for _ in range(n_steps):
            p = step(p, dt_sub)
        j += n_steps

    return Trajectory(
        t=np.asarray(rows_t),
        p_ref=np.asarray(rows_ref),
        p_true=np.asarray(rows_true),
        p_meas=np.asarray(rows_meas),
        u=np.asarray(rows_u),
        mode=np.asarray(rows_mode, dtype=int),
        ct=np.asarray(rows_ct),
        s=np.asarray(rows_s),
        x_star=np.asarray(rows_x),
        flags=flags,
        duration=duration,
    )


class Metric(NamedTuple):
    """One reported metric, with its name in every output that shows it."""

    field: str                           # MetricsReport field
    reduce: Optional[Callable]           # per-window values -> report value (None: whole run)
    json_key: str                        # metrics.json key
    compare_key: str                     # compare.json key, of ``scale`` times the value
    scale: float
    label: str                           # compare.txt row label
    fmt: str                             # compare.txt cell format


# The reported metrics in output order; ``per_window`` keys each by its field.
METRICS = (
    Metric("e_ss", np.mean, "e_ss_kpa", "e_ss", 1.0, "e_ss [kPa]", "{:.2f}"),
    Metric("ae", np.mean, "ae_kpa", "ae", 1.0, "AE [kPa]", "{:.2f}"),
    Metric("itae", np.mean, "itae_kpa_s2", "itae", 1.0, "ITAE [kPa s^2]", "{:.2f}"),
    Metric("pwm_e", np.mean, "pwm_e_pct_s", "pwm_e", 1.0, "PWM-E [% s]", "{:.2f}"),
    Metric("switches", np.mean, "switches", "switches", 1.0, "Switches", "{:.2f}"),
    Metric("max_abs_e", np.max, "max_abs_e_kpa", "max_abs_e", 1.0, "max|e| [kPa]", "{:.2f}"),
    Metric("ct_mean", None, "ct_mean_s", "ct_ms", 1e3, "CT [ms]", "{:.3f}"),
)


@dataclass
class MetricsReport:
    """Window-averaged tracking metrics in gauge kPa (duty in %, times in s)."""

    e_ss: float
    ae: float
    itae: float
    pwm_e: float
    switches: float
    max_abs_e: float
    ct_mean: float
    per_window: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {**{m.json_key: getattr(self, m.field) for m in METRICS}, "per_window": self.per_window}


def metric_windows(
    t: np.ndarray, ref: Reference, duration: Optional[float],
) -> list[tuple[float, float, np.ndarray]]:
    """The windows ``compute_metrics`` scores: (start, end, indices of the ticks in it).

    ``t`` holds the control-tick times (at least two).  Window i is stage or
    period i + 1 of ``ref``.  A run shorter than the reference keeps the
    windows it reaches, the last one cut at the run's end and dropped if it
    holds no control tick; any other window comes back even when empty.
    """
    edges = ref.window_edges(math.inf if duration is None else duration)
    eps = 0.25 * float(t[1] - t[0])
    truncated = duration is not None and duration < edges[-1]
    if truncated:
        edges = [w for w in edges if w < duration - eps] + [duration]
    windows = []
    for w0, w1 in zip(edges[:-1], edges[1:]):
        idx = np.nonzero((t >= w0 - eps) & (t < w1 - eps))[0]
        if idx.size == 0 and truncated and w1 == edges[-1]:
            # The cut can fall before the first control tick of its window.
            break
        windows.append((w0, w1, idx))
    return windows


def compute_metrics(traj: Trajectory, ref: Reference) -> MetricsReport:
    """Per-window metrics averaged across stage or period windows.

    Errors use the true pressure.  Integrals use the rectangle rule on the
    control grid; the ITAE time origin resets at each window start, and the
    steady-state error averages |e| over the final 20% of each window.  A
    run shorter than the reference scores only the windows it reaches, the
    last one cut at the run's end and dropped if it holds no control tick.
    """
    t = traj.t
    if len(t) < 2:
        raise ValueError("trajectory too short for metrics")
    dt = float(t[1] - t[0])
    e_kpa = (traj.p_true - traj.p_ref) / 1000.0
    abs_e = np.abs(e_kpa)

    per: dict[str, list[float]] = {
        "ae": [], "itae": [], "pwm_e": [], "switches": [], "e_ss": [], "max_abs_e": [],
    }
    for w0, w1, idx in metric_windows(t, ref, traj.duration):
        if idx.size == 0:
            raise ValueError(f"no samples in window [{w0}, {w1}); check rates and duration")
        ew = abs_e[idx]
        tw = t[idx] - w0
        per["ae"].append(float(np.mean(ew)))
        per["itae"].append(float(np.sum(tw * ew) * dt))
        per["pwm_e"].append(float(np.sum(np.abs(traj.u[idx])) * dt))
        prev = traj.mode[idx - 1] if idx[0] > 0 else np.concatenate(([traj.mode[idx[0]]], traj.mode[idx[:-1]]))
        per["switches"].append(int(np.sum(traj.mode[idx] != prev)))
        ss_mask = tw >= 0.8 * (w1 - w0)
        per["e_ss"].append(float(np.mean(ew[ss_mask])) if np.any(ss_mask) else float(ew[-1]))
        per["max_abs_e"].append(float(np.max(ew)))

    reduced = {m.field: float(m.reduce(per[m.field])) for m in METRICS if m.reduce is not None}
    return MetricsReport(**reduced, ct_mean=float(np.mean(traj.ct)), per_window=per)


def write_trajectory_csv(traj: Trajectory, path, p_atm: float) -> None:
    """Write the control-tick log as CSV with pressures in gauge kPa."""
    columns = (
        traj.t.tolist(),
        ((traj.p_ref - p_atm) / 1000.0).tolist(),
        ((traj.p_true - p_atm) / 1000.0).tolist(),
        ((traj.p_meas - p_atm) / 1000.0).tolist(),
        traj.u.tolist(),
        traj.mode.tolist(),
        np.rint(traj.ct * 1e6).astype(int).tolist(),   # round(): half to even
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t_s,pref_kpa,ptrue_kpa,pmeas_kpa,u_pct,mode,ct_us\n")
        fh.writelines("%.4f,%.6f,%.6f,%.6f,%.4f,%d,%d\n" % row for row in zip(*columns))
