"""Hysteresis mode supervision, dual-mode sliding-mode control, and PID.

The supervisor keeps the polarity mode fixed while the pressure stays
inside a deadband around the reference, so neither controller can chatter
the selector valve near the setpoint.  Within a mode, the sliding-mode law
inverts the channel dynamics to command a spool fraction, then maps it to a
PWM duty through the calibrated valve map; the PID baseline acts directly
in duty per kilopascal of error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from . import plant as plant_mod
from .plant import _DEFLATION, _INFLATION, Mode, PlantParams
from .valvemap import SpoolMap, invert_spool

# Relative threshold on |g_m| below which the control law falls back to a
# saturated command instead of dividing by a near-zero input gain.
GAIN_GUARD_REL = 1e-3


@dataclass(frozen=True)
class SupervisorConfig:
    """Hysteresis half-band around the reference, Pa."""

    h: float

    def __post_init__(self) -> None:
        if not self.h > 0.0:
            raise ValueError("hysteresis half-band h must be positive")


@dataclass(frozen=True)
class SmcGains:
    """Per-mode sliding-mode gains.

    lam scales the error in the sliding variable and sets the reaching rate;
    eta is the constant reaching drive, mu the boundary-layer half-width of
    the sliding variable, and k_i the integral gain.
    """

    lam: float
    eta: float
    mu: float
    k_i: float

    def __post_init__(self) -> None:
        if self.lam <= 0.0 or self.eta <= 0.0 or self.mu <= 0.0:
            raise ValueError("lam, eta, and mu must be positive")
        if self.k_i < 0.0:
            raise ValueError("k_i must be non-negative")


@dataclass(frozen=True)
class PidGains:
    """Per-mode PID gains, duty percent per kPa of error (and its int/diff)."""

    k_p: float
    k_i: float
    k_d: float

    def __post_init__(self) -> None:
        for name in ("k_p", "k_i", "k_d"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and non-negative")


class ControllerState(NamedTuple):
    """Value-semantics controller memory carried between ticks."""

    mode: Mode
    e_int: float = 0.0          # integrated error, Pa*s
    s: float = 0.0              # last sliding-variable value, Pa
    x_star: float = 0.0         # last commanded spool fraction after clipping
    gain_guard: bool = False    # last update hit the near-zero-gain fallback


def select_mode(p: float, p_ref: float, cfg: SupervisorConfig, m_prev: Mode) -> Mode:
    """Hysteresis mode selection: switch only when p leaves the deadband."""
    if p <= p_ref - cfg.h:
        return _INFLATION
    if p >= p_ref + cfg.h:
        return _DEFLATION
    return m_prev


def sat(z: float) -> float:
    """Identity-slope saturation: z inside [-1, 1], its sign outside."""
    if z > 1.0:
        return 1.0
    if z < -1.0:
        return -1.0
    return z


def _gain_guard_threshold(m: Mode, params: PlantParams) -> float:
    """Guard level: a small fraction of |g_m| at the mode's mid driving pressure."""
    if m == _INFLATION:
        p_mid = 0.5 * (params.p_atm + params.p_pos)
    else:
        p_mid = 0.5 * (params.p_neg + params.p_atm)
    return GAIN_GUARD_REL * abs(plant_mod.gain(p_mid, m, params))


def _reject_non_finite(**inputs: float) -> None:
    for name, value in inputs.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def smc_update(
    state: ControllerState,
    p: float,
    p_ref: float,
    p_ref_rate: float,
    gains: tuple[SmcGains, SmcGains],
    params: PlantParams,
    maps: tuple[SpoolMap, SpoolMap],
    cfg: SupervisorConfig,
    dt: float,
) -> tuple[float, ControllerState]:
    """One sliding-mode control tick; returns the PWM duty and the new state.

    The sliding variable is s = lam*e + k_i*int(e).  Matching its required
    rate -lam*s - eta*sat(s/mu) against the model dynamics and solving for
    the spool fraction gives the command, which is clipped to [0, 1] and
    pushed through the active mode's inverse valve map.

    The error integral only advances while the sliding variable sits inside
    the boundary layer and the command is unsaturated, so large transients
    cannot wind it up.  A non-finite p, p_ref or p_ref_rate raises ValueError.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if not (math.isfinite(p) and math.isfinite(p_ref) and math.isfinite(p_ref_rate)):
        _reject_non_finite(p=p, p_ref=p_ref, p_ref_rate=p_ref_rate)
    mode = select_mode(p, p_ref, cfg, state.mode)
    e_int = state.e_int
    g = gains[mode]
    lam, eta, mu, k_i = g.lam, g.eta, g.mu, g.k_i

    e = p - p_ref
    e_int_next = e_int + e * dt
    s = lam * e + k_i * e_int_next
    if abs(s) > mu:
        # Outside the boundary layer: hold the integral and keep s consistent.
        e_int_next = e_int
        s = lam * e + k_i * e_int_next

    # Noisy measurements can land outside the physical rails; clamp for the
    # model-inversion terms only (the error keeps the raw measurement).
    p_model = params.p_neg if p < params.p_neg else params.p_pos if p > params.p_pos else p
    f = plant_mod.drift(p_model, params)
    g_m = plant_mod.gain(p_model, mode, params)
    numerator = -f + p_ref_rate - s - (eta / lam) * sat(s / mu) - (k_i / lam) * e

    guard = False
    if abs(g_m) < _gain_guard_threshold(mode, params):
        guard = True
        # Sign of the gain is unreliable here; open fully if the demanded
        # rate points the way this mode can push, otherwise close.
        g_sign = 1.0 if mode == _INFLATION else -1.0
        x_raw = math.inf if numerator * g_sign > 0.0 else 0.0
    else:
        x_raw = numerator / g_m

    x_star = (x_raw if x_raw < 1.0 else 1.0) if x_raw > 0.0 else 0.0     # min(1, max(0, x_raw))
    if x_raw < 0.0 or x_raw > 1.0:
        e_int_next = e_int
    return invert_spool(x_star, maps[mode]), ControllerState(mode, e_int_next, s, x_star, guard)


class PidState(NamedTuple):
    """State of the two mode-dependent PID controllers.

    Each mode keeps its own integral and previous error, indexed by mode
    value; integrals persist while the other controller is engaged.
    """

    mode: Mode
    e_int: tuple[float, float] = (0.0, 0.0)
    e_prev: tuple[Optional[float], Optional[float]] = (None, None)


def pid_update(
    state: PidState,
    p: float,
    p_ref: float,
    gains: tuple[PidGains, PidGains],
    cfg: SupervisorConfig,
    dt: float,
) -> tuple[float, PidState]:
    """One PID tick of the active mode's controller; returns duty in [0, 100].

    The error is polarity-corrected so positive error always means "open the
    valve harder": (p_ref - p) in inflation, (p - p_ref) in deflation, in
    kPa.  The derivative is an unfiltered first difference; the integral
    freezes while it would push the output deeper into saturation.  A
    non-finite p or p_ref raises ValueError.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if not (math.isfinite(p) and math.isfinite(p_ref)):
        _reject_non_finite(p=p, p_ref=p_ref)
    mode = select_mode(p, p_ref, cfg, state.mode)
    inflation = mode == _INFLATION
    g = gains[mode]
    e = (p_ref - p) / 1000.0 if inflation else (p - p_ref) / 1000.0
    e_prev = state.e_prev[mode]
    de = 0.0 if e_prev is None else (e - e_prev) / dt
    e_int = state.e_int[mode]
    u_raw = g.k_p * e + g.k_i * e_int + g.k_d * de
    u = (u_raw if u_raw < 100.0 else 100.0) if u_raw > 0.0 else 0.0     # min(100, max(0, u_raw))
    winds_deeper = (u_raw > 100.0 and e > 0.0) or (u_raw < 0.0 and e < 0.0)
    if not winds_deeper:
        e_int = e_int + e * dt

    if inflation:
        return u, PidState(mode, (state.e_int[0], e_int), (state.e_prev[0], e))
    return u, PidState(mode, (e_int, state.e_int[1]), (e, state.e_prev[1]))
