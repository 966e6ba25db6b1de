"""Switched pneumatic channel model.

A single channel routes a shared positive-pressure source or a vacuum sink
into an outlet volume through a PWM-modulated delivery valve, with a small
leakage path to atmosphere.  The outlet pressure is the only state; the
discrete mode selects the source polarity and the averaged spool fraction
of the delivery valve scales the main flow.

All pressures are absolute pascals.  Gauge kilopascals appear only at I/O
boundaries (see :mod:`pneuctrl.experiment`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, NamedTuple, Optional


class Mode(IntEnum):
    """Polarity-selector state: 0 routes the vacuum line, 1 the supply line."""

    DEFLATION = 0
    INFLATION = 1


# Read once: on Python 3.11 each ``Mode.INFLATION`` is a slow class-attribute lookup.
_INFLATION, _DEFLATION = Mode.INFLATION, Mode.DEFLATION


@dataclass(frozen=True)
class Conductances:
    """Sonic conductances of the four flow branches, m^3 s^-1 Pa^-1.

    Branches are named upstream-to-downstream: positive source to outlet
    (po), outlet to negative sink (on), outlet to atmosphere (oa), and
    atmosphere to outlet (ao).
    """

    c_po: float
    c_on: float
    c_oa: float
    c_ao: float

    def __post_init__(self) -> None:
        for name in ("c_po", "c_on", "c_oa", "c_ao"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"conductance {name} must be positive")


@dataclass(frozen=True)
class PlantParams:
    """Physical constants of one pneumatic channel."""

    p_pos: float        # supply absolute pressure, Pa
    p_neg: float        # vacuum absolute pressure, Pa
    p_atm: float        # atmospheric absolute pressure, Pa
    b: float            # critical pressure ratio
    rho_ref: float      # gas density at reference conditions, kg/m^3
    t_ref: float        # reference temperature, K
    t_gas: float        # gas temperature, K
    gamma: float        # heat-capacity ratio
    r_gas: float        # specific gas constant, J/(kg K)
    volume: float       # outlet volume, m^3
    conductances: Conductances

    def __post_init__(self) -> None:
        if not (0.0 < self.p_neg < self.p_atm < self.p_pos):
            raise ValueError("pressures must satisfy 0 < p_neg < p_atm < p_pos")
        if not (0.0 < self.b < 1.0):
            raise ValueError("critical ratio b must lie in (0, 1)")
        if not self.volume > 0.0:
            raise ValueError("volume must be positive")
        if not self.gamma > 1.0:
            raise ValueError("gamma must exceed 1")
        if self.rho_ref <= 0.0 or self.t_ref <= 0.0 or self.t_gas <= 0.0 or self.r_gas <= 0.0:
            raise ValueError("gas properties must be positive")
        # Cached products used in the flow hot path; _rate_scale is gas_energy / volume.
        temp_corr = math.sqrt(self.t_ref / self.t_gas)
        c = self.conductances
        object.__setattr__(self, "_k_po", self.p_pos * c.c_po * self.rho_ref * temp_corr)
        object.__setattr__(self, "_k_on", c.c_on * self.rho_ref * temp_corr)
        object.__setattr__(self, "_k_oa", c.c_oa * self.rho_ref * temp_corr)
        object.__setattr__(self, "_k_ao", self.p_atm * c.c_ao * self.rho_ref * temp_corr)
        object.__setattr__(self, "_rate_scale", self.gamma * self.r_gas * self.t_gas / self.volume)
        # Fused RK4 holds built by rk4_hold, keyed by load model.
        object.__setattr__(self, "_kernels", {})

    def __getstate__(self) -> dict:
        # Holds are closures, which do not pickle; a copy builds its own.
        return {**self.__dict__, "_kernels": {}}

    @property
    def gas_energy(self) -> float:
        """gamma * R * T, the factor converting mass flow to pressure rate per volume."""
        return self.gamma * self.r_gas * self.t_gas


@dataclass(frozen=True)
class PlantState:
    """Outlet pressure and simulation time."""

    p_out: float
    t: float = 0.0


@dataclass(frozen=True)
class LoadModel:
    """Outlet load volume, either fixed or pressure-dependent (soft bellow).

    The affine-bellow law is V(p) = clamp(v0 + k_v * (p - p_atm), v_min, v_max),
    a quasi-static substitution: volume change rates are neglected in the
    pressure dynamics.
    """

    kind: str = "fixed"
    v0: float = 2.0e-5
    k_v: float = 0.0
    v_min: float = 1.0e-6
    v_max: float = 2.5e-5

    def __post_init__(self) -> None:
        if self.kind not in ("fixed", "affine-bellow"):
            raise ValueError(f"unknown load kind {self.kind!r}")
        if self.kind == "affine-bellow" and not (0.0 <= self.v_min < self.v_max):
            raise ValueError("bellow volume bounds must satisfy 0 <= v_min < v_max")
        if self.v0 <= 0.0:
            raise ValueError("v0 must be positive")

    @classmethod
    def fixed(cls, volume: float) -> "LoadModel":
        return cls(kind="fixed", v0=volume)

    @classmethod
    def affine_bellow(cls, v0: float, k_v: float, v_min: float, v_max: float) -> "LoadModel":
        return cls(kind="affine-bellow", v0=v0, k_v=k_v, v_min=v_min, v_max=v_max)

    def volume_at(self, p: float, p_atm: float) -> float:
        if self.kind == "fixed":
            return self.v0
        v = self.v0 + self.k_v * (p - p_atm)
        if v < self.v_min:
            return self.v_min
        if v > self.v_max:
            return self.v_max
        return v


class BranchFlows(NamedTuple):
    """Mass flows of the four branches at a given outlet pressure, kg/s."""

    a_po: float
    a_on: float
    a_oa: float
    a_ao: float


# Pressures may poke marginally past the source bounds inside integrator
# stages before clamping; tolerate a small overshoot before rejecting.
_DOMAIN_SLACK = 1e-6


def shape_factor(r: float, b: float) -> float:
    """Subsonic attenuation of orifice flow versus downstream/upstream ratio.

    Equals 1 for choked flow (r <= b), falls on a quarter ellipse for
    b < r < 1, and is 0 for r >= 1.  Total and continuous in r >= 0.
    """
    if r <= b:
        return 1.0
    if r >= 1.0:
        return 0.0
    z = (r - b) / (1.0 - b)
    arg = 1.0 - z * z
    if arg <= 0.0:
        return 0.0
    return math.sqrt(arg)


def _check_pressure(p: float, params: PlantParams) -> None:
    lo = params.p_neg * (1.0 - _DOMAIN_SLACK)
    hi = params.p_pos * (1.0 + _DOMAIN_SLACK)
    if not (lo <= p <= hi):
        raise ValueError(
            f"outlet pressure {p!r} Pa outside [{params.p_neg}, {params.p_pos}]"
        )


def branch_flows(p: float, params: PlantParams) -> BranchFlows:
    """Evaluate all four branch mass flows at outlet pressure ``p``."""
    p_neg, p_pos, p_atm, b = params.p_neg, params.p_pos, params.p_atm, params.b
    if not (p_neg * (1.0 - _DOMAIN_SLACK) <= p <= p_pos * (1.0 + _DOMAIN_SLACK)):  # _check_pressure
        raise ValueError(f"outlet pressure {p!r} Pa outside [{p_neg}, {p_pos}]")
    a_po = params._k_po * shape_factor(p / p_pos, b)
    a_on = params._k_on * p * shape_factor(p_neg / p, b)
    a_oa = params._k_oa * p * shape_factor(p_atm / p, b)
    a_ao = params._k_ao * shape_factor(p / p_atm, b)
    return BranchFlows(a_po, a_on, a_oa, a_ao)


def drift(p: float, params: PlantParams) -> float:
    """Input-free pressure rate from the atmospheric exchange branches, Pa/s.

    Zero at atmospheric pressure; pulls the outlet toward atmosphere from
    either side.
    """
    _, _, a_oa, a_ao = branch_flows(p, params)
    return params._rate_scale * (a_ao - a_oa)


def gain(p: float, m: Mode, params: PlantParams) -> float:
    """Pressure rate per unit spool fraction in mode ``m``, Pa/s."""
    a_po, a_on, a_oa, a_ao = branch_flows(p, params)
    if m == _INFLATION:
        q = a_po - a_ao + a_oa
    else:
        q = -a_on - a_ao + a_oa
    return params._rate_scale * q


def net_outlet_flow(x_bar: float, p: float, m: Mode, params: PlantParams) -> float:
    """Net mass flow into the outlet, kg/s.

    The delivery valve passes the main branch scaled by the spool fraction
    ``x_bar`` while its complement leaks through the atmospheric path; the
    active pair of branches depends on the mode and on which side of
    atmosphere the outlet sits.
    """
    if not (-1e-12 <= x_bar <= 1.0 + 1e-12):
        raise ValueError(f"spool fraction {x_bar!r} outside [0, 1]")
    _check_pressure(p, params)
    b = params.b
    if m == Mode.INFLATION:
        main = x_bar * params._k_po * shape_factor(p / params.p_pos, b)
    else:
        main = -x_bar * params._k_on * p * shape_factor(params.p_neg / p, b)
    if p >= params.p_atm:
        leak = -(1.0 - x_bar) * params._k_oa * p * shape_factor(params.p_atm / p, b)
    else:
        leak = (1.0 - x_bar) * params._k_ao * shape_factor(p / params.p_atm, b)
    return main + leak


def pressure_rate(
    p: float,
    x_bar: float,
    m: Mode,
    params: PlantParams,
    load: Optional[LoadModel] = None,
) -> float:
    """Outlet pressure rate dp/dt, Pa/s, with the load volume evaluated at p."""
    if p < params.p_neg:
        p = params.p_neg
    elif p > params.p_pos:
        p = params.p_pos
    volume = params.volume if load is None else load.volume_at(p, params.p_atm)
    return params.gas_energy / volume * net_outlet_flow(x_bar, p, m, params)


# One RK4 step (p, dt) -> next clamped p at a held spool fraction and mode.
HeldStep = Callable[[float, float], float]
# The held step of (x_bar, inflation).
Hold = Callable[[float, bool], HeldStep]


def _build_hold(params: PlantParams, load: Optional[LoadModel]) -> Hold:
    """Fuse ``pressure_rate`` into one RK4 step per held input, every constant hoisted.

    Each expression keeps the association order of ``net_outlet_flow`` and
    ``pressure_rate``, and :func:`shape_factor` is inlined with ``1.0 - b``
    hoisted, so a held step is bit-identical to four rate evaluations
    combined by the classic RK4 weights.  A branch whose coefficient is zero
    (the main branch at ``x_bar`` of 0, the leak at 1) is skipped: its term
    is a signed zero, which leaves a nonzero sum unchanged, and a zero rate
    of either sign leaves every stage pressure ``p > 0`` as it is.
    """
    p_neg, p_pos, p_atm, b = params.p_neg, params.p_pos, params.p_atm, params.b
    one_minus_b = 1.0 - b
    k_po, k_on, k_oa, k_ao = params._k_po, params._k_on, params._k_oa, params._k_ao
    energy = params.gas_energy
    bellow = load is not None and load.kind == "affine-bellow"
    if bellow:
        v0, k_v, v_min, v_max = load.v0, load.k_v, load.v_min, load.v_max
    else:
        energy_per_volume = energy / (params.volume if load is None else load.v0)
    sqrt, isfinite = math.sqrt, math.isfinite

    def hold(x_bar: float, inflation: bool) -> HeldStep:
        if not (-1e-12 <= x_bar <= 1.0 + 1e-12):
            raise ValueError(f"spool fraction {x_bar!r} outside [0, 1]")
        c_main = x_bar * k_po if inflation else -x_bar * k_on
        c_out = -(1.0 - x_bar) * k_oa
        c_in = (1.0 - x_bar) * k_ao
        main_on = c_main != 0.0
        leak_on = not main_on or c_out != 0.0 or c_in != 0.0

        def rate(p: float) -> float:
            if p < p_neg:
                p = p_neg
            elif p > p_pos:
                p = p_pos
            elif p != p:
                raise ValueError(f"outlet pressure {p!r} Pa outside [{p_neg}, {p_pos}]")
            if bellow:
                v = v0 + k_v * (p - p_atm)
                if v < v_min:
                    v = v_min
                elif v > v_max:
                    v = v_max
                scale = energy / v
            else:
                scale = energy_per_volume
            if leak_on:
                if p >= p_atm:
                    r = p_atm / p
                    if r <= b:
                        s = 1.0
                    elif r >= 1.0:
                        s = 0.0
                    else:
                        z = (r - b) / one_minus_b
                        arg = 1.0 - z * z
                        s = 0.0 if arg <= 0.0 else sqrt(arg)
                    leak = c_out * p * s
                else:
                    r = p / p_atm
                    if r <= b:
                        s = 1.0
                    elif r >= 1.0:
                        s = 0.0
                    else:
                        z = (r - b) / one_minus_b
                        arg = 1.0 - z * z
                        s = 0.0 if arg <= 0.0 else sqrt(arg)
                    leak = c_in * s
                if not main_on:
                    return scale * leak
            if inflation:
                r = p / p_pos
                if r <= b:
                    s = 1.0
                elif r >= 1.0:
                    s = 0.0
                else:
                    z = (r - b) / one_minus_b
                    arg = 1.0 - z * z
                    s = 0.0 if arg <= 0.0 else sqrt(arg)
                main = c_main * s
            else:
                r = p_neg / p
                if r <= b:
                    s = 1.0
                elif r >= 1.0:
                    s = 0.0
                else:
                    z = (r - b) / one_minus_b
                    arg = 1.0 - z * z
                    s = 0.0 if arg <= 0.0 else sqrt(arg)
                main = c_main * p * s
            if leak_on:
                return scale * (main + leak)
            return scale * main

        def step(p: float, dt: float) -> float:
            if dt <= 0.0:
                raise ValueError("dt must be positive")
            half = 0.5 * dt
            k1 = rate(p)
            k2 = rate(p + half * k1)
            k3 = rate(p + half * k2)
            k4 = rate(p + dt * k3)
            p_new = p + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not isfinite(p_new):
                raise ArithmeticError(f"integration diverged from p={p!r} Pa over dt={dt!r} s")
            if p_new < p_neg:
                return p_neg
            if p_new > p_pos:
                return p_pos
            return p_new

        return step

    return hold


def rk4_hold(params: PlantParams, load: Optional[LoadModel] = None) -> Hold:
    """The fused RK4 step of one channel, specialised per held input.

    ``rk4_hold(params, load)(x_bar, inflation)`` checks the spool fraction
    and returns ``step(p, dt) -> p_next``.  Built once per load and cached on
    ``params``.  Loops that hold the spool fraction and mode over many steps
    take one held step and call it per step.
    """
    hold = params._kernels.get(load)
    if hold is None:
        hold = params._kernels[load] = _build_hold(params, load)
    return hold


def step(
    state: PlantState,
    x_bar: float,
    m: Mode,
    dt: float,
    params: PlantParams,
    load: Optional[LoadModel] = None,
) -> PlantState:
    """Advance the outlet pressure by one classic fourth-order step of size dt.

    Inputs are held constant over the step (zero-order hold).  The result is
    clamped to [p_neg, p_pos]: the sources physically bound the pressure.
    """
    return PlantState(rk4_hold(params, load)(x_bar, m == _INFLATION)(state.p_out, dt), state.t + dt)
