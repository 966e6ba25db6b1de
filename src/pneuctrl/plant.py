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
import sys
from dataclasses import dataclass, fields
from enum import IntEnum
from numbers import Integral, Real
from string import Template
from textwrap import indent
from typing import Any, Callable, Iterable, NamedTuple, Optional, Sequence


class Mode(IntEnum):
    """Polarity-selector state: 0 routes the vacuum line, 1 the supply line."""

    DEFLATION = 0
    INFLATION = 1


# Each mode by the name configs, options and files give it, in Mode index order.
MODE_NAMES = {m.name.lower(): m for m in Mode}

# Read once: on Python 3.11 each ``Mode.INFLATION`` is a slow class-attribute lookup.
_INFLATION, _DEFLATION = Mode.INFLATION, Mode.DEFLATION


# Bounded field types: plain ``float`` and ``int`` to a type checker, held to
# the bounds of FIELD_RULES by ``check_fields``, which reads each declared type.
Positive = NonNegative = Magnitude = Kpa = Pa = Hz = Seconds = Weight = float
Count = Steps = int
# The largest absolute pressure, or noise sigma, of the declared physical domain, Pa: within it and the
# other bounds of FIELD_RULES, every product the package forms of the quantities declared with them is finite.
PA_MAX = 1e9
SECONDS_MAX = 1e7   # the longest hold, duration or time step of the declared domain, s
_POSITIVE = (lambda v: v > 0, "must be positive")
_NON_NEGATIVE = (lambda v: v >= 0, "must be non-negative")
_AT_LEAST_ONE = (lambda v: v >= 1, "must be >= 1")
# Declared type -> (base type, *bounds): each bound a (test, message when it fails), tested in order.
# Why every rate the channel model forms is finite: with its constants of type Magnitude, p <= PA_MAX (a stage
# clamps p to the rails) and dt <= SECONDS_MAX, a branch flow, p * c * rho_ref * sqrt(t_ref / t_gas), is at most
# 1e9 * 1e90 = 1e99 kg/s; gamma * r_gas * t_gas / volume (volume >= 1e-30) is at most 1e120, so a pressure rate
# is at most about 1e220 Pa/s, and an RK4 increment, dt times a weighted mean of four rates, at most about
# 1e227 Pa: finite for any finite p, and then clamped.
FIELD_RULES = {
    "float": (float,), "int": (int,), "Mode": (Mode,),
    "Positive": (float, _POSITIVE),
    "Magnitude": (float, _POSITIVE, (lambda v: 1e-30 <= v <= 1e30, "must lie in [1e-30, 1e30]")),
    "NonNegative": (float, _NON_NEGATIVE),
    "Count": (int, _NON_NEGATIVE),
    "Kpa": (float, (lambda v: abs(v) <= 1e6, "must lie within ±1e6 kPa")),
    "Pa": (float, _NON_NEGATIVE, (lambda v: v <= PA_MAX, "must be at most 1e9 Pa")),
    "Hz": (float, _POSITIVE, (lambda v: 1e-6 <= v <= 1e6, "must lie in [1e-6, 1e6] Hz")),
    "Seconds": (float, _POSITIVE, (lambda v: v <= SECONDS_MAX, "must be at most 1e7 s")),
    "Steps": (int, _AT_LEAST_ONE, (lambda v: v <= 10**6, "must be at most 1e6")),
    "Weight": (float, _NON_NEGATIVE, (lambda v: v <= 1e100, "must be at most 1e100")),
}


def field_rule(declared: str) -> tuple:
    """The ``FIELD_RULES`` entry of a declared type's text, ``Optional[...]`` unwrapped; none for another."""
    return FIELD_RULES.get(declared[9:-1] if declared.startswith("Optional[") else declared, (None,))


def check_value(value: Any, declared: str, name: str) -> Any:
    """``value`` held to the rule of the declared type ``declared``; a ValueError naming ``name`` if it breaks it.

    A ``float`` type takes a finite real number, never a bool, as a float; an ``int`` type an
    integer, never a bool; ``Mode`` a ``Mode``; then the bounds apply.  Any other type takes anything.
    """
    base, *bounds = field_rule(declared)
    if base is float:
        if isinstance(value, bool) or not isinstance(value, Real):
            raise ValueError(f"{name} must be a real number, got {value!r}")
        # The comparison is exact for integers of any size and false for NaN.
        if not abs(value) <= sys.float_info.max:
            raise ValueError(f"{name} must be finite")
        value = float(value)
    elif base is int and (isinstance(value, bool) or not isinstance(value, Integral)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    elif base is Mode and not isinstance(value, Mode):
        raise ValueError(f"{name} must be a Mode, got {value!r}")
    for holds, breach in bounds:
        if not holds(value):
            raise ValueError(f"{name} {breach}")
    return value


def check_fields(record: Any) -> None:
    """Hold each ``init`` field of a record to its declared type (:func:`check_value`); ``Optional`` takes None.

    The first field to break its rule is named in a ValueError.  ``init=False`` fields, derived, are skipped.
    """
    # The package postpones annotations, so each declared type is its source text.
    for f in (f for f in fields(record) if f.init):
        value = getattr(record, f.name)
        if value is not None or not f.type.startswith("Optional["):
            object.__setattr__(record, f.name, check_value(value, f.type, f.name))


class Checked:
    """Base of the parameter records: a dataclass inheriting it is held to :func:`check_fields` when built."""

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True)
class Conductances(Checked):
    """Sonic conductances of the four flow branches, m^3 s^-1 Pa^-1.

    Branches are named upstream-to-downstream: positive source to outlet
    (po), outlet to negative sink (on), outlet to atmosphere (oa), and
    atmosphere to outlet (ao).
    """

    c_po: Magnitude
    c_on: Magnitude
    c_oa: Magnitude
    c_ao: Magnitude


@dataclass(frozen=True)
class PlantParams(Checked):
    """Physical constants of one pneumatic channel."""

    p_pos: Pa           # supply absolute pressure
    p_neg: Pa           # vacuum absolute pressure
    p_atm: Pa           # atmospheric absolute pressure
    b: float            # critical pressure ratio
    rho_ref: Magnitude  # gas density at reference conditions, kg/m^3
    t_ref: Magnitude    # reference temperature, K
    t_gas: Magnitude    # gas temperature, K
    gamma: Magnitude    # heat-capacity ratio
    r_gas: Magnitude    # specific gas constant, J/(kg K)
    volume: Magnitude   # outlet volume, m^3
    conductances: Conductances

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (0.0 < self.p_neg < self.p_atm < self.p_pos):
            raise ValueError("pressures must satisfy 0 < p_neg < p_atm < p_pos")
        if not (0.0 < self.b < 1.0):
            raise ValueError("critical ratio b must lie in (0, 1)")
        if not self.gamma > 1.0:
            raise ValueError("gamma must exceed 1")
        # Cached products used in the flow hot path; _rate_scale is gas_energy / volume.
        temp_corr = math.sqrt(self.t_ref / self.t_gas)
        c = self.conductances
        object.__setattr__(self, "_k_po", self.p_pos * c.c_po * self.rho_ref * temp_corr)
        object.__setattr__(self, "_k_on", c.c_on * self.rho_ref * temp_corr)
        object.__setattr__(self, "_k_oa", c.c_oa * self.rho_ref * temp_corr)
        object.__setattr__(self, "_k_ao", self.p_atm * c.c_ao * self.rho_ref * temp_corr)
        object.__setattr__(self, "_rate_scale", self.gamma * self.r_gas * self.t_gas / self.volume)
        # The constants branch_flows reads, in the order it unpacks them.
        object.__setattr__(self, "_flow", (self.p_neg, self.p_pos, self.p_atm, self.b, 1.0 - self.b,
                                           self._k_po, self._k_on, self._k_oa, self._k_ao))
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
class LoadModel(Checked):
    """Outlet load volume, either fixed or pressure-dependent (soft bellow).

    The affine-bellow law is V(p) = clamp(v0 + k_v * (p - p_atm), v_min, v_max),
    a quasi-static substitution: volume change rates are neglected in the
    pressure dynamics.
    """

    kind: str = "fixed"
    v0: Magnitude = 2.0e-5
    k_v: float = 0.0
    v_min: float = 1.0e-6
    v_max: float = 2.5e-5

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.kind not in ("fixed", "affine-bellow"):
            raise ValueError(f"kind must be 'fixed' or 'affine-bellow', got {self.kind!r}")
        if self.kind == "affine-bellow":
            if not (0.0 < self.v_min < self.v_max):
                raise ValueError("v_min must satisfy 0 < v_min < v_max for a bellow")
            for name in ("v_min", "v_max"):
                check_value(getattr(self, name), "Magnitude", name)

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
        # On a bound both branches return it (equivalent mutants: <= and >= below).
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


# A direct caller of ``branch_flows`` may pass a pressure marginally past a rail, as rounding leaves it;
# tolerate a small overshoot before rejecting.  The generated stages clamp their own.
_DOMAIN_SLACK = 1e-6


def shape_factor(r: float, b: float) -> float:
    """Subsonic attenuation of orifice flow versus downstream/upstream ratio.

    Equals 1 for choked flow (r <= b), falls on a quarter ellipse for
    b < r < 1, and is 0 for r >= 1.  Total and continuous in r >= 0.
    """
    # The ellipse gives 1.0 at r == b and 0.0 at r == 1 (z is 0.0 and exactly 1.0), as these
    # branches do (equivalent mutants: < and >).
    if r <= b:
        return 1.0
    if r >= 1.0:
        return 0.0
    # Monotone rounding gives fl(r - b) <= fl(1 - b), so z <= 1 and 1.0 - z * z >= +0.0, whose sqrt is +0.0.
    z = (r - b) / (1.0 - b)
    return math.sqrt(1.0 - z * z)


# s = shape_factor(r, b), with 1.0 - b hoisted; like it, the same at r == b and r == 1 with < and >.
_SHAPE = """\
if r <= b:
    s = 1.0
elif r >= 1.0:
    s = 0.0
else:
    z = (r - b) / one_minus_b
    s = sqrt(1.0 - z * z)
"""
# Source of ``branch_flows``: each flow ``k * shape_factor(ratio, b)`` (times p for a_on and a_oa) with the
# shape factor inline, as in the stages, and the channel's constants read from one tuple, ``params._flow``.
_FLOWS = "".join(f"r = {ratio}\n{_SHAPE}{flow} = {k} * s\n" for ratio, flow, k in (
    ("p / p_pos", "a_po", "k_po"), ("p_neg / p", "a_on", "k_on * p"),
    ("p_atm / p", "a_oa", "k_oa * p"), ("p / p_atm", "a_ao", "k_ao")))
_BRANCH_FLOWS = f"""\
def branch_flows(p, params):
    p_neg, p_pos, p_atm, b, one_minus_b, k_po, k_on, k_oa, k_ao = params._flow
    if not (p_neg * (1.0 - {_DOMAIN_SLACK!r}) <= p <= p_pos * (1.0 + {_DOMAIN_SLACK!r})):
        raise ValueError(f"outlet pressure {{p!r}} Pa outside [{{p_neg}}, {{p_pos}}]")
{indent(_FLOWS, "    ")}    return new(BranchFlows, (a_po, a_on, a_oa, a_ao))
"""
_namespace = {"__name__": __name__, "sqrt": math.sqrt, "new": tuple.__new__, "BranchFlows": BranchFlows}
exec(compile(_BRANCH_FLOWS, "<pneuctrl.plant branch_flows>", "exec"), _namespace)
branch_flows: Callable[[float, PlantParams], BranchFlows] = _namespace["branch_flows"]
branch_flows.__doc__ = """Evaluate all four branch mass flows at outlet pressure ``p``.

A pressure past a rail by more than ``_DOMAIN_SLACK`` of it raises ValueError."""


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


# ``n`` RK4 steps (p, dt, n=1) -> next clamped p at a held input, ending at a step that returns its input.
HeldStep = Callable[..., float]
# The held step of (x_bar, inflation).
Hold = Callable[[float, bool], HeldStep]
# One RK4 step per gap of a list of sample times, (p0, times, meas, limit) -> the clamped pressure at each
# sample reached: the held step's walk over a trace, stopping where the running squared mismatch passes ``limit``.
SampleWalk = Callable[[float, Sequence[float], Iterable[float], float], list]

# The locals of a generated step or walk: the channel constants ``make`` takes, then the coefficients ``bind``
# takes, each bound as a trailing positional default so that the body reads it as a local.
_LOCALS = ("p_neg", "p_pos", "p_atm", "b", "one_minus_b", "energy", "energy_per_volume", "v0", "k_v", "v_min",
           "v_max", "sqrt", "inf", "c_main", "c_out", "c_in")
# Source of the held step: ``make(channel constants)(c_main, c_out, c_in)`` is the step of one held input.
# $body is four inlined rate evaluations and the clamped RK4 update ``p_new`` of ``p`` over ``dt``.
_STEP = Template("""\
def make($channel):
    def bind(c_main, c_out, c_in):
        def step(p, dt, n=1, $defaults):
            if not -inf < p < inf:
                raise ValueError(f"outlet pressure {p!r} Pa is not finite")
            if not 0.0 < dt <= $seconds_max:
                raise ValueError("dt must be positive and at most 1e7 s")
            half = 0.5 * dt
            sixth = dt / 6.0
            while True:
$body
                n -= 1
                if n <= 0 or p_new == p:
                    return p_new
                p = p_new
        return step
    return bind
""")
# Source of the sample walk, made and bound as the held step is: the same $body once per sample gap.
_WALK = Template("""\
def make($channel):
    def bind(c_main, c_out, c_in):
        def walk(p, times, meas, limit, $defaults):
            if not -inf < p < inf:
                raise ValueError(f"outlet pressure {p!r} Pa is not finite")
            out = [p]
            ts = iter(times)
            t0 = next(ts, None)
            ms = iter(meas)
            d = p - next(ms, p)
            sse = d * d
            for t1, m in zip(ts, ms):
                dt = t1 - t0
                t0 = t1
                if not 0.0 < dt <= $seconds_max:
                    raise ValueError("dt must be positive and at most 1e7 s")
                half = 0.5 * dt
                sixth = dt / 6.0
$body
                p = p_new
                out.append(p)
                d = p - m
                sse += d * d
                if sse > limit and sse < inf:
                    break
            return out
        return walk
    return bind
""")
# A clamp on its bound gives the value it holds (equivalent mutants: <= and >=), as do those of q and v below.
_ADVANCE = """\
p_new = p + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
if p_new < p_neg:
    p_new = p_neg
elif p_new > p_pos:
    p_new = p_pos
"""
# $k = rate($q): clamp, volume, leak, main, combine.
_RATE = Template("""\
q = $q
if q < p_neg:
    q = p_neg
elif q > p_pos:
    q = p_pos
$volume$leak$main$k = $scale * $flow
""")
_BELLOW = """\
v = v0 + k_v * (q - p_atm)
if v < v_min:
    v = v_min
elif v > v_max:
    v = v_max
scale = energy / v
"""
# At q == p_atm both branches give a zero leak, +0.0 or -0.0, which leaves p as it is (equivalent mutant: >).
_LEAK = f"""\
if q >= p_atm:
    r = p_atm / q
{indent(_SHAPE, "    ")}    leak = c_out * q * s
else:
    r = q / p_atm
{indent(_SHAPE, "    ")}    leak = c_in * s
"""
_MAIN = {True: f"r = q / p_pos\n{_SHAPE}main = c_main * s\n",
         False: f"r = p_neg / q\n{_SHAPE}main = c_main * q * s\n"}
# The compiled ``make`` of each (bellow, inflation, main_on, leak_on), built on first use: of its held step,
# and, apart, of its sample walk, which only identification calls.
_VARIANTS: dict = {}
_WALKS: dict = {}


def _variant(bellow: bool, inflation: bool, main_on: bool, leak_on: bool, walk: bool = False) -> Callable:
    """The held-step maker of one variant, or its sample-walk maker; the body tests none of the four flags."""
    key = (bellow, inflation, main_on, leak_on)
    cache, template = (_WALKS, _WALK) if walk else (_VARIANTS, _STEP)
    if key not in cache:
        branches = "main+leak" if main_on and leak_on else "main" if main_on else "leak"
        stages = "".join(_RATE.substitute(
            q=q, k=k, volume=_BELLOW if bellow else "", scale="scale" if bellow else "energy_per_volume",
            leak=_LEAK if leak_on else "", main=_MAIN[inflation] if main_on else "",
            flow="(main + leak)" if main_on and leak_on else branches,
        ) for q, k in (("p", "k1"), ("p + half * k1", "k2"), ("p + half * k2", "k3"), ("p + dt * k3", "k4")))
        name = f"{'bellow' if bellow else 'fixed'}, {'inflation' if inflation else 'deflation'}, {branches}"
        source = template.substitute(
            channel=", ".join(_LOCALS[:-3]), defaults=", ".join(f"{v}={v}" for v in _LOCALS),
            body=indent(stages + _ADVANCE, " " * 16), seconds_max=SECONDS_MAX,
        )
        namespace: dict = {}
        exec(compile(source, f"<pneuctrl.plant held step: {name}>", "exec"), namespace)
        cache[key] = namespace["make"]
    return cache[key]


def _build_hold(params: PlantParams, load: Optional[LoadModel]) -> Hold:
    """The outlet pressure rate inlined into one RK4 step per held input, every constant hoisted.

    Each expression keeps the association order of the tests' reference rate
    (``tests/plant_reference.py``), so a held step is bit-identical to four
    rate evaluations combined by the classic RK4 weights.  The load kind, the mode
    and the branches taken select the variant.  A branch with a zero
    coefficient (main at ``x_bar`` 0, leak at 1) is left out: its signed-zero
    term leaves a nonzero sum unchanged, and a zero rate leaves ``p > 0`` as is.
    """
    load = LoadModel.fixed(params.volume) if load is None else load
    bellow = load.kind == "affine-bellow"
    channel = (
        params.p_neg, params.p_pos, params.p_atm, params.b, 1.0 - params.b,
        params.gas_energy, params.gas_energy / load.v0,
        load.v0, load.k_v, load.v_min, load.v_max, math.sqrt, math.inf,
    )
    k_po, k_on, k_oa, k_ao = params._k_po, params._k_on, params._k_oa, params._k_ao
    binds: dict = {}   # (walk, inflation, main_on, leak_on) -> its variant's held-step or sample-walk make(*channel)

    def bound(walk: bool, x_bar: float, inflation: bool) -> Callable:
        """The held step, or the sample walk, of the held input, its three branch coefficients bound."""
        if not (-1e-12 <= x_bar <= 1.0 + 1e-12):
            raise ValueError(f"spool fraction {x_bar!r} outside [0, 1]")
        c_main = x_bar * k_po if inflation else -x_bar * k_on
        c_out = -(1.0 - x_bar) * k_oa
        c_in = (1.0 - x_bar) * k_ao
        main_on = c_main != 0.0
        leak_on = not main_on or c_out != 0.0 or c_in != 0.0
        key = (walk, inflation, main_on, leak_on)
        if key not in binds:
            binds[key] = _variant(bellow, bool(inflation), main_on, leak_on, walk)(*channel)
        return binds[key](c_main, c_out, c_in)

    def hold(x_bar: float, inflation: bool) -> HeldStep:
        return bound(False, x_bar, inflation)

    def walk(x_bar: float, inflation: bool) -> SampleWalk:
        return bound(True, x_bar, inflation)

    hold.walk = walk    # type: ignore[attr-defined]
    return hold


def rk4_hold(params: PlantParams, load: Optional[LoadModel] = None) -> Hold:
    """The generated RK4 step of one channel, specialised per held input.

    ``rk4_hold(params, load)(x_bar, inflation)`` checks the spool fraction
    and returns ``step(p, dt, n=1) -> p_next``: ``n`` RK4 steps of ``dt`` (one
    at ``n <= 0``), ending early, and exactly, at the first that returns its
    input, as the step is a pure function of ``p``.  It raises ValueError
    on a non-finite ``p`` or a ``dt`` outside (0, 1e7]; within the declared
    domain it raises nothing else.  Built once per load and cached on
    ``params``.  Loops that hold the input take one held step.

    ``rk4_hold(params, load).walk(x_bar, inflation)`` checks the same and
    returns the sample walk of that held input, generated from the same stage
    text: ``walk(p0, times, meas, limit) -> [p0, p1, ...]`` takes one held
    step ``step(p, t[i] - t[i-1])`` per sample gap, keeping each clamped
    pressure, and sums ``(p_i - meas_i) ** 2`` from sample 0 in sample
    order; it returns after the first sample at which ``sse > limit and sse
    < inf``, so a NaN or inf sum, or an infinite ``limit``, never stops it.
    Each step raises as the held step would, at the same gap.
    """
    hold = params._kernels.get(load)
    if hold is None:
        hold = params._kernels[load] = _build_hold(params, load)
    return hold


def step(
    p: float,
    x_bar: float,
    m: Mode,
    dt: float,
    params: PlantParams,
    load: Optional[LoadModel] = None,
) -> float:
    """The outlet pressure after one classic fourth-order step of size dt from ``p``.

    Inputs are held constant over the step (zero-order hold).  The result is
    clamped to [p_neg, p_pos]: the sources physically bound the pressure.
    """
    return rk4_hold(params, load)(x_bar, m == _INFLATION)(p, dt)
