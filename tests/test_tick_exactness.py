"""The DM-SMC and PID ticks are exact.

Each tick is compared bit for bit, duty and every state field, signed zeros
included, with the form it replaced, kept here: ``smc_update`` and
``pid_update`` over frozen-dataclass states, ``branch_flows`` through
``_check_pressure``, and ``drift`` and ``gain`` through the flow record's
attributes and ``gas_energy / volume``.  The kept ``smc_update`` inverts the
spool map with the bisection that carries ``f_lo`` and clips each cubic
value, which ``invert_spool`` also matches on maps that clip.
"""

import dataclasses
import math
import struct
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pneuctrl.control as control
import pneuctrl.plant as new_plant
from pneuctrl.config import default_maps, default_pid_gains, default_plant, default_smc_gains, default_supervisor
from pneuctrl.control import ControllerState, PidState, pid_update, smc_update
from pneuctrl.plant import BranchFlows, Conductances, Mode, PlantParams, shape_factor
from pneuctrl.valvemap import SpoolMap
from pneuctrl.valvemap import invert_spool as new_invert_spool
from test_loop_exactness import bisect_invert_spool as invert_spool

PARAMS = default_plant()
MAPS = default_maps()
SMC_GAINS = default_smc_gains()
PID_GAINS = default_pid_gains()
SUPERVISOR = default_supervisor()
DT = 0.01

GAIN_GUARD_REL = control.GAIN_GUARD_REL
_DOMAIN_SLACK = 1e-6


def _check_pressure(p: float, params: PlantParams) -> None:
    lo = params.p_neg * (1.0 - _DOMAIN_SLACK)
    hi = params.p_pos * (1.0 + _DOMAIN_SLACK)
    if not (lo <= p <= hi):
        raise ValueError(
            f"outlet pressure {p!r} Pa outside [{params.p_neg}, {params.p_pos}]"
        )


def branch_flows(p: float, params: PlantParams) -> BranchFlows:
    """Evaluate all four branch mass flows at outlet pressure ``p``."""
    _check_pressure(p, params)
    b = params.b
    a_po = params._k_po * shape_factor(p / params.p_pos, b)
    a_on = params._k_on * p * shape_factor(params.p_neg / p, b)
    a_oa = params._k_oa * p * shape_factor(params.p_atm / p, b)
    a_ao = params._k_ao * shape_factor(p / params.p_atm, b)
    return BranchFlows(a_po, a_on, a_oa, a_ao)


def drift(p: float, params: PlantParams) -> float:
    flows = branch_flows(p, params)
    return params.gas_energy / params.volume * (flows.a_ao - flows.a_oa)


def gain(p: float, m: Mode, params: PlantParams) -> float:
    flows = branch_flows(p, params)
    if m == Mode.INFLATION:
        q = flows.a_po - flows.a_ao + flows.a_oa
    else:
        q = -flows.a_on - flows.a_ao + flows.a_oa
    return params.gas_energy / params.volume * q


plant_mod = SimpleNamespace(drift=drift, gain=gain)


@dataclass(frozen=True)
class OldControllerState:
    mode: Mode
    e_int: float = 0.0
    s: float = 0.0
    x_star: float = 0.0
    gain_guard: bool = False


@dataclass(frozen=True)
class OldPidState:
    mode: Mode
    e_int: tuple[float, float] = (0.0, 0.0)
    e_prev: tuple[Optional[float], Optional[float]] = (None, None)


def select_mode(p, p_ref, cfg, m_prev):
    if p <= p_ref - cfg.h:
        return Mode.INFLATION
    if p >= p_ref + cfg.h:
        return Mode.DEFLATION
    return m_prev


def sat(z):
    if z > 1.0:
        return 1.0
    if z < -1.0:
        return -1.0
    return z


def _gain_guard_threshold(m, params):
    if m == Mode.INFLATION:
        p_mid = 0.5 * (params.p_atm + params.p_pos)
    else:
        p_mid = 0.5 * (params.p_neg + params.p_atm)
    return GAIN_GUARD_REL * abs(plant_mod.gain(p_mid, m, params))


def old_smc_update(state, p, p_ref, p_ref_rate, gains, params, maps, cfg, dt):
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    mode = select_mode(p, p_ref, cfg, state.mode)
    e_int = state.e_int
    g = gains[mode]
    spool_map = maps[mode]

    e = p - p_ref
    e_int_next = e_int + e * dt
    s = g.lam * e + g.k_i * e_int_next
    if abs(s) > g.mu:
        e_int_next = e_int
        s = g.lam * e + g.k_i * e_int_next

    p_model = min(max(p, params.p_neg), params.p_pos)
    f = plant_mod.drift(p_model, params)
    g_m = plant_mod.gain(p_model, mode, params)
    numerator = -f + p_ref_rate - s - (g.eta / g.lam) * sat(s / g.mu) - (g.k_i / g.lam) * e

    guard = False
    if abs(g_m) < _gain_guard_threshold(mode, params):
        guard = True
        g_sign = 1.0 if mode == Mode.INFLATION else -1.0
        x_raw = math.inf if numerator * g_sign > 0.0 else 0.0
    else:
        x_raw = numerator / g_m

    x_star = min(1.0, max(0.0, x_raw))
    if x_raw < 0.0 or x_raw > 1.0:
        e_int_next = e_int
    u = invert_spool(x_star, spool_map)
    return u, OldControllerState(mode=mode, e_int=e_int_next, s=s, x_star=x_star, gain_guard=guard)


def old_pid_update(state, p, p_ref, gains, cfg, dt):
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    mode = select_mode(p, p_ref, cfg, state.mode)
    g = gains[mode]
    e = (p_ref - p) / 1000.0 if mode == Mode.INFLATION else (p - p_ref) / 1000.0
    e_prev = state.e_prev[mode]
    de = 0.0 if e_prev is None else (e - e_prev) / dt
    e_int = state.e_int[mode]
    u_raw = g.k_p * e + g.k_i * e_int + g.k_d * de
    u = min(100.0, max(0.0, u_raw))
    winds_deeper = (u_raw > 100.0 and e > 0.0) or (u_raw < 0.0 and e < 0.0)
    if not winds_deeper:
        e_int = e_int + e * dt

    e_ints = list(state.e_int)
    e_prevs = list(state.e_prev)
    e_ints[mode] = e_int
    e_prevs[mode] = e
    return u, OldPidState(mode=mode, e_int=(e_ints[0], e_ints[1]), e_prev=(e_prevs[0], e_prevs[1]))


def bits(x):
    """The exact value: a float's bytes (so -0.0 differs from 0.0), else the value itself."""
    if isinstance(x, float):
        return struct.pack("d", x)
    if isinstance(x, tuple):
        return tuple(bits(v) for v in x)
    return type(x), x


def same_state(new, old):
    return [bits(getattr(new, f.name)) for f in dataclasses.fields(old)] == [
        bits(getattr(old, f.name)) for f in dataclasses.fields(old)
    ]


def scaled_plant(volume, c_po, c_on, c_oa, c_ao):
    c = PARAMS.conductances
    return dataclasses.replace(
        PARAMS, volume=PARAMS.volume * volume,
        conductances=Conductances(c.c_po * c_po, c.c_on * c_on, c.c_oa * c_oa, c.c_ao * c_ao),
    )


_scale = st.floats(0.25, 4.0)
plants = st.just(PARAMS) | st.builds(scaled_plant, _scale, _scale, _scale, _scale, _scale)
finite = st.floats(allow_nan=False, allow_infinity=False)
# Inside the rails, past them as noisy samples land, on them, and anywhere finite.
pressures = (
    st.floats(PARAMS.p_neg, PARAMS.p_pos) | st.floats(-2e5, 6e5)
    | st.sampled_from([PARAMS.p_neg, PARAMS.p_atm, PARAMS.p_pos]) | finite
)
modes = st.sampled_from([Mode.INFLATION, Mode.DEFLATION])
# The default guard level, one that trips near the rails, and one that always trips.
guard_levels = st.sampled_from([GAIN_GUARD_REL, 0.5, 1e9])


@settings(max_examples=400, deadline=None)
@given(
    p=pressures, p_ref=pressures, p_ref_rate=st.floats(-1e6, 1e6) | st.just(0.0) | finite,
    e_int=st.floats(-1e4, 1e4) | finite, mode=modes, params=plants, guard_rel=guard_levels,
)
# The guard, with the demanded rate pointing up and then down.
@example(p=151325.0, p_ref=201325.0, p_ref_rate=0.0, e_int=0.0, mode=Mode.INFLATION,
         params=PARAMS, guard_rel=1e9)
@example(p=81325.0, p_ref=81325.0, p_ref_rate=0.0, e_int=0.0, mode=Mode.INFLATION,
         params=PARAMS, guard_rel=1e9)
@example(p=251325.0, p_ref=101325.0, p_ref_rate=0.0, e_int=0.0, mode=Mode.DEFLATION,
         params=PARAMS, guard_rel=1e9)
# The guard tripped by a gain that fades at the supply rail.
@example(p=PARAMS.p_pos, p_ref=PARAMS.p_pos + 1e4, p_ref_rate=0.0, e_int=0.0, mode=Mode.INFLATION,
         params=PARAMS, guard_rel=0.5)
@example(p=PARAMS.p_neg, p_ref=PARAMS.p_neg - 1e4, p_ref_rate=0.0, e_int=-0.0, mode=Mode.DEFLATION,
         params=PARAMS, guard_rel=0.5)
def test_smc_tick_matches_the_dataclass_tick(p, p_ref, p_ref_rate, e_int, mode, params, guard_rel):
    with mock.patch.object(control, "GAIN_GUARD_REL", guard_rel), \
            mock.patch.dict(globals(), GAIN_GUARD_REL=guard_rel):
        args = (p, p_ref, p_ref_rate, SMC_GAINS, params, MAPS, SUPERVISOR, DT)
        u, state = smc_update(ControllerState(mode=mode, e_int=e_int), *args)
        u_old, state_old = old_smc_update(OldControllerState(mode=mode, e_int=e_int), *args)
    assert bits(u) == bits(u_old)
    assert same_state(state, state_old)


@settings(max_examples=400, deadline=None)
@given(
    p=pressures, p_ref=pressures, mode=modes,
    e_int=st.tuples(st.floats(-1e4, 1e4) | finite, st.floats(-1e4, 1e4) | finite),
    e_prev=st.tuples(st.none() | st.floats(-1e3, 1e3) | finite, st.none() | st.floats(-1e3, 1e3) | finite),
)
def test_pid_tick_matches_the_dataclass_tick(p, p_ref, mode, e_int, e_prev):
    args = (p, p_ref, PID_GAINS, SUPERVISOR, DT)
    u, state = pid_update(PidState(mode=mode, e_int=e_int, e_prev=e_prev), *args)
    u_old, state_old = old_pid_update(OldPidState(mode=mode, e_int=e_int, e_prev=e_prev), *args)
    assert bits(u) == bits(u_old)
    assert same_state(state, state_old)


@settings(max_examples=300, deadline=None)
@given(p=st.floats(PARAMS.p_neg, PARAMS.p_pos), mode=modes, params=plants)
def test_drift_and_gain_match_the_attribute_forms(p, mode, params):
    assert bits(new_plant.drift(p, params)) == bits(drift(p, params))
    assert bits(new_plant.gain(p, mode, params)) == bits(gain(p, mode, params))
    assert bits(tuple(new_plant.branch_flows(p, params))) == bits(tuple(branch_flows(p, params)))


@pytest.mark.parametrize("p", [math.nan, PARAMS.p_neg * 0.99, PARAMS.p_pos * 1.01])
def test_branch_flows_rejects_what_the_pressure_check_rejected(p):
    with pytest.raises(ValueError) as old:
        branch_flows(p, PARAMS)
    with pytest.raises(ValueError) as new:
        new_plant.branch_flows(p, PARAMS)
    assert str(new.value) == str(old.value)


@pytest.mark.parametrize("new_cls, old_cls, values", [
    (ControllerState, OldControllerState,
     {"mode": Mode.DEFLATION, "e_int": -1.5, "s": 2.0, "x_star": 0.25, "gain_guard": True}),
    (PidState, OldPidState, {"mode": Mode.DEFLATION, "e_int": (1.0, -2.0), "e_prev": (None, 3.0)}),
])
def test_state_records_keep_their_public_surface(new_cls, old_cls, values):
    assert list(new_cls._fields) == [f.name for f in dataclasses.fields(old_cls)]
    # Keyword construction, defaults, and the repr shape.
    assert repr(new_cls(**values)) == repr(old_cls(**values)).replace(old_cls.__name__, new_cls.__name__)
    assert repr(new_cls(mode=Mode.INFLATION)) == repr(old_cls(mode=Mode.INFLATION)).replace(
        old_cls.__name__, new_cls.__name__)
    # Equality and hashing by value.
    state = new_cls(**values)
    assert state == new_cls(**values) and hash(state) == hash(new_cls(**values))
    assert state != new_cls(**{**values, "mode": Mode.INFLATION})
    # Immutability.
    for name in new_cls._fields:
        with pytest.raises(AttributeError):
            setattr(state, name, values[name])


# Maps whose cubic leaves [0, 1] inside the range: clipped to 1 from 79.97%
# duty on, inside a grid cell, and to 0 below about 33% duty.
CLIPPED_MAPS = (SpoolMap(a=(-0.1996, 0.015, 0.0, 0.0)), SpoolMap(a=(-0.5, 0.015, 0.0, 0.0)), *MAPS)


@settings(max_examples=300, deadline=None)
@given(spool_map=st.sampled_from(CLIPPED_MAPS), x=st.floats(0.0, 1.0) | st.floats(0.999, 1.0) | st.floats(0.0, 1e-3))
@example(spool_map=CLIPPED_MAPS[0], x=1.0)
@example(spool_map=CLIPPED_MAPS[0], x=math.nextafter(1.0, 0.0))
@example(spool_map=CLIPPED_MAPS[1], x=5e-324)
def test_inversion_without_the_clip_matches_the_helper_bisection(spool_map, x):
    assert new_invert_spool(x, spool_map) == invert_spool(x, spool_map)
