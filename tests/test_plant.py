import math
import sys
from dataclasses import fields, replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pneuctrl.config import default_synthesis_dict, scenario_from_dict, synthesis_from_dict
from pneuctrl.plant import (
    _DOMAIN_SLACK,
    FIELD_RULES,
    Conductances,
    LoadModel,
    Mode,
    PlantParams,
    branch_flows,
    check_value,
    drift,
    field_rule,
    gain,
    rk4_hold,
    shape_factor,
    step,
)
from plant_reference import net_outlet_flow, pressure_rate


def euler_reference(p0, x_bar, m, duration, n_steps, params, load=None):
    """Independent fine-step forward-Euler integration used as an oracle."""
    p = p0
    dt = duration / n_steps
    for _ in range(n_steps):
        p += dt * pressure_rate(p, x_bar, m, params, load)
        p = min(max(p, params.p_neg), params.p_pos)
    return p


class TestShapeFactor:
    def test_choked(self):
        assert shape_factor(0.2, 0.26) == 1.0

    def test_blocked(self):
        assert shape_factor(1.2, 0.26) == 0.0

    def test_subsonic_value(self):
        # (0.63 - 0.26) / 0.74 = 0.5 -> sqrt(0.75)
        assert shape_factor(0.63, 0.26) == pytest.approx(0.8660, abs=1e-4)

    def test_continuous_at_breakpoints(self):
        b = 0.26
        for r0 in (b, 1.0):
            below = shape_factor(r0 - 1e-9, b)
            above = shape_factor(r0 + 1e-9, b)
            assert abs(below - above) < 1e-4

    def test_non_increasing_and_bounded(self):
        b = 0.26
        prev = 1.0
        for i in range(1001):
            r = b + (1.0 - b) * i / 1000.0
            v = shape_factor(r, b)
            assert 0.0 <= v <= 1.0
            assert v <= prev + 1e-12
            prev = v


class TestBranchFlows:
    def test_supply_chokes_at_source_pressure(self, params):
        assert branch_flows(params.p_pos, params).a_po == 0.0

    def test_atmospheric_branches_vanish_at_atm(self, params):
        flows = branch_flows(params.p_atm, params)
        assert flows.a_oa == 0.0
        assert flows.a_ao == 0.0

    def test_supply_flow_at_100_kpa_gauge(self, params):
        # hand evaluation: phi(201325/3e5) = 0.83150, k_po = 9.3852e-5 kg/s
        assert branch_flows(201325.0, params).a_po == pytest.approx(7.8038e-5, rel=1e-4)

    def test_all_non_negative_over_range(self, params):
        for i in range(101):
            p = params.p_neg + (params.p_pos - params.p_neg) * i / 100.0
            flows = branch_flows(p, params)
            assert min(flows) >= 0.0

    def test_out_of_range_pressure_rejected(self, params):
        with pytest.raises(ValueError):
            branch_flows(params.p_pos * 1.01, params)
        with pytest.raises(ValueError):
            branch_flows(params.p_neg * 0.5, params)


def shape_factor_flows(p, params):
    """The four branch flows as ``k * shape_factor(ratio, b)``, times ``p`` for a_on and a_oa."""
    b = params.b
    return (params._k_po * shape_factor(p / params.p_pos, b), params._k_on * p * shape_factor(params.p_neg / p, b),
            params._k_oa * p * shape_factor(params.p_atm / p, b), params._k_ao * shape_factor(p / params.p_atm, b))


@st.composite
def channels(draw):
    """A channel of drawn critical ratio, rails about a drawn atmosphere, conductances and gas constants."""
    p_atm = draw(st.floats(5e4, 2e5))
    magnitude = st.floats(1e-13, 1e-8)
    return PlantParams(
        p_pos=p_atm * draw(st.floats(1.01, 20.0)), p_neg=p_atm * draw(st.floats(0.01, 0.99)), p_atm=p_atm,
        b=draw(st.floats(0.01, 0.99)), rho_ref=draw(st.floats(0.5, 2.0)), t_ref=draw(st.floats(250.0, 350.0)),
        t_gas=draw(st.floats(250.0, 350.0)), gamma=1.4, r_gas=287.0, volume=2e-5,
        conductances=Conductances(*(draw(magnitude) for _ in range(4))))


# The pressures at which a flow's ratio is b or 1.
EDGES = {
    "b p_pos": lambda c: c.b * c.p_pos, "p_neg / b": lambda c: c.p_neg / c.b,
    "b p_atm": lambda c: c.b * c.p_atm, "p_atm / b": lambda c: c.p_atm / c.b,
    "p_atm": lambda c: c.p_atm, "p_pos": lambda c: c.p_pos, "p_neg": lambda c: c.p_neg,
}


class TestInlineFlows:
    """``branch_flows``, its shape factors inline, is ``shape_factor``'s form bit for bit, and so are
    ``drift`` and ``gain`` composed from it."""

    @staticmethod
    def check(p, params):
        want = shape_factor_flows(p, params)
        assert [a.hex() for a in branch_flows(p, params)] == [a.hex() for a in want], p
        a_po, a_on, a_oa, a_ao = want
        assert drift(p, params).hex() == (params._rate_scale * (a_ao - a_oa)).hex()
        assert gain(p, Mode.INFLATION, params).hex() == (params._rate_scale * (a_po - a_ao + a_oa)).hex()
        assert gain(p, Mode.DEFLATION, params).hex() == (params._rate_scale * (-a_on - a_ao + a_oa)).hex()

    @settings(max_examples=400, deadline=None)
    @given(params=channels(), frac=st.floats(0.0, 1.0))
    def test_across_the_slack_widened_rails(self, params, frac):
        lo, hi = params.p_neg * (1.0 - _DOMAIN_SLACK), params.p_pos * (1.0 + _DOMAIN_SLACK)
        self.check(min(lo + frac * (hi - lo), hi), params)

    @settings(max_examples=300, deadline=None)
    @given(params=channels(), edge=st.sampled_from(sorted(EDGES)), side=st.sampled_from([-1, 0, 1]))
    def test_where_a_ratio_is_b_or_1(self, params, edge, side):
        p = EDGES[edge](params)
        p = math.nextafter(p, side * math.inf) if side else p
        assume(params.p_neg * (1.0 - _DOMAIN_SLACK) <= p <= params.p_pos * (1.0 + _DOMAIN_SLACK))
        self.check(p, params)

    @pytest.mark.parametrize("edge", sorted(EDGES))
    def test_the_default_channel_where_a_ratio_is_b_or_1(self, params, edge):
        p = EDGES[edge](params)
        if params.p_neg <= p <= params.p_pos:   # p_atm / b lies past p_pos
            for q in (math.nextafter(p, -math.inf), p, math.nextafter(p, math.inf)):
                self.check(q, params)


class TestDrift:
    def test_zero_at_atmosphere(self, params):
        assert drift(params.p_atm, params) == 0.0

    def test_value_at_100_kpa_gauge(self, params):
        assert drift(201325.0, params) == pytest.approx(-9216.2, rel=1e-4)

    def test_positive_below_atmosphere(self, params):
        assert drift(81325.0, params) > 0.0

    def test_sign_matches_atmospheric_restoring(self, params):
        for i in range(1, 200):
            p = params.p_neg + (params.p_pos - params.p_neg) * i / 200.0
            d = drift(p, params)
            if abs(p - params.p_atm) < 1.0:
                continue
            assert math.copysign(1.0, d) == math.copysign(1.0, params.p_atm - p)


class TestGain:
    def test_inflation_gain_at_atm(self, params):
        assert gain(params.p_atm, Mode.INFLATION, params) == pytest.approx(5.4976e5, rel=1e-4)

    def test_inflation_gain_at_source_is_leak_only(self, params):
        flows = branch_flows(params.p_pos, params)
        expected = params.gas_energy / params.volume * flows.a_oa
        assert gain(params.p_pos, Mode.INFLATION, params) == pytest.approx(expected, rel=1e-12)

    def test_vacuum_branch_chokes_at_sink(self, params):
        flows = branch_flows(params.p_neg, params)
        assert flows.a_on == 0.0
        expected = params.gas_energy / params.volume * (-flows.a_ao + flows.a_oa)
        assert gain(params.p_neg, Mode.DEFLATION, params) == pytest.approx(expected, rel=1e-12)

    def test_gain_signs_over_grid(self, params):
        for i in range(1, 200):
            p = params.p_atm + (params.p_pos - params.p_atm) * i / 200.0
            assert gain(p, Mode.INFLATION, params) > 0.0
        for i in range(1, 200):
            p = params.p_neg + (params.p_atm - params.p_neg) * i / 200.0
            assert gain(p, Mode.DEFLATION, params) < 0.0


class TestNetOutletFlow:
    def test_closed_valve_above_atm_is_pure_leak(self, params):
        p = 151325.0
        expected = -branch_flows(p, params).a_oa
        assert net_outlet_flow(0.0, p, Mode.INFLATION, params) == pytest.approx(expected, rel=1e-12)

    def test_full_open_above_atm_is_pure_supply(self, params):
        p = 151325.0
        expected = branch_flows(p, params).a_po
        assert net_outlet_flow(1.0, p, Mode.INFLATION, params) == pytest.approx(expected, rel=1e-12)

    def test_half_open_deflation_at_atm(self, params):
        expected = -0.5 * branch_flows(params.p_atm, params).a_on
        assert net_outlet_flow(0.5, params.p_atm, Mode.DEFLATION, params) == pytest.approx(
            expected, rel=1e-12
        )

    def test_hybrid_form_equivalence_grid(self, params):
        k = params.gas_energy / params.volume
        for i in range(51):
            p = params.p_neg + (params.p_pos - params.p_neg) * i / 50.0
            flows = branch_flows(p, params)
            scale = k * (flows.a_po + flows.a_on + flows.a_oa + flows.a_ao)
            for m in (Mode.DEFLATION, Mode.INFLATION):
                for x in (0.0, 0.25, 0.5, 0.75, 1.0):
                    lhs = drift(p, params) + gain(p, m, params) * x
                    rhs = k * net_outlet_flow(x, p, m, params)
                    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs), scale)


class TestStep:
    def test_equilibrium_is_stationary(self, params):
        assert step(params.p_atm, 0.0, Mode.DEFLATION, 1e-3, params) == params.p_atm

    def test_full_open_initial_slope(self, params):
        out = step(params.p_atm, 1.0, Mode.INFLATION, 1e-3, params)
        # initial slope ~5.50e5 Pa/s, slightly concave over the step
        assert out - params.p_atm == pytest.approx(550.0, rel=0.02)

    def test_matches_fine_euler_oracle(self, params):
        p0 = 151325.0
        out = step(p0, 0.7, Mode.INFLATION, 0.01, params)
        ref = euler_reference(p0, 0.7, Mode.INFLATION, 0.01, 1000, params)
        assert out == pytest.approx(ref, rel=1e-3)

    def test_deflation_matches_fine_euler_oracle(self, params):
        p0 = 61325.0
        out = step(p0, 0.9, Mode.DEFLATION, 0.01, params)
        ref = euler_reference(p0, 0.9, Mode.DEFLATION, 0.01, 1000, params)
        assert out == pytest.approx(ref, rel=1e-3)

    def test_deterministic_bit_identical(self, params):
        def run():
            p = 121325.0
            vals = []
            for k in range(200):
                p = step(p, 0.4 if k % 2 else 0.9, Mode.INFLATION, 1e-3, params)
                vals.append(p)
            return vals

        assert run() == run()

    def test_clamps_at_source_pressure(self, params):
        p = params.p_pos - 100.0
        for _ in range(200):
            p = step(p, 1.0, Mode.INFLATION, 1e-2, params)
        assert p <= params.p_pos

    def test_free_decay_converges_to_atm_from_both_sides(self, params):
        for p0 in (251325.0, 31325.0):
            p = p0
            prev_gap = abs(p - params.p_atm)
            for _ in range(2000):
                p = step(p, 0.0, Mode.DEFLATION, 1e-2, params)
                gap = abs(p - params.p_atm)
                assert gap <= prev_gap + 1e-9
                prev_gap = gap
            assert gap < abs(p0 - params.p_atm) * 0.5

    def test_rejects_bad_dt(self, params):
        with pytest.raises(ValueError):
            step(params.p_atm, 0.0, Mode.INFLATION, 0.0, params)


class TestLoadModel:
    def test_fixed_volume(self):
        load = LoadModel.fixed(2.0e-5)
        assert load.volume_at(3.0e5, 1.01e5) == 2.0e-5

    def test_affine_bellow_clamps(self):
        load = LoadModel.affine_bellow(v0=1.25e-5, k_v=8.93e-11, v_min=1.0e-6, v_max=2.5e-5)
        assert load.volume_at(1.01e5, 1.01e5) == pytest.approx(1.25e-5)
        assert load.volume_at(3.01e5, 1.01e5) == 2.5e-5
        assert load.volume_at(1.0e4, 1.01e5) == pytest.approx(1.25e-5 + 8.93e-11 * (1.0e4 - 1.01e5))

    def test_bellow_step_matches_fine_euler(self, params):
        load = LoadModel.affine_bellow(v0=1.25e-5, k_v=8.93e-11, v_min=1.0e-6, v_max=2.5e-5)
        out = step(131325.0, 0.8, Mode.INFLATION, 0.01, params, load)
        ref = euler_reference(131325.0, 0.8, Mode.INFLATION, 0.01, 2000, params, load)
        assert out == pytest.approx(ref, rel=1e-3)

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            LoadModel(kind="balloon")

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            LoadModel.affine_bellow(v0=1e-5, k_v=1e-11, v_min=2e-5, v_max=1e-5)

    @pytest.mark.parametrize("kind", ["fixed", "affine-bellow"])
    @pytest.mark.parametrize("name", ["v0", "k_v", "v_min", "v_max"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_is_rejected_by_name(self, kind, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            LoadModel(kind=kind, **{name: value})


class TestParamValidation:
    def test_pressure_ordering_enforced(self, params):
        with pytest.raises(ValueError):
            PlantParams(
                p_pos=1.0e4, p_neg=3.0e5, p_atm=1.01e5, b=0.26, rho_ref=1.185,
                t_ref=293.15, t_gas=293.15, gamma=1.4, r_gas=287.0, volume=2e-5,
                conductances=params.conductances,
            )

    def test_conductances_must_be_positive(self):
        with pytest.raises(ValueError):
            Conductances(c_po=0.0, c_on=1e-10, c_oa=1e-12, c_ao=1e-12)

    @pytest.mark.parametrize(
        "name", ["p_pos", "p_neg", "p_atm", "b", "rho_ref", "t_ref", "t_gas", "gamma", "r_gas", "volume"],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_plant_value_is_rejected_by_name(self, params, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            replace(params, **{name: value})

    @pytest.mark.parametrize("name", ["c_po", "c_on", "c_oa", "c_ao"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_conductance_is_rejected_by_name(self, params, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            replace(params.conductances, **{name: value})


def _default_records():
    """One default instance of every parameter record, by its type name."""
    sc = scenario_from_dict({})
    records = [sc.plant, sc.plant.conductances, sc.load, sc.maps[Mode.INFLATION], sc.supervisor,
               sc.smc_gains[Mode.INFLATION], sc.pid_gains[Mode.INFLATION], sc.mpc, sc.reference, sc.timing,
               synthesis_from_dict(default_synthesis_dict()).cfg]
    return {type(record).__name__: record for record in records}


_RECORDS = _default_records()
_FLOAT_FIELDS = [
    (kind, f.name)
    for kind, record in _RECORDS.items()
    for f in fields(record)
    if f.init and isinstance(getattr(record, f.name), float)
]


@pytest.mark.parametrize("kind, name", _FLOAT_FIELDS, ids=[f"{k}.{n}" for k, n in _FLOAT_FIELDS])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_every_record_rejects_a_non_finite_float_by_name(kind, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        replace(_RECORDS[kind], **{name: value})


@pytest.mark.parametrize("kind, names", [
    ("MpcConfig", ["dt_pred", "w_e", "w_u", "w_sw"]),
    ("SmcGains", ["lam", "eta", "mu", "k_i"]),
    ("SupervisorConfig", ["h"]),
    ("SpoolMap", ["u_min", "u_max"]),
])
def test_the_finite_rule_reaches_every_float_field(kind, names):
    # These records had no finiteness check of their own: keep them in the list above.
    assert set(names) <= {name for k, name in _FLOAT_FIELDS if k == kind}


@pytest.mark.parametrize("i", range(4))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_spool_map_coefficient_is_rejected(i, value):
    spool_map = _RECORDS["SpoolMap"]
    a = list(spool_map.a)
    a[i] = value
    with pytest.raises(ValueError, match="^a must be finite$"):
        replace(spool_map, a=tuple(a))


class TestDomainEdges:
    """Each check of the declared domain at its edge: the value on the edge is taken or refused as stated."""

    def test_an_optional_type_takes_the_rule_of_the_type_it_wraps(self):
        assert field_rule("Optional[Seconds]") == FIELD_RULES["Seconds"]
        with pytest.raises(ValueError, match="^duration must be positive$"):
            check_value(-1.0, "Optional[Seconds]", "duration")

    def test_the_largest_finite_float_is_finite(self):
        assert check_value(sys.float_info.max, "NonNegative", "x") == sys.float_info.max

    @pytest.mark.parametrize("edge", [
        {"p_neg": 0.0}, {"p_neg": 1.01e5}, {"p_pos": 1.01e5}, {"b": 0.0}, {"b": 1.0}, {"gamma": 1.0},
    ], ids=["p_neg-0", "p_neg-p_atm", "p_pos-p_atm", "b-0", "b-1", "gamma-1"])
    def test_a_plant_on_the_edge_of_its_open_ranges_is_refused(self, params, edge):
        with pytest.raises(ValueError, match="^(pressures must satisfy|critical ratio b|gamma must exceed)"):
            replace(params, p_atm=1.01e5, **edge)

    @pytest.mark.parametrize("v_min", [0.0, 2.5e-5], ids=["zero", "v_max"])
    def test_a_bellow_on_the_edge_of_its_volume_range_is_refused(self, v_min):
        with pytest.raises(ValueError, match="^v_min must satisfy 0 < v_min < v_max"):
            LoadModel.affine_bellow(2.0e-5, 1e-10, v_min, 2.5e-5)

    def test_branch_flows_away_from_reference_conditions_match_the_orifice_law(self, params):
        # Away from t_ref == t_gas and at another density, each flow is
        # upstream pressure x conductance x rho_ref x sqrt(t_ref / t_gas) x shape factor.
        plant = replace(params, rho_ref=1.3, t_gas=330.0)
        c, corr = plant.conductances, plant.rho_ref * math.sqrt(plant.t_ref / plant.t_gas)
        for p in (0.3e5, 0.8e5, 1.5e5, 2.5e5):
            want = (plant.p_pos * c.c_po * corr * shape_factor(p / plant.p_pos, plant.b),
                    p * c.c_on * corr * shape_factor(plant.p_neg / p, plant.b),
                    p * c.c_oa * corr * shape_factor(plant.p_atm / p, plant.b),
                    plant.p_atm * c.c_ao * corr * shape_factor(p / plant.p_atm, plant.b))
            assert tuple(branch_flows(p, plant)) == pytest.approx(want, rel=1e-12, abs=0.0), p

    def test_branch_flows_take_a_pressure_on_the_edge_of_their_slack(self, params):
        branch_flows(params.p_neg * (1.0 - _DOMAIN_SLACK), params)
        branch_flows(params.p_pos * (1.0 + _DOMAIN_SLACK), params)

    @pytest.mark.parametrize("x_bar", [-1e-12, 1.0 + 1e-12])
    def test_a_held_step_takes_a_spool_fraction_on_the_edge_of_its_slack(self, params, x_bar):
        assert math.isfinite(rk4_hold(params)(x_bar, True)(params.p_atm, 1e-3))
