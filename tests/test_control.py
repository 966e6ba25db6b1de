import math

import pytest

import pneuctrl.control as control
from pneuctrl.experiment import DmSmcLoop, PidLoop
from pneuctrl.control import (
    ControllerState,
    PidGains,
    PidState,
    SmcGains,
    SupervisorConfig,
    pid_update,
    sat,
    select_mode,
    smc_update,
)
from pneuctrl.plant import Mode

DT = 0.01


class TestSelectMode:
    def test_switches_to_inflation_below_band(self):
        cfg = SupervisorConfig(h=5000.0)
        assert select_mode(141325.0, 151325.0, cfg, Mode.DEFLATION) == Mode.INFLATION

    def test_switches_to_deflation_above_band(self):
        cfg = SupervisorConfig(h=5000.0)
        assert select_mode(161325.0, 151325.0, cfg, Mode.INFLATION) == Mode.DEFLATION

    def test_holds_inside_deadband(self):
        cfg = SupervisorConfig(h=5000.0)
        assert select_mode(153325.0, 151325.0, cfg, Mode.INFLATION) == Mode.INFLATION
        assert select_mode(149325.0, 151325.0, cfg, Mode.DEFLATION) == Mode.DEFLATION

    def test_band_edges_switch(self):
        cfg = SupervisorConfig(h=5000.0)
        assert select_mode(146325.0, 151325.0, cfg, Mode.DEFLATION) == Mode.INFLATION
        assert select_mode(156325.0, 151325.0, cfg, Mode.INFLATION) == Mode.DEFLATION

    def test_h_must_be_positive(self):
        with pytest.raises(ValueError):
            SupervisorConfig(h=0.0)


class TestSat:
    def test_linear_inside(self):
        assert sat(0.3) == 0.3
        assert sat(-0.7) == -0.7

    def test_saturates_outside(self):
        assert sat(4.0) == 1.0
        assert sat(-14.0) == -1.0


class TestSmcUpdate:
    def test_equilibrium_commands_floor(self, params, maps, smc_gains, supervisor):
        state = ControllerState(mode=Mode.INFLATION)
        u, new = smc_update(
            state, params.p_atm, params.p_atm, 0.0,
            smc_gains, params, maps, supervisor, DT,
        )
        assert new.x_star == 0.0
        assert u == maps[Mode.INFLATION].u_min

    def test_small_error_command_matches_hand_value(self, params, maps, smc_gains, supervisor):
        # 5 kPa below a 100 kPa gauge reference, zero integral:
        # s = 2.8 * (-5000) = -1.4e4, sat = -1, f ~ -8.92e3, g1 ~ 4.77e5
        state = ControllerState(mode=Mode.INFLATION)
        u, new = smc_update(
            state, 196325.0, 201325.0, 0.0,
            smc_gains, params, maps, supervisor, DT,
        )
        assert new.s == pytest.approx(-14000.0)
        assert new.x_star == pytest.approx(0.0548, abs=0.001)
        assert 20.0 <= u <= 100.0

    def test_integral_frozen_outside_boundary_layer(self, params, maps, smc_gains, supervisor):
        state = ControllerState(mode=Mode.INFLATION, e_int=0.0)
        _, new = smc_update(
            state, 196325.0, 201325.0, 0.0,
            smc_gains, params, maps, supervisor, DT,
        )
        assert abs(new.s) > smc_gains[Mode.INFLATION].mu
        assert new.e_int == 0.0

    def test_integral_advances_inside_boundary_layer(self, params, maps, smc_gains, supervisor):
        e = -100.0  # |s| = 280 < mu
        state = ControllerState(mode=Mode.INFLATION, e_int=0.0)
        _, new = smc_update(
            state, 201325.0 + e, 201325.0, 0.0,
            smc_gains, params, maps, supervisor, DT,
        )
        assert new.e_int == pytest.approx(e * DT)

    def test_integral_frozen_while_clipped(self, params, maps, smc_gains, supervisor):
        # reference far above: x* saturates at 1
        state = ControllerState(mode=Mode.INFLATION, e_int=0.0)
        _, new = smc_update(
            state, params.p_atm, params.p_atm + 250e3, 0.0,
            smc_gains, params, maps, supervisor, DT,
        )
        assert new.x_star == 1.0
        assert new.e_int == 0.0

    def test_mode_flips_only_outside_band(self, params, maps, smc_gains, supervisor):
        state = ControllerState(mode=Mode.INFLATION)
        # inside the band: mode held
        _, new = smc_update(
            state, 201325.0 + 3000.0, 201325.0, 0.0,
            smc_gains, params, maps, supervisor, DT,
        )
        assert new.mode == Mode.INFLATION
        # outside: mode flips
        _, new = smc_update(
            state, 201325.0 + 6000.0, 201325.0, 0.0,
            smc_gains, params, maps, supervisor, DT,
        )
        assert new.mode == Mode.DEFLATION

    def test_deterministic(self, params, maps, smc_gains, supervisor):
        state = ControllerState(mode=Mode.INFLATION, e_int=3.0)
        a = smc_update(state, 141325.0, 151325.0, 2000.0, smc_gains, params, maps, supervisor, DT)
        b = smc_update(state, 141325.0, 151325.0, 2000.0, smc_gains, params, maps, supervisor, DT)
        assert a == b

    def test_duty_within_map_bounds_over_sweep(self, params, maps, smc_gains, supervisor):
        state = ControllerState(mode=Mode.INFLATION)
        for gauge_err in range(-150, 151, 10):
            u, state = smc_update(
                state, 151325.0 + 1000.0 * gauge_err, 151325.0, 0.0,
                smc_gains, params, maps, supervisor, DT,
            )
            assert maps[state.mode].u_min <= u <= maps[state.mode].u_max

    def test_gain_guard_fallback(self, params, maps, smc_gains, supervisor, monkeypatch):
        monkeypatch.setattr(control, "GAIN_GUARD_REL", 1e9)
        state = ControllerState(mode=Mode.INFLATION)
        u, new = smc_update(
            state, 151325.0, 201325.0, 0.0,
            smc_gains, params, maps, supervisor, DT,
        )
        assert new.gain_guard
        assert new.x_star == 1.0  # demanded rate points up in inflation
        # below atmosphere at the reference: drift already pushes up, so the
        # demanded correction points down and inflation must close
        u, new = smc_update(
            state, 81325.0, 81325.0, 0.0,
            smc_gains, params, maps, supervisor, DT,
        )
        assert new.gain_guard
        assert new.x_star == 0.0
        assert u == maps[Mode.INFLATION].u_min

    def test_holds_station_at_reference(self, params, maps, smc_gains, supervisor):
        # p pinned at the reference: repeated updates never leave the deadband
        state = ControllerState(mode=Mode.INFLATION)
        for _ in range(500):
            u, state = smc_update(
                state, 201325.0, 201325.0, 0.0,
                smc_gains, params, maps, supervisor, DT,
            )
            assert state.mode == Mode.INFLATION
        assert abs(state.s) <= smc_gains[Mode.INFLATION].mu

    def test_gain_validation(self):
        with pytest.raises(ValueError):
            SmcGains(lam=0.0, eta=1.0, mu=1.0, k_i=0.0)
        with pytest.raises(ValueError):
            SmcGains(lam=1.0, eta=1.0, mu=1.0, k_i=-0.1)


class TestPidUpdate:
    def test_zero_error_zero_output(self, pid_gains, supervisor):
        state = PidState(mode=Mode.INFLATION)
        u, new = pid_update(state, 151325.0, 151325.0, pid_gains, supervisor, DT)
        assert u == 0.0

    def test_pure_proportional_first_tick(self, pid_gains, supervisor):
        # 10 kPa inflation error, no history: u = 0.32 * 10 = 3.2%
        state = PidState(mode=Mode.INFLATION)
        u, new = pid_update(state, 141325.0, 151325.0, pid_gains, supervisor, DT)
        assert u == pytest.approx(3.2)

    def test_deflation_error_polarity_opens_valve(self, pid_gains, supervisor):
        # pressure far above the reference: deflation engages with positive duty
        state = PidState(mode=Mode.INFLATION)
        u, new = pid_update(state, 201325.0, 151325.0, pid_gains, supervisor, DT)
        assert new.mode == Mode.DEFLATION
        assert u == pytest.approx(0.6 * 50.0)

    def test_clipped_output_freezes_integral(self, pid_gains, supervisor):
        state = PidState(mode=Mode.INFLATION)
        u, new = pid_update(state, 101325.0, 101325.0 + 400e3, pid_gains, supervisor, DT)
        assert u == 100.0
        assert new.e_int[Mode.INFLATION] == 0.0

    def test_integral_can_unwind_while_clipped(self, pid_gains, supervisor):
        # clipped-high output with negative error inside the deadband: the
        # integral must still unwind
        state = PidState(mode=Mode.INFLATION, e_int=(0.0, 1000.0))
        u, new = pid_update(state, 154325.0, 151325.0, pid_gains, supervisor, DT)
        assert new.mode == Mode.INFLATION
        assert u == 100.0
        assert new.e_int[Mode.INFLATION] == pytest.approx(1000.0 - 3.0 * DT)

    def test_derivative_first_difference(self, pid_gains, supervisor):
        state = PidState(mode=Mode.INFLATION)
        _, state = pid_update(state, 149325.0, 151325.0, pid_gains, supervisor, DT)
        u2, state = pid_update(state, 148325.0, 151325.0, pid_gains, supervisor, DT)
        kp, ki, kd = 0.32, 0.3, 0.02
        e1, e2 = 2.0, 3.0
        expected = kp * e2 + ki * (e1 * DT) + kd * (e2 - e1) / DT
        assert u2 == pytest.approx(expected)

    def test_per_mode_integrals_are_independent(self, pid_gains, supervisor):
        state = PidState(mode=Mode.INFLATION)
        _, state = pid_update(state, 141325.0, 151325.0, pid_gains, supervisor, DT)
        inf_int = state.e_int[Mode.INFLATION]
        assert inf_int > 0.0
        # flip far above: deflation engages, inflation integral untouched
        _, state = pid_update(state, 171325.0, 151325.0, pid_gains, supervisor, DT)
        assert state.mode == Mode.DEFLATION
        assert state.e_int[Mode.INFLATION] == inf_int
        assert state.e_int[Mode.DEFLATION] > 0.0

    def test_output_bounds(self, pid_gains, supervisor):
        state = PidState(mode=Mode.INFLATION)
        for gauge_err in range(-300, 301, 20):
            u, state = pid_update(
                state, 151325.0 - 1000.0 * gauge_err, 151325.0, pid_gains, supervisor, DT,
            )
            assert 0.0 <= u <= 100.0

    def test_gain_validation(self):
        with pytest.raises(ValueError):
            PidGains(k_p=-0.1, k_i=0.0, k_d=0.0)
        with pytest.raises(ValueError):
            PidGains(k_p=math.inf, k_i=0.0, k_d=0.0)


class TestNonFiniteInputs:
    """Both controllers reject a non-finite input by name and keep their state."""

    @pytest.fixture
    def smc_loop(self, params, maps, smc_gains, supervisor):
        return DmSmcLoop(params, maps, smc_gains, supervisor, DT)

    @pytest.fixture
    def pid_loop(self, pid_gains, supervisor):
        return PidLoop(pid_gains, supervisor, DT)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("arg", ["p", "p_ref", "p_ref_rate"])
    def test_smc_rejects_a_non_finite_input(self, smc_loop, arg, value):
        inputs = {"p": 151325.0, "p_ref": 151325.0, "p_ref_rate": 0.0, arg: value}
        before = smc_loop.state
        with pytest.raises(ValueError, match=f"^{arg} must be finite"):
            smc_loop.update(0.0, inputs["p"], inputs["p_ref"], inputs["p_ref_rate"])
        assert smc_loop.state is before

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("arg", ["p", "p_ref"])
    def test_pid_rejects_a_non_finite_input(self, pid_loop, arg, value):
        inputs = {"p": 151325.0, "p_ref": 151325.0, arg: value}
        before = pid_loop.state
        with pytest.raises(ValueError, match=f"^{arg} must be finite"):
            pid_loop.update(0.0, inputs["p"], inputs["p_ref"], 0.0)
        assert pid_loop.state is before

    def test_pid_ignores_a_non_finite_reference_rate(self, pid_loop):
        assert pid_loop.update(0.0, 141325.0, 151325.0, math.nan).u > 0.0

    @pytest.mark.parametrize("p", [-5.0e5, 0.0, 1.0e6])
    def test_noisy_samples_outside_the_rails_stay_valid(self, smc_loop, pid_loop, maps, p):
        tick = smc_loop.update(0.0, p, 151325.0, 0.0)
        assert maps[tick.mode].u_min <= tick.u <= maps[tick.mode].u_max
        assert 0.0 <= pid_loop.update(0.0, p, 151325.0, 0.0).u <= 100.0
