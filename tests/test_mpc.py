import itertools
import math

import numpy as np
import pytest

from pneuctrl.experiment import MinmpcLoop, NmpcLoop, Reference, TimingConfig, compute_metrics, run_scenario
from pneuctrl.mpc import MpcConfig, minmpc_solve, mode_sequences, nmpc_solve, rollout_cost
from pneuctrl.mpc import _descend
from pneuctrl.config import default_mpc_config
from pneuctrl.plant import Mode


@pytest.fixture(scope="module")
def cfg():
    return default_mpc_config()


def brute_force_best_cost(p0, ref_seq, cfg, params, maps, load=None):
    """Oracle: enumerate every binary mode sequence and solve each continuous
    subproblem with the shared inner solver."""
    best = None
    for bits in itertools.product((Mode.DEFLATION, Mode.INFLATION), repeat=cfg.horizon_steps):
        _, cost, _, _, _ = _descend(p0, ref_seq, bits, cfg, params, maps, load, None)
        if best is None or cost < best:
            best = cost
    return best


class TestRolloutCost:
    def test_zero_at_equilibrium_with_closed_valve(self, params, maps, cfg, load):
        n = cfg.horizon_steps
        refs = [params.p_atm] * n
        cost = rollout_cost(params.p_atm, [0.0] * n, [Mode.INFLATION] * n, refs, cfg, params, maps, load)
        assert cost == 0.0

    def test_pure_effort_term(self, params, maps, load):
        cfg = MpcConfig(w_e=0.0, w_u=1.0e-2, w_sw=0.0)
        n = cfg.horizon_steps
        refs = [params.p_atm] * n
        from pneuctrl.valvemap import eval_spool

        u = 50.0
        x = eval_spool(u, maps[Mode.INFLATION])
        cost = rollout_cost(params.p_atm, [u] * n, [Mode.INFLATION] * n, refs, cfg, params, maps, load)
        assert cost == pytest.approx(cfg.w_u * n * x * x, rel=1e-12)

    def test_error_component_scales_linearly(self, params, maps, load):
        base = MpcConfig(w_e=1.0e-6, w_u=0.0, w_sw=0.0)
        double = MpcConfig(w_e=2.0e-6, w_u=0.0, w_sw=0.0)
        n = base.horizon_steps
        refs = [params.p_atm + 50e3] * n
        u = [60.0] * n
        m = [Mode.INFLATION] * n
        c1 = rollout_cost(params.p_atm, u, m, refs, base, params, maps, load)
        c2 = rollout_cost(params.p_atm, u, m, refs, double, params, maps, load)
        assert c2 == pytest.approx(2.0 * c1, rel=1e-12)

    def test_switch_penalty_counts_changes(self, params, maps, load):
        cfg = MpcConfig(w_e=0.0, w_u=0.0, w_sw=1.0, horizon_steps=5)
        refs = [params.p_atm] * 5
        m = [Mode.INFLATION, Mode.INFLATION, Mode.DEFLATION, Mode.DEFLATION, Mode.INFLATION]
        cost = rollout_cost(params.p_atm, [0.0] * 5, m, refs, cfg, params, maps, load)
        assert cost == 2.0

    def test_length_mismatch_rejected(self, params, maps, cfg, load):
        with pytest.raises(ValueError):
            rollout_cost(params.p_atm, [0.0], [Mode.INFLATION], [params.p_atm], cfg, params, maps, load)


class TestNmpcSolve:
    def test_equilibrium_reference_stays_at_floor(self, params, maps, cfg, load):
        refs = [params.p_atm] * cfg.horizon_steps
        sol = nmpc_solve(params.p_atm, refs, Mode.INFLATION, cfg, params, maps, load)
        assert sol.u_seq[0] == maps[Mode.INFLATION].u_min

    def test_first_step_duty_monotone_in_error(self, params, maps, cfg, load):
        full = [params.p_atm + 60e3] * cfg.horizon_steps
        half = [params.p_atm + 30e3] * cfg.horizon_steps
        u_full = nmpc_solve(params.p_atm, full, Mode.INFLATION, cfg, params, maps, load).u_seq[0]
        u_half = nmpc_solve(params.p_atm, half, Mode.INFLATION, cfg, params, maps, load).u_seq[0]
        assert u_full >= u_half - 0.5

    def test_beats_constant_duty_grid_oracle(self, params, maps, cfg, load):
        refs = [params.p_atm + 40e3] * cfg.horizon_steps
        sol = nmpc_solve(params.p_atm, refs, Mode.INFLATION, cfg, params, maps, load)
        m_seq = [Mode.INFLATION] * cfg.horizon_steps
        grid_best = min(
            rollout_cost(params.p_atm, [u] * cfg.horizon_steps, m_seq, refs, cfg, params, maps, load)
            for u in np.arange(20.0, 100.0 + 1e-9, 0.5)
        )
        assert sol.cost <= grid_best + 1e-9

    def test_cost_non_increasing_across_sweeps(self, params, maps, cfg, load):
        refs = [params.p_atm + 80e3] * cfg.horizon_steps
        sol = nmpc_solve(params.p_atm, refs, Mode.INFLATION, cfg, params, maps, load)
        trace = sol.cost_trace
        assert all(b <= a + 1e-12 for a, b in zip(trace[:-1], trace[1:]))

    def test_warm_start_round_trip(self, params, maps, cfg, load):
        refs = [params.p_atm + 50e3] * cfg.horizon_steps
        cold = nmpc_solve(params.p_atm, refs, Mode.INFLATION, cfg, params, maps, load)
        warm = nmpc_solve(params.p_atm, refs, Mode.INFLATION, cfg, params, maps, load, u_init=cold.u_seq)
        assert warm.cost <= cold.cost + 1e-9

    def test_iteration_cap_flag(self, params, maps, load):
        cfg = MpcConfig(max_iters=1)
        refs = [params.p_atm + 80e3] * cfg.horizon_steps
        sol = nmpc_solve(params.p_atm, refs, Mode.INFLATION, cfg, params, maps, load)
        assert sol.iterations == 1
        assert sol.hit_iter_cap


@pytest.mark.parametrize("line_tol", [0.0, -0.0, -1.0])
def test_a_line_tolerance_that_never_ends_a_search_is_rejected(line_tol):
    # At line_tol <= 0 every golden-section search would run to its evaluation cap.
    with pytest.raises(ValueError, match="^line_tol must be positive$"):
        MpcConfig(line_tol=line_tol)


@pytest.mark.parametrize("line_tol", [1e-300, 5e-324, math.nextafter(1e-9, 0.0)])
def test_a_line_tolerance_below_the_declared_resolution_is_rejected(line_tol):
    # Below the duty's float resolution every search also runs to its cap: 200 evaluations at 1e-300.
    with pytest.raises(ValueError, match="^line_tol must be at least 1e-9 %$"):
        MpcConfig(line_tol=line_tol)
    assert MpcConfig(line_tol=1e-9).line_tol == 1e-9


class TestModeSequences:
    def test_counts_with_one_switch(self):
        seqs = list(mode_sequences(10, 1))
        assert len(seqs) == 20
        assert len(set(seqs)) == 20

    def test_full_enumeration_when_unrestricted(self):
        seqs = set(mode_sequences(5, 4))
        assert len(seqs) == 32

    def test_zero_switches_degenerates_to_constant_sequences(self):
        seqs = list(mode_sequences(6, 0))
        assert seqs == [(Mode.DEFLATION,) * 6, (Mode.INFLATION,) * 6]


class TestMinmpcSolve:
    def test_far_below_reference_selects_inflation(self, params, maps, load):
        cfg = MpcConfig(horizon_steps=5, max_switches=4, max_iters=2)
        refs = [params.p_atm + 80e3] * 5
        sol = minmpc_solve(params.p_atm, refs, cfg, params, maps, load)
        assert sol.m_seq[0] == Mode.INFLATION
        oracle = brute_force_best_cost(params.p_atm, refs, cfg, params, maps, load)
        assert sol.cost == pytest.approx(oracle, rel=1e-9, abs=1e-12)

    def test_far_above_reference_selects_deflation(self, params, maps, load):
        cfg = MpcConfig(horizon_steps=5, max_switches=4, max_iters=2)
        refs = [params.p_atm - 60e3] * 5
        sol = minmpc_solve(params.p_atm, refs, cfg, params, maps, load)
        assert sol.m_seq[0] == Mode.DEFLATION

    def test_mirrored_situations_mirror_the_mode_choice(self, params, maps, load):
        cfg = MpcConfig(horizon_steps=6, max_switches=1, max_iters=2)
        up = minmpc_solve(params.p_atm - 30e3, [params.p_atm] * 6, cfg, params, maps, load)
        down = minmpc_solve(params.p_atm + 30e3, [params.p_atm] * 6, cfg, params, maps, load)
        assert up.m_seq[0] == Mode.INFLATION
        assert down.m_seq[0] == Mode.DEFLATION

    def test_zero_switches_reduces_to_best_fixed_mode(self, params, maps, load):
        cfg = MpcConfig(horizon_steps=6, max_switches=0, max_iters=2)
        refs = [params.p_atm + 45e3] * 6
        sol = minmpc_solve(params.p_atm, refs, cfg, params, maps, load)
        best_fixed = min(
            nmpc_solve(params.p_atm, refs, m, cfg, params, maps, load).cost
            for m in (Mode.DEFLATION, Mode.INFLATION)
        )
        assert sol.cost == pytest.approx(best_fixed, rel=1e-12)

    def test_superset_of_supervisor_fixed_mode(self, params, maps, load):
        cfg = MpcConfig(horizon_steps=6, max_switches=1, max_iters=2)
        refs = [params.p_atm + 45e3] * 6
        fixed = nmpc_solve(params.p_atm, refs, Mode.INFLATION, cfg, params, maps, load)
        joint = minmpc_solve(params.p_atm, refs, cfg, params, maps, load)
        assert joint.cost <= fixed.cost + 1e-12

    def test_small_horizon_optimality_against_brute_force(self, params, maps, load):
        cfg = MpcConfig(horizon_steps=5, max_switches=4, max_iters=1)
        rng = np.random.default_rng(11)
        for _ in range(3):
            p0 = float(rng.uniform(params.p_atm - 70e3, params.p_atm + 170e3))
            ref = float(rng.uniform(params.p_atm - 70e3, params.p_atm + 170e3))
            refs = [ref] * 5
            sol = minmpc_solve(p0, refs, cfg, params, maps, load)
            oracle = brute_force_best_cost(p0, refs, cfg, params, maps, load)
            assert sol.cost == pytest.approx(oracle, rel=1e-9, abs=1e-12)


class TestRecedingHorizonClosedLoop:
    def test_nmpc_tracks_full_multi_step_reference(self, params, maps, load, supervisor):
        levels = (0.0, 50.0, 100.0, 150.0, 200.0, 150.0, 100.0, 50.0, 0.0, -40.0, -80.0, -40.0, 0.0)
        ref = Reference.multi_step([(lv, 5.0) for lv in levels])
        timing = TimingConfig(control_rate=10.0, sensor_rate=60.0, sim_substep=1000.0,
                              noise_sigma=0.0, seed=0)
        # plan step matches the control period (receding-horizon consistency)
        cfg = MpcConfig(horizon_steps=8, dt_pred=0.1)
        ctrl = NmpcLoop(params, maps, load, cfg, supervisor, ref)
        traj = run_scenario(ref, ctrl, timing, params, maps, load)
        metrics = compute_metrics(traj, ref)
        e = np.abs(traj.p_true - traj.p_ref) / 1000.0
        # bounded error: no stage diverges and late-stage tracking is tight
        assert float(np.max(e)) <= 55.0
        assert metrics.e_ss <= 5.0

    def test_minmpc_tracks_full_multi_step_reference(self, params, maps, load):
        levels = (0.0, 50.0, 100.0, 150.0, 200.0, 150.0, 100.0, 50.0, 0.0, -40.0, -80.0, -40.0, 0.0)
        ref = Reference.multi_step([(lv, 5.0) for lv in levels])
        timing = TimingConfig(control_rate=5.0, sensor_rate=60.0, sim_substep=1000.0,
                              noise_sigma=0.0, seed=0)
        cfg = MpcConfig(horizon_steps=4, dt_pred=0.2, max_switches=1, max_iters=2)
        ctrl = MinmpcLoop(params, maps, load, cfg, ref)
        traj = run_scenario(ref, ctrl, timing, params, maps, load)
        metrics = compute_metrics(traj, ref)
        e = np.abs(traj.p_true - traj.p_ref) / 1000.0
        assert float(np.max(e)) <= 55.0
        assert metrics.e_ss <= 5.0
