import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpc_reference import all_duties_solve, dense_oracle, descent_oracle, held_steps, mode_sequences
from pneuctrl import mpc as mpc_mod
from pneuctrl.experiment import MinmpcLoop, NmpcLoop, Reference, TimingConfig, compute_metrics, run_scenario
from pneuctrl.mpc import MpcConfig, minmpc_solve, nmpc_solve, rollout_cost
from pneuctrl.config import default_bellow_load, default_load, default_maps, default_mpc_config, default_plant
from pneuctrl.plant import Mode


@pytest.fixture(scope="module")
def cfg():
    return default_mpc_config()


def brute_force_best_cost(p0, ref_seq, cfg, params, maps, load, sweeps):
    """Oracle: coordinate descent on every mode sequence within the switch limit (``mpc_reference``)."""
    return descent_oracle(p0, ref_seq, cfg, params, maps, load, sweeps)


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

    def test_cost_is_the_rollout_of_its_sequences(self, params, maps, cfg, load):
        refs = [params.p_atm + 80e3] * cfg.horizon_steps
        sol = nmpc_solve(params.p_atm, refs, Mode.INFLATION, cfg, params, maps, load)
        assert sol.m_seq == (Mode.INFLATION,) * cfg.horizon_steps
        assert sol.cost == rollout_cost(params.p_atm, sol.u_seq, sol.m_seq, refs, cfg, params, maps, load)

    def test_one_forward_pass_and_no_iteration_cap(self, params, maps, cfg, load):
        refs = [params.p_atm + 80e3] * cfg.horizon_steps
        nm = nmpc_solve(params.p_atm, refs, Mode.INFLATION, cfg, params, maps, load)
        mi = minmpc_solve(params.p_atm, refs, cfg, params, maps, load)
        assert (nm.iterations, nm.hit_iter_cap) == (1, False)
        assert (mi.iterations, mi.hit_iter_cap) == (3, False)


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
        cfg = MpcConfig(horizon_steps=5, max_switches=4)
        refs = [params.p_atm + 80e3] * 5
        sol = minmpc_solve(params.p_atm, refs, cfg, params, maps, load)
        assert sol.m_seq[0] == Mode.INFLATION
        oracle = brute_force_best_cost(params.p_atm, refs, cfg, params, maps, load, sweeps=2)
        assert sol.cost <= oracle * (1 + 1e-9)

    def test_far_above_reference_selects_deflation(self, params, maps, load):
        cfg = MpcConfig(horizon_steps=5, max_switches=4)
        refs = [params.p_atm - 60e3] * 5
        sol = minmpc_solve(params.p_atm, refs, cfg, params, maps, load)
        assert sol.m_seq[0] == Mode.DEFLATION

    def test_mirrored_situations_mirror_the_mode_choice(self, params, maps, load):
        cfg = MpcConfig(horizon_steps=6, max_switches=1)
        up = minmpc_solve(params.p_atm - 30e3, [params.p_atm] * 6, cfg, params, maps, load)
        down = minmpc_solve(params.p_atm + 30e3, [params.p_atm] * 6, cfg, params, maps, load)
        assert up.m_seq[0] == Mode.INFLATION
        assert down.m_seq[0] == Mode.DEFLATION

    def test_zero_switches_reduces_to_best_fixed_mode(self, params, maps, load):
        cfg = MpcConfig(horizon_steps=6, max_switches=0)
        refs = [params.p_atm + 45e3] * 6
        sol = minmpc_solve(params.p_atm, refs, cfg, params, maps, load)
        best_fixed = min(
            nmpc_solve(params.p_atm, refs, m, cfg, params, maps, load).cost
            for m in (Mode.DEFLATION, Mode.INFLATION)
        )
        assert sol.cost == best_fixed

    def test_superset_of_supervisor_fixed_mode(self, params, maps, load):
        cfg = MpcConfig(horizon_steps=6, max_switches=1)
        refs = [params.p_atm + 45e3] * 6
        fixed = nmpc_solve(params.p_atm, refs, Mode.INFLATION, cfg, params, maps, load)
        joint = minmpc_solve(params.p_atm, refs, cfg, params, maps, load)
        assert joint.cost <= fixed.cost + 1e-12

    def test_small_horizon_optimality_against_brute_force(self, params, maps, load):
        cfg = MpcConfig(horizon_steps=5, max_switches=4)
        rng = np.random.default_rng(11)
        for _ in range(3):
            p0 = float(rng.uniform(params.p_atm - 70e3, params.p_atm + 170e3))
            ref = float(rng.uniform(params.p_atm - 70e3, params.p_atm + 170e3))
            refs = [ref] * 5
            sol = minmpc_solve(p0, refs, cfg, params, maps, load)
            oracle = brute_force_best_cost(p0, refs, cfg, params, maps, load, sweeps=1)
            assert sol.cost <= oracle * (1 + 1e-9)


PARAMS, MAPS = default_plant(), default_maps()
LOADS = {"none": None, "fixed": default_load(), "bellow": default_bellow_load()}
PRESSURE = st.floats(PARAMS.p_neg, PARAMS.p_pos)


@st.composite
def start_and_window(draw):
    """A start pressure and a reference window of 1..10 steps, both within the rails."""
    n = draw(st.integers(1, 10))
    return draw(PRESSURE), draw(st.lists(PRESSURE, min_size=n, max_size=n))


@settings(max_examples=60, deadline=None)
@given(
    problem=start_and_window(),
    load=st.sampled_from(sorted(LOADS)),
    max_switches=st.integers(0, 2),
    dt_pred=st.sampled_from([0.01, 0.05]),
)
# Two problems on which MI-NMPC's own switching pass ends above NMPC in inflation
# (by 0.015 and 0.012 in cost): only the constant-mode passes keep it at or below.
@example(problem=(141640.98014118674, [59412.76001484196, 227859.63326661184]),
         load="none", max_switches=2, dt_pred=0.01)
@example(problem=(73012.72092770449, [49700.67171345187, 121614.11251572892]),
         load="none", max_switches=2, dt_pred=0.05)
def test_minmpc_never_costs_more_than_nmpc_in_either_mode(problem, load, max_switches, dt_pred):
    # Exactly: MI-NMPC keeps the least of its own pass and of NMPC's solution in each mode.
    p0, refs = problem
    cfg = replace(default_mpc_config(), horizon_steps=len(refs), max_switches=max_switches, dt_pred=dt_pred)
    args = (cfg, PARAMS, MAPS, LOADS[load])
    mi = minmpc_solve(p0, refs, *args)
    fixed = [nmpc_solve(p0, refs, m, *args) for m in Mode]
    assert all(mi.cost <= sol.cost for sol in fixed)
    for sol in [mi] + fixed:
        assert all(MAPS[m].u_min <= u <= MAPS[m].u_max for u, m in zip(sol.u_seq, sol.m_seq))


@settings(max_examples=60, deadline=None)
@given(problem=start_and_window(), load=st.sampled_from(sorted(LOADS)), max_switches=st.integers(0, 2))
def test_every_returned_duty_is_a_grid_duty_and_the_cost_its_rollout(problem, load, max_switches):
    # Each stage keeps one of its mode's grid duties and walks on by its held step, so the cost is the rollout's.
    p0, refs = problem
    cfg = replace(default_mpc_config(), horizon_steps=len(refs), max_switches=max_switches)
    args = (cfg, PARAMS, MAPS, LOADS[load])
    table = mpc_mod._table(PARAMS, LOADS[load], tuple(MAPS), cfg.dt_pred)
    for sol in [minmpc_solve(p0, refs, *args)] + [nmpc_solve(p0, refs, m, *args) for m in Mode]:
        assert all(u in table[m].duties for u, m in zip(sol.u_seq, sol.m_seq))
        assert sol.cost == rollout_cost(p0, sol.u_seq, sol.m_seq, refs, *args)


@pytest.mark.parametrize("solver", ["nmpc", "mi-nmpc"])
def test_deflating_from_100_kpa_costs_no_more_than_full_duty(solver):
    # The default deflation map falls from 0.9261 at 71.24 % to 0.9186 at 84.16 %.  A
    # line search over the duty stopped at that local peak, holding 71.24 % at every
    # step (cost 60,891.0); 100 % at every step costs 59,187.67.
    cfg, load = default_mpc_config(), default_load()
    n, p0, refs = cfg.horizon_steps, PARAMS.p_atm + 100e3, [PARAMS.p_atm] * cfg.horizon_steps
    full = rollout_cost(p0, [100.0] * n, [Mode.DEFLATION] * n, refs, cfg, PARAMS, MAPS, load)
    if solver == "nmpc":
        sol = nmpc_solve(p0, refs, Mode.DEFLATION, cfg, PARAMS, MAPS, load)
    else:
        sol = minmpc_solve(p0, refs, cfg, PARAMS, MAPS, load)
    assert full == pytest.approx(59187.67, abs=0.01)
    assert sol.cost <= full * (1 + 1e-9)


@pytest.mark.parametrize("load", ["fixed", "bellow"])
def test_gap_to_a_dense_duty_grid_on_a_short_horizon(load):
    """Over N = 2 steps, MI-NMPC against every mode sequence within one switch and
    every pair of 101 evenly spread duties per step, on 20 seeded states per load.

    Measured worst relative gap: 1.8e-7 on the fixed load and 1.2e-6 on the bellow
    (on each, the solver is at or below the dense grid on 19 of the 20 states).
    Asserted: 1e-5.
    """
    cfg = replace(default_mpc_config(), horizon_steps=2)
    rng = np.random.default_rng(7)
    worst = -math.inf
    for _ in range(20):
        p0 = float(rng.uniform(PARAMS.p_atm - 75e3, PARAMS.p_atm + 175e3))
        refs = rng.uniform(PARAMS.p_atm - 75e3, PARAMS.p_atm + 175e3, 2).tolist()
        sol = minmpc_solve(p0, refs, cfg, PARAMS, MAPS, LOADS[load])
        dense = dense_oracle(p0, refs, cfg, PARAMS, MAPS, LOADS[load], duties=101)
        worst = max(worst, (sol.cost - dense) / dense)
    assert worst <= 1e-5


def _windows(rng, count):
    """``count`` seeded starts and 10-step windows: steps, ramps and sine arcs, across atmosphere or not."""
    n, atm = default_mpc_config().horizon_steps, PARAMS.p_atm
    out = []
    for i in range(count):
        p0 = float(rng.uniform(atm - 75e3, atm + 175e3))
        a, b = rng.uniform(atm - 75e3, atm + 175e3, 2).tolist()
        kind = i % 3
        if kind == 0:
            refs = [a] * (n // 2) + [b] * (n - n // 2)
        elif kind == 1:
            refs = [a + (b - a) * (k + 1) / n for k in range(n)]
        else:
            phase = float(rng.uniform(0.0, 2.0 * math.pi))
            refs = [atm + 5e4 * math.sin(phase + math.pi * 0.01 * (k + 1)) for k in range(n)]
        out.append((p0, refs))
    return out


@pytest.mark.parametrize("load", ["fixed", "bellow"])
def test_ranked_forward_pass_against_the_all_duties_pass(load):
    """Both solvers against the dynamic program whose forward pass costs every grid duty
    at every stage exactly (``mpc_reference.all_duties_solve``), on 24 seeded problems per load.

    Measured: both solvers return the reference's cost on every problem, bit for bit
    (a pass that stepped only the ranked duty and its two neighbours was up to 3.4e-4
    above it).  Asserted: at most 1e-4 above.  Measured MI-NMPC held steps: at most
    0.24 of the reference's (0.22 on average).  Asserted: 0.6.
    """
    cfg, load = default_mpc_config(), LOADS[load]
    both = (Mode.DEFLATION, Mode.INFLATION)
    minmpc_solve(PARAMS.p_atm, [PARAMS.p_atm] * cfg.horizon_steps, cfg, PARAMS, MAPS, load)   # the table
    for p0, refs in _windows(np.random.default_rng(5), 24):
        mi, steps = held_steps(minmpc_solve, p0, refs, cfg, PARAMS, MAPS, load)
        (reference, _, _), reference_steps = held_steps(
            all_duties_solve, p0, refs, cfg, PARAMS, MAPS, load, both, cfg.max_switches)
        assert mi.cost <= reference * (1 + 1e-4)
        assert steps <= 0.6 * reference_steps
        for m in both:
            nm = nmpc_solve(p0, refs, m, cfg, PARAMS, MAPS, load)
            assert nm.cost <= all_duties_solve(p0, refs, cfg, PARAMS, MAPS, load, (m,), 0)[0] * (1 + 1e-4)


def test_a_later_stage_steps_on_past_the_ranked_duties_while_the_cost_falls():
    # NMPC deflating on the bellow from 156.33 kPa gauge to hold 150 kPa (seed 2, problem 14
    # of the benchmark, on the bellow): at stage 1 the interpolated costs rank the lowest
    # duty, 20 %, first (7.648, then 7.660 for 26.78 %), but the third, 27.72 %, costs
    # least exactly (5.796, against 6.878 and 6.283).  A stage that stepped only the ranked
    # duty and its neighbours kept 26.78 % and cost 6.346, 8.6 % more than stepping every duty.
    cfg, load = default_mpc_config(), LOADS["bellow"]
    p0, refs = PARAMS.p_atm + 156328.40729434986, [PARAMS.p_atm + 150e3] * cfg.horizon_steps
    sol = nmpc_solve(p0, refs, Mode.DEFLATION, cfg, PARAMS, MAPS, load)
    reference, u, _ = all_duties_solve(p0, refs, cfg, PARAMS, MAPS, load, (Mode.DEFLATION,), 0)
    third = mpc_mod._table(PARAMS, load, MAPS, cfg.dt_pred)[Mode.DEFLATION].duties[2]
    assert sol.cost <= reference * (1 + 1e-4)
    assert reference == pytest.approx(5.8420, abs=1e-4)
    assert sol.u_seq[1] == third == pytest.approx(27.72, abs=0.005)


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
        cfg = MpcConfig(horizon_steps=4, dt_pred=0.2, max_switches=1)
        ctrl = MinmpcLoop(params, maps, load, cfg, ref)
        traj = run_scenario(ref, ctrl, timing, params, maps, load)
        metrics = compute_metrics(traj, ref)
        e = np.abs(traj.p_true - traj.p_ref) / 1000.0
        assert float(np.max(e)) <= 55.0
        assert metrics.e_ss <= 5.0
