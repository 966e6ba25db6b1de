import math
import sys
import tempfile
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpc_reference import (
    _all_duties_forward, all_duties_solve, dense_oracle, descent_oracle, held_step_calls, held_steps, mode_sequences,
    reference_rollout_cost, rollout_every_pass_solve,
)
from pneuctrl import mpc as mpc_mod
from pneuctrl import plant as plant_mod
from pneuctrl.experiment import MinmpcLoop, NmpcLoop, Reference, TimingConfig, compute_metrics, run_scenario
from pneuctrl.mpc import MpcConfig, minmpc_solve, nmpc_solve, rollout_cost
from pneuctrl.config import (
    CONTROLLERS, default_bellow_load, default_load, default_maps, default_mpc_config, default_plant,
    scenario_from_dict,
)
from pneuctrl.plant import Mode

sys.path.append(str(Path(__file__).resolve().parents[1]))   # the repository root, for the benchmark's problems
from perfbench import inputs  # noqa: E402


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


@pytest.mark.parametrize("p0", [math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize("solve", [
    lambda p0, refs, cfg, params, maps, load: nmpc_solve(p0, refs, Mode.INFLATION, cfg, params, maps, load),
    minmpc_solve,
], ids=["nmpc", "mi-nmpc"])
def test_a_non_finite_start_pressure_is_rejected_by_name(solve, p0, params, maps, cfg, load):
    with pytest.raises(ValueError, match=f"^p0 must be finite, got {p0!r}$"):
        solve(p0, [params.p_atm] * cfg.horizon_steps, cfg, params, maps, load)


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


def _past_the_rails(rng, count):
    """``count`` seeded starts up to 20 kPa past each rail, each with a window of :func:`_windows`."""
    starts = rng.uniform(PARAMS.p_neg - 2e4, PARAMS.p_neg, count).tolist()
    starts += rng.uniform(PARAMS.p_pos, PARAMS.p_pos + 2e4, count).tolist()
    return [(p0, refs) for p0, (_, refs) in zip(starts, _windows(rng, 2 * count))]


@pytest.mark.parametrize("load", ["fixed", "bellow"])
def test_ranked_forward_pass_against_the_all_duties_pass(load):
    """Both solvers against the dynamic program whose forward pass costs every grid duty
    at every stage exactly (``mpc_reference.all_duties_solve``), on 24 seeded problems per
    load and 16 more from starts up to 20 kPa past a rail, 8 past each.

    Measured: from the 24 starts on the rails both solvers return the reference's cost,
    bit for bit (a pass that stepped only the ranked duty and its two neighbours was up
    to 3.4e-4 above it).  From the 16 past a rail, whose stage 0 ranks at the rail's
    cell, 28 of the 96 solves cost more, by at most 3.6e-7 relative.  Asserted: at most
    1e-4 above.  Measured MI-NMPC held steps: at most 0.23 of the reference's (0.17 on
    average).  Asserted: 0.6.
    """
    cfg, load = default_mpc_config(), LOADS[load]
    both = (Mode.DEFLATION, Mode.INFLATION)
    minmpc_solve(PARAMS.p_atm, [PARAMS.p_atm] * cfg.horizon_steps, cfg, PARAMS, MAPS, load)   # the table
    for p0, refs in _windows(np.random.default_rng(5), 24) + _past_the_rails(np.random.default_rng(6), 8):
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


@pytest.mark.parametrize("load", ["fixed", "bellow"])
def test_a_solve_takes_each_held_step_of_its_forward_passes_once(load):
    # MI-NMPC's three forward passes start from the same pressure and often walk the same
    # way, so they meet the same (mode, duty, pressure) steps; the solve's memo steps each
    # once.  On the benchmark's 23 seed-1 mpc-solve problems a memo-less solve repeated
    # about 20 of its 111 held steps per solve.
    cfg, load = default_mpc_config(), LOADS[load]
    with tempfile.TemporaryDirectory() as work:
        problems = inputs.make_plan("mpc-solve", 1, 28, Path(work)).problems
    minmpc_solve(PARAMS.p_atm, [PARAMS.p_atm] * cfg.horizon_steps, cfg, PARAMS, MAPS, load)   # the table
    assert len(problems) == 23
    for prob in problems:
        _, calls = held_step_calls(minmpc_solve, prob.p0, list(prob.refs), cfg, PARAMS, MAPS, load)
        forward = [step for caller, step in calls if caller == "_forward"]
        assert forward and len(set(forward)) == len(forward)


@pytest.mark.parametrize("load", ["fixed", "bellow"])
def test_passes_ranked_by_their_held_steps_solve_as_passes_ranked_by_rollouts(load):
    """Both solvers against ``mpc_reference.rollout_every_pass_solve``, which ranks the same
    forward passes by a rollout of each, summed by its own loop: equal ``u_seq``, ``m_seq``,
    ``cost`` under ``float.hex`` and ``iterations``.  On the 276 ``mpc-solve`` problems of
    seeds 1 to 12 and 24 seeded starts up to 20 kPa past a rail, 12 past each; MI-NMPC at
    ``max_switches`` 0 to 3 and NMPC in each mode.  Each forward pass's sum over the held
    steps read from the solve's memo (``mpc._sum_cost`` of ``mpc._memo_step``) is that
    loop's rollout of its sequences under ``float.hex``, and a solve calls ``rollout_cost``
    once, for the pass it returns.
    """
    cfg, load = default_mpc_config(), LOADS[load]
    table = mpc_mod._table(PARAMS, load, MAPS, cfg.dt_pred)
    with tempfile.TemporaryDirectory() as work:
        problems = [(prob.p0, list(prob.refs)) for seed in range(1, 13)
                    for prob in inputs.make_plan("mpc-solve", seed, 28, Path(work)).problems]
    assert len(problems) == 276
    problems += _past_the_rails(np.random.default_rng(11), 12)
    both, forward, rollout = (Mode.DEFLATION, Mode.INFLATION), mpc_mod._forward, mpc_mod.rollout_cost
    passes, rollouts = [], [0]

    def recorded(*args):   # the forward pass's arguments, the solve's held-step memo last, and its sequences
        passes.append((args, forward(*args)))
        return passes[-1][1]

    def counted(*args):
        rollouts[0] += 1
        return rollout(*args)

    for p0, refs in problems:
        solves = [(minmpc_solve, (), replace(cfg, max_switches=s), both, min(s, cfg.horizon_steps - 1))
                  for s in range(4)]
        solves += [(nmpc_solve, (m,), cfg, (m,), 0) for m in Mode]
        for solve, mode, c, modes, switches in solves:
            passes.clear()
            rollouts[0] = 0
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(mpc_mod, "_forward", recorded)
                mp.setattr(mpc_mod, "rollout_cost", counted)
                sol = solve(p0, refs, *mode, c, PARAMS, MAPS, load)
            ref = rollout_every_pass_solve(p0, refs, c, PARAMS, MAPS, load, modes, switches)
            assert (sol.u_seq, sol.m_seq, sol.cost.hex(), sol.iterations) == (
                ref.u_seq, ref.m_seq, ref.cost.hex(), ref.iterations)
            assert rollouts[0] == 1 and len(passes) >= sol.iterations
            for args, (u, m_seq) in passes:
                read = mpc_mod._sum_cost(p0, u, m_seq, refs, c, partial(mpc_mod._memo_step, table, args[-1]))
                assert read.hex() == reference_rollout_cost(p0, u, m_seq, refs, c, PARAMS, MAPS, load).hex()


@settings(max_examples=150, deadline=None)
@given(
    p0=st.floats(PARAMS.p_neg - 2.0e4, PARAMS.p_pos + 2.0e4),
    steps=st.lists(st.tuples(st.sampled_from(list(Mode)), st.integers(0, mpc_mod.GRID_FRACTIONS),
                             st.floats(PARAMS.p_neg, PARAMS.p_pos)), min_size=1, max_size=10),
    load=st.sampled_from(["fixed", "bellow"]),
    weights=st.tuples(*(st.sampled_from([0.0, -0.0]) | st.floats(lo, hi)
                        for lo, hi in [(1e-12, 1e-3), (1e-4, 10.0), (1e-3, 100.0)])),
)
def test_rollout_cost_forms_its_terms_as_the_written_out_loop(p0, steps, load, weights):
    # rollout_cost's sum, which also ranks a solve's passes, against the loop written out, under
    # float.hex: any grid duties, modes and weights, also 0 and -0.0.  At the default weights the
    # effort term's association (w_u * (x * x)) never shows on the benchmark's problems.
    w_e, w_u, w_sw = weights
    cfg, load = replace(default_mpc_config(), horizon_steps=len(steps), w_e=w_e, w_u=w_u, w_sw=w_sw), LOADS[load]
    table = mpc_mod._table(PARAMS, load, MAPS, cfg.dt_pred)
    u, m_seq, refs = [table[m].duties[j] for m, j, _ in steps], [m for m, _, _ in steps], [r for *_, r in steps]
    assert (rollout_cost(p0, u, m_seq, refs, cfg, PARAMS, MAPS, load).hex()
            == reference_rollout_cost(p0, u, m_seq, refs, cfg, PARAMS, MAPS, load).hex())


@pytest.mark.parametrize("name", ["nmpc", "mi-nmpc"])
@pytest.mark.parametrize("load", [default_load(), default_bellow_load()], ids=["fixed", "bellow"])
def test_an_mpc_loop_builds_its_table_when_constructed(name, load):
    sc = replace(scenario_from_dict({"controller": name}), load=load)
    mpc_mod._table.cache_clear()
    loop = CONTROLLERS[name](sc)
    built = mpc_mod._table.cache_info()
    assert (built.misses, built.hits) == (1, 0)
    p_atm = sc.plant.p_atm
    loop.update(0.0, p_atm, p_atm + 5.0e4, 0.0)
    ticked = mpc_mod._table.cache_info()
    assert (ticked.misses, ticked.hits) == (1, 1)


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


def _zigzags(rng, count):
    """``count`` seeded starts within 60 kPa of atmosphere and 10-step windows that
    alternate 10–60 kPa above and below it every 2–5 steps."""
    n, atm, out = default_mpc_config().horizon_steps, PARAMS.p_atm, []
    for _ in range(count):
        refs, sign = [], 1.0 if rng.random() < 0.5 else -1.0
        while len(refs) < n:
            refs += [atm + sign * float(rng.uniform(1e4, 6e4))] * int(rng.integers(2, 6))
            sign = -sign
        out.append((float(rng.uniform(atm - 6e4, atm + 6e4)), refs[:n]))
    return out


def _backward(table, p0, refs, cfg, modes, layers, banded=True):
    bands = mpc_mod._bands(table, p0, PARAMS, len(refs), modes) if banded else [mpc_mod._FULL] * (len(refs) + 1)
    return (*mpc_mod._values(table, refs, cfg, modes, layers, bands), bands)


def test_the_switching_pass_alone_is_the_all_duties_pass():
    """MI-NMPC's own switching pass, with ``max_switches`` left, against the pass that steps
    every grid duty at every stage (``mpc_reference._all_duties_forward``), on 200 seeded
    zigzag windows at 1 and 2 switches and ``w_sw`` 0, 0.01 and 1: equal under ``==``.

    ``minmpc_solve`` keeps the least of this pass and NMPC's in each mode, so a fault in the
    switching pass alone (the layer it reads after a switch, its stage cost, its ranking)
    can hide behind them; here it cannot.
    """
    both, load = (Mode.DEFLATION, Mode.INFLATION), LOADS["fixed"]
    table = mpc_mod._table(PARAMS, load, MAPS, default_mpc_config().dt_pred)
    switched = 0
    for i, (p0, refs) in enumerate(_zigzags(np.random.default_rng(42), 200)):
        cfg = replace(default_mpc_config(), max_switches=1 + i % 2, w_sw=(0.0, 0.01, 1.0)[i % 3])
        values, costs, bands = _backward(table, p0, refs, cfg, both, cfg.max_switches + 1)
        u, m_seq = mpc_mod._forward(p0, refs, cfg, PARAMS, table, values, costs, both, cfg.max_switches, bands)
        full, _, _ = _backward(table, p0, refs, cfg, both, cfg.max_switches + 1, banded=False)
        assert (u, m_seq) == _all_duties_forward(p0, refs, cfg, PARAMS, table, full, both, cfg.max_switches, {})
        switched += mpc_mod._switches(m_seq) > 0
    assert switched > 100   # most passes do switch


def test_on_equal_costs_a_stage_keeps_the_first_candidate():
    # A one-step window whose reference is the shut valve's step: the shut valve costs 0 in
    # either mode, its steps are equal, and the value after the horizon is 0.  The stage
    # keeps the first mode, deflation, and so does MI-NMPC, whose passes then tie.
    cfg, load = replace(default_mpc_config(), horizon_steps=1), LOADS["fixed"]
    table = mpc_mod._table(PARAMS, load, MAPS, cfg.dt_pred)
    p0 = PARAMS.p_atm + 4.0e4
    refs = [table[Mode.DEFLATION].steps[0](p0, cfg.dt_pred)]
    assert refs == [table[Mode.INFLATION].steps[0](p0, cfg.dt_pred)]
    both = (Mode.DEFLATION, Mode.INFLATION)
    values, costs, bands = _backward(table, p0, refs, cfg, both, 1)
    shut = ([MAPS[Mode.DEFLATION].u_min], [Mode.DEFLATION])
    assert mpc_mod._forward(p0, refs, cfg, PARAMS, table, values, costs, both, 0, bands) == shut
    sol = minmpc_solve(p0, refs, cfg, PARAMS, MAPS, load)
    assert (list(sol.u_seq), list(sol.m_seq), sol.cost, sol.iterations) == (*shut, 0.0, 2)


class _Recorded(dict):
    """A held-step memo that records the (mode, duty index, pressure) of each step a forward pass looks up."""

    def __init__(self):
        super().__init__()
        self.order = []

    def get(self, key, default=None):
        self.order.append(key)
        return super().get(key, default)


def _walk(cost, jq):
    """The duty indices a stage steps, in order: ``jq``, leftward while the exact ``cost``
    falls, then rightward from ``jq + 1`` while it falls below the one before."""
    order, j = [jq], jq - 1
    while j >= 0:
        order.append(j)
        if not cost[j] < cost[j + 1]:
            break
        j -= 1
    j = jq + 1
    while j < len(cost):
        order.append(j)
        if not cost[j] < cost[j - 1]:
            break
        j += 1
    return order


def _assert_stages_walk(table, cfg, problems, mode):
    """NMPC's forward pass in ``mode`` starts each stage at the duty whose backward-pass cost,
    interpolated at the exact pressure (``np.interp``), is least, and steps the duties
    :func:`_walk` names from it."""
    p_neg, inv_h = mpc_mod._grid(PARAMS)
    grid, a = np.linspace(PARAMS.p_neg, PARAMS.p_pos, mpc_mod.GRID_PRESSURES), table[mode]
    for p0, refs in problems:
        values, costs, bands = _backward(table, p0, refs, cfg, (mode,), 1)
        full, full_costs, _ = _backward(table, p0, refs, cfg, (mode,), 1, banded=False)
        row = mpc_mod._mode_rows(full)[mode]
        held = _Recorded()
        u, _ = mpc_mod._forward(p0, refs, cfg, PARAMS, table, values, costs, (mode,), 0, bands, held)
        p = p0
        for k, r in enumerate(refs):
            stage = [j for m, j, q in held.order if q == p]
            ranked = [np.interp(p, grid, column) for column in full_costs[k][0, row].T[:len(a.duties)]]
            assert ranked[stage[0]] <= min(ranked) * (1 + 1e-12)
            cost = []
            for x, step in zip(a.fractions, a.steps):
                q = step(p, cfg.dt_pred)
                e, v = q - r, full[k + 1][0, row].tolist()
                cost.append(cfg.w_e * e * e + cfg.w_u * x * x + mpc_mod._interp(v, 0, q, p_neg, inv_h))
            assert stage == _walk(cost, stage[0])
            p = held[mode, a.duties.index(u[k]), p]


@pytest.mark.parametrize("w_u", [1e-2, 10.0])
@pytest.mark.parametrize("load", ["fixed", "bellow"])
def test_a_stage_steps_the_duties_its_walk_names(load, w_u):
    # The default effort weight, and one at which the effort term outweighs the tracking term.
    cfg = replace(default_mpc_config(), w_u=w_u)
    table = mpc_mod._table(PARAMS, LOADS[load], MAPS, cfg.dt_pred)
    for mode in Mode:
        _assert_stages_walk(table, cfg, _windows(np.random.default_rng(9), 12), mode)


def test_a_stage_stops_its_walk_at_an_equal_cost():
    # Each duty of the default table is entered twice, so a walk meets equal exact costs
    # next to each other, and stops at the second of them.
    cfg = default_mpc_config()
    full = mpc_mod._table(PARAMS, LOADS["fixed"], MAPS, cfg.dt_pred)
    rows = []
    for m in Mode:
        a, nxt = full[m], full.nxt[m, :, :len(full[m].duties)].T.tolist()
        rows.append(tuple([x for x in seq for _ in range(2)] for seq in (a.duties, a.fractions, a.steps, nxt)))
    table = mpc_mod._stack(rows, PARAMS)
    for mode in Mode:
        _assert_stages_walk(table, cfg, _windows(np.random.default_rng(10), 6), mode)


def test_the_references_are_held_within_twice_the_declared_gauge_reach():
    cfg, bound = default_mpc_config(), 2.0 * plant_mod.PA_MAX
    for edge in (bound, -bound):
        refs = [edge] * cfg.horizon_steps
        assert math.isfinite(minmpc_solve(PARAMS.p_atm, refs, cfg, PARAMS, MAPS, LOADS["fixed"]).cost)
        refs[-1] = math.nextafter(edge, 2.0 * edge)
        with pytest.raises(ValueError, match="ref_seq"):
            minmpc_solve(PARAMS.p_atm, refs, cfg, PARAMS, MAPS, LOADS["fixed"])
