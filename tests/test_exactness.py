"""The fused RK4 kernel and the memoized MPC solvers are exact.

Each optimized path is compared bit for bit with a reference assembled here
from public building blocks only: four ``pressure_rate`` evaluations for one
RK4 step, full ``rollout_cost`` evaluations for coordinate descent, and
``mode_sequences`` plus the documented tie-break for MI-NMPC.
"""

import math
import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pneuctrl.config import default_bellow_load, default_load, default_maps, default_mpc_config, default_plant
from pneuctrl.mpc import _descend, minmpc_solve, mode_sequences, rollout_cost
from pneuctrl.optim import golden_section
from pneuctrl.plant import LoadModel, Mode, PlantState, pressure_rate, rk4_kernel, step
from pneuctrl.valvemap import SpoolMap

PARAMS = default_plant()
MAPS = default_maps()
LOADS = {"fixed": default_load(), "bellow": default_bellow_load(), "none": None}


def reference_step(p, x_bar, m, dt, params, load):
    """Classic RK4 from four rate evaluations, clamped to the source rails."""
    k1 = pressure_rate(p, x_bar, m, params, load)
    k2 = pressure_rate(p + 0.5 * dt * k1, x_bar, m, params, load)
    k3 = pressure_rate(p + 0.5 * dt * k2, x_bar, m, params, load)
    k4 = pressure_rate(p + dt * k3, x_bar, m, params, load)
    p_new = p + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return min(max(p_new, params.p_neg), params.p_pos)


def reference_descend(p0, ref_seq, m_seq, cfg, params, maps, load, u_init):
    """Coordinate descent in which every line-search evaluation is a full public rollout."""
    n = cfg.horizon_steps
    bounds = [(maps[m].u_min, maps[m].u_max) for m in m_seq]
    if u_init is None:
        u = [lo for lo, _ in bounds]
    else:
        u = [min(hi, max(lo, float(v))) for (lo, hi), v in zip(bounds, u_init)]
    cost = rollout_cost(p0, u, m_seq, ref_seq, cfg, params, maps, load)
    trace = [cost]
    sweeps = 0
    improved = True
    for _ in range(cfg.max_iters):
        improved = False
        for k in range(n):
            def line(v, k=k):
                trial = list(u)
                trial[k] = v
                return rollout_cost(p0, trial, m_seq, ref_seq, cfg, params, maps, load)

            v_best, c_best, _ = golden_section(line, bounds[k][0], bounds[k][1], tol=cfg.line_tol)
            if c_best < cost - 1e-15:
                u[k] = v_best
                cost = c_best
                improved = True
        sweeps += 1
        trace.append(cost)
        if not improved:
            break
    return u, cost, sweeps, improved and sweeps == cfg.max_iters, trace


N = default_mpc_config().horizon_steps
INFL, DEFL = Mode.INFLATION, Mode.DEFLATION
SEQUENCES = {
    "inflation": (INFL,) * N,
    "deflation": (DEFL,) * N,
    "switching": (DEFL,) * 4 + (INFL,) * (N - 4),
}
# Start below atmosphere and track a ramp that crosses it.
P0 = PARAMS.p_atm - 3.0e4
REFS = [PARAMS.p_atm - 2.0e4 + 8.0e3 * k for k in range(N)]


@pytest.mark.parametrize("load_name", sorted(LOADS))
@pytest.mark.parametrize("seq_name", sorted(SEQUENCES))
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_descend_matches_full_rollout_descent(load_name, seq_name, warm):
    cfg = default_mpc_config()
    m_seq = SEQUENCES[seq_name]
    u_init = [35.0 + 5.0 * k for k in range(N)] if warm else None
    args = (P0, REFS, m_seq, cfg, PARAMS, MAPS, LOADS[load_name], u_init)
    u, cost, sweeps, hit_cap, trace = _descend(*args)
    u_ref, cost_ref, sweeps_ref, hit_cap_ref, trace_ref = reference_descend(*args)
    assert u == u_ref
    assert cost == cost_ref
    assert (sweeps, hit_cap) == (sweeps_ref, hit_cap_ref)
    assert trace == trace_ref


LOAD_CHOICES = [None, default_load(), default_bellow_load(),
                LoadModel.affine_bellow(v0=1.25e-5, k_v=8.93e-11, v_min=1.0e-6, v_max=2.5e-5)]


@settings(max_examples=300, deadline=None)
@given(
    p=st.floats(PARAMS.p_neg, PARAMS.p_pos),
    x_bar=st.floats(0.0, 1.0),
    m=st.sampled_from([INFL, DEFL]),
    dt=st.floats(1e-5, 0.5),
    load=st.sampled_from(LOAD_CHOICES),
)
def test_step_is_four_rate_rk4_and_stays_on_the_rails(p, x_bar, m, dt, load):
    out = step(PlantState(p_out=p, t=1.0), x_bar, m, dt, PARAMS, load)
    assert PARAMS.p_neg <= out.p_out <= PARAMS.p_pos
    assert out.p_out.hex() == reference_step(p, x_bar, m, dt, PARAMS, load).hex()
    assert out.t == 1.0 + dt


def test_kernel_is_cached_per_params_and_load_value():
    assert rk4_kernel(PARAMS, LoadModel.fixed(2.0e-5)) is rk4_kernel(PARAMS, LoadModel.fixed(2.0e-5))
    assert rk4_kernel(PARAMS, None) is not rk4_kernel(PARAMS, default_bellow_load())
    assert rk4_kernel(default_plant(), None) is not rk4_kernel(PARAMS, None)


def test_params_with_built_kernels_still_pickle():
    rk4_kernel(PARAMS, default_bellow_load())
    copy = pickle.loads(pickle.dumps(PARAMS))
    assert copy == PARAMS
    state = PlantState(p_out=PARAMS.p_atm + 3e4)
    args = (0.5, Mode.INFLATION, 1e-3)
    assert step(state, *args, copy, default_bellow_load()) == step(state, *args, PARAMS, default_bellow_load())


@pytest.mark.parametrize(
    "p, x_bar, dt, error",
    [
        (math.nan, 0.5, 1e-3, ValueError),          # stage pressure outside the domain
        (PARAMS.p_atm, 1.5, 1e-3, ValueError),      # spool fraction outside [0, 1]
        (PARAMS.p_atm, 0.5, -1e-3, ValueError),     # non-positive step
        (PARAMS.p_atm + 3e4, 0.5, 1e308, ArithmeticError),  # non-finite result
    ],
)
def test_step_keeps_its_checks(p, x_bar, dt, error):
    for load in (None, default_bellow_load()):
        with pytest.raises(error):
            step(PlantState(p_out=p), x_bar, Mode.INFLATION, dt, PARAMS, load)


def reference_minmpc(p0, ref_seq, cfg, params, maps, load):
    """MI-NMPC from public parts: full-rollout descent per mode sequence, then the tie-break."""
    best, best_key, total_sweeps, any_cap = None, None, 0, False
    for m_seq in mode_sequences(cfg.horizon_steps, cfg.max_switches):
        u, cost, sweeps, hit_cap, trace = reference_descend(p0, ref_seq, m_seq, cfg, params, maps, load, None)
        total_sweeps += sweeps
        any_cap = any_cap or hit_cap
        n_sw = sum(1 for a, b in zip(m_seq[:-1], m_seq[1:]) if a != b)
        key = (cost, n_sw, u[0])
        if best_key is None or key < best_key:
            best_key, best = key, (tuple(u), m_seq, cost, tuple(trace))
    u, m_seq, cost, trace = best
    return {"u_seq": u, "m_seq": m_seq, "cost": cost, "iterations": total_sweeps,
            "hit_iter_cap": any_cap, "cost_trace": trace}


def solution_fields(sol):
    return {name: getattr(sol, name) for name in
            ("u_seq", "m_seq", "cost", "iterations", "hit_iter_cap", "cost_trace")}


N_MI = 6
MI_REFS = REFS[:N_MI]
# With one cubic for both modes the same duty gives the same spool fraction in
# either mode, so a step memo keyed without the mode would mix them up.
MI_MAPS = {
    "per-mode": MAPS,
    "one-cubic": (SpoolMap(a=MAPS[INFL].a, mode=DEFL), SpoolMap(a=MAPS[INFL].a, mode=INFL)),
}


@pytest.mark.parametrize("maps_name", sorted(MI_MAPS))
@pytest.mark.parametrize("load_name", sorted(LOADS))
@pytest.mark.parametrize("max_switches", [0, 1, 2])
def test_minmpc_matches_full_rollout_reference(maps_name, load_name, max_switches):
    cfg = replace(default_mpc_config(), horizon_steps=N_MI, max_switches=max_switches)
    args = (P0, MI_REFS, cfg, PARAMS, MI_MAPS[maps_name], LOADS[load_name])
    assert solution_fields(minmpc_solve(*args)) == reference_minmpc(*args)


def test_minmpc_step_memo_does_not_outlive_a_solve():
    # Same start and references, so both solves meet the same (p, x_bar, mode) steps.
    c = PARAMS.conductances
    weaker = replace(PARAMS, conductances=replace(
        c, c_po=0.7 * c.c_po, c_on=0.7 * c.c_on, c_oa=0.7 * c.c_oa, c_ao=0.7 * c.c_ao))
    cfg = replace(default_mpc_config(), horizon_steps=N_MI)
    first = minmpc_solve(P0, MI_REFS, cfg, PARAMS, MAPS, default_load())
    second = minmpc_solve(P0, MI_REFS, cfg, weaker, MAPS, default_load())
    assert solution_fields(first) == reference_minmpc(P0, MI_REFS, cfg, PARAMS, MAPS, default_load())
    assert solution_fields(second) == reference_minmpc(P0, MI_REFS, cfg, weaker, MAPS, default_load())
    assert second.cost != first.cost


@settings(max_examples=200, deadline=None)
@given(
    lo=st.floats(-1e3, 1e3),
    width=st.floats(1e-3, 1e3),
    centre=st.floats(-0.5, 1.5),
    ripple=st.floats(0.0, 10.0),
    tol=st.floats(1e-6, 1.0),
)
def test_golden_section_argmin_in_bracket_and_value_is_f_of_it(lo, width, centre, ripple, tol):
    hi = lo + width

    def f(v):
        z = (v - lo) / width - centre
        return z * z + ripple * math.sin(7.0 * z)

    x, fx, evals = golden_section(f, lo, hi, tol=tol)
    assert lo <= x <= hi
    assert fx == f(x)
    assert 2 <= evals <= 200
