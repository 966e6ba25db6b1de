"""The fused RK4 kernel and the memoized, branch-and-bound MPC solvers are exact.

Each optimized path is compared bit for bit with a reference assembled here
from public building blocks only: four ``pressure_rate`` evaluations for one
RK4 step, full ``rollout_cost`` evaluations for coordinate descent, and
``mode_sequences`` plus the documented tie-break for MI-NMPC.  Only the
MI-NMPC search counters, which depend on what branch and bound pruned, are
checked against a reference branch and bound over the solver's own bounds.
"""

import math
import pickle
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pneuctrl import mpc as mpc_mod
from pneuctrl.config import default_bellow_load, default_load, default_maps, default_mpc_config, default_plant
from pneuctrl.mpc import (
    _BOUND_MARGIN_PA,
    _PRUNE_SLACK,
    _bound_walk,
    _descend,
    _sequence_bounds,
    minmpc_solve,
    mode_sequences,
    rollout_cost,
)
from pneuctrl.optim import golden_section
from pneuctrl.plant import Conductances, LoadModel, Mode, PlantState, pressure_rate, rk4_hold, step
from pneuctrl.valvemap import SpoolMap, eval_spool, spool_range

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


def test_sweep_after_a_last_improvement_at_coordinate_0_skips_every_search(monkeypatch):
    # From 150 kPa gauge on a rising ramp the first sweep improves every duty,
    # the second only u[0], so the third would repeat all four line searches.
    n = 4
    cfg = replace(default_mpc_config(), horizon_steps=n)
    args = (PARAMS.p_atm + 1.5e5, [PARAMS.p_atm + 1.5e5 + 5.0e3 * k for k in range(n)],
            (INFL,) * n, cfg, PARAMS, MAPS, default_load(), None)
    searches = []

    def counted(*a, **kw):
        searches.append(a[1:3])
        return golden_section(*a, **kw)

    monkeypatch.setattr(mpc_mod, "golden_section", counted)
    u, cost, sweeps, hit_cap, trace = _descend(*args)
    assert (u, cost, sweeps, hit_cap, trace) == reference_descend(*args)
    assert sweeps == 3 and trace[-1] == trace[-2] < trace[-3]
    assert len(searches) == 2 * n


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
    assert rk4_hold(PARAMS, LoadModel.fixed(2.0e-5)) is rk4_hold(PARAMS, LoadModel.fixed(2.0e-5))
    assert rk4_hold(PARAMS, None) is not rk4_hold(PARAMS, default_bellow_load())
    assert rk4_hold(default_plant(), None) is not rk4_hold(PARAMS, None)


def test_params_with_built_kernels_still_pickle():
    rk4_hold(PARAMS, default_bellow_load())
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


def n_switches(m_seq):
    return sum(1 for a, b in zip(m_seq[:-1], m_seq[1:]) if a != b)


def enumerate_minmpc(p0, ref_seq, cfg, params, maps, load, descend):
    """MI-NMPC by full enumeration: ``descend`` on every mode sequence, then the tie-break.

    The solution fields come from the full enumeration, in enumeration order,
    with the first of equal ``(cost, switches, first duty)`` keys winning.
    The search counters come from a reference branch and bound: the solver's
    bounds, descents in ascending ``(bound, index)`` order, and a stop at the
    first bound above the lowest descended cost by the relative slack.
    """
    seqs = list(mode_sequences(cfg.horizon_steps, cfg.max_switches))
    results = [descend(m_seq) for m_seq in seqs]
    best, best_key = None, None
    for m_seq, (u, cost, _, _, trace) in zip(seqs, results):
        key = (cost, n_switches(m_seq), u[0])
        if best_key is None or key < best_key:
            best_key, best = key, (tuple(u), m_seq, cost, tuple(trace))
    bounds = _sequence_bounds(p0, ref_seq, seqs, cfg, params, maps, load)
    best_cost, total_sweeps, any_cap, descended = math.inf, 0, False, 0
    for i in sorted(range(len(seqs)), key=lambda i: (bounds[i], i)):
        if descended and bounds[i] > best_cost * (1.0 + _PRUNE_SLACK):
            break
        _, cost, sweeps, hit_cap, _ = results[i]
        descended += 1
        total_sweeps += sweeps
        any_cap = any_cap or hit_cap
        best_cost = min(best_cost, cost)
    u, m_seq, cost, trace = best
    return {"u_seq": u, "m_seq": m_seq, "cost": cost, "iterations": total_sweeps,
            "hit_iter_cap": any_cap, "cost_trace": trace, "descended": descended}


def reference_minmpc(p0, ref_seq, cfg, params, maps, load):
    """MI-NMPC from full-rollout descents of every mode sequence; see enumerate_minmpc."""
    def descend(m_seq):
        return reference_descend(p0, ref_seq, m_seq, cfg, params, maps, load, None)

    return enumerate_minmpc(p0, ref_seq, cfg, params, maps, load, descend)


def solution_fields(sol):
    return {name: getattr(sol, name) for name in
            ("u_seq", "m_seq", "cost", "iterations", "hit_iter_cap", "cost_trace", "descended")}


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


BOUND_LOADS = [default_load(), default_bellow_load(), None]
PRESSURE = st.floats(PARAMS.p_neg, PARAMS.p_pos)


@st.composite
def bound_problems(draw):
    """A start pressure, and references, duties and modes over a horizon of 1..N steps."""
    n = draw(st.integers(1, N))
    steps = st.tuples(PRESSURE, st.floats(MAPS[DEFL].u_min, MAPS[DEFL].u_max), st.sampled_from([DEFL, INFL]))
    refs, u_seq, m_seq = zip(*draw(st.lists(steps, min_size=n, max_size=n)))
    return draw(PRESSURE), list(refs), list(u_seq), list(m_seq)


@st.composite
def channels(draw):
    """The default channel and maps with a verified load, or a channel drawn off them.

    The drawn channel rescales the volumes and each conductance by 0.1-10x
    and may take a spool map whose lowest spool fraction is not zero.
    """
    load = draw(st.sampled_from(BOUND_LOADS))
    if draw(st.booleans()):
        return PARAMS, MAPS, load
    scale = st.floats(0.1, 10.0)
    c = PARAMS.conductances
    params = replace(PARAMS, volume=PARAMS.volume * draw(scale), conductances=Conductances(
        c.c_po * draw(scale), c.c_on * draw(scale), c.c_oa * draw(scale), c.c_ao * draw(scale)))
    if load is not None:
        load = replace(load, v0=load.v0 * draw(scale))
    maps = draw(st.sampled_from([MAPS, tuple(replace(m, a=(0.0, 0.006, -4e-5, 0.0)) for m in MAPS)]))
    return params, maps, load


# A quarter of the volume makes the channel four times stiffer.  Near the
# supply rail its RK4 step at 65 % duty then lands about 41 Pa above the
# steps at both ends of the spool range, more than the interval margin.
STIFF = replace(PARAMS, volume=PARAMS.volume / 4)
STIFF_P0, STIFF_U = PARAMS.p_atm + 196.549e3, 65.0
STIFF_REF = rk4_hold(STIFF)(eval_spool(STIFF_U, MAPS[INFL]), True)(STIFF_P0, 0.01)


@settings(max_examples=300, deadline=None)
@given(
    problem=bound_problems(),
    channel=channels(),
    dt=st.sampled_from([0.002, 0.01, 0.05]),
    w_u=st.sampled_from([0.0, default_mpc_config().w_u]),
)
# Affine bellow in deflation near the vacuum rail (-91 kPa gauge), where the
# RK4 step departs most from the order of the exact flow: without the
# interval margin this bound exceeds the rollout's cost.
@example(problem=(PARAMS.p_atm - 90.81e3, [PARAMS.p_neg], [99.0], [DEFL]),
         channel=(PARAMS, MAPS, default_bellow_load()), dt=0.01, w_u=0.0)
@example(problem=(STIFF_P0, [STIFF_REF], [STIFF_U], [INFL]), channel=(STIFF, MAPS, None), dt=0.01, w_u=0.0)
def test_sequence_bound_is_below_every_rollout(problem, channel, dt, w_u):
    p0, refs, u_seq, m_seq = problem
    params, maps, load = channel
    cfg = replace(default_mpc_config(), horizon_steps=len(refs), dt_pred=dt, w_u=w_u)
    bound = _sequence_bounds(p0, refs, [tuple(m_seq)], cfg, params, maps, load)[0]
    assert bound <= rollout_cost(p0, u_seq, m_seq, refs, cfg, params, maps, load)


def test_bound_uses_the_rails_off_the_verified_channels(monkeypatch):
    cfg = replace(default_mpc_config(), horizon_steps=1, w_u=0.0)
    args = (STIFF_P0, [STIFF_REF], [(INFL,)], cfg, STIFF, MAPS, None)
    assert rollout_cost(STIFF_P0, [STIFF_U], [INFL], [STIFF_REF], cfg, STIFF, MAPS, None) == 0.0
    assert _sequence_bounds(*args) == [0.0]

    monkeypatch.setattr(mpc_mod, "_interval_verified", lambda *args: True)
    assert _sequence_bounds(*args)[0] > 0.0


def reference_bounds(p0, ref_seq, seqs, cfg, params, maps, load):
    """Every sequence's bound from an eager pass over its prefixes, one sequence after another."""
    hold = rk4_hold(params, load)
    interval = mpc_mod._interval_verified(cfg.dt_pred, params, maps, load)
    trie = {(): (p0, p0, 0.0)}
    out = []
    for m_seq in seqs:
        for k, m in enumerate(m_seq):
            if m_seq[:k + 1] in trie:
                continue
            lo, hi, score = trie[m_seq[:k]]
            x_lo, x_hi = spool_range(maps[m])
            if interval:
                lo = max(params.p_neg, min(hold(x, m == INFL)(lo, cfg.dt_pred) for x in (x_lo, x_hi))
                         - _BOUND_MARGIN_PA)
                hi = min(params.p_pos, max(hold(x, m == INFL)(hi, cfg.dt_pred) for x in (x_lo, x_hi))
                         + _BOUND_MARGIN_PA)
            else:
                lo, hi = params.p_neg, params.p_pos
            r = ref_seq[k]
            d = lo - r if r < lo else r - hi if r > hi else 0.0
            trie[m_seq[:k + 1]] = (lo, hi, score + (cfg.w_e * d * d + cfg.w_u * x_lo * x_lo))
        out.append(trie[m_seq][2] + cfg.w_sw * n_switches(m_seq))
    return out


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 8),
    max_switches=st.integers(0, 3),
    channel=channels(),
    one_cubic=st.booleans(),
    dt=st.sampled_from([0.002, 0.01, 0.05]),
    w_e=st.sampled_from([0.0, default_mpc_config().w_e]),
    w_u=st.sampled_from([0.0, default_mpc_config().w_u]),
    w_sw=st.sampled_from([0.0, default_mpc_config().w_sw]),
)
def test_walk_yields_the_eager_bounds_in_bound_then_index_order(
    data, n, max_switches, channel, one_cubic, dt, w_e, w_u, w_sw,
):
    # Any subset of the sequences in any order; zero weights make many bounds tie.
    seqs = data.draw(st.permutations(list(mode_sequences(n, max_switches))))
    seqs = seqs[:data.draw(st.integers(1, len(seqs)))]
    p0 = data.draw(PRESSURE)
    refs = data.draw(st.lists(PRESSURE, min_size=n, max_size=n))
    params, maps, load = channel
    if one_cubic:
        maps = MI_MAPS["one-cubic"]
    cfg = replace(default_mpc_config(), horizon_steps=n, dt_pred=dt, w_e=w_e, w_u=w_u, w_sw=w_sw)
    args = (p0, refs, seqs, cfg, params, maps, load)

    bounds = _sequence_bounds(*args)
    assert bounds == reference_bounds(*args)
    walked = list(_bound_walk(*args))
    assert walked == sorted((b, i) for i, b in enumerate(bounds))
    # The walk stops at the first bound above the cutoff.
    limit = data.draw(st.sampled_from(sorted(set(bounds)) + [-1.0]))
    assert list(_bound_walk(*args, cutoff=lambda: limit)) == [(b, i) for b, i in walked if b <= limit]


def test_walk_steps_no_prefix_above_the_cutoff():
    cfg = default_mpc_config()
    seqs = list(mode_sequences(N, cfg.max_switches))
    args = (P0, REFS, seqs, cfg, PARAMS, MAPS, default_load())
    steps = {}
    assert list(_bound_walk(*args, steps, lambda: -1.0)) == []
    assert not any(steps.values())

    # Under a cutoff at the lowest bound fewer steps are taken than by a full walk.
    bounds = _sequence_bounds(*args)
    lowest = min(bounds)
    full, cut = {}, {}
    list(_bound_walk(*args, full))
    assert list(_bound_walk(*args, cut, lambda: lowest)) == [(lowest, i) for i, b in enumerate(bounds) if b == lowest]
    assert 0 < sum(map(len, cut.values())) < sum(map(len, full.values()))


def test_walk_yields_a_repeated_sequence_at_both_indices():
    cfg = default_mpc_config()
    seqs = list(mode_sequences(N, cfg.max_switches))
    repeated = seqs[:5] + [seqs[3]] + seqs[5:]
    once, twice = {}, {}
    walked = list(_bound_walk(P0, REFS, seqs, cfg, PARAMS, MAPS, default_load(), once))
    rewalked = list(_bound_walk(P0, REFS, repeated, cfg, PARAMS, MAPS, default_load(), twice))

    bounds = {i: b for b, i in rewalked}
    order = [i for _, i in rewalked]
    assert sorted(order) == list(range(len(repeated)))
    assert bounds[3] == bounds[5] == {i: b for b, i in walked}[3]
    assert order.index(3) < order.index(5)
    # The repeat shares every prefix: the walk takes no step it did not take before.
    assert twice == once


def test_equal_keys_go_to_the_earlier_sequence(monkeypatch):
    # Both constant sequences stay at atmosphere with the valve shut: cost 0,
    # no switch, the lowest duty.  Deflation is enumerated first and wins.
    args = (PARAMS.p_atm, [PARAMS.p_atm] * N, default_mpc_config(), PARAMS, MAPS, default_load())
    sol = minmpc_solve(*args)
    assert (sol.cost, sol.switches, sol.u_seq[0]) == (0.0, 0, MAPS[DEFL].u_min)
    assert sol.m_seq == (DEFL,) * N
    assert sol.descended == 2

    # It still wins when a lower, still valid, bound has inflation descended first.
    walk = mpc_mod._bound_walk

    def inflation_first(p0, ref_seq, seqs, cfg, params, maps, load, steps, cutoff):
        lowered = sorted((b - 1.0 if seqs[i] == (INFL,) * N else b, i)
                         for b, i in walk(p0, ref_seq, seqs, cfg, params, maps, load, steps))
        for b, i in lowered:
            if b > cutoff():
                return
            yield b, i

    monkeypatch.setattr(mpc_mod, "_bound_walk", inflation_first)
    assert solution_fields(minmpc_solve(*args)) == solution_fields(sol)


ATM = PARAMS.p_atm
# Starts and reference windows on both sides of atmosphere and across it.
CROSSING_PROBLEMS = {
    "ramp-up": (P0, REFS),
    "above-to-below": (ATM + 2.0e4, [ATM - 2.0e4] * N),
    "deep-vacuum-up": (ATM - 6.0e4, [ATM + 1.0e4] * N),
    "step-down": (ATM + 8.0e4, [ATM + 5.0e4] * 5 + [ATM - 3.0e4] * (N - 5)),
    "sine": (ATM, [ATM + 3.0e4 * math.sin(0.6 * (k + 1)) for k in range(N)]),
    "near-atm": (ATM - 5.0e3, [ATM + 5.0e3 - 1.0e3 * k for k in range(N)]),
}


@pytest.mark.parametrize("problem", sorted(CROSSING_PROBLEMS))
@pytest.mark.parametrize("load_name", sorted(LOADS))
@pytest.mark.parametrize("max_switches", [1, 2])
def test_branch_and_bound_matches_full_enumeration(problem, load_name, max_switches):
    cfg = replace(default_mpc_config(), max_switches=max_switches)
    p0, refs = CROSSING_PROBLEMS[problem]
    load = LOADS[load_name]
    steps = {}   # one exact step memo for the whole enumeration, as in a solve

    def descend(m_seq):
        return _descend(p0, refs, m_seq, cfg, PARAMS, MAPS, load, None, steps)

    expected = enumerate_minmpc(p0, refs, cfg, PARAMS, MAPS, load, descend)
    assert solution_fields(minmpc_solve(p0, refs, cfg, PARAMS, MAPS, load)) == expected
    assert expected["descended"] < len(list(mode_sequences(N, max_switches)))


def test_both_modes_share_one_closed_valve_step_table():
    steps, hold = {}, rk4_hold(PARAMS, default_load())
    closed = mpc_mod._step_table(steps, hold, 0.0, True)
    assert mpc_mod._step_table(steps, hold, -0.0, False) is closed
    assert closed.key == (0.0, None)
    opened = [mpc_mod._step_table(steps, hold, 0.5, inflation) for inflation in (True, False)]
    assert opened[0] is not opened[1] and all(table is not closed for table in opened)
    assert [table.key for table in opened] == [(0.5, True), (0.5, False)]


def test_solve_reuses_its_descents_searches(monkeypatch):
    # Against the same solve with a fresh step memo and no search memo for each descent.
    p0, refs = CROSSING_PROBLEMS["above-to-below"]
    args = (p0, refs, default_mpc_config(), PARAMS, MAPS, default_load())
    searches = []

    def counted(*a, **kw):
        searches.append(a[1:3])
        return golden_section(*a, **kw)

    monkeypatch.setattr(mpc_mod, "golden_section", counted)
    shared = solution_fields(minmpc_solve(*args))
    n_shared = len(searches)
    searches.clear()
    descend = mpc_mod._descend
    monkeypatch.setattr(mpc_mod, "_descend", lambda *a: descend(*a[:8]))
    assert solution_fields(minmpc_solve(*args)) == shared
    assert shared["descended"] > 1
    assert n_shared < len(searches)


# Maps whose lowest duty opens the valve: a descent starts with no closed-valve step.
NO_DEADBAND_MAPS = tuple(replace(m, u_min=30.0) for m in MAPS)


@st.composite
def memo_problems(draw):
    """A start, a reference window and a config over 1..N steps of up to 20 ms,
    with no load, the fixed load or a drawn bellow, and maps with or without
    a deadband at the lowest duty."""
    n = draw(st.integers(1, N))
    load = draw(st.sampled_from([None, default_load(), "bellow"]))
    if load == "bellow":
        v0 = draw(st.floats(5e-6, 4e-5))
        load = LoadModel.affine_bellow(
            v0=v0, k_v=draw(st.floats(0.0, 2e-10)), v_min=1e-6, v_max=v0 * draw(st.floats(1.5, 3.0)))
    cfg = replace(default_mpc_config(), horizon_steps=n, max_switches=draw(st.integers(0, 2)),
                  dt_pred=draw(st.floats(1e-4, 0.02)))
    maps = draw(st.sampled_from([MAPS, NO_DEADBAND_MAPS]))
    return draw(PRESSURE), draw(st.lists(PRESSURE, min_size=n, max_size=n)), cfg, maps, load


@settings(max_examples=100, deadline=None)
@given(problem=memo_problems())
def test_minmpc_equals_an_enumeration_with_fresh_memos(problem):
    # The solve's shared step and search memos change no field of its solution.
    p0, refs, cfg, maps, load = problem

    def descend(m_seq):
        return _descend(p0, refs, m_seq, cfg, PARAMS, maps, load, None)

    expected = enumerate_minmpc(p0, refs, cfg, PARAMS, maps, load, descend)
    assert solution_fields(minmpc_solve(p0, refs, cfg, PARAMS, maps, load)) == expected
