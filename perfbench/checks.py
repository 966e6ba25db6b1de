"""Output checks.  Each returns the list of problems found; empty means correct.

The checks read only what the program wrote or returned and use no pneuctrl
function, so they add nothing to the traced counters.
"""

from __future__ import annotations

import math
from typing import Sequence

# Acceptance 3: multi-step DM-SMC mean absolute error band, kPa.
MULTISTEP_SMC_AE_BAND = (0.5, 3.0)
# Acceptance 6 on the noiseless protocol: the conductance and spool-map bounds.
COND_REL_TOL = 0.05
MAP_ABS_TOL = 0.02
MAP_GRID_STEP = 0.25          # duty grid of the map comparison, %
MAP_DUTY_RANGE = (20.0, 100.0)
# MI-NMPC searches a superset of NMPC's space, so its cost may not exceed NMPC's.
COST_REL_TOL = 1e-9
# Trajectory CSVs round gauge pressures to 1e-6 kPa.
RAIL_TOL_KPA = 1e-6


def check_exit(name: str, code) -> list[str]:
    """``code`` is the CLI's exit code, or the text of the exception it raised."""
    if code == 0:
        return []
    return [f"{name}: exit code {code}" if isinstance(code, int) else f"{name}: raised {code}"]


def check_rails(name: str, ptrue_kpa: Sequence[float], lo_kpa: float, hi_kpa: float) -> list[str]:
    """True pressure stays inside [p_neg, p_pos] (gauge kPa)."""
    lo, hi = min(ptrue_kpa), max(ptrue_kpa)
    if lo < lo_kpa - RAIL_TOL_KPA or hi > hi_kpa + RAIL_TOL_KPA:
        return [f"{name}: ptrue in [{lo:.3f}, {hi:.3f}] kPa leaves rails [{lo_kpa}, {hi_kpa}]"]
    return []


def check_tracking(scenario: str, ae_smc: float, ae_pid: float, multistep: bool) -> list[str]:
    """DM-SMC beats PID; on the multi-step scenario it also stays in the acceptance band."""
    problems = []
    if not ae_smc < ae_pid:
        problems.append(f"{scenario}: DM-SMC AE {ae_smc:.4f} not below PID AE {ae_pid:.4f} kPa")
    lo, hi = MULTISTEP_SMC_AE_BAND
    if multistep and not lo <= ae_smc <= hi:
        problems.append(f"{scenario}: DM-SMC AE {ae_smc:.4f} kPa outside [{lo}, {hi}]")
    return problems


def check_solution(name: str, cost: float, u_seq, m_seq, bounds) -> list[str]:
    """Finite cost, and every duty inside its mode's map range ``bounds[m] = (u_min, u_max)``."""
    problems = []
    if not math.isfinite(cost):
        problems.append(f"{name}: cost {cost!r} not finite")
    for k, (u, m) in enumerate(zip(u_seq, m_seq)):
        lo, hi = bounds[int(m)]
        if not lo <= u <= hi:
            problems.append(f"{name}: duty {u!r} at step {k} outside [{lo}, {hi}] for mode {int(m)}")
    return problems


def check_mi_not_worse(mi_cost: float, nmpc_cost: float) -> list[str]:
    if mi_cost <= nmpc_cost + COST_REL_TOL * abs(nmpc_cost):
        return []
    return [f"MI-NMPC cost {mi_cost!r} above NMPC cost {nmpc_cost!r}"]


def _cubic01(a: Sequence[float], u: float) -> float:
    x = a[0] + u * (a[1] + u * (a[2] + u * a[3]))
    return min(1.0, max(0.0, x))


def map_error(a_fit: Sequence[float], a_true: Sequence[float]) -> float:
    """Largest spool-fraction gap between two clipped cubics on the duty grid."""
    lo, hi = MAP_DUTY_RANGE
    n = int(round((hi - lo) / MAP_GRID_STEP))
    return max(
        abs(_cubic01(a_fit, u) - _cubic01(a_true, u))
        for u in (lo + i * MAP_GRID_STEP for i in range(n + 1))
    )


def check_identification(mode: str, ident: dict, truth: dict) -> tuple[list[str], float, float]:
    """Compare one ``identification.json`` with the synthesis truth.

    Returns (problems, worst relative conductance error, map error).
    """
    problems = []
    cond_err = 0.0
    for name, fit in ident["conductances"].items():
        err = abs(fit["value"] / truth["conductances"][name] - 1.0)
        cond_err = max(cond_err, err)
        if err > COND_REL_TOL:
            problems.append(f"{mode}: {name} off by {100 * err:.2f}% (> {100 * COND_REL_TOL:.0f}%)")
    m_err = map_error(ident["spool_map"]["a"], truth["maps"][mode]["a"])
    if m_err > MAP_ABS_TOL:
        problems.append(f"{mode}: spool map off by {m_err:.4f} (> {MAP_ABS_TOL})")
    return problems, cond_err, m_err
