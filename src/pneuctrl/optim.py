"""Bracketed scalar minimization shared by the identification and MPC solvers."""

from __future__ import annotations

from typing import Callable

_INV_PHI = 0.6180339887498949
# Evaluation cap: ends the search when ``tol`` is below the bracket's float
# resolution, where the interval stops shrinking.
_MAX_EVALS = 200


def golden_section(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-6,
) -> tuple[float, float, int]:
    """Minimize ``f`` on [lo, hi] by golden-section search.

    Returns (argmin, value, evaluations).  Deterministic for deterministic f;
    unimodality is assumed, non-unimodal functions yield a local minimum.
    """
    if hi <= lo:
        raise ValueError("golden_section needs lo < hi")
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    evals = 2
    while (b - a) > tol and evals < _MAX_EVALS:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
        evals += 1
    if fc <= fd:
        return c, fc, evals
    return d, fd, evals
