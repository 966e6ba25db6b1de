"""Static PWM-duty to averaged-spool-fraction map and its bounded inverse.

The delivery valve is driven by PWM; over one carrier period the spool
averages to an effective opening in [0, 1].  A cubic polynomial calibrated
per mode captures that relation over the calibrated duty range.  Calibrated
cubics can carry a slight regression wiggle near the top of the range, so
monotonicity is validated with a small slope tolerance and inversion returns
the lowest duty attaining the requested opening.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .plant import Checked, Mode, check_value

# Largest tolerated local decrease of the raw cubic, fraction per % duty.
DEFAULT_SLOPE_TOL = 2e-3

_GRID_STEP = 0.05        # duty grid pitch for the inversion table, %
_INVERT_TOL = 1e-7       # duty bisection tolerance, %


def _cubic(a: Sequence[float], u: float) -> float:
    return a[0] + u * (a[1] + u * (a[2] + u * a[3]))


def _cubic_slope(a: Sequence[float], u: float) -> float:
    return a[1] + u * (2.0 * a[2] + 3.0 * a[3] * u)


def _min_slope_on(a: Sequence[float], lo: float, hi: float) -> float:
    """Exact minimum of the cubic's derivative on [lo, hi]."""
    candidates = [_cubic_slope(a, lo), _cubic_slope(a, hi)]
    if a[3] != 0.0:
        u_inflect = -a[2] / (3.0 * a[3])
        if lo < u_inflect < hi:
            candidates.append(_cubic_slope(a, u_inflect))
    return min(candidates)


@dataclass(frozen=True)
class SpoolMap(Checked):
    """Cubic duty->spool-fraction calibration for one mode.

    ``a`` holds coefficients (a0, a1, a2, a3) with duty in percent; raw
    values are clipped to [0, 1].  The map is valid on [u_min, u_max] and
    saturates rather than extrapolates outside the calibrated range.
    """

    a: tuple[float, float, float, float]
    u_min: float = 20.0
    u_max: float = 100.0
    mode: Mode = Mode.INFLATION
    _grid_u: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _grid_hull: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (isinstance(self.a, (tuple, list)) and len(self.a) == 4):
            raise ValueError(f"a must be four cubic coefficients, got {self.a!r}")
        object.__setattr__(self, "a", tuple(check_value(v, "float", "a") for v in self.a))
        super().__post_init__()
        if not (0.0 <= self.u_min < self.u_max <= 100.0):
            raise ValueError("duty bounds must satisfy 0 <= u_min < u_max <= 100")
        if _min_slope_on(self.a, self.u_min, self.u_max) < -DEFAULT_SLOPE_TOL:
            raise ValueError(
                "calibration error: spool map decreases faster than the slope "
                f"tolerance {DEFAULT_SLOPE_TOL} on [{self.u_min}, {self.u_max}]"
            )
        if _cubic(self.a, self.u_max) <= _cubic(self.a, self.u_min):
            raise ValueError("calibration error: spool map does not rise over its range")
        # The inversion table: duties every _GRID_STEP from u_min, the last at u_max, and the running maximum
        # of the clipped cubic over them, each formed as spool_fraction forms it at one duty.
        n = int(math.ceil((self.u_max - self.u_min) / _GRID_STEP)) + 1
        us = np.minimum(self.u_min + np.arange(n) * _GRID_STEP, self.u_max)
        a0, a1, a2, a3 = self.a
        hull = np.maximum.accumulate(np.clip(a0 + us * (a1 + us * (a2 + us * a3)), 0.0, 1.0))
        object.__setattr__(self, "_grid_u", tuple(us.tolist()))
        object.__setattr__(self, "_grid_hull", tuple(hull.tolist()))

    def to_dict(self) -> dict:
        return {
            "a": list(self.a),
            "u_min": self.u_min,
            "u_max": self.u_max,
            "mode": self.mode.name.lower(),
        }


def spool_fraction(a: Sequence[float], u: float) -> float:
    """The cubic ``a`` at duty ``u`` clipped to [0, 1]: :func:`eval_spool` of the cubic ``a``, unchecked."""
    x = a[0] + u * (a[1] + u * (a[2] + u * a[3]))
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x


def eval_spool(u: float, spool_map: SpoolMap) -> float:
    """Spool fraction commanded by duty ``u`` (percent), clipped to [0, 1]."""
    if not (0.0 <= u <= 100.0):
        raise ValueError(f"duty {u!r} outside [0, 100] %")
    return spool_fraction(spool_map.a, u)


def spool_range(spool_map: SpoolMap) -> tuple[float, float]:
    """Lowest and highest spool fraction of any duty in [u_min, u_max].

    The clipped cubic takes its extrema where the raw cubic does: at the
    range ends or at a critical point inside.
    """
    a, lo, hi = spool_map.a, spool_map.u_min, spool_map.u_max
    duties = [lo, hi]
    if a[3] != 0.0:
        disc = a[2] * a[2] - 3.0 * a[1] * a[3]
        if disc >= 0.0:
            root = math.sqrt(disc)
            duties += [(-a[2] - root) / (3.0 * a[3]), (-a[2] + root) / (3.0 * a[3])]
    elif a[2] != 0.0:
        duties.append(-a[1] / (2.0 * a[2]))
    xs = [eval_spool(u, spool_map) for u in duties if lo <= u <= hi]
    return min(xs), max(xs)


def invert_spool(x: float, spool_map: SpoolMap) -> float:
    """Lowest duty in [u_min, u_max] whose spool fraction reaches ``x``.

    Saturates at u_min for openings below the attainable range and at u_max
    above it.  For attainable x the returned duty satisfies
    |eval_spool(u) - x| <= 1e-6.
    """
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"spool fraction {x!r} outside [0, 1]")
    hull = spool_map._grid_hull
    if x <= hull[0]:
        return spool_map.u_min
    if x > hull[-1]:
        return spool_map.u_max
    # First grid cell where the running maximum reaches x; the raw cubic
    # rises through x inside that cell, so plain bisection applies.
    j = bisect_left(hull, x)
    lo = spool_map._grid_u[j - 1]
    hi = spool_map._grid_u[j]
    a0, a1, a2, a3 = spool_map.a
    # lo stays below x (hull[j - 1] < x), so each step tests spool_fraction <= x.
    # With 0 < x < 1 that is cubic <= x; with x = 1 it always holds.
    x_cut = x if x < 1.0 else math.inf
    tol = _INVERT_TOL
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if a0 + mid * (a1 + mid * (a2 + mid * a3)) <= x_cut:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
