"""Deterministic state sampling for scans, scenarios and property batteries.

Every function takes an explicit numpy Generator; scenarios derive one stream
from the scenario seed and consume it in a fixed documented order, which is
what makes reports bitwise reproducible.
"""

from __future__ import annotations

import math

import numpy as np

from .flow import TWO_PI
from .metrics import DualMetric, cone_membership
from .profiles import RotationalProfile, eval_f0
from .solvers import brent_root

__all__ = [
    "sample_covectors",
    "sample_cone_states",
    "sample_outside_cone_states",
    "sample_unit_level",
    "solve_xi2_on_level",
    "sample_tube_states",
]


def sample_covectors(rng, n: int, *, x2_range=(-2.0, 2.0), scale_range=(0.5, 2.0)) -> np.ndarray:
    """Generic nonzero covectors over random base points."""
    x1 = rng.uniform(0.0, TWO_PI, n)
    x2 = rng.uniform(*x2_range, n)
    theta = rng.uniform(0.0, TWO_PI, n)
    rho = rng.uniform(*scale_range, n)
    return np.stack([x1, x2, rho * np.cos(theta), rho * np.sin(theta)], axis=1)


_CONE_MARGIN = 1e-6  # keeps cone samples off the cone boundary


def sample_cone_states(
    rng,
    profile: RotationalProfile,
    a: float,
    n: int,
    *,
    scale_range=(0.5, 2.0),
) -> np.ndarray:
    """States strictly inside the cone U_a (ratio >= f0(a), |x2| <= a)."""
    out = np.empty((n, 4))
    floor_ratio = float(eval_f0(a))
    for i in range(n):
        while True:
            x2 = rng.uniform(-a + _CONE_MARGIN, a - _CONE_MARGIN)
            fx = float(profile.f(x2))
            cos_min = floor_ratio / fx
            if cos_min >= 1.0 - _CONE_MARGIN:
                continue
            theta_max = math.acos(cos_min) * (1.0 - _CONE_MARGIN)
            theta = rng.uniform(-theta_max, theta_max)
            rho = rng.uniform(*scale_range)
            y = np.array([rng.uniform(0.0, TWO_PI), x2, rho * math.cos(theta), rho * math.sin(theta)])
            if cone_membership(profile, a, y):
                out[i] = y
                break
    return out


def sample_outside_cone_states(
    rng,
    profile: RotationalProfile,
    a: float,
    n: int,
    *,
    x2_range=(-2.0, 2.0),
    scale_range=(0.5, 2.0),
) -> np.ndarray:
    """States outside the closed cone U_a (rejection sampling)."""
    out = np.empty((n, 4))
    count = 0
    while count < n:
        batch = sample_covectors(rng, 4 * (n - count), x2_range=x2_range, scale_range=scale_range)
        keep = ~cone_membership(profile, a, batch)
        take = batch[keep][: n - count]
        out[count : count + len(take)] = take
        count += len(take)
    return out


def sample_unit_level(H: DualMetric, rng, n: int, *, x2_range=(-2.0, 2.0)) -> np.ndarray:
    """States on {H = 1} with uniform chart base points and covector angles."""
    y = sample_covectors(rng, n, x2_range=x2_range, scale_range=(1.0, 1.0))
    h = np.asarray(H.value(y))
    y[:, 2] /= h
    y[:, 3] /= h
    return y


_XI2_HI = 10.0  # upper end of the xi2 bracket of solve_xi2_on_level


def solve_xi2_on_level(H: DualMetric, x1: float, x2: float, xi1: float) -> float | None:
    """Nonnegative xi2 with H(x, (xi1, xi2)) = 1, or None when infeasible."""

    def g(s):
        return float(H.value(np.array([x1, x2, xi1, s]))) - 1.0

    g0 = g(1e-12)
    if g0 > 0.0:
        return None
    if g(_XI2_HI) < 0.0:
        return None
    return brent_root(g, 1e-12, _XI2_HI, xtol=1e-14)


def sample_tube_states(
    H: DualMetric,
    rng,
    n: int,
    c_range: tuple[float, float],
    *,
    x2_period: float,
) -> np.ndarray:
    """Unit-level states with conserved xi1 drawn uniformly from c_range, xi2 of random sign.

    Chart-uniform (x1, x2, xi1) sampling with rejection where the level set is
    empty; explicitly a non-invariant reference measure.
    """
    out = np.empty((n, 4))
    count = 0
    while count < n:
        x1 = rng.uniform(0.0, TWO_PI)
        x2 = rng.uniform(0.0, x2_period)
        c = rng.uniform(*c_range)
        xi2 = solve_xi2_on_level(H, x1, x2, c)
        if xi2 is None:
            continue
        if rng.uniform() < 0.5:
            xi2 = -xi2
        out[count] = (x1, x2, c, xi2)
        count += 1
    return out
