"""Dynamical estimators over flows, traces and return maps.

All estimators are pure over precomputed inputs (orbit segments, lifted
traces, state samples); orbit production lives in :mod:`finslerlab.flow` and
:mod:`finslerlab.sections`.  Statistics that use uniform chart sampling are
coverage diagnostics, not invariant-measure statements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptySample, FinslerLabError, InsufficientCloud, MapFailure, NotConverged
from .flow import TWO_PI, ENSEMBLE_CONFIG, IntegratorConfig, OrbitTrace, integrate_ensemble, integrate_orbit, metric_x2_period, phase_space_distance
from .metrics import DualMetric
from .profiles import RotationalProfile
from .solvers import brent_root

__all__ = [
    "RotationEstimate",
    "rotation_number",
    "rotation_number_from_displacements",
    "DirectionEstimate",
    "asymptotic_direction",
    "DeviationReport",
    "bounded_deviation",
    "EntropyEstimate",
    "entropy_separated_sets",
    "exact_separated_cardinality",
    "wrapped_metric",
    "WrappedMetric",
    "GraphReport",
    "invariant_graph_test",
    "TubeSpec",
    "WitnessBall",
    "TubeReport",
    "tube_diagnostics",
    "turning_point_bisect",
]


# --- rotation numbers ---------------------------------------------------------


@dataclass(frozen=True)
class RotationEstimate:
    """Birkhoff average of lift displacements with a crude error bar."""

    value: float
    n: int
    error_bound: float

    @property
    def reduction(self) -> float:
        return self.value % 1.0


def rotation_number_from_displacements(displacements) -> RotationEstimate:
    d = np.asarray(displacements, dtype=float)
    n = len(d)
    if n == 0:
        raise EmptySample("no displacements")
    value = float(np.sum(d) / n)
    partial = np.concatenate([[0.0], np.cumsum(d)])
    excess = partial - value * np.arange(n + 1)
    return RotationEstimate(
        value=value, n=n, error_bound=float((np.max(excess) - np.min(excess)) / n)
    )


def rotation_number(map_fn, x0, n: int) -> RotationEstimate:
    """Average lift displacement of n iterates of a lifted annulus/circle map.

    ``map_fn(point) -> (image_point, lift_displacement)``; displacements are
    measured in full turns, so the reduction of the value mod 1 is the
    rotation number on the circle.  A library error raised by ``map_fn`` is
    reported as :class:`MapFailure` with the iterate index; any other
    exception propagates unchanged.
    """
    if n < 10:
        raise ValueError("need n >= 10 iterates")
    displacements = np.empty(n)
    x = x0
    for i in range(n):
        try:
            x, d = map_fn(x)
        except FinslerLabError as err:
            raise MapFailure(i, err) from err
        displacements[i] = d
    return rotation_number_from_displacements(displacements)


# --- asymptotic direction and deviation ---------------------------------------


@dataclass(frozen=True)
class DirectionEstimate:
    direction: np.ndarray
    residual: float


def _lift_and_times(trace_or_path, times=None):
    if isinstance(trace_or_path, OrbitTrace):
        return trace_or_path.lifted_base, trace_or_path.times
    path = np.asarray(trace_or_path, dtype=float)
    if times is None:
        times = np.arange(len(path), dtype=float)
    return path, np.asarray(times, dtype=float)


_DIRECTION_WINDOWS = 3  # chords at T, T/2, T/4


def asymptotic_direction(trace_or_path, times=None) -> DirectionEstimate:
    """Unit chord direction of the lifted path, with a dyadic-window residual.

    The residual is the largest pairwise angle between the chords measured at
    the final time T and at T/2, T/4; it is reported, not judged.  A zero
    chord raises NotConverged.
    """
    path, ts = _lift_and_times(trace_or_path, times)
    T = ts[-1] - ts[0]
    dirs = []
    for j in range(_DIRECTION_WINDOWS):
        t_j = ts[0] + T / 2.0**j
        idx = int(np.searchsorted(ts, t_j))
        idx = min(idx, len(ts) - 1)
        chord = path[idx] - path[0]
        norm = float(np.hypot(chord[0], chord[1]))
        if norm == 0.0:
            raise NotConverged("zero chord length; trace too short")
        dirs.append(chord / norm)
    angles = [math.atan2(d[1], d[0]) for d in dirs]
    residual = max(
        abs((a - b + math.pi) % TWO_PI - math.pi) for a in angles for b in angles
    )
    return DirectionEstimate(direction=dirs[0], residual=float(residual))


@dataclass(frozen=True)
class DeviationReport:
    sup_distance: float


def bounded_deviation(trace_or_path, rho, times=None) -> DeviationReport:
    """Sup distance of the lifted path to the line through its start along rho."""
    path, _ = _lift_and_times(trace_or_path, times)
    rho = np.asarray(rho, dtype=float)
    rho = rho / np.hypot(rho[0], rho[1])
    rel = path - path[0]
    dist = np.abs(rel[:, 0] * rho[1] - rel[:, 1] * rho[0])
    return DeviationReport(sup_distance=float(np.max(dist)))


# --- separated-set entropy -----------------------------------------------------


@dataclass(frozen=True)
class WrappedMetric:
    """Euclidean metric with selected coordinates wrapped on circles.

    ``periods[j]`` is the period of coordinate j or None for a linear
    coordinate; calling it gives the vectorized ``d(a, b)`` over arrays
    (..., d).  The separated-set distance kernel reads ``periods``, reduces
    each periodic coordinate into [0, p] first, and then computes the numbers
    this call gives on the reduced coordinates bit for bit, without calling
    the metric.  So the two agree bit for bit on input already in [0, p); on
    lifted input they differ by a few ulp of the largest lift.
    """

    periods: tuple

    def __call__(self, a, b):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        total = 0.0
        for j, p in enumerate(self.periods):
            d = a[..., j] - b[..., j]
            if p is not None:
                d = (d + p / 2.0) % p - p / 2.0
            total = total + d * d
        return np.sqrt(total)


def wrapped_metric(periods) -> WrappedMetric:
    """Metric for the separated-set estimators; see :class:`WrappedMetric`.

    The estimators take its ``periods`` (``metric.periods``), so a metric
    passed to them must come from here.
    """
    return WrappedMetric(tuple(periods))


# entries (slices x rows x N) of one tile of the distance kernel: the tile's
# float64 scratch planes stay in cache across the coordinates
_BLOCK_ENTRIES = 1 << 15


class _OrbitDistances(dict):
    """Point i -> its row d_T(i, .), d_T(i, j) = max over t <= T of d(orbit_i(t), orbit_j(t)).

    ``segments`` (N, M, d) is read up to slice ``t_max``; each periodic
    coordinate is reduced once per orbit and slice with ``np.mod`` into
    [0, p] (``np.mod(-tiny, p)`` is p itself).  Input already in [0, p) keeps
    its bits, up to -0.0 becoming 0.0, which no distance sees.

    A row is computed over the slices 0..t_done at its first lookup
    (``dist[i]``); :meth:`advance` raises every cached row together over the
    slices up to a new T, so rows nobody reads are never computed.  Rows live
    in blocks of ``_BLOCK_ENTRIES // N`` rows, which never move.  Every entry
    is bit for bit the running max over slices of ``WrappedMetric(periods)``
    on the reduced coordinates.
    """

    def __init__(self, segments, t_max: int, periods):
        super().__init__()
        segments = np.asarray(segments, dtype=float)
        if segments.shape[1] < t_max + 1:
            raise ValueError("segments shorter than T + 1 iterates")
        self.n = segments.shape[0]
        self.t_done = -1
        self.periods = [None if p is None else float(p) for p in periods]
        # (d, slices, N): one contiguous (slices, N) plane per coordinate
        self.cols = np.ascontiguousarray(np.transpose(segments[:, : t_max + 1], (2, 1, 0)))
        for j, p in enumerate(self.periods):
            if p is not None:
                np.mod(self.cols[j], p, out=self.cols[j])
        self.budget = max(_BLOCK_ENTRIES, self.n)
        self._blocks = []  # (rows, the points whose rows they hold)
        # tile scratch: difference, wrap shift, sum of squares, slice max
        self._planes = [np.empty(self.budget) for _ in range(4)]
        self._views = {}

    def advance(self, T: int) -> None:
        """Raise every cached row over the slices t_done + 1..T."""
        for rows, points in self._blocks:
            self.raise_rows(rows[: len(points)], np.array(points), self.t_done + 1, T)
        self.t_done = max(self.t_done, T)

    def __missing__(self, i: int) -> np.ndarray:
        if not self._blocks or len(self._blocks[-1][1]) == len(self._blocks[-1][0]):
            self._blocks.append((np.zeros((self.budget // self.n, self.n)), []))
        rows, points = self._blocks[-1]
        k = len(points)
        points.append(i)
        self.raise_rows(rows[k : k + 1], np.array([i]), 0, self.t_done)
        self[i] = rows[k]
        return rows[k]

    def raise_rows(self, out, points, t_lo: int, t_hi: int) -> None:
        """Raise ``out[r]`` to the running max of row ``points[r]`` over slices t_lo..t_hi.

        The work is tiled slices x rows x N within the ``_BLOCK_ENTRIES``
        budget.  Per tile: the difference of the reduced coordinates, the
        wrap, squares summed in coordinate order, the max over the tile's
        slices and one ``sqrt``, exact because correctly rounded ``sqrt`` is
        monotone.

        The wrap is numpy's ``(d + p/2) % p - p/2``.  Reduced values lie in
        [0, p], so x = fl(d + p/2) lies in [-p/2, 3p/2], where ``x % p`` is
        fl(x + p) for x < 0, x - p (exact by Sterbenz) for x >= p and x
        otherwise.  k = floor(fl(x / p)) picks that branch as -1, 1 or 0:
        fl(x / p) is negative for x < 0 (|x| >= p 2^-54, no underflow), at
        least 1 for x >= p and below 1 for 0 <= x < p (x / p <= 1 - ulp(p) / p
        < 1 - 2^-53).  x is never -0.0, so x - k p gives the same bits, in
        four float passes with no mask.
        """
        if len(out) == 0 or t_hi < t_lo:
            return
        slices = min(t_hi - t_lo + 1, self.budget // self.n)
        rows = self.budget // (slices * self.n)
        for r0 in range(0, len(out), rows):
            for k0 in range(t_lo, t_hi + 1, slices):
                self._tile(out[r0 : r0 + rows], points[r0 : r0 + rows], k0, min(t_hi + 1, k0 + slices))

    def _tile(self, out, pts, k0: int, k1: int) -> None:
        shape = (k1 - k0, len(out), self.n)
        views = self._views.get(shape)
        if views is None:
            size = shape[0] * out.size
            views = [v[:size].reshape(shape) for v in self._planes[:3]]
            views.append(self._planes[3][: out.size].reshape(out.shape))
            self._views[shape] = views
        dv, sv, acc, peak = views
        if len(pts) == 1:  # a view, not a fancy-index copy, for farthest-first's single rows
            pts = slice(pts[0], pts[0] + 1)
        for j, p in enumerate(self.periods):
            c = self.cols[j, k0:k1]
            np.subtract(c[:, pts, None], c[:, None, :], out=dv)
            if p is not None:
                h = p / 2.0
                np.add(dv, h, out=dv)
                np.divide(dv, p, out=sv)
                np.floor(sv, out=sv)
                np.multiply(sv, p, out=sv)
                np.subtract(dv, sv, out=dv)
                np.subtract(dv, h, out=dv)
            if j == 0:
                np.multiply(dv, dv, out=acc)
            else:
                np.multiply(dv, dv, out=dv)
                np.add(acc, dv, out=acc)
        np.maximum.reduce(acc, axis=0, out=peak)
        np.sqrt(peak, out=peak)
        np.maximum(out, peak, out=out)


def pairwise_orbit_distance(segments, T: int, metric: WrappedMetric) -> np.ndarray:
    """(N, N) matrix of d_T(i, j) = max over t <= T of d(orbit_i(t), orbit_j(t)).

    All rows of :class:`_OrbitDistances`, on the reduced coordinates.
    """
    dist = _OrbitDistances(segments, T, metric.periods)
    dmat = np.zeros((dist.n, dist.n))
    dist.raise_rows(dmat, np.arange(dist.n), 0, T)
    return dmat


def _farthest_first_set(rows, n: int, eps: float, seed=()) -> np.ndarray:
    """Maximal eps-separated subset by deterministic farthest-first traversal.

    ``rows[i]`` is point i's distance row (an (N, N) matrix or the rows on
    demand of :class:`_OrbitDistances`).  Starts from the seed (assumed
    separated), always adds the point farthest from the current set, and stops
    when every remaining point is within eps; the result is maximal against
    the whole cloud.  Only the rows of the selected points are read.
    """
    selected = list(seed)
    if not selected:
        selected = [0]
    mind = np.full(n, np.inf)
    for i in selected:
        np.minimum(mind, rows[i], out=mind)
        mind[i] = -np.inf
    while True:
        i = int(np.argmax(mind))
        if mind[i] <= eps:
            break
        selected.append(i)
        np.minimum(mind, rows[i], out=mind)
        mind[i] = -np.inf
    return np.array(selected, dtype=int)


def exact_separated_cardinality(segments, T: int, eps: float, metric: WrappedMetric) -> int:
    """Exact maximal (T, eps)-separated cardinality by subset enumeration.

    Brute force for cross-checking greedy counts; only feasible for tiny
    clouds (N <= 20).
    """
    segments = np.asarray(segments, dtype=float)
    n = segments.shape[0]
    if n > 20:
        raise ValueError("exact enumeration limited to N <= 20")
    near = pairwise_orbit_distance(segments, T, metric) <= eps
    np.fill_diagonal(near, False)
    # bitmask of eps-close (non-separated) partners of each point
    close = [sum(1 << int(j) for j in np.flatnonzero(row)) for row in near]
    best = 0
    for subset in range(1 << n):
        if subset.bit_count() <= best:
            continue
        ok = True
        rest = subset
        while rest:
            i = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if close[i] & subset:
                ok = False
                break
        if ok:
            best = subset.bit_count()
    return best


@dataclass
class EntropyEstimate:
    """Separated-set growth table and its per-scale exponential rates."""

    table: list[tuple[int, float, int]]  # (T, eps, s)
    slopes: dict[float, float]
    residuals: dict[float, float]
    value: float
    value_eps: float
    sets: dict[tuple[int, float], np.ndarray] = field(default_factory=dict, repr=False)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("T,eps,s,slope\n")
            for T, eps, s in self.table:
                fh.write(f"{T!r},{eps!r},{s!r},{self.slopes[eps]!r}\n")


_SATURATION_FRACTION = 0.4  # counts above this share of the cloud leave the slope fit
_STABILITY_TOL = 0.1  # RMS log-count residual of a fit that counts as stable
_INSUFFICIENT_FRACTION = 0.9  # a first count above this share of the cloud raises InsufficientCloud


def entropy_separated_sets(segments, T_list, eps_list, metric: WrappedMetric) -> EntropyEstimate:
    """Greedy separated-set entropy estimate from precomputed orbit segments.

    For each scale eps the greedy sets are grown along increasing T (nested,
    so s is nondecreasing in T); across scales the reported counts take the
    running maximum over coarser eps, which keeps every count a valid
    separated-set cardinality and enforces monotonicity in eps.  The estimate
    is the log-count slope over the non-saturated T window, taken at the
    smallest eps whose linear fit is stable.

    ``metric`` comes from :func:`wrapped_metric`: the distance kernel
    (:class:`_OrbitDistances`) reads its ``metric.periods``, reduces each
    periodic coordinate once into [0, p] and computes only the rows that
    farthest-first reads; at each new T the cached rows are raised over the
    slices not yet covered.  On input already in [0, p) every set is the one
    farthest-first gives on the full (N, N) matrix of the metric.  On lifted
    input (angles unwrapped along the orbit) the reduction moves a distance
    by a few ulp of the largest lift, so a pair at a distance tie of exactly
    eps can flip between separated and not, and with it a set and a count.
    """
    segments = np.asarray(segments, dtype=float)
    n = segments.shape[0]
    if n == 0:
        raise EmptySample("empty point cloud")
    T_list = sorted(int(t) for t in T_list)
    if len(set(T_list)) < 2:
        raise ValueError(f"the log-count slope needs at least two distinct T values, got {T_list}")
    eps_desc = sorted((float(e) for e in eps_list), reverse=True)
    if segments.shape[1] < T_list[-1] + 1:
        raise ValueError("segments shorter than max requested T")

    sets: dict[tuple[int, float], np.ndarray] = {}
    counts: dict[tuple[int, float], int] = {}
    seeds: dict[float, tuple] = {eps: () for eps in eps_desc}
    dist = _OrbitDistances(segments, T_list[-1], metric.periods)
    for T in T_list:
        dist.advance(T)
        for eps in eps_desc:
            sel = _farthest_first_set(dist, n, eps, seeds[eps])
            sets[(T, eps)] = sel
            counts[(T, eps)] = len(sel)
            seeds[eps] = tuple(sel)
    if counts[(T_list[0], eps_desc[-1])] >= _INSUFFICIENT_FRACTION * n:
        raise InsufficientCloud(
            f"cloud of {n} saturates already at T={T_list[0]}, eps={eps_desc[-1]}"
        )
    # monotone envelope across scales: a set separated at coarser eps is
    # separated at finer eps as well
    for T in T_list:
        running = 0
        for eps in eps_desc:
            running = max(running, counts[(T, eps)])
            counts[(T, eps)] = running

    table = [(T, eps, counts[(T, eps)]) for T in T_list for eps in eps_desc]
    slopes: dict[float, float] = {}
    residuals: dict[float, float] = {}
    for eps in eps_desc:
        ts = np.array(T_list, dtype=float)
        ss = np.array([counts[(T, eps)] for T in T_list], dtype=float)
        keep = ss <= _SATURATION_FRACTION * n
        if np.count_nonzero(keep) < 3:
            keep = np.ones_like(keep, dtype=bool)
        x, y = ts[keep], np.log(ss[keep])
        coef = np.polynomial.polynomial.polyfit(x, y, 1)
        fit = np.polynomial.polynomial.polyval(x, coef)
        slopes[eps] = float(coef[1])
        residuals[eps] = float(np.sqrt(np.mean((fit - y) ** 2)))

    value = math.nan
    value_eps = math.nan
    for eps in sorted(eps_desc):  # ascending: smallest eps first
        if residuals[eps] <= _STABILITY_TOL:
            value, value_eps = slopes[eps], eps
            break
    if math.isnan(value):
        value_eps = min(residuals, key=residuals.get)
        value = slopes[value_eps]
    return EntropyEstimate(
        table=table,
        slopes=slopes,
        residuals=residuals,
        value=value,
        value_eps=value_eps,
        sets=sets,
    )


# --- invariant graphs ----------------------------------------------------------


@dataclass(frozen=True)
class GraphReport:
    is_graph: bool
    max_fiber_gap: float
    lipschitz_estimate: float
    bins: tuple[int, int]
    occupied_fraction: float


def _circular_diameter(angles: np.ndarray) -> float:
    if len(angles) <= 1:
        return 0.0
    a = np.sort(angles % TWO_PI)
    gaps = np.diff(a, append=a[0] + TWO_PI)
    return float(TWO_PI - np.max(gaps))


_FIBER_TOL = 0.35  # largest circular diameter of one bin's covector angles on a graph


def invariant_graph_test(
    states,
    x2_period: float,
    *,
    bins: tuple[int, int] = (32, 32),
) -> GraphReport:
    """Check whether a state sample is a graph over the torus base.

    Samples are binned by base point; the fiber value is the covector angle.
    The sample passes when every occupied bin's fiber values cluster within
    ``_FIBER_TOL`` (circular diameter).  The Lipschitz estimate is the largest
    mean-angle difference between neighboring occupied bins divided by the
    base distance of their centers.
    """
    states = np.atleast_2d(np.asarray(states, dtype=float))
    if states.size == 0:
        raise EmptySample("no states to bin")
    n1, n2 = bins
    b1 = np.floor((states[:, 0] % TWO_PI) / TWO_PI * n1).astype(int) % n1
    b2 = np.floor((states[:, 1] % x2_period) / x2_period * n2).astype(int) % n2
    theta = np.arctan2(states[:, 3], states[:, 2])

    flat = b1 * n2 + b2
    order = np.argsort(flat, kind="stable")
    flat_sorted = flat[order]
    theta_sorted = theta[order]
    boundaries = np.searchsorted(flat_sorted, np.arange(n1 * n2 + 1))

    max_gap = 0.0
    mean_angle = np.full(n1 * n2, np.nan)
    occupied = 0
    for cell in range(n1 * n2):
        lo, hi = boundaries[cell], boundaries[cell + 1]
        if hi <= lo:
            continue
        occupied += 1
        cell_angles = theta_sorted[lo:hi]
        max_gap = max(max_gap, _circular_diameter(cell_angles))
        mean_angle[cell] = math.atan2(
            float(np.mean(np.sin(cell_angles))), float(np.mean(np.cos(cell_angles)))
        )

    cell_w1 = TWO_PI / n1
    cell_w2 = x2_period / n2
    lip = 0.0
    grid = mean_angle.reshape(n1, n2)
    for axis, width in ((0, cell_w1), (1, cell_w2)):
        rolled = np.roll(grid, -1, axis=axis)
        diff = np.abs((grid - rolled + math.pi) % TWO_PI - math.pi)
        valid = ~np.isnan(diff)
        if np.any(valid):
            lip = max(lip, float(np.nanmax(diff[valid])) / width)

    return GraphReport(
        is_graph=bool(max_gap <= _FIBER_TOL),
        max_fiber_gap=float(max_gap),
        lipschitz_estimate=float(lip),
        bins=(n1, n2),
        occupied_fraction=occupied / (n1 * n2),
    )


# --- elliptic tube diagnostics ---------------------------------------------------


@dataclass(frozen=True)
class TubeSpec:
    """Tube {c_lo < xi1 < c_hi} on the unit level, boundary coded by the levels."""

    c_lo: float
    c_hi: float

    def gap(self, xi1) -> np.ndarray:
        xi1 = np.asarray(xi1, dtype=float)
        return np.minimum(xi1 - self.c_lo, self.c_hi - xi1)


@dataclass(frozen=True)
class WitnessBall:
    center: np.ndarray
    radius: float


@dataclass(frozen=True)
class TubeReport:
    eps_grid: np.ndarray
    boundary_fraction: np.ndarray
    min_boundary_dists: np.ndarray  # per ensemble orbit
    initial_gaps: np.ndarray
    witness_distances: list[tuple[np.ndarray, float, float]]
    n_failed: int


def tube_diagnostics(
    H: DualMetric,
    tube: TubeSpec,
    states,
    eps_grid,
    witness_balls: list[WitnessBall],
    *,
    ensemble_time: float = 30.0,
    long_time: float = 1000.0,
    config: IntegratorConfig = ENSEMBLE_CONFIG,
) -> TubeReport:
    """Conservation-forced structure of a tube: boundary distances and holes.

    Each ensemble orbit's minimal xi1-distance to the tube boundary levels is
    tracked along its run (xi1 is conserved, so the distance essentially
    equals the initial gap); boundary_fraction(eps) is the fraction of orbits
    that come within eps of the boundary.  Orbits the ensemble reports failed
    are left out of both and counted in n_failed.  One long orbit, from the
    first state, is run on the scalar path (:func:`integrate_orbit`, same
    config and checkpoint grid) against the witness balls: a ball whose
    xi1-range avoids the orbit's conserved level must keep a positive
    distance, the numerical shadow of non-density.
    """
    states = np.atleast_2d(np.asarray(states, dtype=float))
    if states.size == 0:
        raise EmptySample("empty tube ensemble")
    eps_grid = np.asarray(sorted(float(e) for e in eps_grid))
    x2_period = metric_x2_period(H)

    ens = integrate_ensemble(H, states, ensemble_time, config)
    failed = ens.failed
    min_dists = np.min(tube.gap(ens.states[:, ~failed, 2]), axis=0)

    fractions = np.array([float(np.mean(min_dists < eps)) for eps in eps_grid])
    gaps = tube.gap(states[:, 2])

    witness_distances: list[tuple[np.ndarray, float, float]] = []
    if witness_balls:
        orbit = integrate_orbit(H, states[0], long_time, config, enforce_drift=False).states
        for ball in witness_balls:
            d = phase_space_distance(orbit, ball.center, x2_period) - ball.radius
            witness_distances.append((np.asarray(ball.center, dtype=float), ball.radius, float(np.min(d))))

    return TubeReport(
        eps_grid=eps_grid,
        boundary_fraction=fractions,
        min_boundary_dists=min_dists,
        initial_gaps=gaps,
        witness_distances=witness_distances,
        n_failed=int(np.count_nonzero(failed)),
    )


# --- Clairaut turning point -------------------------------------------------------


def turning_point_bisect(profile: RotationalProfile, c: float, x_hi: float = 40.0) -> float:
    """Height x* > 0 where f(x*) = c, bounding trapped-orbit oscillation.

    Bisection on the decreasing side of the profile peak; requires
    f(0) > c > f(x_hi).
    """
    f = profile.f
    if not (float(f(0.0)) > c > float(f(x_hi))):
        raise ValueError(f"no turning point: need f(0) > {c!r} > f({x_hi!r})")
    return brent_root(lambda x: float(f(x)) - c, 0.0, x_hi, xtol=1e-14)
