"""Transverse annular sections of the flow and their first-return maps.

Two section kinds:

* ``equator_birkhoff`` -- unit covectors over a parallel circle {x2 = x2*}
  (the equator of the sphere model, or a waist/equator circle of a torus),
  crossed with positive x2-velocity;
* ``meridian``        -- unit covectors over a vertical circle {x1 = x1*} of a
  torus, crossed with positive x1-velocity (the component normal to the
  circle; transversality needs the normal component, so crossings are counted
  by its sign).

Annulus coordinates are (s, u): s is position along the base circle in the
arclength of the underlying rotational metric, u in (0, pi) is the euclidean
chart angle between the crossing velocity and the base circle direction.  In
these coordinates the canonical area form restricted to the section is
ds_coordinate x dmomentum (x1 with xi1 on a parallel, x2 with xi2 on a
meridian), which is exactly the flux measure the return map preserves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import DOP853, RK45, OdeSolution
from scipy.optimize import brentq

from .errors import (
    BranchMismatch,
    ExtrapolationUnstable,
    NoCrossing,
    NonTransverse,
    NotVanishing,
    StepFailure,
)
from .flow import TWO_PI, DEFAULT_CONFIG, IntegratorConfig, pole_cap_events, stacked_rhs
from .metrics import DualMetric
from .profiles import RotationalProfile

__all__ = [
    "SectionSpec",
    "ReturnSample",
    "CrossingEvent",
    "AnnulusChart",
    "detect_crossing",
    "first_return",
    "iterate_section_map",
    "SectionOrbit",
    "ensemble_return_step",
    "build_return_map_grid",
    "ReturnRecord",
    "ReturnMapTable",
    "smooth_divide",
    "SmoothQuotient",
    "return_time_boundary_extension",
    "BoundaryExtensionReport",
]


@dataclass(frozen=True)
class SectionSpec:
    """Which annulus to cut, and the detection tolerances."""

    kind: str = "equator_birkhoff"
    x2_star: float = 0.0
    x1_star: float = 0.0
    transversality_tol: float = 1e-6
    max_return_time: float = 8.0
    scan_dt: float = 0.02

    def __post_init__(self):
        if self.kind not in ("equator_birkhoff", "meridian"):
            raise ValueError(f"unknown section kind {self.kind!r}")
        if self.max_return_time <= 0 or self.transversality_tol <= 0:
            raise ValueError("max_return_time and transversality_tol must be positive")

    def to_spec(self) -> dict:
        return {
            "kind": self.kind,
            "x2_star": self.x2_star,
            "x1_star": self.x1_star,
            "transversality_tol": self.transversality_tol,
            "max_return_time": self.max_return_time,
        }


@dataclass(frozen=True)
class ReturnSample:
    point: tuple[float, float]
    image: tuple[float, float]
    tau: float
    lift_displacement: float  # s-displacement in units of full turns


@dataclass(frozen=True)
class CrossingEvent:
    time: float
    state: np.ndarray
    transverse_speed: float
    skipped_tangencies: int = 0


def _metric_profile(H: DualMetric) -> RotationalProfile:
    inner = getattr(H, "inner", None)
    if inner is not None:
        return _metric_profile(inner)
    profile = getattr(H, "profile", None)
    if profile is None:
        raise ValueError("metric does not expose a rotational profile")
    return profile


class AnnulusChart:
    """(s, u) coordinates on one section, with state conversions."""

    def __init__(self, H: DualMetric, spec: SectionSpec):
        self.H = H
        self.spec = spec
        self.profile = _metric_profile(H)
        if spec.kind == "equator_birkhoff":
            self._f_star = float(self.profile.f(spec.x2_star))
            self.circumference = TWO_PI * self._f_star
        else:
            period = self.profile.period
            if period is None:
                raise ValueError("meridian sections need a periodic (torus) profile")
            grid = np.linspace(0.0, period, 65537)
            f = np.asarray(self.profile.f(grid))
            s = np.concatenate([[0.0], np.cumsum((f[1:] + f[:-1]) * np.diff(grid) / 2.0)])
            self._x2_grid = grid
            self._s_grid = s
            self.circumference = float(s[-1])

    # --- crossing geometry ----------------------------------------------

    def coordinate(self, states) -> np.ndarray:
        """Signed transverse coordinate whose upward zero-crossings are events."""
        states = np.asarray(states, dtype=float)
        if self.spec.kind == "equator_birkhoff":
            return states[..., 1] - self.spec.x2_star
        return states[..., 0] - self.spec.x1_star

    def transverse_velocity(self, states) -> np.ndarray:
        v = self.H.grad_xi(np.asarray(states, dtype=float))
        return v[..., 1] if self.spec.kind == "equator_birkhoff" else v[..., 0]

    @property
    def periodic_levels(self) -> float | None:
        """Spacing of equivalent crossing levels in the lift (None: single level).

        A meridian circle repeats every 2 pi in the x1-lift; a parallel circle
        repeats every profile period in the x2-lift on a torus, and is a
        single level on the sphere chart.
        """
        if self.spec.kind == "meridian":
            return TWO_PI
        return self.profile.period

    # --- (s, u) conversions ----------------------------------------------

    def lift_s(self, state) -> float:
        state = np.asarray(state, dtype=float)
        if self.spec.kind == "equator_birkhoff":
            return float(state[0]) * self._f_star
        period = self.profile.period
        wraps = math.floor(state[1] / period)
        rem = state[1] - wraps * period
        return wraps * self.circumference + float(np.interp(rem, self._x2_grid, self._s_grid))

    def state_to_point(self, state) -> tuple[float, float]:
        state = np.asarray(state, dtype=float)
        v = self.H.grad_xi(state)
        if self.spec.kind == "equator_birkhoff":
            u = math.atan2(v[1], v[0])
        else:
            u = math.atan2(v[0], v[1])
        return self.lift_s(state) % self.circumference, u

    def points_of_states(self, states) -> np.ndarray:
        """Vectorized (s, u) coordinates of a batch of on-section states."""
        states = np.atleast_2d(np.asarray(states, dtype=float))
        v = self.H.grad_xi(states)
        if self.spec.kind == "equator_birkhoff":
            s = (states[:, 0] * self._f_star) % self.circumference
            u = np.arctan2(v[:, 1], v[:, 0])
        else:
            period = self.profile.period
            rem = states[:, 1] % period
            s = np.interp(rem, self._x2_grid, self._s_grid)
            u = np.arctan2(v[:, 0], v[:, 1])
        return np.stack([s, u], axis=1)

    def point_to_state(self, s: float, u: float, level: float = 1.0) -> np.ndarray:
        """State on {H = level} at annulus coordinates (s, u)."""
        if self.spec.kind == "equator_birkhoff":
            x1 = s / self._f_star
            x2 = self.spec.x2_star
            target = u  # velocity angle measured from e1
        else:
            x1 = self.spec.x1_star
            x2 = float(np.interp(s % self.circumference, self._s_grid, self._x2_grid))
            target = math.pi / 2.0 - u  # velocity angle from e1; u measured from e2
        theta = self._covector_angle_for_direction(x1, x2, target)
        y = np.array([x1, x2, math.cos(theta), math.sin(theta)])
        y[2:] *= level / float(self.H.value(y))
        return y

    def _covector_angle_for_direction(self, x1, x2, target_angle):
        def mismatch(theta):
            v = self.H.grad_xi(np.array([x1, x2, math.cos(theta), math.sin(theta)]))
            d = math.atan2(v[1], v[0]) - target_angle
            return (d + math.pi) % TWO_PI - math.pi

        lo, hi = target_angle - 1.0, target_angle + 1.0
        flo, fhi = mismatch(lo), mismatch(hi)
        if flo == 0.0:
            return lo
        if fhi == 0.0:
            return hi
        if flo * fhi > 0.0:
            raise ValueError("could not bracket the covector direction")
        return brentq(mismatch, lo, hi, xtol=1e-14)

    def symplectic_coords(self, state) -> tuple[float, float]:
        """Coordinates (position lift, conjugate momentum) of the flux area form."""
        state = np.asarray(state, dtype=float)
        if self.spec.kind == "equator_birkhoff":
            return float(state[0]), float(state[2])
        return float(state[1]), float(state[3])


# --- crossing location -------------------------------------------------------


def _upward_brackets(coord: np.ndarray, spacing: float | None) -> tuple[np.ndarray, np.ndarray]:
    """Scan steps on which the transverse coordinate crosses a section level upward.

    ``coord`` has time along axis 0 (one orbit's scan, or an (m, n) cloud).
    Returns ``(up, levels)``, both shaped like ``coord[1:]``: ``up[i]`` flags an
    upward crossing between rows i and i + 1, at level ``levels[i]`` (the
    highest level passed when a step passes several periodic levels).
    """
    if spacing is None:
        return (coord[:-1] < 0.0) & (coord[1:] >= 0.0), np.zeros_like(coord[1:])
    k = np.floor(coord / spacing)
    return k[1:] > k[:-1], k[1:] * spacing


def _refine_roots(g, lo, hi, xtol: float = 1e-13) -> np.ndarray:
    """Roots of ``g`` in the brackets [lo, hi], where g(lo) < 0 <= g(hi), all at once.

    ``g`` maps an array of times to the array of values, entry by entry.  The
    iteration is Illinois (modified regula falsi), with a bisection step
    wherever three steps have not halved the bracket.  Each bracket is refined
    until it is narrower than brentq's tolerance ``xtol + 4 eps |t|``; the
    midpoint of the final bracket is returned.
    """
    a = np.array(lo, dtype=float)
    b = np.array(hi, dtype=float)
    if not a.size:
        return a
    fa, fb = g(a), g(b)
    side = np.zeros(a.shape)  # -1 where the last step moved a, +1 where it moved b
    ref = b - a  # bracket width when it last halved
    stall = np.zeros(a.shape, dtype=int)  # steps since then
    while True:
        tol = xtol + 4.0 * np.finfo(float).eps * np.maximum(abs(a), abs(b))
        live = (fa != 0.0) & (fb != 0.0) & (b - a > tol)
        if not live.any():
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            c = b - fb * (b - a) / (fb - fa)
        c = np.where(np.isfinite(c) & (stall < 3), c, 0.5 * (a + b))
        # stay half a tolerance inside, so that a converged end closes the bracket
        c = np.where(live, np.clip(c, a + 0.5 * tol, b - 0.5 * tol), a)
        fc = g(c)
        move_a = live & (fc < 0.0)
        move_b = live & ~move_a
        # Illinois: halve the value at an end kept for the second step in a row
        fb = np.where(move_a & (side < 0), 0.5 * fb, fb)
        fa = np.where(move_b & (side > 0), 0.5 * fa, fa)
        a, fa = np.where(move_a, c, a), np.where(move_a, fc, fa)
        b, fb = np.where(move_b, c, b), np.where(move_b, fc, fb)
        side = np.where(move_a, -1.0, np.where(move_b, 1.0, side))
        halved = b - a <= 0.5 * ref
        ref = np.where(halved, b - a, ref)
        stall = np.where(halved, 0, stall + live)
    return np.where(fa == 0.0, a, np.where(fb == 0.0, b, 0.5 * (a + b)))


_SOLVERS = {"RK45": RK45, "DOP853": DOP853}


class _March:
    """One adaptive solve from t = 0 toward ``t_end``, advanced a step at a time.

    The solver is the scipy class a one-shot scipy solve would build for
    ``config`` (same ``rtol``, ``atol`` and ``max_step``), and each step is
    handled the way that solve handles it, so the numbers are the same:

    * the scan times ``ts`` the step covers are sampled from its dense output
      in one call (as ``t_eval`` is, by ``searchsorted(..., side="right")``)
      into ``path[:n]``;
    * the terminal event ``cap`` (see :func:`~finslerlab.flow.pole_cap_events`)
      fires by scipy's direction -1 rule, ends the run at its root and sets
      ``capped``;
    * with ``dense=True`` the step interpolants are kept for :meth:`solution`.

    Callers stop stepping once they have the crossing they need.
    """

    def __init__(self, fun, y0, t_end, config, ts=(), *, cap=None, dense=False):
        if config.method not in _SOLVERS:
            raise ValueError(f"section solves need RK45 or DOP853, not {config.method!r}")
        self.solver = _SOLVERS[config.method](
            fun, 0.0, y0, t_end,
            rtol=config.rel_tol, atol=config.abs_tol, max_step=config.max_step,
        )
        self.ts = np.asarray(ts, dtype=float)
        self.path = np.empty((len(self.ts), len(y0)))
        self.n = 0
        self.capped = False
        self._cap = cap
        self._g = None if cap is None else cap(0.0, y0)
        self._dense = dense
        self._t = [0.0]
        self._interpolants = []

    def step(self) -> bool:
        """Take one step; False once the run has reached ``t_end`` or the cap."""
        solver = self.solver
        if self.capped or solver.status != "running":
            return False
        message = solver.step()
        if solver.status == "failed":
            raise StepFailure(message)
        t = solver.t
        sol = solver.dense_output() if self._dense else None
        if self._cap is not None:
            g = self._cap(t, solver.y)
            if self._g >= 0.0 and g <= 0.0:
                if sol is None:
                    sol = solver.dense_output()
                eps = np.finfo(float).eps
                t = brentq(lambda s: self._cap(s, sol(s)), solver.t_old, t,
                           xtol=4 * eps, rtol=4 * eps)
                self.capped = True
            self._g = g
        hi = int(np.searchsorted(self.ts, t, side="right"))
        if hi > self.n:
            if sol is None:
                sol = solver.dense_output()
            self.path[self.n : hi] = sol(self.ts[self.n : hi]).T
            self.n = hi
        if self._dense:
            self._t.append(t)
            self._interpolants.append(sol)
        return True

    def solution(self) -> OdeSolution:
        """Dense solution over the steps taken so far."""
        return OdeSolution(self._t, self._interpolants)


def _orbit_march(H, y0, t_end, config, ts=()) -> _March:
    """A dense march of one orbit, with the sphere chart's pole cap."""
    events = pole_cap_events(H, config)
    return _March(
        H.scalar_rhs(), np.asarray(y0, dtype=float), t_end, config, ts,
        cap=events[0] if events else None, dense=True,
    )


def _solve_dense(H, y0, t_end, config, ts=(), *, where: str) -> _March:
    """One orbit marched to ``t_end``; NoCrossing if it reaches the pole cap."""
    march = _orbit_march(H, y0, t_end, config, ts)
    while march.step():
        pass
    if march.capped:
        raise NoCrossing(f"orbit left the chart strip during {where}")
    return march


def _scan_grid(t_start: float, t_end: float, dt: float) -> np.ndarray:
    """Scan times from ``t_start`` in steps of ``dt``, closed by ``t_end`` itself."""
    ts = np.arange(t_start, t_end, dt)
    return ts if len(ts) and ts[-1] >= t_end else np.append(ts, t_end)


def _march_crossings(march: _March, chart: AnnulusChart, lo: int = 0):
    """Upward crossings of a dense march between the scan times ts[lo] and ts[n - 1].

    Bracketed on the sampled scan states and refined together on the dense
    solution so far.  Returns the crossing times (in time order), the states
    there and their transverse speeds.
    """
    ts = march.ts[lo : march.n]
    up, levels = _upward_brackets(
        chart.coordinate(march.path[lo : march.n]), chart.periodic_levels
    )
    hits = np.flatnonzero(up)
    if not len(hits):
        return np.empty(0), np.empty((0, march.path.shape[1])), np.empty(0)
    sol = march.solution()
    levels = levels[hits]
    t_events = _refine_roots(
        lambda t: chart.coordinate(sol(t).T) - levels, ts[hits], ts[hits + 1]
    )
    states = sol(t_events).T
    return t_events, states, chart.transverse_velocity(states)


def detect_crossing(
    H: DualMetric,
    start_state,
    spec: SectionSpec,
    config: IntegratorConfig = DEFAULT_CONFIG,
    *,
    chart: AnnulusChart | None = None,
    t_max: float | None = None,
    t_skip: float = 1e-9,
) -> CrossingEvent:
    """First transverse upward crossing of the section after t_skip.

    The orbit is marched step by step (:class:`_March`).  Crossings are
    bracketed on the ``scan_dt`` grid as the steps sample it
    (:func:`_upward_brackets`) and refined on the dense solution so far
    (:func:`_refine_roots`); the solve stops at the step in which the first
    transverse crossing is bracketed, not at ``t_max``.  Near-tangent
    candidates (transverse speed below tolerance) are skipped and counted;
    NoCrossing is raised when the time budget runs out, or when the orbit
    reaches the sphere chart's pole cap before it crosses.
    """
    chart = chart or AnnulusChart(H, spec)
    if t_max is None:
        t_max = spec.max_return_time
    if not t_skip < t_max:
        raise ValueError(f"t_skip = {t_skip} must be below t_max = {t_max}")
    ts = _scan_grid(t_skip, t_max, spec.scan_dt)
    march = _orbit_march(H, start_state, t_max, config, ts)
    skipped = 0
    lo = 0
    while march.step():
        t_events, states, speeds = _march_crossings(march, chart, lo)
        lo = max(march.n - 1, 0)
        # only speeds known to be below the tolerance are skipped (NaN is kept)
        transverse = np.flatnonzero(~(speeds < spec.transversality_tol))
        if len(transverse):
            j = int(transverse[0])
            return CrossingEvent(
                time=float(t_events[j]),
                state=states[j],
                transverse_speed=float(speeds[j]),
                skipped_tangencies=skipped + j,
            )
        skipped += len(t_events)
    if march.capped:
        raise NoCrossing("orbit left the chart strip during crossing detection")
    raise NoCrossing(
        f"no transverse crossing within t = {t_max} ({skipped} tangencies skipped)"
    )


def first_return(
    H: DualMetric,
    spec: SectionSpec,
    point: tuple[float, float],
    config: IntegratorConfig = DEFAULT_CONFIG,
    *,
    chart: AnnulusChart | None = None,
) -> ReturnSample:
    """Return sample of one interior annulus point under the flow."""
    chart = chart or AnnulusChart(H, spec)
    s, u = float(point[0]), float(point[1])
    y0 = chart.point_to_state(s, u)
    v0 = float(chart.transverse_velocity(y0))
    if v0 < spec.transversality_tol:
        raise NonTransverse(
            f"start point (s={s:.6f}, u={u:.6f}) has transverse speed {v0:.3e}"
        )
    event = detect_crossing(H, y0, spec, config, chart=chart, t_skip=spec.scan_dt)
    s_img, u_img = chart.state_to_point(event.state)
    lift_ds = (chart.lift_s(event.state) - chart.lift_s(y0)) / chart.circumference
    return ReturnSample(point=(s, u), image=(s_img, u_img), tau=event.time, lift_displacement=lift_ds)


@dataclass(frozen=True)
class SectionOrbit:
    """n iterates of the return map along one flow orbit."""

    points: np.ndarray  # (n+1, 2) reduced (s, u)
    lift_s: np.ndarray  # (n+1,) continuous s-lift in arclength units
    times: np.ndarray  # (n+1,) crossing flow times (first entry 0)
    circumference: float

    @property
    def displacements(self) -> np.ndarray:
        """Per-iterate lift displacements in units of full turns."""
        return np.diff(self.lift_s) / self.circumference


def iterate_section_map(
    H: DualMetric,
    spec: SectionSpec,
    start_point: tuple[float, float],
    n: int,
    config: IntegratorConfig = DEFAULT_CONFIG,
    *,
    window: float | None = None,
) -> SectionOrbit:
    """Harvest n successive returns from one continuous orbit integration.

    The orbit is marched in dense windows (:class:`_March`, run to the end of
    each window); the upward crossings inside a window are bracketed on the
    ``scan_dt`` grid up to the window's end (:func:`_upward_brackets`), refined
    together (:func:`_refine_roots`), and the transverse ones kept.  This keeps the per-iterate cost near one flow
    period even for thousands of iterates.
    """
    chart = AnnulusChart(H, spec)
    y = chart.point_to_state(*start_point)
    if float(chart.transverse_velocity(y)) < spec.transversality_tol:
        raise NonTransverse("start point is not transverse")
    if window is None:
        window = 16.0 * spec.max_return_time

    points = [chart.state_to_point(y)]
    lift = [chart.lift_s(y)]
    times = [0.0]
    t_base = 0.0
    guard = 0
    while len(times) <= n:
        guard += 1
        if guard > max(4, 4 * int(n * spec.max_return_time / window) + 4):
            raise NoCrossing(f"return rate too low: {len(times) - 1} of {n} found")
        ts = _scan_grid(spec.scan_dt if t_base == 0.0 else 0.0, window, spec.scan_dt)
        march = _solve_dense(H, y, window, config, ts, where="return-map iteration")
        t_events, states_ev, speeds = _march_crossings(march, chart)
        prev_t = times[-1] - t_base
        pts = chart.points_of_states(states_ev)
        for j in range(len(t_events)):
            if len(times) > n:
                break
            if t_events[j] <= prev_t or speeds[j] < spec.transversality_tol:
                continue
            points.append((float(pts[j, 0]), float(pts[j, 1])))
            lift.append(chart.lift_s(states_ev[j]))
            times.append(t_base + float(t_events[j]))
        y = march.solver.y.copy()
        t_base += window
    return SectionOrbit(
        points=np.array(points[: n + 1]),
        lift_s=np.array(lift[: n + 1]),
        times=np.array(times[: n + 1]),
        circumference=chart.circumference,
    )


def ensemble_return_step(
    H: DualMetric,
    spec: SectionSpec,
    states,
    config: IntegratorConfig,
    *,
    chart: AnnulusChart | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One return-map step for a whole cloud of section states (statistics tier).

    Marches the stacked system (:class:`_March`; right-hand side
    :func:`~finslerlab.flow.stacked_rhs`, one batched ``H.vector_field`` call
    per evaluation) on the shared scan grid, with no dense output.  The march
    stops at the step in which every orbit has an upward crossing bracketed,
    so a step's length is set by the cloud's slowest return; only a cloud with
    an orbit that never crosses runs to ``max_return_time``.  Each orbit's
    first upward crossing is bracketed on that grid (:func:`_upward_brackets`)
    and refined on the cubic Hermite interpolant of its scan step
    (:func:`_refine_roots`), whose slopes come from one more ``vector_field``
    call at the two ends of every bracketing step.  The refined crossings are
    checked for transversality together.  Returns (new_states, taus, ok_mask);
    failed orbits keep their input state and tau = nan.
    """
    chart = chart or AnnulusChart(H, spec)
    states = np.atleast_2d(np.asarray(states, dtype=float))
    n = states.shape[0]
    m = int(spec.max_return_time / spec.scan_dt) + 1
    ts = np.linspace(0.0, spec.max_return_time, m)

    march = _March(stacked_rhs(H, n), states.reshape(-1), float(ts[-1]), config, ts)
    # brackets count from row 1 on, as in _hermite_returns
    pending = np.ones(n, dtype=bool)
    lo = 1
    while pending.any() and march.step():
        rows = march.path[lo : march.n].reshape(-1, n, 4)
        up, _ = _upward_brackets(chart.coordinate(rows), chart.periodic_levels)
        pending &= ~up.any(axis=0)
        lo = max(march.n - 1, 1)
    return _hermite_returns(H, spec, chart, states, ts, march.path[: march.n].reshape(-1, n, 4))


def _hermite_returns(H, spec, chart, states, ts, path):
    """First returns of a stacked cloud from its states ``path`` at the scan times ``ts``.

    See :func:`ensemble_return_step`: each orbit's first upward crossing after
    row 0 is refined on the cubic Hermite interpolant of its scan step, then
    checked for transversality.
    """
    n = states.shape[0]
    up, levels = _upward_brackets(chart.coordinate(path), chart.periodic_levels)
    # row 0 only ever flags the start point itself (states arrive on-section)
    up[0] = False

    first_idx = np.argmax(up, axis=0)
    found = np.flatnonzero(up[first_idx, np.arange(n)])
    rows = first_idx[found]
    level = levels[rows, found]
    t0, t1 = ts[rows], ts[rows + 1]
    h = (t1 - t0)[:, None]
    y0, y1 = path[rows, found], path[rows + 1, found]
    # Hermite slopes: the vector field at both ends of each bracketing scan step
    m0, m1 = H.vector_field(np.stack([y0, y1])) * h

    def hermite(t):
        x = (t - t0)[:, None] / h
        return (
            (2 * x**3 - 3 * x**2 + 1) * y0
            + (x**3 - 2 * x**2 + x) * m0
            + (-2 * x**3 + 3 * x**2) * y1
            + (x**3 - x**2) * m1
        )

    tau_found = _refine_roots(lambda t: chart.coordinate(hermite(t)) - level, t0, t1)
    y_found = hermite(tau_found)
    # only speeds known to be below the tolerance are rejected (NaN is kept)
    keep = ~(chart.transverse_velocity(y_found) < spec.transversality_tol)
    accepted = found[keep]
    new_states = states.copy()
    new_states[accepted] = y_found[keep]
    taus = np.full(n, np.nan)
    taus[accepted] = tau_found[keep]
    ok = np.zeros(n, dtype=bool)
    ok[accepted] = True
    return new_states, taus, ok


# --- return-map tables -------------------------------------------------------


@dataclass(frozen=True)
class ReturnRecord:
    s: float
    u: float
    s_image: float = math.nan
    u_image: float = math.nan
    tau: float = math.nan
    lift_ds: float = math.nan
    status: str = "ok"


@dataclass(frozen=True)
class ReturnMapTable:
    records: list[ReturnRecord]
    circumference: float

    def ok_records(self) -> list[ReturnRecord]:
        return [r for r in self.records if r.status == "ok"]

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("s,u,s_image,u_image,tau,lift_ds,status\n")
            for r in self.records:
                fh.write(
                    f"{r.s!r},{r.u!r},{r.s_image!r},{r.u_image!r},"
                    f"{r.tau!r},{r.lift_ds!r},{r.status}\n"
                )


def build_return_map_grid(
    H: DualMetric,
    spec: SectionSpec,
    s_values,
    u_values,
    config: IntegratorConfig = DEFAULT_CONFIG,
) -> ReturnMapTable:
    """Tabulate the return map on a grid; failures are recorded, not raised."""
    chart = AnnulusChart(H, spec)
    records = []
    for s in np.asarray(s_values, dtype=float):
        for u in np.asarray(u_values, dtype=float):
            try:
                sample = first_return(H, spec, (s, u), config, chart=chart)
            except (NoCrossing, NonTransverse) as err:
                records.append(
                    ReturnRecord(s=float(s), u=float(u), status=type(err).__name__)
                )
            else:
                records.append(
                    ReturnRecord(
                        s=float(s),
                        u=float(u),
                        s_image=sample.image[0],
                        u_image=sample.image[1],
                        tau=sample.tau,
                        lift_ds=sample.lift_displacement,
                        status="ok",
                    )
                )
    return ReturnMapTable(records=records, circumference=chart.circumference)


# --- smooth division ---------------------------------------------------------


class SmoothQuotient:
    """G(x, t) = F(x, t) / t continued smoothly through t = 0.

    Away from t = 0 the direct quotient is used; inside |t| <= t_switch the
    value comes from a Taylor model of F in t (least-squares polynomial fit on
    a fixed node set), whose coefficient shift realizes
    d^k G(x, 0) = d^(k+1) F(x, 0) / (k + 1).
    """

    def __init__(self, F, order: int = 2, *, t_switch: float = 1e-3, t_fit: float | None = None,
                 branch_tol: float = 1e-8, vanish_tol: float = 1e-12):
        self.F = F
        self.order = int(order)
        self.t_switch = float(t_switch)
        self.t_fit = float(t_fit) if t_fit is not None else max(64.0 * t_switch, 0.064)
        self.branch_tol = float(branch_tol)
        self.vanish_tol = float(vanish_tol)
        self.degree = self.order + 4
        self._cache: dict = {}

    def _coeffs(self, x):
        key = x if np.isscalar(x) or isinstance(x, tuple) else tuple(np.ravel(x))
        if key in self._cache:
            return self._cache[key]
        nodes = np.linspace(-1.0, 1.0, 2 * self.degree + 7)
        vals = np.array([self.F(x, float(tau * self.t_fit)) for tau in nodes])
        scale = max(1.0, float(np.max(np.abs(vals))))
        f0 = float(self.F(x, 0.0))
        if abs(f0) > self.vanish_tol * scale:
            raise NotVanishing(f"F(x, 0) = {f0!r} does not vanish")
        a = np.polynomial.polynomial.polyfit(nodes, vals, self.degree)
        coeffs = a / self.t_fit ** np.arange(self.degree + 1)
        # the two branches must agree where they hand over
        t = self.t_switch
        for sign in (1.0, -1.0):
            taylor = float(np.polynomial.polynomial.polyval(sign * t, coeffs[1:]))
            direct = float(self.F(x, sign * t)) / (sign * t)
            if abs(taylor - direct) > self.branch_tol * max(1.0, abs(direct)):
                raise BranchMismatch(
                    f"branches differ by {abs(taylor - direct):.3e} at |t| = {t}"
                )
        self._cache[key] = coeffs
        return coeffs

    def __call__(self, x, t: float) -> float:
        t = float(t)
        if abs(t) > self.t_switch:
            return float(self.F(x, t)) / t
        coeffs = self._coeffs(x)
        return float(np.polynomial.polynomial.polyval(t, coeffs[1:]))

    def dt_at_zero(self, x, k: int) -> float:
        """k-th t-derivative of G at (x, 0), from the Taylor model."""
        if k > self.order + 2:
            raise ValueError(f"requested derivative {k} beyond model order")
        coeffs = self._coeffs(x)
        return math.factorial(k) * float(coeffs[k + 1])


def smooth_divide(F, order: int = 2, **kwargs) -> SmoothQuotient:
    """Construct the smooth continuation of F(x, t)/t; see SmoothQuotient."""
    return SmoothQuotient(F, order=order, **kwargs)


# --- boundary extension of the return time -----------------------------------


@dataclass(frozen=True)
class BoundaryExtensionReport:
    angles: np.ndarray
    taus: np.ndarray
    tau_boundary: float  # root of the smooth quotient at angle 0
    tau_polyfit: float  # polynomial extrapolation of the tau samples
    residual: float  # max absolute residual of the polynomial model
    branch_gap: float  # |tau_boundary - tau_polyfit|


def return_time_boundary_extension(
    H: DualMetric,
    spec: SectionSpec,
    config: IntegratorConfig = DEFAULT_CONFIG,
    *,
    s0: float = 0.0,
    angles=None,
    poly_degree: int = 3,
    residual_tol: float = 1e-4,
) -> BoundaryExtensionReport:
    """Extend the first-return time to the annulus boundary (angle u -> 0).

    Two routes that must agree: (a) polynomial extrapolation of tau along a
    geometric approach u_j -> 0, with the model residual as a smoothness
    proxy; (b) division of the transverse coordinate x(tau; u) by the angle u
    via the smooth quotient, whose zero in tau at u = 0 *is* the boundary
    return time.
    """
    chart = AnnulusChart(H, spec)
    if angles is None:
        angles = 2.0 ** -np.arange(3, 11)
    angles = np.asarray(angles, dtype=float)
    if len(angles) < poly_degree + 2 or not np.all(np.diff(angles) < 0):
        raise ExtrapolationUnstable("need a decreasing approach sequence of angles")
    ratios = angles[1:] / angles[:-1]
    if np.any(ratios > 0.95):
        raise ExtrapolationUnstable("approach sequence is not geometric")

    taus = np.array([first_return(H, spec, (s0, u), config, chart=chart).tau for u in angles])
    coeffs = np.polynomial.polynomial.polyfit(angles, taus, poly_degree)
    fit = np.polynomial.polynomial.polyval(angles, coeffs)
    residual = float(np.max(np.abs(fit - taus)))
    if residual > residual_tol:
        raise ExtrapolationUnstable(f"polynomial residual {residual:.3e} > {residual_tol:.1e}")
    tau_polyfit = float(coeffs[0])

    # Route (b): the transverse coordinate x(tau; u), divided by the launch
    # angle u, extends through u = 0; the boundary return time is the zero in
    # tau of that quotient at u = 0.  Dense orbits are integrated lazily per
    # requested angle and cached, so the quotient's Taylor nodes are cheap.
    t_hi = float(np.max(taus)) + 1.0
    sols: dict[float, object] = {}

    def transverse(tau: float, u: float) -> float:
        u = float(u)
        if u not in sols:
            y0 = chart.point_to_state(s0, u)
            sols[u] = _solve_dense(H, y0, t_hi, config, where="boundary extension").solution()
        return float(chart.coordinate(sols[u](tau)))

    quotient = smooth_divide(
        transverse,
        order=1,
        t_switch=float(angles[-1]) / 2.0,
        t_fit=float(angles[0]),
    )

    def g_at_zero(taus: np.ndarray) -> np.ndarray:
        return np.array([quotient(float(tau), 0.0) for tau in taus])

    # first upward zero of G(., 0) near the observed return times
    lo = max(float(np.min(taus)) - 0.5, 0.1)
    hi = min(float(np.max(taus)) + 0.5, t_hi)
    grid = np.linspace(lo, hi, 101)
    up, _ = _upward_brackets(g_at_zero(grid), None)
    hits = np.flatnonzero(up)[:1]
    if not len(hits):
        raise ExtrapolationUnstable("no sign change of the divided coordinate at u = 0")
    tau_boundary = float(_refine_roots(g_at_zero, grid[hits], grid[hits + 1], xtol=1e-12)[0])
    return BoundaryExtensionReport(
        angles=angles,
        taus=taus,
        tau_boundary=tau_boundary,
        tau_polyfit=tau_polyfit,
        residual=residual,
        branch_gap=abs(tau_boundary - tau_polyfit),
    )
