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
Every (s, u) comes from :meth:`AnnulusChart.points_of_states`.

Crossings are located by one rule: after the first step (the start lies on
the section), a step whose ends straddle a section level upward is a
bracket, refined on that step's own interpolant
(:class:`~finslerlab.solvers.RowInterpolant`, the one dense output of every
stepper), and the crossing is then filtered for transversality.  One loop,
:func:`_returns`, marches each of N orbits once to n ``max_return_time`` for
n returns, refines all the brackets of a run together, and lets an orbit
short of n because of a tangency step on from its last bracket.
:func:`detect_crossing` (behind :func:`first_return`, the return grid and the
boundary extension) is its one-orbit, n = 1 case, :func:`iterate_section_map`
its one-orbit case and :func:`ensemble_return_step` its n = 1 case, so a
first return is the map's first iterate bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BranchMismatch,
    ExtrapolationUnstable,
    InvalidField,
    NoCrossing,
    NonTransverse,
    NotVanishing,
    StepFailure,
    ZeroCovector,
    require_positive,
)
from .flow import DEFAULT_CONFIG, TWO_PI, IntegratorConfig, _March, metric_profile, pole_cap
from .metrics import DualMetric
from . import solvers
from .solvers import TOO_SMALL_STEP, RowInterpolant, brent_root, march_rows

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
    """Which annulus to cut, and the detection tolerances.

    ``scan_dt`` is validated and read by nothing: crossings are bracketed on
    the integrator's own step ends.  It stays a field (out of the config
    schema) until the benchmark's own workloads stop setting it.
    """

    kind: str = "equator_birkhoff"
    x2_star: float = 0.0
    x1_star: float = 0.0
    transversality_tol: float = 1e-6
    max_return_time: float = 8.0
    scan_dt: float = 0.02

    def __post_init__(self):
        if self.kind not in ("equator_birkhoff", "meridian"):
            raise InvalidField("kind", f"unknown section kind {self.kind!r}")
        for name in ("x2_star", "x1_star"):
            if not isinstance(getattr(self, name), (int, float)):
                raise InvalidField(name, f"must be a number, got {getattr(self, name)!r}")
        require_positive(self, "transversality_tol", "max_return_time", "scan_dt")

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


class AnnulusChart:
    """(s, u) coordinates on one section, with state conversions."""

    def __init__(self, H: DualMetric, spec: SectionSpec):
        self.H = H
        self.spec = spec
        self._rhs = H.scalar_rhs()
        # the state component whose upward crossings of the level `_star` are events
        self._axis, self._star = (1, spec.x2_star) if spec.kind == "equator_birkhoff" else (0, spec.x1_star)
        self.profile = metric_profile(H)
        if self.profile is None:
            raise ValueError("metric does not expose a rotational profile")
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
        return np.asarray(states, dtype=float)[..., self._axis] - self._star

    def transverse_velocity(self, states) -> np.ndarray:
        return self.H.grad_xi(np.asarray(states, dtype=float))[..., self._axis]

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
        """(s, u) of one on-section state: the one-row case of :meth:`points_of_states`."""
        s, u = self.points_of_states(state)[0].tolist()
        return s, u

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
            dx1, dx2, _, _ = self._rhs(0.0, (x1, x2, math.cos(theta), math.sin(theta)))
            d = math.atan2(dx2, dx1) - target_angle
            return (d + math.pi) % TWO_PI - math.pi

        lo, hi = target_angle - 1.0, target_angle + 1.0
        flo, fhi = mismatch(lo), mismatch(hi)
        if flo == 0.0:
            return lo
        if fhi == 0.0:
            return hi
        if flo * fhi > 0.0:
            raise ValueError("could not bracket the covector direction")
        return brent_root(mismatch, lo, hi, xtol=1e-14)

    def symplectic_coords(self, state) -> tuple[float, float]:
        """Coordinates (position lift, conjugate momentum) of the flux area form."""
        state = np.asarray(state, dtype=float)
        if self.spec.kind == "equator_birkhoff":
            return float(state[0]), float(state[2])
        return float(state[1]), float(state[3])


# --- crossing location -------------------------------------------------------


def _upward_brackets(g_old, g, spacing: float | None):
    """Whether the transverse coordinate crosses a section level upward from ``g_old`` to ``g``.

    Elementwise over arrays of step ends (or sample pairs), and in plain
    float comparisons on one step's floats.  Returns ``(up, level)``: the
    flags, and the level crossed (the highest passed when a step passes
    several periodic levels; 0.0 for the one level of a non-periodic chart).
    """
    if spacing is None:
        return (g_old < 0.0) & (g >= 0.0), 0.0
    k = np.floor(g / spacing)
    return k > np.floor(g_old / spacing), k * spacing


def _refine_roots(g, lo, hi, xtol: float = 1e-13) -> np.ndarray:
    """Roots of ``g`` in the brackets [lo, hi], where g(lo) < 0 <= g(hi), all at once.

    ``g`` maps an array of times to the array of values, entry by entry.  The
    iteration is Illinois (modified regula falsi), with a bisection step
    wherever three steps have not halved the bracket.  Each bracket is refined
    until it is narrower than Brent's tolerance ``xtol + 4 eps |t|``; the
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


def _returns(H: DualMetric, states, spec: SectionSpec, config: IntegratorConfig, chart: AnnulusChart, n: int):
    """The first n transverse upward crossings of each orbit of ``states`` (N, 4), within n ``max_return_time``.

    The one crossing loop (module docstring).  A cloud of more than
    ``TAIL_ROWS`` orbits steps in :func:`~finslerlab.solvers.march_rows`, which
    keeps each orbit's bracketing steps, stops it at its n-th and lets the
    last orbits go; every other orbit steps on :class:`_March` with
    ``H.scalar_rhs()`` and the pole cap, from its start or from where the
    batch let it go.  Returns (times (N, n), states (N, n, 4), skipped (N,),
    errors): the crossings of the orbits that have n (NaN for the others),
    the tangencies skipped before each orbit's first, and None or the error
    that left it short (ZeroCovector, StepFailure or NoCrossing).  An orbit
    fails alone.
    """
    T = n * spec.max_return_time
    states = np.asarray(states, dtype=float).reshape(-1, 4)
    zero = (np.hypot(states[:, 2], states[:, 3]) == 0.0).tolist()
    errors = [ZeroCovector("orbit start has xi = 0") if z else None for z in zero]
    need = [0 if z else n for z in zero]  # the brackets each orbit is still to step to
    found, skipped = [[] for _ in zero], [0] * len(zero)  # each orbit's (time, state) crossings; its tangencies
    live = np.flatnonzero(np.logical_not(zero))
    rhs, cap = H.scalar_rhs(), pole_cap(H, config)
    axis, star, spacing = chart._axis, chart._star, chart.periodic_levels
    marches, stands, parts = {}, {}, []  # float marches; where the batch let orbits go; brackets to refine
    if live.size > solvers.TAIL_ROWS:
        run = march_rows(
            config.method, H.vector_field, states[live], T, (), rtol=config.rel_tol, atol=config.abs_tol,
            stop=(lambda y_old, y: _upward_brackets(y_old[:, axis] - star, y[:, axis] - star, spacing)[0], n),
        )
        for i in live[run.failed].tolist():
            errors[i] = StepFailure(TOO_SMALL_STEP)
        if run.steps:
            sol = RowInterpolant(config.method, H.vector_field, run.steps)
            _, level = _upward_brackets(chart.coordinate(sol.y_old), chart.coordinate(sol.y), spacing)
            parts.append((sol, live[run.flagged], sol.t, level))
        for i in live[run.flagged].tolist():
            need[i] -= 1
        for rows, *stand in run.ends:
            stands.update(zip(live[rows].tolist(), zip(*(a.tolist() for a in stand))))
    else:
        marches = {i: _March(rhs, states[i], T, config, cap=cap) for i in live.tolist()}
    stepping = [i for i in [*marches, *stands] if need[i]]
    while stepping or parts:
        brackets = []  # (orbit, step, end, level) of each float step that brackets a crossing
        for i in stepping:
            if i in stands:
                marches[i] = _March.resume(rhs, stands.pop(i), T, config, cap=cap)
            march = marches[i]
            solver = march.solver
            g = solver.y[axis] - star
            try:
                while need[i] and march.step():
                    t_end, y_end = march.capped or (solver.t, solver.y)
                    g_old, g = g, y_end[axis] - star
                    up, level = _upward_brackets(g_old, g, spacing)
                    if up and solver.t_old != 0.0:  # the first step leaves the section it starts on
                        brackets.append((i, march.last, t_end, level))
                        need[i] -= 1
            except StepFailure as err:
                errors[i] = err
        if brackets:
            orbits, steps, ends, levels = zip(*brackets)
            # every march steps rhs by the same method, so one interpolant serves them all
            parts.append((march.interpolant(steps), np.array(orbits), np.array(ends), np.array(levels)))
        if parts:
            sols, orbits, ends, levels = zip(*parts)
            cuts = np.cumsum([0, *map(len, orbits)]).tolist()
            pieces = list(zip(sols, levels, cuts, cuts[1:]))
            tau = _refine_roots(
                lambda t: np.concatenate([chart.coordinate(sol(t[a:b])) - level for sol, level, a, b in pieces]),
                np.concatenate([sol.t_old for sol in sols]), np.concatenate(ends),
            )
            y = np.concatenate([sol(tau[a:b]) for sol, _, a, b in pieces])
            keep = ~(chart.transverse_velocity(y) < spec.transversality_tol)  # NaN is kept
            # each orbit's brackets come in time order: the batch's, then the floats'
            for i, t, state, kept in zip(np.concatenate(orbits).tolist(), tau.tolist(), y, keep.tolist()):
                if kept:
                    found[i].append((t, state))
                else:
                    skipped[i] += not found[i]
                    need[i] += 1
        stepping = [
            i for i, k in enumerate(need)
            if k and (i in stands or i in marches and not marches[i].capped and marches[i].solver.status == "running")
        ]
        parts = []
    times, crossings = np.full((len(zero), n), np.nan), np.full((len(zero), n, 4), np.nan)
    full = [i for i, hits in enumerate(found) if len(hits) == n]
    if full:
        t, y = zip(*(hit for i in full for hit in found[i]))
        times[full], crossings[full] = np.reshape(t, (-1, n)), np.reshape(y, (-1, n, 4))
    for i, hits in enumerate(found):
        if len(hits) < n and errors[i] is None:
            errors[i] = NoCrossing(
                "orbit left the chart strip before its returns" if i in marches and marches[i].capped
                else f"{len(hits)} of {n} transverse crossings within t = {T} ({skipped[i]} tangencies skipped)"
            )
    return times, crossings, np.array(skipped), errors


def detect_crossing(
    H: DualMetric,
    start_state,
    spec: SectionSpec,
    config: IntegratorConfig = DEFAULT_CONFIG,
    *,
    chart: AnnulusChart | None = None,
) -> CrossingEvent:
    """First transverse upward crossing of the section after the first step, within ``max_return_time``.

    The one-orbit, n = 1 case of the crossing loop (:func:`_returns`), so the
    crossing is the section map's first iterate bit for bit.  Tangencies
    before it are skipped and counted; NoCrossing is raised when the time
    budget runs out, or at the sphere chart's pole cap.
    """
    chart = chart or AnnulusChart(H, spec)
    times, states, skipped, errors = _returns(H, start_state, spec, config, chart, 1)
    if errors[0]:
        raise errors[0]
    speed = float(chart.transverse_velocity(states[0, 0]))
    return CrossingEvent(
        time=float(times[0, 0]), state=states[0, 0], transverse_speed=speed, skipped_tangencies=int(skipped[0])
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
        raise NonTransverse(f"start point (s={s:.6f}, u={u:.6f}) has transverse speed {v0:.3e}")
    event = detect_crossing(H, y0, spec, config, chart=chart)
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
) -> SectionOrbit:
    """Harvest n successive returns from one continuous orbit integration.

    The one-orbit case of the crossing loop (:func:`_returns`): one march to
    a budget of n ``max_return_time``, stopped at the step that brackets the
    n-th return.
    """
    chart = AnnulusChart(H, spec)
    y = chart.point_to_state(*start_point)
    if float(chart.transverse_velocity(y)) < spec.transversality_tol:
        raise NonTransverse("start point is not transverse")
    times, states, _, errors = _returns(H, y, spec, config, chart, n)
    if errors[0]:
        raise errors[0]
    states = [y, *states[0]]
    return SectionOrbit(
        points=chart.points_of_states(states),
        lift_s=np.array([chart.lift_s(state) for state in states]),
        times=np.array([0.0, *times[0]]),
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

    The n = 1 case of the crossing loop (:func:`_returns`): each orbit steps
    under its own step control to its first transverse crossing, within
    ``max_return_time``, and a tangency is skipped, as a single orbit skips
    it.  An orbit stepped in the batch is the same bits alone and in any
    cloud; in a cloud of ``TAIL_ROWS`` or fewer orbits each returns as
    :func:`first_return` does, bit for bit.  Returns (new_states, taus,
    ok_mask); an orbit that starts at xi = 0, whose step size underflows,
    that meets the pole cap or that does not cross fails alone, keeping its
    input state and tau = nan.
    """
    chart = chart or AnnulusChart(H, spec)
    states = np.asarray(states, dtype=float).reshape(-1, 4)
    times, crossings, _, errors = _returns(H, states, spec, config, chart, 1)
    ok = np.array([err is None for err in errors], dtype=bool)
    return np.where(ok[:, None], crossings[:, 0], states), times[:, 0], ok


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


_VANISH_TOL = 1e-12  # |F(x, 0)| above this share of max |F| raises NotVanishing
_BRANCH_TOL = 1e-8  # relative gap between the Taylor and direct branches that raises BranchMismatch


class SmoothQuotient:
    """G(x, t) = F(x, t) / t continued smoothly through t = 0.

    Away from t = 0 the direct quotient is used; inside |t| <= t_switch the
    value comes from a Taylor model of F in t (least-squares polynomial fit on
    a fixed node set), whose coefficient shift realizes
    d^k G(x, 0) = d^(k+1) F(x, 0) / (k + 1).
    """

    def __init__(self, F, order: int = 2, *, t_switch: float = 1e-3, t_fit: float | None = None):
        self.F = F
        self.order = int(order)
        self.t_switch = float(t_switch)
        self.t_fit = float(t_fit) if t_fit is not None else max(64.0 * t_switch, 0.064)
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
        if abs(f0) > _VANISH_TOL * scale:
            raise NotVanishing(f"F(x, 0) = {f0!r} does not vanish")
        a = np.polynomial.polynomial.polyfit(nodes, vals, self.degree)
        coeffs = a / self.t_fit ** np.arange(self.degree + 1)
        # the two branches must agree where they hand over
        t = self.t_switch
        for sign in (1.0, -1.0):
            taylor = float(np.polynomial.polynomial.polyval(sign * t, coeffs[1:]))
            direct = float(self.F(x, sign * t)) / (sign * t)
            if abs(taylor - direct) > _BRANCH_TOL * max(1.0, abs(direct)):
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

_BOUNDARY_S0 = 0.0  # section coordinate s of the approach sequence
_BOUNDARY_POLY_DEGREE = 3  # degree of the tau(u) extrapolation polynomial


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
    angles=None,
) -> BoundaryExtensionReport:
    """Extend the first-return time to the annulus boundary (angle u -> 0).

    Two routes that must agree: (a) polynomial extrapolation of tau along a
    geometric approach u_j -> 0, with the model residual as a smoothness
    proxy; (b) division of the transverse coordinate x(tau; u) by the angle u
    via the smooth quotient, whose zero in tau at u = 0 *is* the boundary
    return time.  The residual is reported, not judged: the caller's check
    holds the bound.
    """
    chart = AnnulusChart(H, spec)
    if angles is None:
        angles = 2.0 ** -np.arange(3, 11)
    angles = np.asarray(angles, dtype=float)
    if len(angles) < _BOUNDARY_POLY_DEGREE + 2 or not np.all(np.diff(angles) < 0):
        raise ExtrapolationUnstable("need a decreasing approach sequence of angles")
    ratios = angles[1:] / angles[:-1]
    if np.any(ratios > 0.95):
        raise ExtrapolationUnstable("approach sequence is not geometric")

    taus = np.array([first_return(H, spec, (_BOUNDARY_S0, u), config, chart=chart).tau for u in angles])
    coeffs = np.polynomial.polynomial.polyfit(angles, taus, _BOUNDARY_POLY_DEGREE)
    fit = np.polynomial.polynomial.polyval(angles, coeffs)
    residual = float(np.max(np.abs(fit - taus)))
    tau_polyfit = float(coeffs[0])

    # Route (b): the transverse coordinate x(tau; u), divided by the launch
    # angle u, extends through u = 0; the boundary return time is the zero in
    # tau of that quotient at u = 0.  Dense orbits are integrated lazily per
    # requested angle and cached, and each angle's orbit is read at all the
    # times of one g_at_zero call in one lookup, so the quotient's Taylor
    # nodes are cheap.
    t_hi = float(np.max(taus)) + 1.0
    sols: dict[float, object] = {}
    values: dict[tuple[float, float], float] = {}
    batch: list[float] = []  # the times of the g_at_zero call in progress

    def transverse(tau: float, u: float) -> float:
        u = float(u)
        if (tau, u) not in values:  # first read of this angle in this call: read it at every time of the call
            if u not in sols:
                y0 = chart.point_to_state(_BOUNDARY_S0, u)
                march = _March(H.scalar_rhs(), y0, t_hi, config, cap=pole_cap(H, config), dense=True)
                while march.step():
                    pass
                if march.capped:
                    raise NoCrossing("orbit left the chart strip during boundary extension")
                sols[u] = march.solution()
            x = chart.coordinate(sols[u](np.array(batch))).tolist()
            values.update(((t, u), v) for t, v in zip(batch, x))
        return values[(tau, u)]

    quotient = smooth_divide(
        transverse,
        order=1,
        t_switch=float(angles[-1]) / 2.0,
        t_fit=float(angles[0]),
    )

    def g_at_zero(taus: np.ndarray) -> np.ndarray:
        batch[:] = np.asarray(taus, dtype=float).tolist()
        return np.array([quotient(tau, 0.0) for tau in batch])

    # first upward zero of G(., 0) near the observed return times
    lo = max(float(np.min(taus)) - 0.5, 0.1)
    hi = min(float(np.max(taus)) + 0.5, t_hi)
    grid = np.linspace(lo, hi, 101)
    g = g_at_zero(grid)
    up, _ = _upward_brackets(g[:-1], g[1:], None)
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
