"""Hamiltonian integration of degree-1 dual metrics on the cotangent bundle.

The canonical equations xdot = dH/dxi, xidot = -dH/dx are integrated in lift
coordinates (x1, x2 never reduced), so traces carry their universal-cover path
for free.  Because the metrics are positively 1-homogeneous, the base speed is
F-unit on *every* level set, hence flow time equals F-arclength.

Conservation of H (always) and of xi1 (x1-symmetric metrics, i.e. all kinds
built here) is monitored at checkpoints and enforced against a configured
drift tolerance; drift is the audited quantity instead of a symplectic scheme,
because the Hamiltonians are piecewise-defined and event location needs dense
output.

Single orbits and their section solves in :mod:`~finslerlab.sections` step
one loop, :class:`_March`: a float stepper of :mod:`~finslerlab.solvers`
(:data:`~finslerlab.solvers.ORBIT_STEPPERS`) advanced by hand with a
one-shot scipy solve's checkpoint sampling, and with its terminal-event rule
applied to the pole cap, a height (:func:`pole_cap`).  Every stepper has one
dense output, :class:`~finslerlab.solvers.RowInterpolant`, formed for many
steps at once: checkpoints are sampled from held steps in flushes, as
:func:`~finslerlab.solvers.march_rows` samples its rows.  A section solve
keeps the steps that bracket a crossing and builds their interpolant at the
end of the run; the boundary extension's quotient route keeps every step and
builds one interpolant over them all.
Orbit ensembles (:func:`integrate_ensemble`) step each orbit under its own
step control (:func:`~finslerlab.solvers.march_rows`), so one hard orbit no
longer sets the step of the rest.  The crossings of a cloud step the same
way, and the cloud's last ``TAIL_ROWS`` orbits (the slow ones near the pole)
go on :class:`_March` from where they stand (:meth:`_March.resume`), where a
step costs a few microseconds, not a batched call.  Given the same
derivative, the two stepper shapes take the same steps with the same bits;
but single orbits take ``scalar_rhs`` (libm) and batches ``vector_field``
(numpy), so an orbit stepped alone and in an ensemble agree to rounding, not
bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidField, InvariantDrift, PoleProximity, StepFailure, ZeroCovector, require_positive
from .metrics import CotangentPoint, DualMetric
from .solvers import (
    DENSE_BUDGET, EPS, ORBIT_STEPPERS, RowInterpolant, _float_rows, _sample_held, brent_root, march_rows,
)

__all__ = [
    "IntegratorConfig",
    "OrbitTrace",
    "EnsembleTrace",
    "integrate_orbit",
    "integrate_ensemble",
    "check_periodicity",
    "PeriodicityReport",
    "phase_space_distance",
    "circle_difference",
    "metric_x2_period",
    "metric_profile",
    "pole_cap",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class IntegratorConfig:
    """Adaptive Runge-Kutta settings (order >= 5 methods with dense output)."""

    method: str = "DOP853"
    rel_tol: float = 1e-12
    abs_tol: float = 1e-12
    invariant_drift_tol: float = 1e-8
    checkpoint_dt: float = 0.1
    x2_cap: float | None = 30.0

    def __post_init__(self):
        if self.method not in ORBIT_STEPPERS:
            raise InvalidField("method", f"must be RK45 or DOP853, not {self.method!r}")
        require_positive(self, "rel_tol", "abs_tol", "invariant_drift_tol", "checkpoint_dt")
        if self.x2_cap is not None:
            require_positive(self, "x2_cap")

    def with_(self, **kw) -> "IntegratorConfig":
        from dataclasses import replace

        return replace(self, **kw)


DEFAULT_CONFIG = IntegratorConfig()

# Lighter tolerances for large orbit ensembles (statistics, not acceptance).
ENSEMBLE_CONFIG = IntegratorConfig(method="DOP853", rel_tol=1e-9, abs_tol=1e-9)


def metric_profile(H: DualMetric):
    """The rotational profile of a metric, looked up through ``inner`` (None for one without, as H1)."""
    inner = getattr(H, "inner", None)
    return metric_profile(inner) if inner is not None else getattr(H, "profile", None)


def metric_x2_period(H: DualMetric) -> float | None:
    """Fundamental x2-period of the metric's base (None on the sphere chart)."""
    return getattr(metric_profile(H), "period", None)


@dataclass(frozen=True)
class OrbitTrace:
    """Checkpointed orbit with lift, conserved-quantity log, and reductions."""

    times: np.ndarray
    states: np.ndarray
    h_values: np.ndarray
    h1_values: np.ndarray
    x2_period: float | None = None

    @property
    def lifted_base(self) -> np.ndarray:
        return self.states[:, :2]

    @property
    def base_points(self) -> np.ndarray:
        base = self.states[:, :2].copy()
        base[:, 0] %= TWO_PI
        if self.x2_period:
            base[:, 1] %= self.x2_period
        return base

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def h_drift(self) -> float:
        return float(np.max(np.abs(self.h_values - self.h_values[0])) / abs(self.h_values[0]))

    def h1_drift(self) -> float:
        scale = max(abs(self.h1_values[0]), abs(self.h_values[0]))
        return float(np.max(np.abs(self.h1_values - self.h1_values[0])) / scale)

    def to_csv(self, path) -> None:
        base = self.base_points
        cols = (
            self.times,
            base[:, 0],
            base[:, 1],
            self.states[:, 2],
            self.states[:, 3],
            self.states[:, 0],
            self.states[:, 1],
            self.h_values,
            self.h1_values,
        )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,x1,x2,xi1,xi2,lift_x1,lift_x2,H,H1\n")
            for i in range(len(self.times)):
                fh.write(",".join(repr(float(col[i])) for col in cols) + "\n")


def _checkpoint_grid(T: float, dt: float) -> np.ndarray:
    n = max(int(abs(T) / dt), 1)
    grid = np.linspace(0.0, T, n + 1)
    return grid


def pole_cap(H: DualMetric, config: IntegratorConfig) -> float | None:
    """The |x2| cap of sphere-chart runs (None on periodic bases, or with no cap)."""
    return None if metric_x2_period(H) is not None else config.x2_cap


class _March:
    """One adaptive solve of one orbit from t = 0 (or :meth:`resume`) toward ``t_end``, a step at a time.

    The stepping loop of single orbits and their section solves.  The solver
    is ``ORBIT_STEPPERS[config.method]`` (a state of 4 floats, see
    :mod:`~finslerlab.solvers`) with the configured ``rtol`` and ``atol``.
    Its steps have one dense output, :meth:`interpolant`: the
    :class:`~finslerlab.solvers.RowInterpolant` of :func:`march_rows`, whose
    derivative is ``fun`` called row by row, so a float orbit's samples are a
    one-row :func:`march_rows` run's, bit for bit.  Each step is handled the
    way a one-shot scipy solve handles it:

    * the sample times ``ts`` (ordered from 0 toward ``t_end``) the step covers
      (as ``t_eval`` is, by ``searchsorted(d * ts, d * t, side="right")`` with
      ``d`` the direction of integration) are taken from its interpolant into
      ``path``; as in :func:`march_rows` the covering steps are held and
      sampled together, in flushes, at the cap and at the end of the run;
    * the pole cap, a height ``cap`` (see :func:`pole_cap`), ends the run
      where ``cap - |x2|`` first falls to 0 (scipy's rule for a terminal event
      of direction -1), at the root of that step, and sets ``capped`` to the
      (time, state) there;
    * with ``dense=True`` (a forward run) every step is kept for
      :meth:`solution` (the boundary extension's quotient route).

    Callers step it to ``t_end``, or stop once they have what they need; the
    solver's ``t`` and ``y`` are where the march stands and ``last`` is its
    last step.  A step size that underflows raises StepFailure with the
    solver's message.
    """

    def __init__(self, fun, y0, t_end, config, ts=(), *, cap=None, dense=False):
        solver = ORBIT_STEPPERS[config.method](fun, 0.0, y0, t_end, rtol=config.rel_tol, atol=config.abs_tol)
        self._begin(solver, fun, config.method, ts, cap, dense)

    @classmethod
    def resume(cls, fun, stand, t_end, config, *, cap=None) -> "_March":
        """A march from a :func:`march_rows` row's stand, (t, y, f, h_abs) in floats: no initial step or ``fun`` call."""
        march = cls.__new__(cls)
        solver = ORBIT_STEPPERS[config.method].resume(fun, *stand, t_end, rtol=config.rel_tol, atol=config.abs_tol)
        march._begin(solver, fun, config.method, (), cap, False)
        return march

    def _begin(self, solver, fun, method, ts, cap, dense):
        self.solver = solver
        self._method = method
        self._fun = lambda y: np.array([fun(0.0, row) for row in map(tuple, y.tolist())], dtype=float)
        self.ts = np.asarray(ts, dtype=float)
        self._dts = (solver.direction * self.ts).tolist()
        self.path = np.empty((len(self.ts), len(solver.y)))
        self.n = 0
        self.capped = None
        self.last = None
        self._cap = cap
        self._g = None if cap is None else cap - abs(solver.y[1])
        self._held = []  # (step, first sample, sample count) of covering steps not sampled yet
        self._steps = [] if dense else None

    def step(self) -> bool:
        """Take one step; False once the run has reached ``t_end`` or the cap."""
        solver = self.solver
        if self.capped or solver.status != "running":
            return False
        message = solver.step()
        if solver.status == "failed":
            raise StepFailure(message)
        if solver.t == solver.t_old:  # a run of length 0 samples its start, as march_rows does
            self.path[:] = solver.y
            return True
        t = solver.t
        self.last = step = (solver.t_old, t, solver.y_old, solver.y, solver.K)
        cap = self._cap
        if cap is not None:
            g = cap - abs(solver.y[1])
            if self._g >= 0.0 and g <= 0.0:
                sol = self.interpolant([step])
                t = brent_root(lambda s: cap - abs(sol(s)[0, 1]), solver.t_old, t, xtol=4 * EPS)
                self.capped = (t, sol(t)[0])
            self._g = g
        hi = bisect_right(self._dts, solver.direction * t)
        if hi > self.n:
            self._held.append((step, self.n, hi - self.n))
            self.n = hi
        if self._steps is not None:
            self._steps.append(step)
        # a held step, Python floats in tuples and lists, takes 4.3-4.6 times the
        # bytes of a march_rows held row: an eighth of its budget holds fewer
        if self._held and (len(self._held) >= DENSE_BUDGET // 8 or self.capped or solver.status != "running"):
            steps, first, count = zip(*self._held)
            held = (_float_rows(steps), np.zeros(len(steps), dtype=int), np.array(first), np.array(count))
            _sample_held(self._method, self._fun, self.ts, self.path[:, None], [held])
            self._held = []
        return True

    def interpolant(self, steps) -> RowInterpolant:
        """The dense output of some float steps of this march, one row each."""
        return RowInterpolant(self._method, self._fun, [_float_rows(steps)])

    def solution(self):
        """The states at times ``t`` (m,), (m, 4), over the steps taken so far (scipy's ``OdeSolution``).

        A time takes the first step that ends at or after it, clipped to the
        run: a time on a step end takes the step that ends there.
        """
        sol = self.interpolant(self._steps)
        last = len(sol.t) - 1
        return lambda t: sol.at(np.minimum(np.searchsorted(sol.t, t), last), np.asarray(t, dtype=float))


def integrate_orbit(
    H: DualMetric,
    p0,
    T: float,
    config: IntegratorConfig = DEFAULT_CONFIG,
    *,
    enforce_drift: bool = True,
) -> OrbitTrace:
    """Integrate the canonical equations from p0 for flow time T (T < 0 allowed).

    Raises PoleProximity when a sphere-chart orbit reaches the configured |x2|
    cap, InvariantDrift when H (or xi1, for x1-symmetric metrics) drifts beyond
    tolerance, and StepFailure on integrator breakdown.
    """
    y0 = p0.array if isinstance(p0, CotangentPoint) else np.array(p0, dtype=float)
    if math.hypot(y0[2], y0[3]) == 0.0:
        raise ZeroCovector("orbit start has xi = 0")
    h0 = float(H.value(y0))
    if not h0 > 0.0:
        raise ValueError(f"H(p0) = {h0!r} must be positive")

    march = _March(
        H.scalar_rhs(), y0, float(T), config, _checkpoint_grid(T, config.checkpoint_dt), cap=pole_cap(H, config)
    )
    while march.step():
        pass
    if march.capped:
        raise PoleProximity(*march.capped)
    states = march.path
    h = np.asarray(H.value(states))
    h1 = states[:, 2].copy()
    trace = OrbitTrace(
        times=march.ts, states=states, h_values=h, h1_values=h1, x2_period=metric_x2_period(H)
    )
    if enforce_drift:
        if trace.h_drift() > config.invariant_drift_tol:
            raise InvariantDrift("H", trace.h_drift(), config.invariant_drift_tol)
        if H.x1_symmetric and trace.h1_drift() > config.invariant_drift_tol:
            raise InvariantDrift("xi1", trace.h1_drift(), config.invariant_drift_tol)
    return trace


@dataclass(frozen=True)
class EnsembleTrace:
    """Sampled states of an orbit ensemble, shape (n_times, N, 4), with its failures and work.

    ``errors`` maps each failed orbit to the error class that stopped it:
    ZeroCovector for a start at xi = 0, StepFailure for a step size that
    underflowed.  A failed orbit's samples from its failure on are NaN.
    ``iterations`` counts the lockstep iterations and ``orbit_attempts`` the
    step attempts of all orbits together.
    """

    times: np.ndarray
    states: np.ndarray
    x2_period: float | None = None
    errors: dict = field(default_factory=dict)
    iterations: int = 0
    orbit_attempts: int = 0

    @property
    def failed(self) -> np.ndarray:
        """(N,) mask of the orbits in ``errors``."""
        mask = np.zeros(self.states.shape[1], dtype=bool)
        mask[list(self.errors)] = True
        return mask


def integrate_ensemble(
    H: DualMetric,
    states0,
    T: float,
    config: IntegratorConfig = ENSEMBLE_CONFIG,
    *,
    t_eval=None,
) -> EnsembleTrace:
    """Integrate N orbits, each under its own step control, sampled at ``t_eval``.

    :func:`~finslerlab.solvers.march_rows` steps every orbit as the
    configured method would step it alone -- its own t, step size and error
    norm -- with one batched ``H.vector_field`` call per stage for the
    orbits still running, to the end of the sample grid ``t_eval`` (default:
    the checkpoint grid of ``[0, T]``), which must start at 0 and run toward
    its end.  An orbit's samples are therefore the same bits in any
    ensemble.  An orbit that starts at xi = 0 or whose step size underflows
    is recorded in ``errors`` and the others run on.  Meant for orbit
    statistics (entropy clouds, tube ensembles); acceptance grade per-orbit
    runs should use :func:`integrate_orbit`.
    """
    states0 = np.atleast_2d(np.asarray(states0, dtype=float))
    n = states0.shape[0]
    if t_eval is None:
        t_eval = _checkpoint_grid(T, config.checkpoint_dt)
    t_eval = np.asarray(t_eval, dtype=float)
    d = -1.0 if t_eval[-1] < 0.0 else 1.0
    if t_eval[0] != 0.0 or np.any(d * np.diff(t_eval) < 0.0):
        raise ValueError("t_eval must start at 0 and be ordered toward its end")

    zero = np.hypot(states0[:, 2], states0[:, 3]) == 0.0
    run = march_rows(
        config.method, H.vector_field, states0[~zero], float(t_eval[-1]), t_eval,
        rtol=config.rel_tol, atol=config.abs_tol,
    )
    states = np.full((len(t_eval), n, 4), np.nan)
    states[:, ~zero] = run.path
    errors = dict.fromkeys(np.flatnonzero(zero).tolist(), ZeroCovector)
    errors.update(dict.fromkeys(np.flatnonzero(~zero)[run.failed].tolist(), StepFailure))
    return EnsembleTrace(
        times=t_eval, states=states, x2_period=metric_x2_period(H), errors=errors,
        iterations=run.iterations, orbit_attempts=run.attempts,
    )


def circle_difference(d, period: float):
    """Signed representative of d modulo period in [-period/2, period/2)."""
    return (np.asarray(d, dtype=float) + period / 2.0) % period - period / 2.0


def phase_space_distance(a, b, x2_period: float | None = None):
    """Distance on T*C with x1 (and optionally x2) compared on the circle."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d1 = circle_difference(a[..., 0] - b[..., 0], TWO_PI)
    if x2_period:
        d2 = circle_difference(a[..., 1] - b[..., 1], x2_period)
    else:
        d2 = a[..., 1] - b[..., 1]
    d3 = a[..., 2] - b[..., 2]
    d4 = a[..., 3] - b[..., 3]
    dist = np.sqrt(d1**2 + d2**2 + d3**2 + d4**2)
    return float(dist) if np.ndim(dist) == 0 else dist


@dataclass(frozen=True)
class PeriodicityReport:
    period: float
    distances: np.ndarray

    @property
    def max_distance(self) -> float:
        return float(np.max(self.distances))


def check_periodicity(
    H: DualMetric,
    states,
    T: float,
    config: IntegratorConfig = DEFAULT_CONFIG,
) -> PeriodicityReport:
    """Integrate each sample for time T and report phase-space return distances."""
    states = np.atleast_2d(np.asarray(states, dtype=float))
    x2_period = metric_x2_period(H)
    dists = np.empty(states.shape[0])
    for i, y0 in enumerate(states):
        trace = integrate_orbit(H, y0, T, config)
        dists[i] = phase_space_distance(trace.final_state, y0, x2_period)
    return PeriodicityReport(period=T, distances=dists)
