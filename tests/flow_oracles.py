"""Independent routes to flow results, kept beside the tests that use them.

``compose_commuting_flows`` gives the Katok flow on its invariant cone from
the rotational flow and a rigid shift; ``lift_to_cover`` re-lifts reduced base
points, a second route to the lift an orbit trace stores; ``pole_cap_event``
is the lab's pole cap as a ``solve_ivp`` event, ``stacked_rhs`` a cloud of
orbits as one flat system and ``scipy_step_rows`` some orbits' last step of
such a system, for the scipy references.
"""

import numpy as np

from finslerlab.errors import FinslerLabError
from finslerlab.flow import (
    DEFAULT_CONFIG,
    TWO_PI,
    IntegratorConfig,
    OrbitTrace,
    circle_difference,
    integrate_orbit,
    pole_cap,
)
from finslerlab.metrics import CotangentPoint, RotationalDualMetric, cone_membership
from finslerlab.profiles import RotationalProfile


class ConeViolation(FinslerLabError):
    """Composed-flow shortcut used outside the invariant cone."""


class LiftAmbiguity(FinslerLabError):
    """A single trace step moved more than half a period; lift is not unique."""


def pole_cap_event(H, config: IntegratorConfig):
    """Terminal |x2| = cap event of ``solve_ivp`` for sphere-chart runs (None without a cap)."""
    cap = pole_cap(H, config)
    if cap is None:
        return None

    def event(t, y):
        return cap - abs(y[1])

    event.terminal = True
    event.direction = -1
    return event


def stacked_rhs(H, n: int):
    """rhs(t, flat) of n orbits stacked into one (4n,) system: one batched ``H.vector_field`` call."""

    def rhs(t, flat):
        return H.vector_field(flat.reshape(n, 4)).reshape(-1)

    return rhs


def scipy_step_rows(solver, rows):
    """The last step of scipy's stepper on :func:`stacked_rhs`, for the orbits ``rows``, as a ``RowInterpolant`` step."""
    K = solver.K.reshape(len(solver.K), -1, 4)
    ends = [np.full(len(rows), e) for e in (solver.t_old, solver.t)]
    return *ends, solver.y_old.reshape(-1, 4)[rows], solver.y.reshape(-1, 4)[rows], K[:, rows]


def compose_commuting_flows(
    profile: RotationalProfile,
    alpha: float,
    p0,
    t: float,
    *,
    cone_a: float,
    config: IntegratorConfig = DEFAULT_CONFIG,
) -> CotangentPoint:
    """Flow of H0 + alpha*H1 realized as (H0-flow) o (rigid x1-shift by alpha*t).

    Valid exactly on the invariant cone U_a where the perturbed metric equals
    H0 + alpha*H1; serves as an independent oracle for direct integration of
    the perturbed family there.
    """
    y0 = p0.array if isinstance(p0, CotangentPoint) else np.array(p0, dtype=float)
    if not cone_membership(profile, cone_a, y0):
        raise ConeViolation(f"start state outside U_{cone_a}")
    trace = integrate_orbit(RotationalDualMetric(profile), y0, t, config)
    slack = 1e-9
    inside = cone_membership(profile, cone_a + slack, trace.states)
    if not np.all(inside):
        raise ConeViolation(f"orbit left U_{cone_a} during composition")
    y = trace.final_state.copy()
    y[0] += alpha * t
    return CotangentPoint(*y.tolist())


def lift_to_cover(
    trace_or_base,
    x1_period: float = TWO_PI,
    x2_period: float | None = None,
    *,
    ambiguity_fraction: float = 0.499,
) -> np.ndarray:
    """Continuously unwrap reduced base points across fundamental domains.

    Accepts an OrbitTrace (whose reduced base points are re-lifted, an
    independent route to the stored lift) or a raw (n, 2) array of reduced
    points.  Raises LiftAmbiguity when one step moves at least half a period.
    """
    if isinstance(trace_or_base, OrbitTrace):
        base = trace_or_base.base_points
        if x2_period is None:
            x2_period = trace_or_base.x2_period
    else:
        base = np.asarray(trace_or_base, dtype=float)
    out = np.empty_like(base)
    out[0] = base[0]
    d1 = circle_difference(np.diff(base[:, 0]), x1_period)
    if np.any(np.abs(d1) >= ambiguity_fraction * x1_period):
        raise LiftAmbiguity("x1 step of at least half a period")
    out[1:, 0] = base[0, 0] + np.cumsum(d1)
    if x2_period:
        d2 = circle_difference(np.diff(base[:, 1]), x2_period)
        if np.any(np.abs(d2) >= ambiguity_fraction * x2_period):
            raise LiftAmbiguity("x2 step of at least half a period")
        out[1:, 1] = base[0, 1] + np.cumsum(d2)
    else:
        out[:, 1] = base[:, 1]
    return out
