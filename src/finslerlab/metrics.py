"""Dual metrics on the cotangent bundle of the cylinder/torus.

States are arrays ``[x1, x2, xi1, xi2]`` (leading dimensions broadcast); x1 and
x2 are stored as lifts in R, reduction mod 2pi (and mod L on a torus) is left
to callers.  All metrics here are x1-independent, so xi1 is conserved along
their Hamiltonian flows.

Concrete kinds:

* ``RotationalDualMetric``  -- H0(xi) = |xi| / f(x2), dual to the conformal
  metric f^2 <.,.>;
* ``AngularDualMetric``     -- H1(xi) = xi1, the generator of the rigid
  x1-rotation;
* ``KatokDualMetric``       -- H_alpha = H0 + alpha * chi * eta(H1/H0) * H1,
  equal to H0 + alpha*H1 on the inner cone U_a0 and to H0 outside U_a1;
* ``ReversibilizedDualMetric`` -- H'(xi) = H(xi) for xi1 >= 0, H(-xi) below,
  smooth because the inner metric equals the even H0 near the seam.

Each kind has one batched definition of its canonical equations,
``vector_field(y) -> (..., 4)`` = (dH/dxi, -dH/dx): it evaluates the profile,
the cone ratio and the cutoffs once per call.  ``grad_xi`` and ``grad_x`` are
its slices, so no kind carries a second gradient formula; ``scalar_rhs`` is the
pure-``math`` single-orbit route to the same equations.

Everything is immutable after construction and evaluation is pure, so metric
values can be shared freely across concurrent orbit computations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvexityLost, InvalidField, SeamMismatch, ZeroCovector
from .profiles import (
    CutoffPair,
    RotationalProfile,
    eval_f0,
    make_cutoffs,
    profile_from_spec,
    smooth_step_pair,
)

__all__ = [
    "ALPHA_GOLDEN",
    "CotangentPoint",
    "DualMetric",
    "RotationalDualMetric",
    "AngularDualMetric",
    "KatokDualMetric",
    "ReversibilizedDualMetric",
    "build_katok_family",
    "reversibilize",
    "cone_membership",
    "cone_ratio",
    "fiber_convexity_check",
    "ConvexityReport",
    "critical_alpha_scan",
    "unit_covector",
    "metric_from_spec",
]

# Default perturbation strength: small irrational multiple, so demonstration
# rotation numbers avoid accidental resonances.
ALPHA_GOLDEN = 0.05 * (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class CotangentPoint:
    """One state (x1, x2, xi1, xi2); base coordinates stored as lifts in R."""

    x1: float
    x2: float
    xi1: float
    xi2: float

    @property
    def array(self) -> np.ndarray:
        return np.array([self.x1, self.x2, self.xi1, self.xi2], dtype=float)

    def reduced(self, x2_period: float | None = None) -> tuple[float, float]:
        """Base coordinates reduced mod (2pi, x2_period)."""
        b1 = self.x1 % (2.0 * math.pi)
        b2 = self.x2 % x2_period if x2_period else self.x2
        return b1, b2


def _as_state_array(p) -> np.ndarray:
    if isinstance(p, CotangentPoint):
        return p.array
    return np.asarray(p, dtype=float)


def _check_nonzero(R) -> None:
    if not np.all(R):
        raise ZeroCovector("metric evaluated at xi = 0")


class DualMetric:
    """Positively 1-homogeneous Hamiltonian H(x, xi) with its canonical equations.

    ``vector_field`` is the one batched definition of the equations;
    ``grad_xi`` and ``grad_x`` are its slices.  ``scalar_rhs`` is each kind's
    pure-math closure of the same equations, for integrator inner loops.
    """

    kind: str = "abstract"
    x1_symmetric: bool = True  # all in-scope kinds conserve xi1
    reversible: bool = False

    def value(self, y):
        raise NotImplementedError

    def vector_field(self, y):
        """(dH/dxi, -dH/dx) at one state (4,) or a batch (..., 4)."""
        raise NotImplementedError

    def grad_x(self, y):
        return -self.vector_field(y)[..., 2:]

    def grad_xi(self, y):
        return self.vector_field(y)[..., :2]

    def scalar_rhs(self):
        """Return rhs(t, y) -> list for the canonical equations, in Python floats."""
        raise NotImplementedError

    def to_spec(self) -> dict:
        raise NotImplementedError


class RotationalDualMetric(DualMetric):
    """H0(xi) = |xi| / f(x2)."""

    kind = "rotational"
    reversible = True

    def __init__(self, profile: RotationalProfile):
        self.profile = profile

    def value(self, y):
        y = np.asarray(y, dtype=float)
        R = np.hypot(y[..., 2], y[..., 3])
        _check_nonzero(R)
        return R / self.profile.f(y[..., 1])

    def vector_field(self, y):
        y = np.asarray(y, dtype=float)
        R = np.hypot(y[..., 2], y[..., 3])
        _check_nonzero(R)
        f, fp = self.profile.f_fp(y[..., 1])
        fR = f * R
        out = np.empty(y.shape)
        out[..., 0] = y[..., 2] / fR
        out[..., 1] = y[..., 3] / fR
        out[..., 2] = -0.0  # -dH/dx1 of an x1-invariant metric; grad_x gets +0.0
        out[..., 3] = R * fp / f**2
        return out

    def scalar_rhs(self):
        f_fp = self.profile.f_fp_scalar

        def rhs(t, y):
            _, x2, xi1, xi2 = y
            f, fp = f_fp(x2)
            R = math.hypot(xi1, xi2)
            inv = 1.0 / (f * R)
            return [xi1 * inv, xi2 * inv, 0.0, R * fp / (f * f)]

        return rhs

    def to_spec(self):
        return {"kind": "rotational", "profile": self.profile.to_spec()}


class AngularDualMetric(DualMetric):
    """H1(xi) = xi1; generates the rigid shift (x1, x2) -> (x1 + t, x2)."""

    kind = "angular"

    def value(self, y):
        y = np.asarray(y, dtype=float)
        return y[..., 2] + 0.0

    def vector_field(self, y):
        y = np.asarray(y, dtype=float)
        out = np.zeros(y.shape)
        out[..., 0] = 1.0
        out[..., 2:] = -0.0  # -dH/dx of an x-invariant metric; grad_x gets +0.0
        return out

    def scalar_rhs(self):
        def rhs(t, y):
            return [1.0, 0.0, 0.0, 0.0]

        return rhs

    def to_spec(self):
        return {"kind": "angular"}


class KatokDualMetric(DualMetric):
    """The commuting perturbation H0 + alpha * chi(x) * eta(H1/H0) * H1.

    The vector field is assembled from closed forms everywhere: the step eta
    has an exact derivative, and the indicator chi only jumps where eta(H1/H0)
    vanishes identically, so the chain rule is valid at every state.
    """

    kind = "katok"

    def __init__(self, profile: RotationalProfile, cutoffs: CutoffPair, alpha: float):
        self.profile = profile
        self.cutoffs = cutoffs
        self.alpha = float(alpha)

    # ratio = H1/H0 = xi1 * f(x2) / |xi|
    def _ratio(self, y, R, f):
        return y[..., 2] * f / R

    def value(self, y):
        y = np.asarray(y, dtype=float)
        R = np.hypot(y[..., 2], y[..., 3])
        _check_nonzero(R)
        f = self.profile.f(y[..., 1])
        ratio = self._ratio(y, R, f)
        psi = self.cutoffs.chi(y[..., 1]) * self.cutoffs.eta(ratio) * y[..., 2]
        return R / f + self.alpha * psi

    def vector_field(self, y):
        y = np.asarray(y, dtype=float)
        xi1, xi2 = y[..., 2], y[..., 3]
        R = np.hypot(xi1, xi2)
        _check_nonzero(R)
        f, fp = self.profile.f_fp(y[..., 1])
        ratio = self._ratio(y, R, f)
        achi = self.alpha * self.cutoffs.chi(y[..., 1])
        eta, etad = self.cutoffs.eta.with_deriv(ratio)
        fR = f * R
        R3 = R**3
        out = np.empty(y.shape)
        out[..., 0] = xi1 / fR + achi * (eta + xi1 * etad * f * xi2**2 / R3)
        out[..., 1] = xi2 / fR - achi * etad * f * xi1**2 * xi2 / R3
        out[..., 2] = -0.0
        # -dH/dx2, negated as a whole so grad_x is this closed form bit for bit;
        # d ratio / d x2 = xi1 * f' / R
        out[..., 3] = -(-R * fp / f**2 + achi * etad * (xi1**2) * fp / R)
        return out

    def scalar_rhs(self):
        f_fp = self.profile.f_fp_scalar
        b = self.cutoffs.b
        lo, hi = self.cutoffs.eta.lo, self.cutoffs.eta.hi
        width = hi - lo
        alpha = self.alpha

        def rhs(t, y):
            _, x2, xi1, xi2 = y
            f, fp = f_fp(x2)
            R = math.hypot(xi1, xi2)
            inv = 1.0 / (f * R)
            dx1, dx2 = xi1 * inv, xi2 * inv
            dxi2 = R * fp / (f * f)
            if abs(x2) <= b:
                eta, etad = smooth_step_pair((xi1 * f / R - lo) / width)
                if eta != 0.0 or etad != 0.0:
                    etad /= width
                    dx1 += alpha * (eta + xi1 * etad * f * xi2 * xi2 / R**3)
                    dx2 -= alpha * etad * f * xi1 * xi1 * xi2 / R**3
                    dxi2 -= alpha * etad * xi1 * xi1 * fp / R
            return [dx1, dx2, 0.0, dxi2]

        return rhs

    def to_spec(self):
        return {
            "kind": "katok",
            "profile": self.profile.to_spec(),
            "a0": self.cutoffs.a0,
            "a1": self.cutoffs.a1,
            "b": self.cutoffs.b,
            "alpha": self.alpha,
            "reversible": False,
        }


class ReversibilizedDualMetric(DualMetric):
    """H'(xi) = H(xi) on {xi1 >= 0}, H(-xi) on {xi1 < 0}; even by construction."""

    kind = "reversibilized"
    reversible = True

    def __init__(self, inner: DualMetric):
        self.inner = inner

    @staticmethod
    def _mirror(y):
        """``y`` with xi negated on the rows where xi1 < 0, and the sign per row."""
        y = np.asarray(y, dtype=float)
        sign = np.where(y[..., 2] < 0.0, -1.0, 1.0)[..., None]
        m = np.array(y, copy=True)
        m[..., 2:] *= sign
        return m, sign

    # rows with xi1 < 0 are evaluated at the mirror (x, -xi), where H' = H,
    # dH'/dxi = -dH/dxi and dH'/dx = dH/dx: one inner call for the batch
    def value(self, y):
        return self.inner.value(self._mirror(y)[0])

    def vector_field(self, y):
        m, sign = self._mirror(y)
        out = self.inner.vector_field(m)
        out[..., :2] *= sign
        return out

    def scalar_rhs(self):
        inner_rhs = self.inner.scalar_rhs()

        def rhs(t, y):
            if y[2] >= 0.0:
                return inner_rhs(t, y)
            g = inner_rhs(t, (y[0], y[1], -y[2], -y[3]))
            return [-g[0], -g[1], g[2], g[3]]

        return rhs

    def to_spec(self):
        spec = dict(self.inner.to_spec())
        spec["reversible"] = True
        return spec


# --- cone sets --------------------------------------------------------------

def cone_ratio(profile: RotationalProfile, p) -> float | np.ndarray:
    """H1/H0 = xi1 * f(x2) / |xi| for the rotational metric of ``profile``."""
    y = _as_state_array(p)
    R = np.hypot(y[..., 2], y[..., 3])
    _check_nonzero(R)
    return y[..., 2] * profile.f(y[..., 1]) / R


def cone_membership(profile: RotationalProfile, a: float, p) -> bool | np.ndarray:
    """Closed cone U_a: |x2| <= a and H1/H0 >= f0(a).

    Caller guarantees the profile equals the sphere profile on [-a, a].
    """
    y = _as_state_array(p)
    ratio = cone_ratio(profile, y)
    inside = (np.abs(y[..., 1]) <= a) & (ratio >= eval_f0(a))
    return bool(inside) if np.ndim(inside) == 0 else inside


# --- operations -------------------------------------------------------------

def unit_covector(H: DualMetric, x1: float, x2: float, theta: float) -> np.ndarray:
    """State on {H = 1} over (x1, x2) with covector direction angle theta."""
    u = np.array([x1, x2, math.cos(theta), math.sin(theta)])
    h = float(H.value(u))
    u[2:] /= h
    return u


@dataclass(frozen=True)
class ConvexityReport:
    min_eigenvalue: float
    argmin_state: np.ndarray
    n_samples: int

    @property
    def passed(self) -> bool:
        return self.min_eigenvalue > 0.0


_FD_STEP = 1e-4  # fiber Hessian stencil step, relative to max(|xi|, 1)


def fiber_hessian_fd(H: DualMetric, y) -> np.ndarray:
    """Central-difference fiber Hessian of H^2/2, shape (..., 2, 2)."""
    y = np.atleast_2d(np.asarray(y, dtype=float))

    def g(states):
        return 0.5 * np.asarray(H.value(states)) ** 2

    R = np.hypot(y[..., 2], y[..., 3])
    h = _FD_STEP * np.maximum(R, 1.0)

    def shifted(d1, d2):
        s = np.array(y, copy=True)
        s[..., 2] += d1 * h
        s[..., 3] += d2 * h
        return s

    g0 = g(y)
    h11 = (g(shifted(1, 0)) - 2.0 * g0 + g(shifted(-1, 0))) / h**2
    h22 = (g(shifted(0, 1)) - 2.0 * g0 + g(shifted(0, -1))) / h**2
    h12 = (
        g(shifted(1, 1)) - g(shifted(1, -1)) - g(shifted(-1, 1)) + g(shifted(-1, -1))
    ) / (4.0 * h**2)
    out = np.empty(y.shape[:-1] + (2, 2))
    out[..., 0, 0] = h11
    out[..., 1, 1] = h22
    out[..., 0, 1] = h12
    out[..., 1, 0] = h12
    return out


def fiber_convexity_check(H: DualMetric, states) -> ConvexityReport:
    """Scan the sampled fiber Hessian of H^2/2 and report the worst eigenvalue."""
    states = np.atleast_2d(np.asarray(states, dtype=float))
    hess = fiber_hessian_fd(H, states)
    a, b, c = hess[..., 0, 0], hess[..., 0, 1], hess[..., 1, 1]
    eigmin = 0.5 * (a + c) - np.sqrt((0.5 * (a - c)) ** 2 + b**2)
    idx = int(np.argmin(eigmin))
    return ConvexityReport(
        min_eigenvalue=float(eigmin[idx]),
        argmin_state=states[idx].copy(),
        n_samples=states.shape[0],
    )


def build_katok_family(
    profile: RotationalProfile,
    cutoffs: CutoffPair,
    alpha: float,
    *,
    check_convexity: bool = True,
) -> KatokDualMetric:
    """Gated constructor for the perturbed family.

    Verifies the profile equals the sphere profile on [-b, b] (the hypothesis
    behind the cone invariance) and that the requested alpha keeps the fiber
    Hessian of H^2/2 positive on a sample scan.
    """
    grid = np.linspace(-cutoffs.b, cutoffs.b, 257)
    if float(np.max(np.abs(profile.f(grid) - eval_f0(grid)))) > 1e-12:
        raise InvalidField("b", f"profile must equal the sphere profile on [-{cutoffs.b}, {cutoffs.b}]")
    metric = KatokDualMetric(profile, cutoffs, alpha)
    if check_convexity:
        report = fiber_convexity_check(metric, _default_convexity_states(profile, cutoffs))
        if not report.passed:
            raise ConvexityLost(alpha, report.min_eigenvalue)
    return metric


def _default_convexity_states(profile, cutoffs, n: int = 400) -> np.ndarray:
    rng = np.random.default_rng(1234)
    x2 = rng.uniform(-cutoffs.b * 1.2, cutoffs.b * 1.2, n)
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    scale = rng.uniform(0.5, 2.0, n)
    out = np.zeros((n, 4))
    out[:, 0] = rng.uniform(0.0, 2.0 * math.pi, n)
    out[:, 1] = x2
    out[:, 2] = scale * np.cos(theta)
    out[:, 3] = scale * np.sin(theta)
    return out


_ALPHA_SCAN_HI = 2.0  # upper end of the critical-alpha bisection


def critical_alpha_scan(
    profile: RotationalProfile,
    cutoffs: CutoffPair,
    *,
    tol: float = 1e-3,
    states=None,
) -> tuple[float, float]:
    """Bisect in [0, 2] for the largest alpha whose convexity scan still passes.

    Returns the bracket (alpha_pass, alpha_fail); reported, never asserted,
    because the scan is sampled rather than proven.
    """
    if states is None:
        states = _default_convexity_states(profile, cutoffs)

    def passes(alpha):
        return fiber_convexity_check(KatokDualMetric(profile, cutoffs, alpha), states).passed

    lo, hi = 0.0, _ALPHA_SCAN_HI
    if passes(hi):
        return hi, math.inf
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if passes(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


_SEAM_TOL = 1e-10  # |H(xi) - H(-xi)| on {xi1 = 0} above this raises SeamMismatch


def reversibilize(H: DualMetric) -> ReversibilizedDualMetric:
    """Even-symmetrize H across {xi1 = 0}.

    Requires H itself to already be even on the seam (true for the perturbed
    family, which reduces to H0 near {xi1 = 0}); otherwise the two branches of
    the symmetrized metric would not glue smoothly.
    """
    x2s = np.linspace(-3.0, 3.0, 41)
    seam = np.zeros((2 * len(x2s), 4))
    seam[: len(x2s), 1] = x2s
    seam[: len(x2s), 3] = 1.0
    seam[len(x2s):, 1] = x2s
    seam[len(x2s):, 3] = -1.0
    mirror = seam.copy()
    mirror[:, 2:] *= -1.0
    gap = np.max(np.abs(np.asarray(H.value(seam)) - np.asarray(H.value(mirror))))
    if gap > _SEAM_TOL:
        raise SeamMismatch(f"|H(xi) - H(-xi)| = {gap:.3e} on the seam {{xi1 = 0}}")
    return ReversibilizedDualMetric(H)


def metric_from_spec(spec: dict) -> DualMetric:
    kind = spec.get("kind")
    if kind == "rotational":
        return RotationalDualMetric(profile_from_spec(spec["profile"]))
    if kind == "angular":
        return AngularDualMetric()
    if kind == "katok":
        profile = profile_from_spec(spec["profile"])
        cutoffs = make_cutoffs(spec["a0"], spec["a1"], spec["b"])
        metric: DualMetric = build_katok_family(profile, cutoffs, spec["alpha"])
        if spec.get("reversible"):
            metric = reversibilize(metric)
        return metric
    raise InvalidField("kind", f"unknown metric kind {kind!r}")
