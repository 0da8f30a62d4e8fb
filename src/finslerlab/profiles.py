"""Rotational profiles f(x2) > 0 and the cutoff pair used by the perturbed family.

A conformal metric f(x2)^2 <.,.> on the cylinder R/2piZ x R is determined by its
profile f.  Two concrete profiles matter here:

* the sphere profile ``f0(t) = 2 e^t / (1 + e^(2t)) = sech(t)``, whose metric is
  the round sphere minus its poles, and
* periodic splices of f0, which descend to tori: f has period L and equals f0
  exactly on ``[-L/2 + eps, L/2 - eps]``, with a smooth positive bridge closing
  the period.

The cutoff pair (chi, eta) localizes a perturbation to a cone of near-circular
covectors: eta is a smooth monotone step that is *bit-exactly* 0 below f0(a1)
and 1 above f0(a0); chi is the sharp indicator of the strip |x2| <= b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidBand, InvalidSplice

__all__ = [
    "eval_f0",
    "eval_f0_deriv",
    "eval_h",
    "smooth_step",
    "smooth_step_deriv",
    "smooth_step_pair",
    "smooth_step_pair_array",
    "SmoothStep",
    "make_eta",
    "CutoffPair",
    "make_cutoffs",
    "RotationalProfile",
    "RoundSphereProfile",
    "SplicedTorusProfile",
    "make_spliced_profile",
    "profile_from_spec",
]


# --- closed forms -----------------------------------------------------------

def eval_f0(t):
    """Sphere profile 2 e^t / (1 + e^(2t)), evaluated overflow-free.

    Factoring out e^(-|t|) gives 2 e^(-|t|) / (1 + e^(-2|t|)), stable for any
    finite t.  The value equals sech(t); the peak is f0(0) = 1 and f0 is even
    and strictly decreasing on [0, inf).
    """
    t = np.asarray(t, dtype=float)
    u = np.exp(-np.abs(t))
    out = 2.0 * u / (1.0 + u * u)
    return out if out.ndim else float(out)


def eval_f0_deriv(t):
    """d f0 / dt = -f0(t) * tanh(t)."""
    t = np.asarray(t, dtype=float)
    out = -eval_f0(t) * np.tanh(t)
    return out if np.ndim(out) else float(out)


def _f0_scalar(t: float) -> float:
    u = math.exp(-abs(t))
    return 2.0 * u / (1.0 + u * u)


def eval_h(t):
    """Antiderivative of f0 with h(0) = 0, i.e. h(t) = 2 arctan(e^t) - pi/2.

    Odd, increasing, with range (-pi/2, pi/2) and h'(t) = f0(t); evaluated as
    sign(t) * (pi/2 - 2 arctan(e^(-|t|))) so large arguments never overflow.
    """
    t = np.asarray(t, dtype=float)
    inner = np.pi / 2.0 - 2.0 * np.arctan(np.exp(-np.abs(t)))
    out = np.where(t < 0, -inner, inner)
    return out if out.ndim else float(out)


# --- smooth step ------------------------------------------------------------

# exp(-1/t) is exactly 0 for 0 < t <= 1/760 (e^-745 is below half the least
# subnormal), so the step is flat there; bumps are only formed inside
_FLAT = 1.0 / 760.0


def smooth_step_pair_array(u):
    """Array twin of :func:`smooth_step_pair`: (w, dw) from one exp per bump.

    w = a / (a + b) and dw = a*b*(1/u^2 + 1/(1-u)^2) / (a+b)^2 with the bumps
    a = exp(-1/u), b = exp(-1/(1-u)), on u clipped to [1/760, 1 - 1/760].  At
    either end of the clip one bump underflows to exactly 0, so the flats
    (u <= 1/760 or 1 - u <= 1/760, and of course u <= 0 or u >= 1) are
    exactly (0, 0) and (1, 0); inside it 1/u and 1/u^2 cannot overflow, so
    no floating-point error state needs silencing.  NaN maps to NaN.
    """
    u = np.minimum(np.maximum(u, _FLAT), 1.0 - _FLAT)
    v = 1.0 - u
    a = np.exp(-1.0 / u)
    b = np.exp(-1.0 / v)
    s = a + b
    w = a / s
    dw = a * b * (1.0 / (u * u) + 1.0 / (v * v)) / (s * s)
    if w.ndim:
        return w, dw
    return float(w), float(dw)


def smooth_step(u):
    """C-infinity monotone step: exactly 0 for u <= 0 and exactly 1 for u >= 1."""
    return smooth_step_pair_array(u)[0]


def smooth_step_deriv(u):
    """Derivative of :func:`smooth_step` (second half of the array step pair)."""
    return smooth_step_pair_array(u)[1]


def smooth_step_pair(u: float) -> tuple[float, float]:
    """Scalar (smooth_step(u), smooth_step_deriv(u)) in pure ``math``.

    The one scalar step of the integration inner loops; same closed forms and
    the same flat ends as the numpy pair: where a bump factor underflows, the
    step is exactly 0 or 1 and its derivative exactly 0.
    """
    if u <= 0.0:
        return 0.0, 0.0
    if u >= 1.0:
        return 1.0, 0.0
    v = 1.0 - u
    a = math.exp(-1.0 / u)
    b = math.exp(-1.0 / v)
    if a == 0.0:
        return 0.0, 0.0
    if b == 0.0:
        return 1.0, 0.0
    s = a + b
    return a / s, a * b * (1.0 / (u * u) + 1.0 / (v * v)) / (s * s)


@dataclass(frozen=True)
class SmoothStep:
    """Monotone C-infinity ramp from 0 at ``lo`` to 1 at ``hi``."""

    lo: float
    hi: float

    def __call__(self, t):
        return smooth_step((np.asarray(t, dtype=float) - self.lo) / (self.hi - self.lo))

    def with_deriv(self, t):
        """(step, derivative) at t from one evaluation of the step pair."""
        width = self.hi - self.lo
        w, dw = smooth_step_pair_array((np.asarray(t, dtype=float) - self.lo) / width)
        return w, dw / width


def make_eta(a0: float, a1: float) -> SmoothStep:
    """Smooth step eta with eta = 0 for t <= f0(a1) and eta = 1 for t >= f0(a0).

    Requires 0 < a0 < a1 so that f0(a1) < f0(a0).
    """
    if not (0.0 < a0 < a1):
        raise InvalidBand("a0", f"need 0 < a0 < a1, got a0={a0!r}, a1={a1!r}")
    return SmoothStep(lo=float(eval_f0(a1)), hi=float(eval_f0(a0)))


@dataclass(frozen=True)
class CutoffPair:
    """Strip indicator chi (|x2| <= b) and ratio step eta for one cone pair.

    chi is kept sharp on purpose: the product chi * eta(ratio) is smooth
    because eta vanishes identically wherever chi jumps.
    """

    a0: float
    a1: float
    b: float
    eta: SmoothStep

    def chi(self, x2):
        out = np.where(np.abs(x2) <= self.b, 1.0, 0.0)
        return out if out.ndim else float(out)


def make_cutoffs(a0: float, a1: float, b: float) -> CutoffPair:
    if not (0.0 < a0 < a1 < b):
        raise InvalidBand("a0", f"need 0 < a0 < a1 < b, got ({a0!r}, {a1!r}, {b!r})")
    return CutoffPair(a0=float(a0), a1=float(a1), b=float(b), eta=make_eta(a0, a1))


# --- profiles ---------------------------------------------------------------

_MIN_VALUE_GRID = 8192  # grid points of RotationalProfile.min_value


class RotationalProfile:
    """Base class: positive profile f(x2) with derivative, optionally periodic."""

    kind: str = "abstract"
    period: float | None = None

    def f(self, x2):
        raise NotImplementedError

    def fp(self, x2):
        raise NotImplementedError

    def f_fp(self, x2):
        """(f(x2), fp(x2)) over an array, sharing the work the two have in common."""
        raise NotImplementedError

    def f_fp_scalar(self, x2: float) -> tuple[float, float]:
        """(f(x2), fp(x2)) at one float, for integration inner loops."""
        raise NotImplementedError

    def min_value(self) -> float:
        """Dense-grid minimum of f over one period (or a wide window)."""
        if self.period is not None:
            grid = np.linspace(-self.period / 2.0, self.period / 2.0, _MIN_VALUE_GRID)
        else:
            grid = np.linspace(-30.0, 30.0, _MIN_VALUE_GRID)
        return float(np.min(self.f(grid)))

    def to_spec(self) -> dict:
        raise NotImplementedError


class RoundSphereProfile(RotationalProfile):
    """The sphere profile f = f0 on the full cylinder (poles omitted)."""

    kind = "round_sphere"
    period = None

    def f(self, x2):
        return eval_f0(x2)

    def fp(self, x2):
        return eval_f0_deriv(x2)

    def f_fp(self, x2):
        t = np.asarray(x2, dtype=float)
        f = eval_f0(t)
        fp = -f * np.tanh(t)
        return f, (fp if np.ndim(fp) else float(fp))

    def f_fp_scalar(self, x2):
        v = _f0_scalar(x2)
        return v, -v * math.tanh(x2)

    def to_spec(self):
        return {"kind": "round_sphere"}


class SplicedTorusProfile(RotationalProfile):
    """Period-L profile equal to f0 on [-L/2+eps, L/2-eps], bridged near +-L/2.

    The bridge is the convex blend (1-w) f0(s) + w f0(s-L) over
    s in [L/2-eps, L/2+eps], with w the standard smooth step.  Both blend ends
    match f0's full jet (w is flat there), and positivity is automatic because
    the blend interpolates two positive values.
    """

    kind = "spliced"

    def __init__(self, length: float, eps_splice: float):
        if not (0.0 < eps_splice < length / 4.0):
            raise InvalidSplice(
                "eps" if length > 0 else "L", f"need 0 < eps_splice < L/4, got L={length!r}, eps={eps_splice!r}"
            )
        self.period = float(length)
        self.eps_splice = float(eps_splice)
        self._zone = self.period / 2.0 - self.eps_splice
        grid = np.linspace(-self.period / 2.0, self.period / 2.0, 4096)
        fmin = float(np.min(self.f(grid)))
        if fmin <= 0.0:
            raise InvalidSplice("eps", f"bridge lost positivity (min f = {fmin:.3e})")

    def f(self, x2):
        return self.f_fp(x2)[0]

    def fp(self, x2):
        return self.f_fp(x2)[1]

    def f_fp(self, x2):
        x2 = np.asarray(x2, dtype=float)
        L = self.period
        t = x2.reshape(-1)
        t = t - L * np.rint(t / L)
        bridge = np.flatnonzero(np.abs(t) > self._zone)
        s = t[bridge]
        s = np.where(s < 0, s + L, s)
        # f0 and f0' at t and at the bridge rows' s and s - L, in one pass
        z = np.concatenate([t, s, s - L])
        f = eval_f0(z)
        fp = -f * np.tanh(z)
        n, m = len(t), len(s)
        if m:
            width = 2.0 * self.eps_splice
            w, dw = smooth_step_pair_array((s - self._zone) / width)
            fa, fb, da, db = f[n : n + m], f[n + m :], fp[n : n + m], fp[n + m :]
            v = 1.0 - w
            f[bridge] = v * fa + w * fb
            fp[bridge] = v * da + w * db + dw / width * (fb - fa)
        if x2.ndim:
            return f[:n].reshape(x2.shape), fp[:n].reshape(x2.shape)
        return float(f[0]), float(fp[0])

    def f_fp_scalar(self, x2):
        L = self.period
        t = x2 - L * round(x2 / L)
        if abs(t) <= self._zone:
            v = _f0_scalar(t)
            return v, -v * math.tanh(t)
        s = t + L if t < 0 else t
        u = (s - self._zone) / (2.0 * self.eps_splice)
        w, dw = smooth_step_pair(u)
        dw /= 2.0 * self.eps_splice
        fa, fb = _f0_scalar(s), _f0_scalar(s - L)
        da, db = -fa * math.tanh(s), -fb * math.tanh(s - L)
        return (1.0 - w) * fa + w * fb, (1.0 - w) * da + w * db + dw * (fb - fa)

    def to_spec(self):
        return {"kind": "spliced", "L": self.period, "eps": self.eps_splice}


def make_spliced_profile(length: float, eps_splice: float) -> SplicedTorusProfile:
    """Build the periodic splice of the sphere profile; see SplicedTorusProfile."""
    return SplicedTorusProfile(length, eps_splice)


def profile_from_spec(spec: dict) -> RotationalProfile:
    kind = spec.get("kind")
    if kind == "round_sphere":
        return RoundSphereProfile()
    if kind == "spliced":
        return SplicedTorusProfile(spec["L"], spec["eps"])
    raise InvalidSplice("kind", f"unknown profile kind {kind!r}")
