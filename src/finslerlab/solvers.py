"""The lab's own explicit Runge-Kutta steppers and Brent root.

The pairs are scipy's (SciPy 1.17, BSD-3-Clause; ``_ivp/rk.py``, with the
``OdeSolver`` step bookkeeping of ``_ivp/base.py`` and ``select_initial_step``
of ``_ivp/common.py``): the Dormand-Prince 5(4) pair with Shampine's quartic
dense output, and Hairer's DOP853 8(5,3) pair
(:mod:`~finslerlab.dop853_coefficients`) with its 7th-degree dense output;
Hairer, Norsett and Wanner, *Solving Ordinary Differential Equations I*,
Sec. II.4-II.6.  There is no ``max_step``: the step is bounded by the
interval only.  :class:`RK45` and :class:`DOP853` hold the tableaux.

Two stepper families share one arithmetic: every sum runs term by term in
stage order over the nonzero tableau entries, so no number depends on a BLAS
kernel, and a row's stages do not depend on the other rows.  Every
controller raises with numpy's ``power`` kernel, never libm's ``pow``.

* :class:`FloatRK45` and :class:`FloatDOP853` are the float orbit, a tuple
  of 4 Python floats stepped a step at a time: given the same derivative (a
  metric's ``scalar_rhs`` is not its ``vector_field`` bit for bit), a run
  takes the steps of :func:`march_rows` on a one-row batch, bit for bit,
  without numpy's per-call overhead.  Each attempt is one generated function
  per tableau (:func:`_attempt_source`), compiled on the class's first
  attempt: straight-line float code over the tableau's nonzero terms, in
  stage order, with no loop.  The same object samples checkpoints
  from its held steps, in flushes, ends the run at a pole cap and keeps the
  steps of a dense run.
* :func:`march_rows` steps many independent systems at once with the same
  tableaux, initial step, controller and dense outputs applied to each row on
  its own: every row has its own t, h and error norm (Hairer, Norsett and
  Wanner, Sec. II.4), so an easy row is not held to the step of a hard one.
  With a stop rule, a row leaves at the n-th step that brackets its event,
  and the last ``TAIL_ROWS`` rows leave together, each where a float
  stepper can resume it (``resume``), since there a row's step costs far
  less than a batched call.  :class:`RowInterpolant` is the
  one dense output of every stepper, formed for many steps at once (Sec.
  II.6): a step's interpolant depends on that step alone, and a float
  orbit's steps are rows of it like any others.
* :func:`brent_root` is ``scipy.optimize.brentq`` (its C ``brentq``):
  Brent, *Algorithms for Minimization without Derivatives*, 1973, ch. 4.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from typing import NamedTuple

import numpy as np

from . import dop853_coefficients as _dop853
from .errors import StepFailure

__all__ = [
    "RK45", "DOP853", "FloatRK45", "FloatDOP853", "ORBIT_STEPPERS", "RowRun", "march_rows",
    "RowInterpolant", "brent_root",
]

EPS = float(np.finfo(float).eps)

# step-size controller
SAFETY = 0.9  # multiplies the asymptotically optimal step factor
MIN_FACTOR = 0.2  # smallest step decrease
MAX_FACTOR = 10  # largest step increase
DENSE_BUDGET = 512  # march_rows samples its held covering steps once they reach this many rows
TAIL_ROWS = 16  # a march_rows stop run lets its last rows, this many or fewer, go to a float stepper

TOO_SMALL_STEP = "Required step size is less than spacing between numbers."

# brent_root: scipy's brentq defaults, the only values the lab uses
RTOL = 4 * EPS  # relative part of the bracket width at which it stops
MAXITER = 100


def _clamp_rtol(rtol):
    """scipy's floor of 100 eps on ``rtol``; the warning names the line that calls its caller.

    Its callers are a float stepper's ``__init__`` and :func:`march_rows`.
    """
    if rtol < 100 * EPS:
        warnings.warn(
            "At least one element of `rtol` is too small. "
            f"Setting `rtol = np.maximum(rtol, {100 * EPS})`.",
            stacklevel=3,
        )
        rtol = 100 * EPS
    return rtol


class RK45:
    """The tableau of Dormand-Prince 5(4) with Shampine's quartic dense output (scipy's ``RK45``)."""

    error_estimator_order = 4
    n_stages = 6
    C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
    A = np.array([
        [0, 0, 0, 0, 0],
        [1/5, 0, 0, 0, 0],
        [3/40, 9/40, 0, 0, 0],
        [44/45, -56/15, 32/9, 0, 0],
        [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
        [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]
    ])
    B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
    E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
    # the optimum c_6 of Shampine, Math. Comp. 46 (1986) 135-150
    P = np.array([
        [1, -8048581381/2820520608, 8663915743/2820520608,
         -12715105075/11282082432],
        [0, 0, 0, 0],
        [0, 131558114200/32700410799, -68118460800/10900136933,
         87487479700/32700410799],
        [0, -1754552775/470086768, 14199869525/1410260304,
         -10690763975/1880347072],
        [0, 127303824393/49829197408, -318862633887/49829197408,
         701980252875 / 199316789632],
        [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
        [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])


class DOP853:
    """The tableau of Hairer's DOP853 8(5,3) pair with its 7th-degree dense output (scipy's ``DOP853``)."""

    error_estimator_order = 7
    n_stages = _dop853.N_STAGES
    A = _dop853.A[:n_stages, :n_stages]
    B = _dop853.B
    C = _dop853.C[:n_stages]
    E3 = _dop853.E3
    E5 = _dop853.E5
    D = _dop853.D
    A_EXTRA = _dop853.A[n_stages + 1:]
    C_EXTRA = _dop853.C[n_stages + 1:]


# --- one orbit in Python floats ----------------------------------------------


def _rows_of(fun):
    """The float RHS ``fun(t, y)`` of one orbit as the derivative of an (m, n) batch of states, row by row."""
    return lambda y: np.array([fun(0.0, row) for row in map(tuple, y.tolist())], dtype=float)


def _terms(coefficients) -> list:
    """The nonzero (stage, coefficient) pairs of a tableau row, in stage order."""
    return [(s, float(c)) for s, c in enumerate(coefficients) if c != 0]


def _rms4(v):
    """:func:`_row_rms` of one 4-component row."""
    a, b, c, d = v
    return math.sqrt(a * a + b * b + c * c + d * d) / 2.0


# --- the source of a float attempt: component j of stage s is the local k{s}_{j}


def _sum_source(terms, j) -> str:
    """sum_s c * K[s] over ``terms`` in component j, as source: :func:`_stage_sum` left to right, in stage order.

    A coefficient is written with ``repr``, which reads back as the same float.
    """
    return " + ".join(f"k{s}_{j} * {c!r}" for s, c in terms)


def _unpack_source(s, value) -> str:
    """Stage s's 4 components k{s}_0 .. k{s}_3 from ``value``, as source."""
    return ", ".join(f"k{s}_{j}" for j in range(4)) + f" = {value}"


def _squares_source(name) -> str:
    """:func:`_row_sum_squares` of the locals name0 .. name3, as source."""
    return " + ".join(f"{name}{j} * {name}{j}" for j in range(4))


def _attempt_source(cls) -> str:
    """The source of ``attempt(self, t, y, f, h)`` for the tableau of ``cls``, one straight line of floats.

    The stages, the new state, the scale and (``cls._norm_source``) the error
    norm of :class:`_RowStepper` for one row: the same operations in the same
    order, over the nonzero terms only, with each component a local.  Python's
    ``max(a, b)`` is written as ``b if b > a else a``, which it is, NaN
    included; the sums are ``+`` chains, never ``sum()``, which CPython 3.12
    compensates.
    """
    n = cls.n_stages
    lines = [
        "rhs = self._rhs",
        f"self.nfev += {n}",
        "y0, y1, y2, y3 = y",
        _unpack_source(0, "f"),
        "try:",
    ]
    for s, (c, terms) in enumerate(cls.STAGES, start=1):
        state = ", ".join(f"y{j} + ({_sum_source(terms, j)}) * h" for j in range(4))
        lines += [f"    k{s} = rhs(t + {c!r} * h, ({state}))", "    " + _unpack_source(s, f"k{s}")]
    lines += [f"    n{j} = y{j} + h * ({_sum_source(cls.B, j)})" for j in range(4)]
    lines += [
        "    y_new = (n0, n1, n2, n3)",
        "    f_new = rhs(t + h, y_new)",
        # a stage left the domain of the float RHS (a profile that underflows
        # to 0 far up the sphere chart), where numpy's inf or nan would make
        # march_rows reject the attempt: reject it too
        "except ArithmeticError:",
        "    return y, f, inf",
        "self.K = [" + ", ".join(["f", *(f"k{s}" for s in range(1, n)), "f_new"]) + "]",
        "atol, rtol = self.atol, self.rtol",
    ]
    for j in range(4):
        lines += [f"a, b = abs(y{j}), abs(n{j})", f"s{j} = atol + (b if b > a else a) * rtol"]
    lines += cls._norm_source()
    return "def attempt(self, t, y, f, h):\n" + "".join(f"    {line}\n" for line in lines)


class _FloatRungeKutta:
    """One orbit of 4 components, stepped in Python floats from ``t0`` toward ``t_bound``.

    The float orbit of the lab: single orbits, their section solves and the
    last orbits of a cloud.  Attributes as scipy's solvers: ``t``, ``y``,
    ``t_old`` (None before the first step), ``direction``, ``status``
    ('running', 'finished' or 'failed'), ``nfev``.  After each step
    ``y_old`` is its start and ``K`` holds its stages, the last the
    derivative at its end.

    The state is a tuple of 4 floats and ``fun(t, y)`` gets one.  Stage sums,
    the new state, the error norm and the initial step run term by term in
    stage order over the nonzero entries of the tableau of :class:`RK45` or
    :class:`DOP853`, as :func:`march_rows` runs them on each row, so a run is
    :func:`march_rows`' run of a one-row batch, bit for bit, and no number
    depends on a BLAS kernel.  An attempt is straight-line code generated
    from the class's terms (``STAGES``, ``B`` and its error rows) on its
    first call (:func:`_attempt_source`): one float expression per
    component and sum, with the constants written out.  A subclass gives
    its pair's error norm as source (``_norm_source``).

    The steps have one dense output, :meth:`interpolant`: the
    :class:`RowInterpolant` of :func:`march_rows`, whose derivative is
    ``fun`` called row by row, so the orbit's samples are a one-row
    :func:`march_rows` run's too.  :meth:`step` handles each step the way a
    one-shot scipy solve handles it:

    * the sample times ``ts`` (ordered from ``t0`` toward ``t_bound``) the
      step covers (as ``t_eval`` is, by ``searchsorted(d * ts, d * t,
      side="right")`` with ``d`` the direction) are taken from its
      interpolant into ``path``; as in :func:`march_rows` the covering steps
      are held and sampled together, in flushes, at the cap and at the end;
    * the pole cap, a height ``cap``, ends the run where ``cap - |x2|``
      first falls to 0 (scipy's rule for a terminal event of direction -1),
      at the root of that step, and sets ``capped`` to the (time, state)
      there;
    * with ``dense=True`` (a forward run) every step is kept for
      :meth:`solution`.
    """

    method: str  # the name of the tableau in ORBIT_STEPPERS
    error_estimator_order: int
    n_stages: int
    STAGES: list  # see _stage_terms
    B: list

    def __init__(self, fun, t0, y0, t_bound, *, rtol, atol, ts=(), cap=None, dense=False):
        self._start(fun, t0, y0, t_bound, _clamp_rtol(rtol), atol, ts, cap, dense)
        self.f = self.fun(self.t, self.y)
        self.h_abs = self._initial_step()

    @classmethod
    def resume(cls, fun, t, y, f, h_abs, t_bound, *, rtol, atol, cap=None):
        """A stepper standing at (t, y), with derivative ``f`` there and next step size ``h_abs``.

        It takes no initial step and calls no ``fun``: the state a row of
        :func:`march_rows` holds after an accepted attempt, which this
        stepper then steps as the row's batch would.  ``rtol`` is floored
        as the batch floors it, which has warned of it.
        """
        self = cls.__new__(cls)
        self._start(fun, t, y, t_bound, max(rtol, 100 * EPS), atol, (), cap, False)
        self.f, self.h_abs = tuple(f), h_abs
        return self

    def _start(self, fun, t0, y0, t_bound, rtol, atol, ts, cap, dense):
        self._rhs = fun
        self.t_old = None
        self.t = t0
        self.y = tuple(map(float, y0))
        if not all(map(math.isfinite, self.y)):
            raise ValueError("All components of the initial state `y0` must be finite.")
        self.t_bound = t_bound
        self.direction = 1.0 if t_bound >= t0 else -1.0
        self.status = "running"
        self.nfev = 0
        self.y_old = None
        self.rtol, self.atol = rtol, atol
        self.error_exponent = -1 / (self.error_estimator_order + 1)
        self.ts = np.asarray(ts, dtype=float)
        self._dts = (self.direction * self.ts).tolist()
        self.path = np.empty((len(self.ts), len(self.y)))
        self.n = 0  # the samples covered
        self.capped = None
        self._cap = cap
        self._g = None if cap is None else cap - abs(self.y[1])
        self._held = []  # (step, first sample, sample count) of covering steps not sampled yet
        self._steps = [] if dense else None

    def fun(self, t, y):
        self.nfev += 1
        return self._rhs(t, y)

    def step(self) -> bool:
        """Take one accepted step; False once the run has reached ``t_bound`` or the cap.

        A step size that underflows raises StepFailure with scipy's message.
        """
        if self.capped or self.status != "running":
            return False
        t = self.t
        if t == self.t_bound:  # a run of length 0 samples its start, as march_rows does
            self.t_old = t
            self.status = "finished"
            self.path[:] = self.y
            return True
        message = self._step_impl()
        if message is not None:
            self.status = "failed"
            raise StepFailure(message)
        self.t_old = t
        t = self.t
        if self.direction * (t - self.t_bound) >= 0:
            self.status = "finished"
        cap = self._cap
        if cap is not None:
            g = cap - abs(self.y[1])
            if self._g >= 0.0 and g <= 0.0:
                sol = self.interpolant([self.last_step()])
                t = brent_root(lambda s: cap - abs(sol(s)[0, 1]), self.t_old, t, xtol=4 * EPS)
                self.capped = (t, sol(t)[0])
            self._g = g
        if self._dts:
            hi = bisect_right(self._dts, self.direction * t)
            if hi > self.n:
                self._held.append((self.last_step(), self.n, hi - self.n))
                self.n = hi
            # a held step, Python floats in tuples and lists, takes 4.3-4.6 times the
            # bytes of a march_rows held row: an eighth of its budget holds fewer
            if self._held and (len(self._held) >= DENSE_BUDGET // 8 or self.capped or self.status != "running"):
                steps, first, count = zip(*self._held)
                held = (_float_rows(steps), np.zeros(len(steps), dtype=int), np.array(first), np.array(count))
                _sample_held(self.method, _rows_of(self._rhs), self.ts, self.path[:, None], [held])
                self._held = []
        if self._steps is not None:
            self._steps.append(self.last_step())
        return True

    def last_step(self):
        """The last step, (t_old, t, y_old, y, K): a step of :meth:`interpolant`."""
        return self.t_old, self.t, self.y_old, self.y, self.K

    def interpolant(self, steps) -> RowInterpolant:
        """The dense output of some steps of this orbit, one row each."""
        return RowInterpolant(self.method, _rows_of(self._rhs), [_float_rows(steps)])

    def solution(self):
        """The states at times ``t`` (m,), (m, 4), over the steps of a dense run so far (scipy's ``OdeSolution``).

        A time takes the first step that ends at or after it, clipped to the
        run: a time on a step end takes the step that ends there.
        """
        sol = self.interpolant(self._steps)
        last = len(sol.t) - 1
        return lambda t: sol.at(np.minimum(np.searchsorted(sol.t, t), last), np.asarray(t, dtype=float))

    def _step_impl(self):
        t = self.t
        y = self.y
        min_step = 10 * abs(math.nextafter(t, self.direction * math.inf) - t)
        h_abs = min_step if self.h_abs < min_step else self.h_abs

        step_rejected = False
        while True:
            if h_abs < min_step:
                return TOO_SMALL_STEP
            h = h_abs * self.direction
            t_new = t + h
            if self.direction * (t_new - self.t_bound) > 0:
                t_new = self.t_bound
            h = t_new - t
            h_abs = abs(h)

            y_new, f_new, error_norm = self._attempt(t, y, self.f, h)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * float(np.power(error_norm, self.error_exponent)))
                if step_rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * float(np.power(error_norm, self.error_exponent)))
            step_rejected = True

        self.y_old = y
        self.t = t_new
        self.y = y_new
        self.h_abs = h_abs
        self.f = f_new
        return None

    def _initial_step(self):
        """``select_initial_step`` as :func:`march_rows` takes it for a row."""
        t0, y0, f0, direction = self.t, self.y, self.f, self.direction
        interval_length = abs(self.t_bound - t0)
        if interval_length == 0.0:
            return 0.0
        scale = [self.atol + abs(v) * self.rtol for v in y0]
        d0 = _rms4([v / s for v, s in zip(y0, scale)])
        d1 = _rms4([v / s for v, s in zip(f0, scale)])
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, interval_length)
        f1 = self.fun(t0 + h0 * direction, tuple(v + h0 * direction * f for v, f in zip(y0, f0)))
        d2 = _rms4([(a - b) / s for a, b, s in zip(f1, f0, scale)]) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = float(np.power(0.01 / max(d1, d2), 1 / (self.error_estimator_order + 1)))
        return min(100 * h0, h1, interval_length)

    def _attempt(self, t, y, f, h):
        """One attempt of the step ``h`` from (t, y), where the derivative is ``f``: (y_new, f_new, error norm).

        A stage the RHS raises ArithmeticError on gives (y, f, inf).  The first
        attempt of a class compiles its :func:`_attempt_source`, which then
        stands in for this method.
        """
        cls = type(self)
        namespace = {"sqrt": math.sqrt, "inf": math.inf}
        exec(compile(_attempt_source(cls), f"<{cls.__name__}._attempt>", "exec"), namespace)
        cls._attempt = namespace["attempt"]
        return self._attempt(t, y, f, h)


def _stage_terms(method) -> list:
    """(c, terms) of the stages 1 .. n_stages - 1 of ``method``'s tableau."""
    return [(float(method.C[s]), _terms(method.A[s, :s])) for s in range(1, method.n_stages)]


class FloatRK45(_FloatRungeKutta):
    """:class:`RK45` on one orbit in floats."""

    method = "RK45"
    error_estimator_order = RK45.error_estimator_order
    n_stages = RK45.n_stages
    STAGES = _stage_terms(RK45)
    B = _terms(RK45.B)
    E = _terms(RK45.E)

    @classmethod
    def _norm_source(cls):
        """:meth:`_RowsRK45.error_norm` of one row, as source lines."""
        return [
            _unpack_source(cls.n_stages, "f_new"),
            *(f"e{j} = ({_sum_source(cls.E, j)}) * h / s{j}" for j in range(4)),
            f"return y_new, f_new, sqrt({_squares_source('e')}) / 2.0",
        ]


class FloatDOP853(_FloatRungeKutta):
    """:class:`DOP853` on one orbit in floats."""

    method = "DOP853"
    error_estimator_order = DOP853.error_estimator_order
    n_stages = DOP853.n_stages
    STAGES = _stage_terms(DOP853)
    B = _terms(DOP853.B)
    E5 = _terms(DOP853.E5)
    E3 = _terms(DOP853.E3)

    @classmethod
    def _norm_source(cls):
        """:meth:`_RowsDOP853.error_norm` of one row, as source lines."""
        lines = []
        for name, terms in (("err5", cls.E5), ("err3", cls.E3)):
            lines += [f"e{j} = ({_sum_source(terms, j)}) / s{j}" for j in range(4)]
            lines.append(f"{name} = {_squares_source('e')}")
        return lines + [
            "if err5 == 0 and err3 == 0:",
            "    return y_new, f_new, 0.0",
            "return y_new, f_new, abs(h) * err5 / sqrt((err5 + 0.01 * err3) * 4)",
        ]


def _stage_sum(coefficients, K):
    """sum_s coefficients[s] * K[s] over the nonzero coefficients, in stage order.

    Elementwise, so each row of K sums to the same bits however many rows K has.
    """
    total = None
    for c, k in zip(coefficients.tolist(), K):
        if c != 0:
            if total is None:
                total = k * c
            else:
                total += k * c
    return total


def _row_sum_squares(x):
    total = x[:, 0] * x[:, 0]
    for j in range(1, x.shape[1]):
        total += x[:, j] * x[:, j]
    return total


def _row_rms(x):
    return np.sqrt(_row_sum_squares(x)) / x.shape[1] ** 0.5


class RowRun(NamedTuple):
    """Result of :func:`march_rows`."""

    path: np.ndarray  # (len(ts), N, n); NaN at samples a failed row never reached
    failed: np.ndarray  # (N,) bool: the row's step size underflowed
    iterations: int  # lockstep iterations, each one attempt of every batched row
    attempts: int  # step attempts of all rows together
    flagged: np.ndarray  # the row of each step the stop rule flagged, in the order of ``steps``
    steps: list  # the flagged steps, (t_old, t, y_old, y, K) of some rows each: RowInterpolant's steps
    ends: list  # (rows, t, y, f, h_abs) of some rows each: where the rows the stop rule stopped or let go stand


class _RowStepper:
    """The arithmetic of :class:`_FloatRungeKutta` applied to each row of an (N, n) state.

    ``method`` is :class:`RK45` or :class:`DOP853`, whose tableau is used;
    ``fun(y)`` maps an (m, n) batch of states to their derivatives (the
    systems are autonomous); ``rtol`` is taken as given (:func:`march_rows`
    floors it).  Subclasses give their pair's error norm as
    ``error_norm(y, y_new, K, h)``, each row's norm over its n components;
    and its dense output as ``dense(fun, K, h, y_old, y)``, each row's
    interpolant coefficients, and ``sample(F, h, y_old, which, x)``, those
    of row ``which[k]`` at the fraction ``x[k]``.
    """

    method: type

    def __init__(self, fun, rtol, atol):
        self.fun, self.rtol, self.atol = fun, rtol, atol
        self.error_exponent = -1 / (self.method.error_estimator_order + 1)

    def initial_step(self, y0, f0, interval_length, direction):
        """``select_initial_step`` of each row, under its own RMS norm (:func:`_row_rms`)."""
        scale = self.atol + np.abs(y0) * self.rtol
        d0 = _row_rms(y0 / scale)
        d1 = _row_rms(f0 / scale)
        with np.errstate(divide="ignore", invalid="ignore"):
            h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
            h0 = np.minimum(h0, interval_length)
            y1 = y0 + (h0 * direction)[..., None] * f0
            d2 = _row_rms((self.fun(y1) - f0) / scale) / h0
            h1 = np.where(
                (d1 <= 1e-15) & (d2 <= 1e-15),
                np.maximum(1e-6, h0 * 1e-3),
                np.power(0.01 / np.maximum(d1, d2), 1 / (self.method.error_estimator_order + 1)),
            )
        return np.minimum(np.minimum(100 * h0, h1), interval_length)

    def attempt(self, y, f, h):
        """The stages of one attempt of each row; returns (y_new, K)."""
        m = self.method
        K = np.empty((m.n_stages + 1, *y.shape))
        K[0] = f
        hc = h[:, None]
        for s in range(1, m.n_stages):
            K[s] = self.fun(y + _stage_sum(m.A[s, :s], K[:s]) * hc)
        y_new = y + hc * _stage_sum(m.B, K[: m.n_stages])
        K[m.n_stages] = self.fun(y_new)
        return y_new, K

    def _scale(self, y, y_new):
        return self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol


class _RowsRK45(_RowStepper):
    method = RK45

    def error_norm(self, y, y_new, K, h):
        sums = _row_sum_squares(_stage_sum(RK45.E, K) * h[:, None] / self._scale(y, y_new))
        return np.sqrt(sums) / y.shape[1] ** 0.5

    @staticmethod
    def dense(fun, K, h, y_old, y):
        return [_stage_sum(q, K) for q in RK45.P.T]

    @staticmethod
    def sample(Q, h, y_old, which, x):
        p = x[:, None]
        acc = Q[0][which] * p
        for q in Q[1:]:
            p = p * x[:, None]
            acc += q[which] * p
        return h[which, None] * acc + y_old[which]


class _RowsDOP853(_RowStepper):
    method = DOP853

    def error_norm(self, y, y_new, K, h):
        scale = self._scale(y, y_new)
        err5 = _row_sum_squares(_stage_sum(DOP853.E5, K) / scale)
        err3 = _row_sum_squares(_stage_sum(DOP853.E3, K) / scale)
        with np.errstate(divide="ignore", invalid="ignore"):
            norm = np.abs(h) * err5 / np.sqrt((err5 + 0.01 * err3) * y.shape[1])
        return np.where((err5 == 0) & (err3 == 0), 0.0, norm)

    @staticmethod
    def dense(fun, K, h, y_old, y):
        """The 7 coefficient rows of each step, after its 3 extra stages (``fun`` calls)."""
        hc = h[:, None]
        K = list(K)
        for s, a in enumerate(DOP853.A_EXTRA, start=DOP853.n_stages + 1):
            K.append(fun(y_old + _stage_sum(a[:s], K) * hc))
        delta_y = y - y_old
        F = [delta_y, hc * K[0] - delta_y, 2 * delta_y - hc * (K[DOP853.n_stages] + K[0])]
        return F + [hc * _stage_sum(d, K) for d in DOP853.D]

    @staticmethod
    def sample(F, h, y_old, which, x):
        x = x[:, None]
        out = np.zeros((x.shape[0], y_old.shape[1]))
        for i, f in enumerate(reversed(F)):
            out += f[which]
            out *= x if i % 2 == 0 else 1 - x
        return out + y_old[which]


# the methods of march_rows and RowInterpolant, and of one orbit in floats, by name
_ROW_STEPPERS = {"RK45": _RowsRK45, "DOP853": _RowsDOP853}
ORBIT_STEPPERS = {"RK45": FloatRK45, "DOP853": FloatDOP853}


def march_rows(method, fun, y0, t_bound, ts, *, rtol, atol, stop=None) -> RowRun:
    """Step each row of ``y0`` (N, n) from t = 0 to ``t_bound`` under its own step control.

    ``method`` is "RK45" or "DOP853" and ``fun(y)`` the derivative of an
    (m, n) batch of states.  Each row is the system ``method`` would step
    alone: its own initial step, t, h, rejection flag and RMS error norm over
    its n components, and its samples at the times ``ts`` (ordered from 0
    toward ``t_bound``) taken from its own step interpolants.  Every
    iteration makes one attempt for each row still running, with one ``fun``
    call per stage on all of them; a row stops at ``t_bound``, or fails when
    its step size underflows (keeping the samples it reached), and then
    leaves the batch.  Steps that cover sample times are held and sampled
    together, at ``DENSE_BUDGET`` rows and at the end.  The sums run term by
    term, so a row's bits do not depend on the other rows.

    A ``stop`` rule, (flags, count), keeps each row's accepted steps after
    its first whose ends ``flags(y_old, y)`` flags, for (m, n) ends, in
    ``flagged`` and ``steps``, and stops the row at its count-th.  Once
    ``TAIL_ROWS`` or fewer rows remain, each row whose last attempt was
    accepted leaves too.  Where each row the rule stopped or let go stands,
    its t, state, derivative and next step size, is in ``ends``: the caller
    steps such a row on from there as the batch would.  A stop run takes no
    sample times.
    """
    stepper = _ROW_STEPPERS[method](fun, _clamp_rtol(rtol), atol)
    y = np.asarray(y0, dtype=float)
    N, n = y.shape
    ts = np.asarray(ts, dtype=float)
    path = np.full((len(ts), N, n), np.nan)
    failed = np.zeros(N, dtype=bool)
    flagged, steps = [], []  # the rows of the steps the stop rule flagged, and those steps
    ends = []  # (rows, t, y, f, h_abs) of the rows the stop rule stopped or let go
    if N == 0 or t_bound == 0.0:
        path[:] = y
        return RowRun(path, failed, 0, 0, np.zeros(0, dtype=int), steps, ends)
    d = 1.0 if t_bound > 0 else -1.0
    dts = d * ts
    rows = np.arange(N)
    t = np.zeros(N)
    f = fun(y)
    h_abs = stepper.initial_step(y, f, abs(t_bound), d)
    rejected = np.zeros(N, dtype=bool)
    done = np.zeros(N, dtype=np.int64)  # samples covered
    left = np.full(N, stop[1] if stop is not None else 0)  # each row's flagged steps to go
    held, held_rows = [], 0  # covering steps whose samples are not formed yet
    iterations = attempts = 0
    while rows.size:
        if stop is not None and rows.size <= TAIL_ROWS:
            hand = ~rejected
            ends.append(tuple(a[hand] for a in (rows, t, y, f, h_abs)))
            rows, t, y, f, h_abs, rejected, done = (a[rejected] for a in (rows, t, y, f, h_abs, rejected, done))
            if not rows.size:
                break
        min_step = 10 * np.abs(np.nextafter(t, d * np.inf) - t)
        h_abs = np.where(~rejected & (h_abs < min_step), min_step, h_abs)
        keep = h_abs >= min_step  # False for an underflowed step, or a NaN one
        if not keep.all():
            failed[rows[~keep]] = True
            rows, t, y, f, h_abs, rejected, done = (
                a[keep] for a in (rows, t, y, f, h_abs, rejected, done)
            )
            if not rows.size:
                break
        iterations += 1
        attempts += rows.size
        t_new = t + h_abs * d
        t_new = np.where(d * (t_new - t_bound) > 0, t_bound, t_new)
        h = t_new - t
        h_abs = np.abs(h)
        y_new, K = stepper.attempt(y, f, h)
        error_norm = stepper.error_norm(y, y_new, K, h)
        with np.errstate(divide="ignore"):
            factor = SAFETY * error_norm ** stepper.error_exponent
        accept = error_norm < 1
        grow = np.where(error_norm == 0, MAX_FACTOR, np.where(factor < MAX_FACTOR, factor, MAX_FACTOR))
        grow = np.where(rejected & (grow > 1), 1, grow)
        shrink = np.where(factor > MIN_FACTOR, factor, MIN_FACTOR)  # NaN shrinks by MIN_FACTOR
        h_abs = h_abs * np.where(accept, grow, shrink)
        rejected = ~accept

        running = ~accept | (d * (t_new - t_bound) < 0)
        if stop is not None:
            hit = accept & (t != 0.0) & stop[0](y, y_new)  # a row's first step leaves its start
            if hit.any():
                flagged.append(rows[hit])
                steps.append((t[hit], t_new[hit], y[hit], y_new[hit], K[:, hit]))
                left[rows[hit]] -= 1
                last = hit & (left[rows] == 0)
                if last.any():  # these rows stop, standing at the end of this step
                    ends.append((rows[last], t_new[last], y_new[last], K[stepper.method.n_stages, last], h_abs[last]))
                    running &= ~last
        if ts.size:
            hi = np.where(accept, np.searchsorted(dts, d * t_new, side="right"), done)
            cover = np.flatnonzero(hi > done)
            if cover.size:
                first = done[cover]
                step = (t[cover], t_new[cover], y[cover], y_new[cover], K[:, cover])
                held.append((step, rows[cover], first, hi[cover] - first))
                held_rows += cover.size
                done[cover] = hi[cover]
                if held_rows >= DENSE_BUDGET:
                    _sample_held(method, fun, ts, path, held)
                    held, held_rows = [], 0
        t = np.where(accept, t_new, t)
        y = np.where(accept[:, None], y_new, y)
        f = np.where(accept[:, None], K[stepper.method.n_stages], f)
        if not running.all():
            rows, t, y, f, h_abs, rejected, done = (
                a[running] for a in (rows, t, y, f, h_abs, rejected, done)
            )
    if held:
        _sample_held(method, fun, ts, path, held)
    flagged = np.concatenate(flagged or [np.zeros(0, dtype=int)])
    return RowRun(path, failed, iterations, attempts, flagged, steps, ends)


def _float_rows(steps):
    """Float steps (t_old, t, y_old, y, K) as one step of many rows: the arrays a RowInterpolant takes."""
    t_old, t, y_old, y, K = zip(*steps)
    return np.array(t_old), np.array(t), np.array(y_old), np.array(y), np.array(K).transpose(1, 0, 2)


def _sample_held(method, fun, ts, path, held):
    """Sample held (step, rows, first sample, sample count) of :func:`march_rows` into ``path`` with one interpolant."""
    steps, rows, first, count = zip(*held)
    sol = RowInterpolant(method, fun, steps)
    rows, first, count = map(np.concatenate, (rows, first, count))
    which = np.repeat(np.arange(rows.size), count)
    k = np.arange(which.size) - np.repeat(np.cumsum(count) - count, count) + first[which]
    path[k, rows[which]] = sol.at(which, ts[k])


class RowInterpolant:
    """The step interpolants of ``method`` over some rows' steps, joined in order.

    ``steps`` holds a tuple (t_old, t, y_old, y, K) per step of m rows: the
    ends of each row's step, (m,) each, its states there, (m, n) each, and
    its stages, (n_stages + 1, m, n).  Called with one time per
    row, in its step's ``t_old .. t``, it returns the states there, each from
    its own step; :meth:`at` takes any rows at any times.  This is the one
    dense output of the lab: of :func:`march_rows`, its stop run's flagged
    steps (a cloud's returns) and the float steppers' orbits.  The
    coefficients of every step are computed once, here (DOP853's 3 extra
    stages are batched calls of ``fun``, the derivative of an (m, n) batch
    of states).
    """

    def __init__(self, method, fun, steps):
        t_old, t, y_old, y, K = zip(*steps)
        rows = _ROW_STEPPERS[method]
        self.t_old, self.t = np.concatenate(t_old), np.concatenate(t)
        self.y_old, self.y = np.concatenate(y_old), np.concatenate(y)
        self.h = self.t - self.t_old
        self._sample = rows.sample
        self._F = rows.dense(fun, np.concatenate(K, axis=1), self.h, self.y_old, self.y)
        self._which = np.arange(len(self.t))

    def __call__(self, t):
        return self.at(self._which, t)

    def at(self, which, t):
        """The states of the rows ``which`` at the times ``t``, each on its own step."""
        return self._sample(self._F, self.h, self.y_old, which, (t - self.t_old[which]) / self.h[which])


def brent_root(f, a: float, b: float, *, xtol: float) -> float:
    """Root of ``f`` in [a, b], where f(a) and f(b) differ in sign (scipy's ``brentq``).

    Brent's method: inverse quadratic interpolation or secant steps where
    they shrink the bracket fast enough, bisection otherwise, until the
    bracket is narrower than ``xtol + RTOL |x|``.  Returns an end where ``f``
    is exactly 0.  Raises ValueError when f(a) and f(b) have the same sign
    or ``f`` returns NaN, RuntimeError after ``MAXITER`` iterations.
    """
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic interpolation
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # an underflowed difference: C's inf or nan bisects
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {MAXITER} iterations.")
