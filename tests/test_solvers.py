"""The lab's RK45/DOP853 steppers and Brent root against scipy, bit for bit.

scipy is the reference here only: no library module imports it.  The port
follows SciPy 1.17 (``select_initial_step`` with its ``t_bound`` cap and its
early return on an empty interval, and the C ``brentq``), the floor of the
``test`` extra.
"""

import inspect
import math
from functools import partial

import numpy as np
import pytest
from scipy.integrate import DOP853 as ScipyDOP853
from scipy.integrate import RK45 as ScipyRK45
from scipy.integrate import OdeSolution, solve_ivp
from scipy.integrate._ivp import dop853_coefficients as scipy_dop853
from scipy.optimize import brentq

from finslerlab.errors import StepFailure
from finslerlab import analysis, dop853_coefficients, sampling, sections, solvers
from finslerlab.analysis import turning_point_bisect
from finslerlab.flow import IntegratorConfig, _March, integrate_orbit, stacked_rhs
from finslerlab.sampling import sample_covectors, solve_xi2_on_level
from finslerlab.sections import AnnulusChart, SectionSpec
from finslerlab.solvers import DOP853, EPS, MAXITER, RK45, RTOL, DenseSolution, TOO_SMALL_STEP, brent_root

PAIRS = {"RK45": (RK45, ScipyRK45), "DOP853": (DOP853, ScipyDOP853)}


def _same(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


class TestTableaux:
    def test_rk45_coefficients_are_scipys(self):
        for name in ("C", "A", "B", "E", "P"):
            assert _same(getattr(RK45, name), getattr(ScipyRK45, name)), name

    def test_dop853_coefficients_are_scipys(self):
        for name in ("C", "A", "B", "E3", "E5", "D"):
            assert _same(getattr(dop853_coefficients, name), getattr(scipy_dop853, name)), name
        for name in ("A", "B", "C", "A_EXTRA", "C_EXTRA"):
            assert _same(getattr(DOP853, name), getattr(ScipyDOP853, name)), name


def _runs(katok_sphere, katok_torus_reversible):
    """(rhs, y0, t_bound, tol) for a stacked cloud, a scalar orbit and a backward orbit."""
    states = sample_covectors(np.random.default_rng(3), 40, x2_range=(-0.5, 0.5))
    return [
        (stacked_rhs(katok_sphere, 40), states.reshape(-1), 6.0, 1e-8),
        (katok_torus_reversible.scalar_rhs(), np.array([0.0, 0.1, -0.6, 0.8]), 30.0, 1e-9),
        (katok_sphere.scalar_rhs(), np.array([0.3, 0.2, 0.7, 0.6]), -15.0, 1e-12),
    ]


class TestStepper:
    @pytest.mark.parametrize("method", ["RK45", "DOP853"])
    def test_every_step_matches_scipy(self, katok_sphere, katok_torus_reversible, method):
        ours, theirs = PAIRS[method]
        for rhs, y0, t_bound, tol in _runs(katok_sphere, katok_torus_reversible):
            a = ours(rhs, 0.0, y0, t_bound, rtol=tol, atol=tol)
            b = theirs(rhs, 0.0, y0, t_bound, rtol=tol, atol=tol)
            assert a.direction == b.direction
            while b.status == "running":
                assert a.step() == b.step()
                assert (a.status, a.nfev) == (b.status, b.nfev)
                assert _same(a.t, b.t) and _same(a.t_old, b.t_old) and _same(a.y, b.y)
                da, db = a.dense_output(), b.dense_output()
                ts = np.linspace(a.t_old, a.t, 7)
                assert _same(da(ts), db(ts))  # array of times: matrix-matrix path
                assert _same(da(ts[3]), db(ts[3]))  # one time: matrix-vector path
                assert _same(da(float(ts[5])), db(float(ts[5])))
            assert a.status == "finished"

    @pytest.mark.parametrize("method", ["RK45", "DOP853"])
    def test_zero_length_run_has_constant_interpolant(self, katok_sphere, method):
        ours, theirs = PAIRS[method]
        y0 = np.array([0.3, 0.2, 0.7, 0.6])
        a = ours(katok_sphere.scalar_rhs(), 0.0, y0, 0.0, rtol=1e-9, atol=1e-9)
        b = theirs(katok_sphere.scalar_rhs(), 0.0, y0, 0.0, rtol=1e-9, atol=1e-9)
        assert a.step() is None and b.step() is None
        assert (a.status, a.nfev, a.t, a.t_old) == (b.status, b.nfev, b.t, b.t_old) == ("finished", 1, 0.0, 0.0)
        da, db = a.dense_output(), b.dense_output()
        assert _same(da(0.0), db(0.0)) and _same(da(0.0), y0)
        assert _same(da(np.zeros(3)), db(np.zeros(3)))
        trace = integrate_orbit(katok_sphere, y0, 0.0, IntegratorConfig(method=method))
        assert _same(trace.times, [0.0, 0.0])
        assert _same(trace.states, [y0, y0])

    @pytest.mark.parametrize("method", ["RK45", "DOP853"])
    def test_step_size_underflow(self, method):
        # y' = y^2 from y(0) = 1 blows up at t = 1
        ours, theirs = PAIRS[method]

        def blowup(t, y):
            return y * y

        b = theirs(blowup, 0.0, np.array([1.0]), 2.0, rtol=1e-8, atol=1e-8)
        while b.status == "running":
            message = b.step()
        assert message == TOO_SMALL_STEP
        march = _March(blowup, np.array([1.0]), 2.0, IntegratorConfig(method=method, rel_tol=1e-8, abs_tol=1e-8))
        with pytest.raises(StepFailure, match="^Required step size is less than spacing between numbers.$"):
            while march.step():
                pass
        assert march.solver.status == "failed"
        assert (march.solver.t, march.solver.nfev) == (b.t, b.nfev)

    @pytest.mark.parametrize("t_end", [9.0, -9.0])
    @pytest.mark.parametrize("method", ["RK45", "DOP853"])
    def test_dense_solution_matches_ode_solution(self, katok_sphere, method, t_end):
        config = IntegratorConfig(method=method, rel_tol=1e-8, abs_tol=1e-8)
        y0 = np.array([0.3, 0.2, 0.7, 0.6])
        march = _March(katok_sphere.scalar_rhs(), y0, t_end, config, dense=True)
        while march.step():
            pass
        ours = march.solution()
        assert isinstance(ours, DenseSolution)
        theirs = OdeSolution(march._t, march._interpolants)
        ends = np.asarray(march._t)
        # step ends, points inside steps (unsorted), and times outside the run
        ts = np.concatenate([ends, t_end * np.random.default_rng(0).uniform(0.0, 1.0, 50), [-0.5 * t_end, 1.5 * t_end]])
        assert _same(ours(ts), theirs(ts))
        for t in ts[::7]:
            assert _same(ours(t), theirs(t))
        sol = solve_ivp(katok_sphere.scalar_rhs(), (0.0, t_end), y0, method=method, rtol=1e-8, atol=1e-8, dense_output=True)
        assert _same(ours(ts), sol.sol(ts))


def _brent_pair(f, a, b, xtol):
    """(scipy's outcome, ours) for one bracket: the root, or the error class and message."""
    out = []
    for solve in (partial(brentq, rtol=RTOL, maxiter=solvers.MAXITER), brent_root):
        try:
            out.append(("root", np.float64(solve(f, a, b, xtol=xtol)).tobytes()))
        except (ValueError, RuntimeError) as err:
            out.append((type(err).__name__, str(err)))
    return out


class TestBrentRoot:
    def test_constants_are_brentqs_defaults(self):
        defaults = inspect.signature(brentq).parameters
        assert (RTOL, MAXITER) == (defaults["rtol"].default, defaults["maxiter"].default)

    # the call sites' tolerances: 1e-14, and 4 eps at the pole cap
    @pytest.mark.parametrize("xtol", [1e-14, 4 * EPS], ids=["xtol-1e-14", "4eps"])
    def test_matches_brentq(self, xtol):
        funcs = [
            lambda x: x**3 - 2.0 * x - 5.0,
            lambda x: math.cos(x) - x,
            lambda x: math.tanh(5.0 * (x - 0.3)),
            lambda x: 1e-170 * (x - 0.3),  # differences underflow: C divides by 0
            lambda x: (x - 0.7) ** 3,
            lambda x: math.sin(20.0 * x),
        ]
        rng = np.random.default_rng(1)
        for f in funcs:
            for a, b in zip(rng.uniform(-3.0, 0.5, 40), rng.uniform(0.6, 4.0, 40)):
                want, got = _brent_pair(f, float(a), float(b), xtol)
                assert got == want

    def test_lab_call_sites_match_brentq(self, katok_torus, katok_sphere, spliced_profile, monkeypatch):
        # the same calls with scipy's brentq swapped in give the same bits
        rng = np.random.default_rng(2)
        levels = list(zip(rng.uniform(-1.0, 1.0, 30), rng.uniform(-0.9, 0.9, 30)))
        cs = np.linspace(0.35, 0.95, 20)
        chart = AnnulusChart(katok_sphere, SectionSpec())
        points = list(zip(rng.uniform(0.0, chart.circumference, 20), rng.uniform(0.1, 3.0, 20)))

        def run():
            return (
                [solve_xi2_on_level(katok_torus, 0.1, x2, xi1) for x2, xi1 in levels],
                [turning_point_bisect(spliced_profile, c, x_hi=1.75) for c in cs],
                [chart.point_to_state(s, u) for s, u in points],
            )

        got = run()
        for module in (sampling, analysis, sections):
            monkeypatch.setattr(module, "brent_root", brentq)
        want = run()
        assert sum(v is not None for v in got[0]) > 10
        assert _same([np.nan if v is None else v for v in got[0]], [np.nan if v is None else v for v in want[0]])
        assert _same(got[1], want[1])
        assert _same(got[2], want[2])

    def test_endpoint_root_is_returned(self):
        for a, b in [(0.3, 2.0), (-1.0, 0.3)]:
            want, got = _brent_pair(lambda x: x - 0.3, a, b, 1e-14)
            assert got == want == ("root", np.float64(0.3).tobytes())

    def test_same_sign_bracket(self):
        want, got = _brent_pair(lambda x: x * x + 1.0, -1.0, 2.0, 1e-14)
        assert got == want == ("ValueError", "f(a) and f(b) must have different signs")

    def test_no_convergence(self, monkeypatch):
        monkeypatch.setattr(solvers, "MAXITER", 3)
        want, got = _brent_pair(math.sin, 1.0, 6.0, 1e-14)
        assert got == want == ("RuntimeError", "Failed to converge after 3 iterations.")
