"""The lab's RK45/DOP853 steppers and Brent root against scipy and march_rows.

The tableaux and Brent root match scipy bit for bit.  scipy is the reference
here only: no library module imports it.  The port follows SciPy 1.17
(``select_initial_step`` with its ``t_bound`` cap and its early return on an
empty interval, and the C ``brentq``), the floor of the ``test`` extra.  The
steppers sum as ``march_rows`` sums, term by term: an attempt of the float
stepper of one orbit is a ``march_rows`` row attempt bit for bit, a row's
attempt is the same bits in any company, and a float orbit and a one-row
``march_rows`` run take the same steps bit for bit, so a cloud's orbits can
go from ``march_rows`` to the float stepper without moving a bit; their runs
match scipy's to stated bounds.
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
from finslerlab.flow import ORBIT_STEPPERS, IntegratorConfig, integrate_orbit, metric_profile
from finslerlab.sampling import sample_covectors, solve_xi2_on_level
from finslerlab.sections import AnnulusChart, SectionSpec
from finslerlab.solvers import (
    DOP853, EPS, MAXITER, RK45, RTOL, FloatDOP853, RowInterpolant, TOO_SMALL_STEP, _rows_of, brent_root, march_rows,
)
from flow_oracles import scipy_step_rows, stacked_rhs

SCIPY_STEPPERS = {"RK45": ScipyRK45, "DOP853": ScipyDOP853}


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


def _orbit(method, rhs, y0, t_bound, tol, **kw):
    """The float orbit of ``method`` from t = 0, at rtol = atol = ``tol``."""
    return ORBIT_STEPPERS[method](rhs, 0.0, y0, t_bound, rtol=tol, atol=tol, **kw)


def _runs(katok_sphere, katok_torus_reversible):
    """(metric, orbit, t_bound, tol, gap) for 5 orbits of a cloud, a torus orbit and a backward orbit.

    ``gap`` bounds the largest difference from scipy's run in t, the state
    and the stages.  The largest measured (RK45, DOP853): 2.4e-10 and 1.0e-6
    on the cloud orbits, 3.9e-10 and 9.1e-8 on the torus orbit, 2.3e-8 and
    5.1e-5 on the backward orbit, which climbs to |x2| = 15, where the sphere
    chart stretches a last-bit difference by many orders of magnitude.
    """
    states = sample_covectors(np.random.default_rng(3), 5, x2_range=(-0.5, 0.5))
    return [
        *((katok_sphere, y0, 6.0, 1e-8, 5e-6) for y0 in states),
        (katok_torus_reversible, np.array([0.0, 0.1, -0.6, 0.8]), 30.0, 1e-9, 5e-6),
        (katok_sphere, np.array([0.3, 0.2, 0.7, 0.6]), -15.0, 1e-12, 2e-4),
    ]


class TestStepper:
    """The lab's steppers against scipy's on the same system."""

    @pytest.mark.parametrize("method", ["RK45", "DOP853"])
    def test_every_step_matches_scipy(self, katok_sphere, katok_torus_reversible, method):
        # the float stepper of one orbit takes scipy's steps, attempts and calls;
        # scipy's np.dot sums and norms differ from the term-by-term ones in the
        # last bits, so the times, states and stages agree to a measured bound
        for H, y0, t_bound, tol, bound in _runs(katok_sphere, katok_torus_reversible):
            rhs = H.scalar_rhs()
            gap = 0.0
            a = ORBIT_STEPPERS[method](rhs, 0.0, y0, t_bound, rtol=tol, atol=tol)
            b = SCIPY_STEPPERS[method](rhs, 0.0, y0, t_bound, rtol=tol, atol=tol)
            assert a.direction == b.direction
            while b.status == "running":
                assert a.step() and b.step() is None
                assert (a.status, a.nfev) == (b.status, b.nfev)
                gap = max(
                    gap, abs(a.t - b.t), abs(a.t_old - b.t_old), np.max(np.abs(np.subtract(a.y, b.y))),
                    np.max(np.abs(np.subtract(a.K, b.K))),
                )
            assert a.status == "finished"
            assert gap <= bound, gap

    @pytest.mark.parametrize("method", ["RK45", "DOP853"])
    def test_attempt_is_a_row_attempt_in_any_company(self, katok_sphere, method):
        # each row's attempt, at its own h, and its error norm are the bits of
        # that row's attempt alone, whichever rows it is stepped with
        rng = np.random.default_rng(12)
        fun = katok_sphere.vector_field
        states = sample_covectors(rng, 40, x2_range=(-1.5, 1.5))
        h = rng.uniform(-0.3, 0.3, 40)
        rows = solvers._ROW_STEPPERS[method](fun, 1e-8, 1e-8)

        def attempt(i):
            y, hs = states[i], h[i]
            y_new, K = rows.attempt(y, fun(y), hs)
            return y_new, K, rows.error_norm(y, y_new, K, hs)

        for company in (np.arange(40), rng.choice(40, 7, replace=False), [5]):
            y_new, K, norm = attempt(company)
            for k, i in enumerate(company):
                row_new, row_K, row_norm = attempt([i])
                assert _same(y_new[k], row_new[0])
                assert _same(K[:, k], row_K[:, 0])
                assert _same(norm[k], row_norm[0])

    @pytest.mark.parametrize("method", ["RK45", "DOP853"])
    def test_row_interpolant_follows_scipy_dense_output(self, katok_sphere, method):
        # each row of scipy's stacked cloud on its own step, with march_rows'
        # sums against scipy's np.dot interpolant of the same step
        n = 40
        states = sample_covectors(np.random.default_rng(3), n, x2_range=(-0.5, 0.5))
        b = SCIPY_STEPPERS[method](stacked_rhs(katok_sphere, n), 0.0, states.reshape(-1), 6.0, rtol=1e-8, atol=1e-8)
        rng = np.random.default_rng(4)
        rows = np.arange(n)
        gap = 0.0
        while b.status == "running":
            b.step()
            sol = RowInterpolant(method, katok_sphere.vector_field, [scipy_step_rows(b, rows)])
            assert _same(sol(sol.t_old), b.y_old.reshape(n, 4))
            t = b.t_old + (b.t - b.t_old) * rng.uniform(0.0, 1.0, n)
            want = b.dense_output()(t).T.reshape(n, n, 4)[rows, rows]
            gap = max(gap, float(np.max(np.abs(sol(t) - want))))
        assert gap <= 1e-14, gap  # measured 1.8e-15 for both methods

    @pytest.mark.parametrize("method", ["RK45", "DOP853"])
    def test_zero_length_run_has_constant_interpolant(self, katok_sphere, method):
        y0 = np.array([0.3, 0.2, 0.7, 0.6])
        rhs = katok_sphere.scalar_rhs()
        a = ORBIT_STEPPERS[method](rhs, 0.0, y0, 0.0, rtol=1e-9, atol=1e-9)
        b = SCIPY_STEPPERS[method](rhs, 0.0, y0, 0.0, rtol=1e-9, atol=1e-9)
        assert a.step() and b.step() is None
        assert (a.status, a.nfev, a.t, a.t_old) == (b.status, b.nfev, b.t, b.t_old) == ("finished", 1, 0.0, 0.0)
        trace = integrate_orbit(katok_sphere, y0, 0.0, IntegratorConfig(method=method))
        assert _same(trace.times, [0.0, 0.0])
        assert _same(trace.states, [y0, y0])

    @pytest.mark.parametrize("method", ["RK45", "DOP853"])
    def test_step_size_underflow(self, method):
        # x' = x^2 from x(0) = 1 blows up at t = 1
        def blowup(t, y):
            return [y[0] * y[0], 0.0, 0.0, 0.0]

        y0 = np.array([1.0, 0.0, 0.0, 0.0])
        b = SCIPY_STEPPERS[method](blowup, 0.0, y0, 2.0, rtol=1e-8, atol=1e-8)
        while b.status == "running":
            message = b.step()
        assert message == TOO_SMALL_STEP
        a = ORBIT_STEPPERS[method](blowup, 0.0, y0, 2.0, rtol=1e-8, atol=1e-8)
        with pytest.raises(StepFailure) as failure:
            while a.step():
                pass
        assert str(failure.value) == TOO_SMALL_STEP
        assert a.status == "failed"
        assert a.nfev == b.nfev
        assert abs(a.t - b.t) <= 1e-15

    # forward only: a dense march (the boundary extension's) runs forward, and
    # its solution looks times up among ascending step ends
    @pytest.mark.parametrize("t_end", [9.0])
    @pytest.mark.parametrize("method", ["RK45", "DOP853"])
    def test_dense_solution_matches_ode_solution(self, katok_sphere, method, t_end):
        y0 = np.array([0.3, 0.2, 0.7, 0.6])
        orbit = _orbit(method, katok_sphere.scalar_rhs(), y0, t_end, 1e-8, dense=True)
        while orbit.step():
            pass
        ours = orbit.solution()
        # scipy's OdeSolution rule over the interpolants of the steps one by one,
        # each evaluated as an (n, m) array of its own times
        def alone(step):
            sol = orbit.interpolant([step])
            return lambda t: sol.at(np.zeros(np.size(t), dtype=int), np.atleast_1d(t)).T.reshape(4, *np.shape(t))

        ends = [0.0] + [step[1] for step in orbit._steps]
        theirs = OdeSolution(ends, [alone(step) for step in orbit._steps])
        # step ends, points inside steps (unsorted), and times outside the run
        ts = np.concatenate([ends, t_end * np.random.default_rng(0).uniform(0.0, 1.0, 50), [-0.5 * t_end, 1.5 * t_end]])
        assert _same(ours(ts), theirs(ts).T)
        for t in ts[::7]:
            assert _same(ours([t])[0], theirs(t))
        # the float stepper sums in stage order, not with np.dot: within the run
        # the two solutions differ by at most 2.2e-13 (measured); far outside it
        # the last step's polynomial amplifies that rounding, so those are skipped
        sol = solve_ivp(katok_sphere.scalar_rhs(), (0.0, t_end), y0, method=method, rtol=1e-8, atol=1e-8, dense_output=True)
        assert np.max(np.abs(ours(ts[:-2]) - sol.sol(ts[:-2]).T)) <= 1e-12


class TestFloatStepper:
    """The one-orbit float steppers against ``march_rows`` on a one-row batch."""

    @pytest.mark.parametrize("method", ["RK45", "DOP853"])
    def test_attempt_is_march_rows_attempt(self, katok_sphere, katok_torus_reversible, method):
        # 2 metrics x 2 directions x 130 random (state, h) pairs: the stages, the
        # new state and the error norm agree bit for bit
        rng = np.random.default_rng(11)
        rows_class = solvers._ROW_STEPPERS[method]
        pairs = 0
        for H in (katok_sphere, katok_torus_reversible):
            rhs = H.scalar_rhs()
            fun = _rows_of(rhs)
            for sign in (1.0, -1.0):
                for y0 in sample_covectors(rng, 130, x2_range=(-1.5, 1.5)):
                    h = sign * rng.uniform(1e-3, 0.4)
                    tol = 10.0 ** rng.uniform(-12.0, -7.0)
                    ours = ORBIT_STEPPERS[method](rhs, 0.0, y0, 100.0 * sign, rtol=tol, atol=tol)
                    y_new, _, error_norm = ours._attempt(0.0, ours.y, ours.f, h)
                    rows = rows_class(fun, tol, tol)
                    y, hs = np.array([ours.y]), np.array([h])
                    row_new, K = rows.attempt(y, fun(y), hs)
                    assert _same(y_new, row_new[0])
                    assert _same(ours.K, K[: len(ours.K), 0])
                    assert _same(error_norm, rows.error_norm(y, row_new, K, hs)[0])
                    pairs += 1
        assert pairs == 520

    @pytest.mark.parametrize("T", [30.0, -30.0])
    @pytest.mark.parametrize(
        "method, tol",
        [("RK45", 1e-12), ("RK45", 1e-9), ("RK45", 1e-8), ("RK45", 1e-7),
         ("DOP853", 1e-12), ("DOP853", 1e-9), ("DOP853", 1e-7)],
    )
    def test_trajectory_follows_march_rows(self, katok_sphere, katok_torus_reversible, method, tol, T):
        # bit for bit, over the whole run, for the float stepper and a one-row
        # march_rows run on the same RHS: an attempt is the same arithmetic in
        # both, and every controller raises the error norm with numpy's pow
        # kernel (libm's pow differs from it in the last bit on about 5% of
        # values).  So even the torus orbit that rotates
        # across the negatively curved splice bridge, where neighbouring orbits
        # separate fast, stays exact
        ts = np.linspace(0.0, T, 301)
        cases = [
            (katok_sphere, [0.3, 0.2, 0.7, 0.6]),
            (katok_sphere, [1.0, -0.4, 0.95, 0.1]),  # starts in the perturbation cone
            (katok_torus_reversible, [0.0, 0.1, -0.6, 0.8]),  # trapped, xi1 < 0
            (katok_torus_reversible, [0.0, 0.3, 0.7, -0.5]),  # trapped, xi1 > 0
            (katok_torus_reversible, [0.0, 0.0, 0.3, 0.95]),  # rotates across the bridge
        ]
        for H, y0 in cases:
            rhs = H.scalar_rhs()
            seen = {"float": [], "rows": []}  # every state handed to the RHS, in order

            def recorded(t, y):
                seen["float"].append(y)
                return rhs(t, y)

            def batch(name):
                def fun(y):
                    seen[name].extend(map(tuple, y.tolist()))
                    return _rows_of(rhs)(y)
                return fun

            one = _orbit(method, recorded, y0, T, tol)
            steps = 0
            while one.step():
                steps += 1
            attempts = (one.nfev - 2) // one.n_stages  # f(y0), the initial step's call, n_stages per attempt
            assert steps > 20 and attempts >= steps
            rows = march_rows(method, batch("rows"), np.array([y0]), T, ts, rtol=tol, atol=tol)
            assert (rows.iterations, rows.attempts) == (attempts, attempts)
            # then march_rows forms the dense output of the covering steps: DOP853's extra stages
            assert _same(seen["float"], seen["rows"][: len(seen["float"])])
            orbit = _orbit(method, rhs, y0, T, tol, ts=ts)
            while orbit.step():
                pass
            assert _same(orbit.path, rows.path[:, 0])

    @pytest.mark.parametrize("method", ["RK45", "DOP853"])
    def test_zero_length_run(self, katok_sphere, method):
        y0 = (0.3, 0.2, 0.7, 0.6)
        # a run of length 0 takes one step, which samples its start, as march_rows' run of length 0 does
        ours = _orbit(method, katok_sphere.scalar_rhs(), y0, 0.0, 1e-9, ts=np.zeros(3))
        assert ours.step() and not ours.step()
        assert (ours.status, ours.nfev, ours.t, ours.t_old, ours.y) == ("finished", 1, 0.0, 0.0, y0)
        assert _same(ours.path, [y0] * 3)
        rows = march_rows(method, katok_sphere.vector_field, np.array([y0]), 0.0, np.zeros(3), rtol=1e-9, atol=1e-9)
        assert _same(ours.path, rows.path[:, 0])

    @pytest.mark.parametrize("method", ["RK45", "DOP853"])
    def test_step_size_underflow(self, method):
        # x' = x^2 from x(0) = 1 blows up at t = 1; march_rows fails the same row
        def blowup(t, y):
            return [y[0] * y[0], 0.0, 0.0, 0.0]

        orbit = _orbit(method, blowup, (1.0, 0.0, 0.0, 0.0), 2.0, 1e-8)
        with pytest.raises(StepFailure, match="^Required step size is less than spacing between numbers.$"):
            while orbit.step():
                pass
        assert orbit.status == "failed" and not orbit.step()
        assert abs(orbit.t - 1.0) < 1e-6
        rows = march_rows(
            method, _rows_of(blowup), np.array([[1.0, 0.0, 0.0, 0.0]]), 2.0, [2.0],
            rtol=1e-8, atol=1e-8,
        )
        assert rows.failed[0]

    def test_stage_outside_the_rhs_domain_is_rejected(self):
        # this RHS raises ZeroDivisionError past x2 = 5, as a profile that
        # underflows to 0 far up the sphere chart does; an attempt with a stage
        # there is rejected and the step shrinks, as march_rows rejects the inf
        # or nan that numpy gives there
        def field(t, y):
            return [0.0, 1.0 / float(y[1] <= 5.0), 0.0, 0.0]

        solver = FloatDOP853(field, 0.0, (0.0, 4.9, 0.0, 1.0), 10.0, rtol=1e-9, atol=1e-9)
        assert solver._attempt(0.0, solver.y, solver.f, 1.0)[2] == math.inf
        solver.h_abs = 1.0
        assert solver.step()
        assert solver.t == pytest.approx(0.04)  # 1.0 rejected, 0.2 rejected, 0.04 taken

    def test_rhs_is_handed_floats(self, katok_sphere):
        handed = set()
        rhs = katok_sphere.scalar_rhs()

        def recording(t, y):
            handed.add(type(t))
            handed.add(type(y))
            handed.update(map(type, y))
            return rhs(t, y)

        orbit = _orbit("DOP853", recording, np.array([0.3, 0.2, 0.7, 0.6]), 2.0, 1e-12, ts=[1.0, 2.0])
        while orbit.step():
            pass
        assert handed == {float, tuple}


def _duffing(y):
    """Duffing oscillators x'' = -x - x^3 in (y1, y2) on rows with y3 != 0; constant velocity on rows with y3 == 0.

    Basic operations only, so a row's derivative is the same bits in any
    company.  Under RK45 a constant-velocity row with power-of-two
    components has error estimate exactly 0, so from y = 0 each of its steps
    is MAX_FACTOR times the last (under DOP853 its first two steps are).
    """
    x, p = y[:, 1], y[:, 2]
    out = np.empty_like(y)
    out[:, 0] = 1.0
    out[:, 1] = p
    out[:, 2] = -x - x * x * x
    out[:, 3] = 0.0
    out[y[:, 3] == 0.0] = (1.0, 0.5, -0.25, 0.0)
    return out


def _growing_ends(T):
    """The step ends of march_rows on a row from y = 0 whose error estimate is 0.

    Its initial step is 100 h0 with h0 = 1e-6 (``select_initial_step`` at
    y = 0), and every later step is MAX_FACTOR times the last.
    """
    d = math.copysign(1.0, T)
    t, h_abs, ends = 0.0, 100 * 1e-6, []
    while d * t < d * T:
        t_new = t + h_abs * d
        if d * (t_new - T) > 0:
            t_new = T
        h_abs = abs(t_new - t) * solvers.MAX_FACTOR
        t = t_new
        ends.append(t)
    return ends


class TestDeferredSampling:
    """march_rows samples its covering steps in batches; a row's samples are its bits alone."""

    @pytest.mark.parametrize("T", [10.0, -10.0], ids=["forward", "backward"])
    @pytest.mark.parametrize("method, tol", [("RK45", 1e-7), ("DOP853", 1e-11)])
    def test_every_orbit_is_its_run_alone(self, monkeypatch, method, tol, T):
        # a sample grid finer than the steps, with the constant rows' step ends
        # on it: every step of every row covers samples, and the covering steps
        # fill a budget cut to 64 rows many times over
        monkeypatch.setattr(solvers, "DENSE_BUDGET", 64)
        rng = np.random.default_rng(21)
        n = 8
        y0 = np.zeros((n, 4))
        y0[2:, 1:3] = rng.uniform(-1.5, 1.5, (n - 2, 2))
        y0[2:, 3] = 1.0
        ts = np.union1d(np.linspace(0.0, T, 1001), _growing_ends(T))
        ts = ts if T > 0 else ts[::-1]
        run = march_rows(method, _duffing, y0, T, ts, rtol=tol, atol=tol)
        alone = [march_rows(method, _duffing, y0[[i]], T, ts, rtol=tol, atol=tol) for i in range(n)]
        assert not run.failed.any()
        assert (run.iterations, run.attempts) == (max(a.iterations for a in alone), sum(a.attempts for a in alone))
        assert run.attempts > 5 * solvers.DENSE_BUDGET
        for i in range(n):
            assert run.path[:, i].tobytes() == alone[i].path[:, 0].tobytes(), i
        # the constant rows: y = (1, 0.5, -0.25, 0) t, also at their step ends
        assert run.path[:, 0].tobytes() == run.path[:, 1].tobytes()
        assert np.max(np.abs(run.path[:, 0] - np.outer(ts, (1.0, 0.5, -0.25, 0.0)))) <= 1e-12

    @pytest.mark.parametrize("method", ["RK45", "DOP853"])
    def test_failed_row_keeps_every_sample_it_reached(self, method):
        # x' = x^2 blows up at t = 1 (x0 = 1) and t = 1.25 (x0 = 0.8), where the
        # step size underflows; x0 < 0 runs on.  Both failures, and a batch of
        # failing rows alone, keep every sample before the blow-up
        def fun(y):
            return np.column_stack([y[:, 0] * y[:, 0], -y[:, 1]])

        ts = np.linspace(0.0, 2.0, 801)
        y0 = np.array([[1.0, 1.0], [-1.0, 0.5], [0.8, -1.0], [-0.5, 2.0]])
        run = march_rows(method, fun, y0, 2.0, ts, rtol=1e-8, atol=1e-8)
        assert run.failed.tolist() == [True, False, True, False]
        for i, blowup in ((0, 1.0), (2, 1.25)):
            reached = ~np.isnan(run.path[:, i, 0])
            assert reached[ts < blowup].all() and not reached[ts > blowup].any()
            early = ts < 0.9 * blowup
            exact = y0[i, 0] / (1.0 - y0[i, 0] * ts[early])
            assert np.max(np.abs(run.path[early, i, 0] / exact - 1.0)) <= 1e-6
        assert np.isfinite(run.path[:, [1, 3]]).all()
        failing = march_rows(method, fun, y0[[0, 2]], 2.0, ts, rtol=1e-8, atol=1e-8)
        assert failing.failed.all()
        assert failing.path.tobytes() == run.path[:, [0, 2]].tobytes()

    def test_dense_stages_are_three_batched_calls(self, katok_torus_reversible):
        # a 5-orbit DOP853 march: 2 calls for the initial step, 12 per
        # iteration, and the 3 extra dense stages once, on every covering step
        sizes = []

        def counting(y):
            sizes.append(len(y))
            return katok_torus_reversible.vector_field(y)

        y0 = sample_covectors(np.random.default_rng(5), 5, x2_range=(-0.5, 0.5))
        ts = np.linspace(0.0, 5.0, 51)
        run = march_rows("DOP853", counting, y0, 5.0, ts, rtol=1e-9, atol=1e-9)
        assert len(sizes) == 2 + 12 * run.iterations + 3
        assert max(sizes[:-3]) == 5
        assert sizes[-3] == sizes[-2] == sizes[-1] > 5
        want = march_rows("DOP853", katok_torus_reversible.vector_field, y0, 5.0, ts, rtol=1e-9, atol=1e-9)
        assert run.path.tobytes() == want.path.tobytes()


def _flagged_by_row(run) -> dict:
    """Each row's flagged steps (t_old, t, y_old, y, K) as bytes, in order, by row id."""
    t_old, t, y_old, y, K = (np.concatenate(a, axis=-2 if k == 4 else 0) for k, a in enumerate(zip(*run.steps)))
    out = {}
    for k, i in enumerate(run.flagged.tolist()):
        step = (t_old[k], t[k], y_old[k], y[k], K[:, k])
        out.setdefault(i, []).append(tuple(a.tobytes() for a in step))
    return out


class _RowsOf:
    """A metric whose batched field is its float RHS row by row, counting the states both are called on."""

    def __init__(self, H):
        self.profile = metric_profile(H)  # pole_cap reads it
        self._rhs = H.scalar_rhs()
        self.calls = 0

    def scalar_rhs(self):
        def fun(t, y):
            self.calls += 1
            return self._rhs(t, y)

        return fun

    def vector_field(self, y):
        self.calls += len(y)
        return np.array([self._rhs(0.0, row) for row in y.tolist()], dtype=float)


class TestStopRule:
    """The crossing loop's hand-offs between march_rows and the float stepper move no bit on one derivative."""

    @pytest.mark.parametrize("method, tol", [("RK45", 1e-9), ("DOP853", 1e-9)])
    def test_tail_takes_the_batch_steps(self, katok_sphere, h0_torus, monkeypatch, method, tol):
        # 40 orbits to their third return, stepped on the float RHS, batched row
        # by row and in floats alike: Katok-sphere equator orbits, two of them
        # 0.002 from the polar direction, and spliced-torus meridian orbits
        # whose crossings slower than 1.0 are skipped as tangencies, so that an
        # orbit short of 3 steps on from its last bracket or fails.  Whichever
        # orbits step in the batch, and whenever they go to the float stepper,
        # every orbit keeps the same brackets and crossings with the same bits
        # after the same attempts (the same count of RHS states)
        config = IntegratorConfig(method=method, rel_tol=tol, abs_tol=tol)
        rng = np.random.default_rng(8)
        u = rng.uniform(0.15 * math.pi, 0.85 * math.pi, 40)
        u[:2] = math.pi / 2 - 0.002, math.pi / 2 + 0.002
        meridian = SectionSpec(kind="meridian", max_return_time=16.0, transversality_tol=1.0)
        cases = [(katok_sphere, SectionSpec(), u), (h0_torus, meridian, rng.uniform(0.2, 2.9, 40))]
        real_refine = sections._refine_roots
        for H, spec, u in cases:
            chart = AnnulusChart(H, spec)
            s = rng.uniform(0.0, chart.circumference, 40)
            s[2], u[2] = 1.3, 1.2  # on the torus: skips its first crossing (speed 0.41) and a later one
            y0 = np.array([chart.point_to_state(a, b) for a, b in zip(s, u)])
            runs = {}
            for tail in (0, 7, 16, 40):
                monkeypatch.setattr(solvers, "TAIL_ROWS", tail)
                brackets = []

                def refine(g, lo, hi):
                    brackets.extend(zip(np.asarray(lo).tolist(), np.asarray(hi).tolist()))
                    return real_refine(g, lo, hi)

                monkeypatch.setattr(sections, "_refine_roots", refine)
                rows = _RowsOf(H)
                *out, errors = sections._returns(rows, y0, spec, config, chart, 3)
                runs[tail] = ([a.tobytes() for a in out], [repr(err) for err in errors], sorted(brackets), rows.calls)
            want = runs[0]
            for tail, run in runs.items():
                assert run == want, tail
            found = ~np.isnan(np.frombuffer(want[0][0]).reshape(40, 3))
            if spec.kind == "meridian":
                # every path: orbits that skip a tangency and return, and orbits that fail
                skipped = np.frombuffer(want[0][2], dtype=int)
                assert (skipped[found.all(axis=1)] > 0).any() and want[1].count("None") < 40
            else:
                assert found.all() and want[1] == ["None"] * 40

    def test_rows_stop_alone_as_in_company(self, katok_sphere, monkeypatch):
        # without the tail, a row keeps the same 3 flagged steps with the same
        # bits and stands at the same place in any company
        monkeypatch.setattr(solvers, "TAIL_ROWS", 0)
        spec = SectionSpec()
        chart = AnnulusChart(katok_sphere, spec)
        rng = np.random.default_rng(9)
        pts = zip(rng.uniform(0.0, chart.circumference, 12), rng.uniform(0.2, 2.9, 12))
        y0 = np.array([chart.point_to_state(s, u) for s, u in pts])
        stop = (lambda y_old, y: sections._upward_brackets(chart.coordinate(y_old), chart.coordinate(y), None)[0], 3)
        fun = katok_sphere.vector_field
        T = 3 * spec.max_return_time

        def ends(run):
            return {i: [a[k].tobytes() for a in end] for rows, *end in run.ends for k, i in enumerate(rows.tolist())}

        run = march_rows("RK45", fun, y0, T, (), rtol=1e-8, atol=1e-8, stop=stop)
        got = _flagged_by_row(run)
        assert sorted(got) == list(range(12)) and all(len(v) == 3 for v in got.values())
        assert sorted(ends(run)) == list(range(12))
        for i in range(12):
            alone = march_rows("RK45", fun, y0[[i]], T, (), rtol=1e-8, atol=1e-8, stop=stop)
            assert _flagged_by_row(alone)[0] == got[i], i
            assert ends(alone)[0] == ends(run)[i], i
        # each flagged step brackets the section
        for steps in got.values():
            for _, _, y_old, y, _ in steps:
                g_old, g = (np.frombuffer(v)[1] for v in (y_old, y))
                assert g_old < 0.0 <= g


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
