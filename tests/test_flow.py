import ast
import hashlib
import linecache
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, solve_ivp
from scipy.optimize import brentq

import finslerlab
from finslerlab.errors import (
    InvariantDrift,
    PoleProximity,
    StepFailure,
    ZeroCovector,
)
from finslerlab import flow, sections
from finslerlab.flow import (
    ORBIT_STEPPERS,
    TWO_PI,
    IntegratorConfig,
    _March,
    check_periodicity,
    circle_difference,
    integrate_ensemble,
    integrate_orbit,
    phase_space_distance,
)
from finslerlab.metrics import ALPHA_GOLDEN, AngularDualMetric, CotangentPoint
from finslerlab.profiles import eval_f0, eval_f0_deriv
from finslerlab.sampling import sample_cone_states, sample_covectors, sample_unit_level
from finslerlab.sections import AnnulusChart, SectionSpec, ensemble_return_step
from finslerlab.solvers import EPS, TAIL_ROWS, FloatRK45, march_rows
from flow_oracles import (
    ConeViolation, LiftAmbiguity, compose_commuting_flows, lift_to_cover, pole_cap_event, stacked_rhs,
)


def reduced_orbit_quadrature(profile, c, t_target, n_grid=400_001, x2_span=40.0):
    """Independent oracle for a rotating torus orbit with conserved xi1 = c.

    On the unit level the reduced system gives dt/dx2 = f^2 / sqrt(f^2 - c^2)
    and dx1/dx2 = c / sqrt(f^2 - c^2); both are integrated on a dense grid and
    t(x2) is inverted for the requested time.
    """
    x2 = np.linspace(0.0, x2_span, n_grid)
    f = np.asarray(profile.f(x2))
    root = np.sqrt(f**2 - c**2)
    t_of = cumulative_trapezoid(f**2 / root, x2, initial=0.0)
    x1_of = cumulative_trapezoid(c / root, x2, initial=0.0)
    x2_end = brentq(lambda s: np.interp(s, x2, t_of) - t_target, 0.0, x2_span, xtol=1e-13)
    x1_end = float(np.interp(x2_end, x2, x1_of))
    f_end = float(profile.f(x2_end))
    return np.array([x1_end, x2_end, c, math.sqrt(f_end**2 - c**2)])


class TestVectorField:
    def test_equator_field(self, h0_sphere):
        field = h0_sphere.vector_field(np.array([0.0, 0.0, 1.0, 0.0]))
        assert np.allclose(field, [1.0, 0.0, 0.0, 0.0], atol=1e-16)

    def test_x1_independence(self, katok_sphere):
        base = np.array([0.0, 0.4, 0.8, 0.5])
        f0 = katok_sphere.vector_field(base)
        for x1 in (1.0, 2.0, 5.5):
            y = base.copy()
            y[0] = x1
            assert np.array_equal(katok_sphere.vector_field(y), f0)

    def test_momentum_equation_closed_form(self, h0_sphere):
        # xi2-dot = |xi| f'(x2) / f(x2)^2
        y = np.array([0.0, 1.0, 0.3, 0.4])
        field = h0_sphere.vector_field(y)
        expected = 0.5 * float(eval_f0_deriv(1.0)) / float(eval_f0(1.0)) ** 2
        assert field[3] == pytest.approx(expected, rel=1e-14)
        assert field[2] == 0.0


class TestIntegrateOrbit:
    def test_equator_orbit_translates(self, h0_sphere, tight_config):
        trace = integrate_orbit(h0_sphere, np.array([0.0, 0.0, 1.0, 0.0]), 10.0, tight_config)
        final = trace.final_state
        assert abs(final[0] - 10.0) <= 1e-8
        assert abs(final[1]) <= 1e-12 and abs(final[3]) <= 1e-12
        b1, _ = CotangentPoint(*trace.final_state.tolist()).reduced()
        assert b1 == pytest.approx(10.0 % TWO_PI, abs=1e-8)

    def test_conservation_over_long_run(self, katok_sphere, tight_config):
        y0 = np.array([0.0, 0.0, 0.6, 0.8])
        trace = integrate_orbit(katok_sphere, y0, 100.0, tight_config)
        assert trace.h_drift() <= 1e-8
        assert trace.h1_drift() <= 1e-8
        # consecutive lifted base points move less than half a period
        assert np.all(np.abs(np.diff(trace.lifted_base[:, 0])) < math.pi)

    def test_pole_abort_time(self, h0_sphere, tight_config):
        # meridian arclength to the missing pole is pi/2
        with pytest.raises(PoleProximity) as info:
            integrate_orbit(h0_sphere, np.array([0.0, 0.0, 0.0, 1.0]), 2.0, tight_config)
        assert 1.5 < info.value.time <= math.pi / 2 + 0.01

    def test_invariant_drift_enforced(self, h0_sphere):
        cfg = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-6, invariant_drift_tol=1e-15)
        with pytest.raises(InvariantDrift):
            integrate_orbit(h0_sphere, np.array([0.0, 0.5, 0.4, 0.7]), 30.0, cfg)

    def test_zero_covector_rejected(self, h0_sphere, tight_config):
        with pytest.raises(ZeroCovector):
            integrate_orbit(h0_sphere, np.array([0.0, 0.0, 0.0, 0.0]), 1.0, tight_config)

    def test_method_other_than_rk45_dop853_rejected(self):
        with pytest.raises(ValueError, match="RK45 or DOP853"):
            IntegratorConfig(method="Radau")

    def test_rotating_orbit_against_reduced_quadrature(self, h0_torus, spliced_profile, tight_config):
        c = 0.2
        y0 = np.array([0.0, 0.0, c, math.sqrt(1.0 - c * c)])
        t_target = TWO_PI
        trace = integrate_orbit(h0_torus, y0, t_target, tight_config)
        oracle = reduced_orbit_quadrature(spliced_profile, c, t_target, x2_span=12.0)
        assert np.max(np.abs(trace.final_state - oracle)) <= 1e-5

    def test_time_reversal_round_trip(self, katok_sphere, tight_config):
        y0 = np.array([0.3, 0.2, 0.7, 0.6])
        fwd = integrate_orbit(katok_sphere, y0, 25.0, tight_config)
        back = integrate_orbit(katok_sphere, fwd.final_state, -25.0, tight_config)
        assert phase_space_distance(back.final_state, y0) <= 1e-7

    def test_reversible_metric_flip_symmetry(self, katok_torus_reversible, tight_config):
        # integrate t, negate xi, integrate t, negate again: back to start
        y0 = np.array([0.2, 0.1, 0.5, 0.6])
        a = integrate_orbit(katok_torus_reversible, y0, 8.0, tight_config).final_state
        a_flip = a.copy()
        a_flip[2:] *= -1.0
        b = integrate_orbit(katok_torus_reversible, a_flip, 8.0, tight_config).final_state
        b[2:] *= -1.0
        assert phase_space_distance(b, y0, x2_period=4.0) <= 1e-6

    def test_orbit_csv_schema(self, h0_sphere, tight_config, tmp_path):
        trace = integrate_orbit(h0_sphere, np.array([0.0, 0.0, 1.0, 0.0]), 1.0, tight_config)
        out = tmp_path / "orbit.csv"
        trace.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x1,x2,xi1,xi2,lift_x1,lift_x2,H,H1"
        assert len(lines) == len(trace.times) + 1
        assert all(len(line.split(",")) == 9 for line in lines[1:])


def _sha256(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


class _Coupled:
    """Coupled nonlinear oscillators in basic arithmetic: x1'' = -x1 - x1^3, x2'' = -(1 + x1^2) x2."""

    def vector_field(self, y):
        x1, x2, p1, p2 = y[:, 0], y[:, 1], y[:, 2], y[:, 3]
        return np.stack([p1, p2, -x1 - x1 * x1 * x1, -x2 * (1.0 + x1 * x1)], axis=-1)


class TestEnsemble:
    def test_matches_per_orbit_integration(self, katok_sphere, fast_config, rng):
        states = sample_covectors(rng, 5, x2_range=(-0.5, 0.5))
        ens = integrate_ensemble(katok_sphere, states, 10.0, fast_config)
        for i, y0 in enumerate(states):
            solo = integrate_orbit(katok_sphere, y0, 10.0, fast_config)
            assert phase_space_distance(ens.states[-1, i], solo.final_state) <= 1e-6

    def test_drift_small(self, h0_torus, fast_config, rng):
        states = sample_covectors(rng, 20, x2_range=(0.0, 4.0))
        ens = integrate_ensemble(h0_torus, states, 20.0, fast_config)
        h = np.asarray(h0_torus.value(ens.states))
        assert np.max(np.abs(h - h[0]) / np.abs(h[0])) <= 1e-5

    @pytest.mark.parametrize("T", [6.0, -6.0], ids=["forward", "backward"])
    @pytest.mark.parametrize("method, tol", [("RK45", 1e-8), ("DOP853", 1e-9)])
    def test_orbit_is_independent_of_its_company(self, h0_torus, method, tol, T):
        config = IntegratorConfig(method=method, rel_tol=tol, abs_tol=tol)
        cloud = sample_covectors(np.random.default_rng(11), 7, x2_range=(0.0, 4.0))
        alone = [integrate_ensemble(h0_torus, y0[None, :], T, config).states[:, 0] for y0 in cloud]
        for rows in ([0, 1, 2, 3, 4, 5, 6], [6, 5, 4, 3, 2, 1, 0], [5, 2], [3, 3, 0, 6, 1]):
            ens = integrate_ensemble(h0_torus, cloud[rows], T, config)
            for j, i in enumerate(rows):
                assert ens.states[:, j].tobytes() == alone[i].tobytes(), (rows, j)

    def test_samples_are_pinned(self):
        # integrate_ensemble's bytes on a seeded cloud, pinned from the version
        # before march_rows took a stop rule: a run without one takes the same
        # steps.  The field is basic arithmetic, so the step controller's pow
        # is the only numpy kernel whose bits differ between CPUs; the pins
        # hold where it gives the pinning host's bits (AVX-512, numpy 2.4)
        x = np.geomspace(1e-6, 50.0, 2001)
        probe = np.stack([x ** e for e in (-1 / 5, -1 / 8, 1 / 5, 1 / 8)])
        if _sha256(probe) != "8c32721e362a090534161ec3e68dcd47ec74eb92f0fbac26b91e146de4859901":
            pytest.skip("numpy's pow kernel differs from the pinning host's")
        cloud = np.random.default_rng(17).uniform(-1.0, 1.0, (40, 4))
        for method, tol, T, digest, work in [
            ("RK45", 1e-8, 10.0, "06e4f42e43f49a25480120a221a9f5fef6ff86f62b26dece3fbf0517a6c2218e", (166, 4606)),
            ("DOP853", 1e-9, -10.0, "7afe4e3a29d9ab3ddf9934c62f52ebf0cb4a33ef7aeb3c1f16c86475fd7841af", (69, 1809)),
        ]:
            config = IntegratorConfig(method=method, rel_tol=tol, abs_tol=tol)
            trace = integrate_ensemble(_Coupled(), cloud, T, config)
            assert (trace.iterations, trace.orbit_attempts) == work
            assert _sha256(trace.states) == digest, method

    def test_work_counters_repeat_and_add_up(self, h0_torus, fast_config):
        cloud = sample_covectors(np.random.default_rng(12), 6, x2_range=(0.0, 4.0))
        a = integrate_ensemble(h0_torus, cloud, 8.0, fast_config)
        b = integrate_ensemble(h0_torus, cloud, 8.0, fast_config)
        assert (a.iterations, a.orbit_attempts) == (b.iterations, b.orbit_attempts)
        alone = [integrate_ensemble(h0_torus, y0[None, :], 8.0, fast_config) for y0 in cloud]
        assert all(e.orbit_attempts == e.iterations for e in alone)
        assert a.orbit_attempts == sum(e.iterations for e in alone)
        assert a.iterations == max(e.iterations for e in alone)

    def test_failed_orbits_are_isolated(self, h0_sphere, fast_config):
        # the meridian runs into the pole, where its step size underflows; xi = 0 never starts
        good = np.array([0.0, 0.1, 0.8, 0.3])
        meridian = np.array([0.0, 0.0, 0.0, 1.0])
        ens = integrate_ensemble(h0_sphere, [meridian, good, [0.0, 0.2, 0.0, 0.0]], 2.0, fast_config)
        assert ens.errors == {0: StepFailure, 2: ZeroCovector}
        assert ens.failed.tolist() == [True, False, True]
        assert np.isnan(ens.states[:, 2]).all()
        reached = ~np.isnan(ens.states[:, 0, 0])
        assert reached[ens.times < 1.5].all() and not reached[ens.times > math.pi / 2].any()
        alone = integrate_ensemble(h0_sphere, good[None, :], 2.0, fast_config)
        assert ens.states[:, 1].tobytes() == alone.states[:, 0].tobytes()

    def test_spliced_torus_cloud_against_tight_solves(self, h0_torus):
        # the entropy clouds' RK45 1e-8 on 40 orbits over the splice bridge:
        # worst error 1.4e-6 under per-orbit step control, 1.0e-5 when one
        # shared step served the stacked cloud
        cloud = sample_unit_level(h0_torus, np.random.default_rng(3), 40, x2_range=(0.0, 4.0))
        config = IntegratorConfig(method="RK45", rel_tol=1e-8, abs_tol=1e-8)
        ens = integrate_ensemble(h0_torus, cloud, 10.0, config, t_eval=np.arange(11.0))
        tight = IntegratorConfig(rel_tol=1e-13, abs_tol=1e-13, checkpoint_dt=1.0)
        for i, y0 in enumerate(cloud):
            ref = integrate_orbit(h0_torus, y0, 10.0, tight, enforce_drift=False).states
            assert np.max(np.abs(ens.states[:, i] - ref)) <= 3e-6, i

    @pytest.mark.parametrize("t_eval", [[1.0, 2.0, 3.0], [0.0, 2.0, 1.0]], ids=["late", "unsorted"])
    def test_t_eval_runs_from_zero_toward_its_end(self, h0_torus, fast_config, t_eval):
        with pytest.raises(ValueError, match="t_eval"):
            integrate_ensemble(h0_torus, [[0.0, 0.0, 0.3, 0.9]], 3.0, fast_config, t_eval=t_eval)


class TestCommutingFlows:
    def test_alpha_zero_reduces_to_base_flow(self, sphere_profile, h0_sphere, tight_config):
        y0 = np.array([0.0, 0.05, 0.995, 0.05])
        p = compose_commuting_flows(sphere_profile, 0.0, y0, 3.0, cone_a=0.3, config=tight_config)
        direct = integrate_orbit(h0_sphere, y0, 3.0, tight_config)
        assert phase_space_distance(p.array, direct.final_state) <= 1e-8

    def test_angular_flow_is_rigid_shift(self, tight_config):
        h1 = AngularDualMetric()
        y0 = np.array([0.4, -0.3, 0.8, 0.1])
        trace = integrate_orbit(h1, y0, TWO_PI, tight_config)
        expected = y0.copy()
        expected[0] += TWO_PI
        assert np.max(np.abs(trace.final_state - expected)) <= 1e-10

    def test_composition_matches_direct_integration(
        self, sphere_profile, cutoffs, katok_sphere, tight_config, rng
    ):
        states = sample_cone_states(rng, sphere_profile, cutoffs.a0, 5, scale_range=(1.0, 1.0))
        for y0 in states:
            composed = compose_commuting_flows(
                sphere_profile, ALPHA_GOLDEN, y0, TWO_PI, cone_a=cutoffs.a0, config=tight_config
            )
            direct = integrate_orbit(katok_sphere, y0, TWO_PI, tight_config)
            assert phase_space_distance(composed.array, direct.final_state) <= 1e-6

    def test_cone_violation_raised_outside(self, sphere_profile, tight_config):
        y0 = np.array([0.0, 0.0, 0.0, 1.0])  # vertical covector, ratio 0
        with pytest.raises(ConeViolation):
            compose_commuting_flows(sphere_profile, 0.03, y0, 1.0, cone_a=0.3, config=tight_config)


class TestRtolFloor:
    """Every stepper floors rtol at 100 eps with scipy's warning, once.

    The warning names the frame two above the ``__init__`` that floors it:
    the caller of the float stepper's builder, and the line that calls
    ``march_rows`` (it floors in its row stepper).
    """

    @staticmethod
    def _float(rtol):
        return FloatRK45(lambda t, y: [-v for v in y], 0.0, (1.0, 1.0, 1.0, 1.0), 1.0, rtol=rtol, atol=1e-12)

    @staticmethod
    def _warned_line(record) -> str:
        assert record.filename == __file__
        return linecache.getline(record.filename, record.lineno)

    def test_return_step_warns_once_from_its_march(self, katok_sphere):
        # one orbit steps on the float stepper, which floors rtol; a cloud of
        # more than TAIL_ROWS orbits floors in the batch, and its last orbits
        # resume on the float stepper at the floor: a return step warns once, naming its own call
        spec = SectionSpec()
        chart = AnnulusChart(katok_sphere, spec)
        config = IntegratorConfig(method="RK45", rel_tol=1e-17, abs_tol=1e-12)
        u = np.linspace(0.9, 1.1, TAIL_ROWS + 1)
        for states, call in [(chart.point_to_state(1.0, 0.9)[None], "_March("),
                             (np.array([chart.point_to_state(1.0, v) for v in u]), "march_rows(")]:
            with pytest.warns(UserWarning, match="`rtol` is too small") as rec:
                _, taus, ok = ensemble_return_step(katok_sphere, spec, states, config, chart=chart)
            assert ok.all() and (6.0 < taus).all() and (taus < 7.0).all()
            assert len(rec) == 1
            assert rec[0].filename == sections.__file__
            assert call in linecache.getline(rec[0].filename, rec[0].lineno)

    def test_float_stepper_names_its_builders_caller(self):
        with pytest.warns(UserWarning, match="`rtol` is too small") as rec:
            solver = self._float(1e-17)
        assert solver.rtol == 100 * EPS
        assert "self._float(1e-17)" in self._warned_line(rec[0])

    def test_row_stepper_names_the_caller_of_march_rows(self):
        with pytest.warns(UserWarning, match="`rtol` is too small") as rec:
            run = march_rows("RK45", lambda y: -y, np.ones((2, 2)), 1.0, [1.0], rtol=1e-17, atol=1e-12)
        assert np.allclose(run.path[-1], math.exp(-1.0), rtol=1e-10)
        assert "march_rows(" in self._warned_line(rec[0])


class TestPeriodicity:
    def test_round_sphere_flow_is_two_pi_periodic_on_cone(
        self, sphere_profile, h0_sphere, tight_config, rng
    ):
        states = sample_cone_states(rng, sphere_profile, 0.5, 8)
        report = check_periodicity(h0_sphere, states, TWO_PI, tight_config)
        assert report.max_distance <= 1e-6

    def test_rigid_shift_exactly_periodic(self, tight_config):
        h1 = AngularDualMetric()
        report = check_periodicity(h1, np.array([[0.0, 0.3, 0.7, 0.2]]), TWO_PI, tight_config)
        assert report.max_distance <= 1e-12

    def test_spliced_rotating_orbit_not_periodic(self, h0_torus, spliced_profile, tight_config):
        c = 0.2
        y0 = np.array([0.0, 0.0, c, math.sqrt(1.0 - c * c)])
        report = check_periodicity(h0_torus, y0, TWO_PI, tight_config)
        # quadrature oracle: after time 2 pi the orbit sits far from the start
        oracle = reduced_orbit_quadrature(spliced_profile, c, TWO_PI, x2_span=12.0)
        predicted = phase_space_distance(oracle, y0, x2_period=4.0)
        assert report.max_distance == pytest.approx(predicted, abs=1e-5)
        assert report.max_distance > 1e-2


class TestLift:
    def test_equator_endpoint(self, h0_sphere, tight_config):
        trace = integrate_orbit(h0_sphere, np.array([0.0, 0.0, 1.0, 0.0]), 4 * math.pi, tight_config)
        assert np.allclose(trace.lifted_base[-1], [4 * math.pi, 0.0], atol=1e-8)

    def test_reduction_round_trip(self, katok_torus_reversible, fast_config):
        y0 = np.array([0.0, 0.0, 0.6, 0.8])
        trace = integrate_orbit(katok_torus_reversible, y0, 50.0, fast_config)
        relifted = lift_to_cover(trace)
        # same starting cell, so the unwrapped path must reproduce the lift
        assert np.max(np.abs(relifted - trace.lifted_base)) <= 1e-9
        base = trace.base_points
        assert np.max(np.abs(relifted[:, 0] % TWO_PI - base[:, 0])) <= 1e-12

    def test_trapped_orbit_stays_below_turning_point(
        self, katok_torus_reversible, spliced_profile, fast_config
    ):
        from finslerlab.analysis import turning_point_bisect

        c = 0.6
        y0 = np.array([0.0, 0.0, c, math.sqrt(1.0 - c * c)])
        trace = integrate_orbit(katok_torus_reversible, y0, 200.0, fast_config, enforce_drift=False)
        x_star = turning_point_bisect(spliced_profile, c, x_hi=1.75)
        assert np.max(np.abs(trace.lifted_base[:, 1])) <= x_star + 1e-4
        assert x_star == pytest.approx(math.acosh(1.0 / c), abs=1e-12)

    def test_ambiguous_steps_rejected(self):
        base = np.array([[0.0, 0.0], [math.pi * 0.9999, 0.0]])
        with pytest.raises(LiftAmbiguity):
            lift_to_cover(base)

    def test_circle_difference_range(self):
        d = circle_difference(np.array([-7.0, -0.1, 0.0, 3.0, 9.0]), TWO_PI)
        assert np.all(d >= -math.pi) and np.all(d < math.pi)


def _checkpoints(T, config):
    return np.linspace(0.0, T, max(int(abs(T) / config.checkpoint_dt), 1) + 1)


def _reference_orbit(H, y0, T, config):
    """integrate_orbit as one solve_ivp call: checkpoints as t_eval, the pole cap as event."""
    return solve_ivp(
        H.scalar_rhs(), (0.0, T), y0, method=config.method, rtol=config.rel_tol,
        atol=config.abs_tol, t_eval=_checkpoints(T, config),
        events=pole_cap_event(H, config),
    )


class TestFlowAgainstFullSolve:
    """integrate_orbit and each integrate_ensemble orbit match one scipy solve_ivp call of
    their own up to the order of the stage sums.

    The lab sums stages term by term in stage order, scipy with ``np.dot``, so
    the states differ in the last bits and the gap grows along the orbit; the
    sample times and the bookkeeping stay bit for bit.
    """

    @pytest.mark.parametrize("T", [25.0, -25.0])
    @pytest.mark.parametrize("method, tol", [("DOP853", 1e-12), ("RK45", 1e-8)])
    def test_orbit_bitwise(self, katok_sphere, method, tol, T):
        config = IntegratorConfig(method=method, rel_tol=tol, abs_tol=tol)
        y0 = np.array([0.3, 0.2, 0.7, 0.6])
        trace = integrate_orbit(katok_sphere, y0, T, config, enforce_drift=False)
        sol = _reference_orbit(katok_sphere, y0, T, config)
        assert sol.status == 0
        assert trace.times.tobytes() == sol.t.tobytes()
        # largest gap measured: 2.8e-13 (DOP853, T = -25)
        assert np.max(np.abs(trace.states - sol.y.T)) <= 1e-12
        assert trace.h_values.tobytes() == np.asarray(katok_sphere.value(trace.states)).tobytes()

    @pytest.mark.parametrize("method, tol", [("DOP853", 1e-12), ("RK45", 1e-8)])
    def test_pole_cap_bitwise(self, h0_sphere, method, tol):
        config = IntegratorConfig(method=method, rel_tol=tol, abs_tol=tol)
        y0 = np.array([0.0, 0.0, 0.0, 1.0])  # the meridian reaches the cap near t = pi/2
        with pytest.raises(PoleProximity) as info:
            integrate_orbit(h0_sphere, y0, 2.0, config)
        sol = _reference_orbit(h0_sphere, y0, 2.0, config)
        assert sol.status == 1
        # the cap times agree to 2 ulp (measured); x2 moves at cosh(30) ~ 5e12
        # there, so that leaves x2 within 5.2e-4 (measured) and xi within 1e-16
        gap = info.value.state - sol.y_events[0][0]
        assert abs(info.value.time - sol.t_events[0][0]) <= 1e-15
        assert abs(info.value.time - 2.0 * math.atan(math.tanh(15.0))) <= 10 * tol  # gd(30)
        assert abs(gap[1]) <= 1e-2
        assert np.max(np.abs(gap[[0, 2, 3]])) <= 1e-15

    @pytest.mark.parametrize("t_eval", [None, np.arange(6.0)], ids=["checkpoints", "arange"])
    def test_ensemble_rows_match_single_orbit_solves(self, katok_sphere, fast_config, t_eval):
        # each orbit is stepped as solve_ivp steps it alone; only the order of
        # the stage sums differs, which moves an error norm in its last bits
        states = sample_covectors(np.random.default_rng(4), 12, x2_range=(-0.5, 0.5))
        ens = integrate_ensemble(katok_sphere, states, 5.0, fast_config, t_eval=t_eval)
        grid = _checkpoints(5.0, fast_config) if t_eval is None else t_eval
        assert ens.times.tobytes() == grid.tobytes()
        for i, y0 in enumerate(states):
            sol = solve_ivp(
                stacked_rhs(katok_sphere, 1), (0.0, 5.0), y0,
                method=fast_config.method, rtol=fast_config.rel_tol, atol=fast_config.abs_tol,
                t_eval=grid,
            )
            assert sol.status == 0
            assert np.max(np.abs(ens.states[:, i] - sol.y.T)) <= 1e-11


def _rows_of(rhs):
    """The float RHS ``rhs(t, y)`` as march_rows' derivative of an (m, 4) batch, row by row."""
    return lambda y: np.array([rhs(0.0, row) for row in map(tuple, y.tolist())], dtype=float)


def _counting_flushes(monkeypatch):
    """Record the number of steps in each flush of _March's held steps."""
    flushes = []
    sample_held = flow._sample_held

    def counting(method, fun, ts, path, held):
        flushes.append(sum(len(first) for _, _, first, _ in held))
        sample_held(method, fun, ts, path, held)

    monkeypatch.setattr(flow, "_sample_held", counting)
    return flushes


class TestHeldSampling:
    """A single orbit holds its covering steps and samples them in flushes, as march_rows samples its rows."""

    @pytest.mark.parametrize("T", [40.0, -40.0], ids=["forward", "backward"])
    @pytest.mark.parametrize("method, tol", [("RK45", 1e-9), ("DOP853", 1e-11)])
    def test_flushes_are_a_one_row_march_rows_run(self, katok_torus_reversible, monkeypatch, method, tol, T):
        # a sample grid finer than the steps, with every step end on it: each
        # of the 706-996 steps covers samples, so the held steps fill the
        # flush budget several times over
        rhs = katok_torus_reversible.scalar_rhs()
        y0 = np.array([0.0, 0.0, 0.1, 0.99])  # climbs the lift, to |x2| = 60 at |t| = 40
        solver = ORBIT_STEPPERS[method](rhs, 0.0, y0, T, rtol=tol, atol=tol)
        ends = []
        while solver.status == "running":
            solver.step()
            ends.append(solver.t)
        ts = np.union1d(np.linspace(0.0, T, 401), ends)
        ts = ts if T > 0 else ts[::-1]
        flushes = _counting_flushes(monkeypatch)
        march = _March(rhs, y0, T, IntegratorConfig(method=method, rel_tol=tol, abs_tol=tol), ts)
        while march.step():
            pass
        assert len(flushes) >= 4 and sum(flushes) == len(ends)
        rows = march_rows(method, _rows_of(rhs), y0[None], T, ts, rtol=tol, atol=tol)
        assert march.path.tobytes() == rows.path[:, 0].tobytes()

    @pytest.mark.parametrize("T", [40.0, -40.0], ids=["forward", "backward"])
    @pytest.mark.parametrize("method, tol", [("RK45", 1e-9), ("DOP853", 1e-11)])
    def test_cap_keeps_every_sample_before_it(self, katok_torus_reversible, monkeypatch, method, tol, T):
        # a cap at three quarters of the orbit's height in the lift: the capped
        # march flushes before the cap and at it, and keeps the bits of the free one
        rhs = katok_torus_reversible.scalar_rhs()
        config = IntegratorConfig(method=method, rel_tol=tol, abs_tol=tol)
        y0 = np.array([0.0, 0.0, 0.1, 0.99])
        ts = np.linspace(0.0, T, 4001)
        free = _March(rhs, y0, T, config, ts)
        while free.step():
            pass
        cap = 0.75 * float(np.max(np.abs(free.path[:, 1])))
        flushes = _counting_flushes(monkeypatch)
        capped = _March(rhs, y0, T, config, ts, cap=cap)
        while capped.step():
            pass
        assert capped.capped is not None and len(flushes) >= 3
        t_cap, state = capped.capped
        n = capped.n
        assert abs(ts[n - 1]) <= abs(t_cap) < abs(ts[n])
        assert capped.path[:n].tobytes() == free.path[:n].tobytes()
        assert abs(abs(state[1]) - cap) <= 1e-12


def _is_scipy(name) -> bool:
    return isinstance(name, str) and (name == "scipy" or name.startswith("scipy."))


def test_no_library_module_imports_solve_ivp():
    # every solve steps the lab's own stepper (flow._March or solvers.march_rows), and no module
    # imports scipy in any form: statement, deferred or by name
    for path in sorted(Path(finslerlab.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        assert "solve_ivp" not in names, path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert not any(_is_scipy(a.name) for a in node.names), path.name
            elif isinstance(node, ast.ImportFrom):
                assert not _is_scipy(node.module), path.name
            elif isinstance(node, ast.Call):
                args = [a.value for a in node.args if isinstance(a, ast.Constant)]
                assert not any(_is_scipy(a) for a in args), path.name


def test_import_leaves_scipy_unloaded():
    code = (
        "import sys, finslerlab, finslerlab.cli; "
        "print(sorted(k for k in sys.modules if k == 'scipy' or k.startswith('scipy.')))"
    )
    src = str(Path(finslerlab.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env, timeout=120
    )
    assert out.stdout.strip() == "[]"
