import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerlab.errors import ConvexityLost, SeamMismatch, ZeroCovector
from finslerlab.metrics import (
    ALPHA_GOLDEN,
    AngularDualMetric,
    CotangentPoint,
    DualMetric,
    KatokDualMetric,
    RotationalDualMetric,
    build_katok_family,
    cone_membership,
    cone_ratio,
    critical_alpha_scan,
    fiber_convexity_check,
    fiber_hessian_fd,
    metric_from_spec,
    reversibilize,
    unit_covector,
)
from finslerlab.profiles import eval_f0, make_cutoffs
from finslerlab.sampling import sample_cone_states, sample_covectors, sample_outside_cone_states

COSH1 = math.cosh(1.0)


class TestRotationalMetric:
    def test_equator_unit_covector(self, h0_sphere):
        assert h0_sphere.value(np.array([0.0, 0.0, 1.0, 0.0])) == 1.0

    def test_value_at_height_one(self, h0_sphere):
        # |xi| = 0.5 over x2 = 1 where f = sech(1)
        v = h0_sphere.value(np.array([2.0, 1.0, 0.3, 0.4]))
        assert v == pytest.approx(0.5 * COSH1, abs=1e-15)
        assert v == pytest.approx(0.771540317, abs=1e-9)

    def test_zero_covector_rejected(self, h0_sphere):
        with pytest.raises(ZeroCovector):
            h0_sphere.value(np.array([0.0, 0.0, 0.0, 0.0]))
        with pytest.raises(ZeroCovector):
            h0_sphere.grad_xi(np.array([0.0, 0.5, 0.0, 0.0]))

    @given(st.floats(0.01, 50.0))
    @settings(max_examples=100, deadline=None)
    def test_homogeneity(self, h0_sphere, a):
        y = np.array([0.7, 0.4, 0.6, -0.8])
        ya = y.copy()
        ya[2:] *= a
        assert h0_sphere.value(ya) == pytest.approx(a * h0_sphere.value(y), rel=1e-12)

    def test_gradients_match_finite_differences(self, h0_sphere, rng):
        states = sample_covectors(rng, 50)
        _assert_gradients_match(h0_sphere, states, tol=1e-7)


class TestAngularMetric:
    def test_values(self):
        h1 = AngularDualMetric()
        assert h1.value(np.array([0.0, 0.0, 1.0, 0.0])) == 1.0
        assert h1.value(np.array([0.0, 3.0, 0.0, 5.0])) == 0.0

    def test_generates_rigid_shift(self):
        h1 = AngularDualMetric()
        rhs = h1.scalar_rhs()
        assert rhs(0.0, [0.0, 1.0, 0.5, 0.5]) == [1.0, 0.0, 0.0, 0.0]


class TestConeMembership:
    def test_equator_circular_covector_inside(self, sphere_profile):
        # ratio = f0(0) * 1 = 1 >= f0(0.5) = 0.8868...
        assert cone_membership(sphere_profile, 0.5, np.array([0.0, 0.0, 1.0, 0.0]))
        assert eval_f0(0.5) == pytest.approx(0.88681888, abs=1e-7)

    def test_vertical_covector_never_inside(self, sphere_profile, rng):
        for _ in range(20):
            x2 = rng.uniform(-0.4, 0.4)
            assert not cone_membership(sphere_profile, 0.5, np.array([0.0, x2, 0.0, 1.0]))

    def test_boundary_height_needs_exact_circular_direction(self, sphere_profile):
        a = 0.5
        # at |x2| = a the cone degenerates to the positive-xi1 ray
        assert cone_membership(sphere_profile, a, np.array([0.0, a, 2.0, 0.0]))
        assert not cone_membership(sphere_profile, a, np.array([0.0, a, 1.0, 1e-3]))
        assert not cone_membership(sphere_profile, a, np.array([0.0, a, -1.0, 0.0]))

    def test_ratio_scale_invariant(self, sphere_profile):
        y = np.array([0.0, 0.2, 0.9, 0.1])
        ya = y.copy()
        ya[2:] *= 7.3
        assert cone_ratio(sphere_profile, y) == pytest.approx(
            cone_ratio(sphere_profile, ya), rel=1e-14
        )


class TestKatokFamily:
    def test_alpha_zero_is_unperturbed(self, sphere_profile, cutoffs, h0_sphere, rng):
        metric = build_katok_family(sphere_profile, cutoffs, 0.0)
        states = sample_covectors(rng, 200)
        assert np.array_equal(metric.value(states), h0_sphere.value(states))

    def test_inner_cone_closed_form(self, sphere_profile, cutoffs, katok_sphere, h0_sphere, rng):
        states = sample_cone_states(rng, sphere_profile, cutoffs.a0, 300)
        lhs = np.asarray(katok_sphere.value(states))
        rhs = np.asarray(h0_sphere.value(states)) + ALPHA_GOLDEN * states[:, 2]
        assert np.max(np.abs(lhs - rhs)) <= 1e-14

    def test_outside_inner_cone_untouched_exactly(self, sphere_profile, cutoffs, katok_sphere, h0_sphere, rng):
        states = sample_outside_cone_states(rng, sphere_profile, cutoffs.a1, 1000, x2_range=(-2.5, 2.5))
        gap = np.abs(np.asarray(katok_sphere.value(states)) - np.asarray(h0_sphere.value(states)))
        assert np.max(gap) == 0.0

    def test_strip_band_is_unperturbed(self, sphere_profile, cutoffs, katok_sphere, h0_sphere, rng):
        # heights between a1 and b force the ratio below the step's support
        n = 200
        x2 = rng.uniform(cutoffs.a1 + 1e-9, cutoffs.b, n) * rng.choice([-1.0, 1.0], n)
        theta = rng.uniform(0, 2 * math.pi, n)
        states = np.stack([np.zeros(n), x2, np.cos(theta), np.sin(theta)], axis=1)
        gap = np.abs(np.asarray(katok_sphere.value(states)) - np.asarray(h0_sphere.value(states)))
        assert np.max(gap) == 0.0

    def test_perturbation_continuous_past_strip_edge(self, sphere_profile, cutoffs, katok_sphere, h0_sphere, rng):
        # just beyond |x2| = b the indicator has jumped but the product was
        # already identically zero
        for delta in (1e-9, 1e-3, 0.1):
            states = sample_covectors(rng, 50, x2_range=(cutoffs.b + delta, cutoffs.b + delta + 0.2))
            gap = np.abs(np.asarray(katok_sphere.value(states)) - np.asarray(h0_sphere.value(states)))
            assert np.max(gap) == 0.0

    def test_homogeneity_and_euler(self, katok_sphere, rng):
        states = sample_covectors(rng, 1000, x2_range=(-1.8, 1.8))
        scales = rng.uniform(0.3, 3.0, 1000)
        scaled = states.copy()
        scaled[:, 2] *= scales
        scaled[:, 3] *= scales
        h = np.asarray(katok_sphere.value(states))
        homo = np.max(np.abs(np.asarray(katok_sphere.value(scaled)) - scales * h) / (scales * h))
        assert homo <= 1e-10
        g = katok_sphere.grad_xi(states)
        euler = np.max(np.abs(states[:, 2] * g[:, 0] + states[:, 3] * g[:, 1] - h) / h)
        assert euler <= 1e-10

    def test_gradients_match_finite_differences_in_band(self, sphere_profile, cutoffs, katok_sphere):
        # adversarial states inside the step's transition band
        lo, hi = cutoffs.eta.lo, cutoffs.eta.hi
        states = []
        for ratio in np.linspace(lo + 0.01, hi - 0.01, 12):
            for x2 in (-0.9, 0.0, 0.7):
                cos_theta = ratio / float(eval_f0(x2))
                if cos_theta >= 1.0 - 1e-9:
                    continue  # no covector with that ratio exists over x2
                theta = math.acos(cos_theta)
                states.append([0.3, x2, math.cos(theta), math.sin(theta)])
        assert len(states) >= 20
        _assert_gradients_match(katok_sphere, np.array(states), tol=1e-6)

    def test_scalar_rhs_matches_vector_field(self, katok_sphere, rng):
        rhs = katok_sphere.scalar_rhs()
        states = sample_covectors(rng, 100, x2_range=(-2.0, 2.0))
        for y in states:
            expected = katok_sphere.vector_field(y)
            got = rhs(0.0, list(y))
            assert np.max(np.abs(np.asarray(got) - expected)) <= 1e-14

    def test_convexity_gate_rejects_large_alpha(self, sphere_profile, cutoffs):
        with pytest.raises(ConvexityLost):
            build_katok_family(sphere_profile, cutoffs, 0.5)

    def test_profile_must_match_sphere_near_strip(self, spliced_profile):
        with pytest.raises(ValueError):
            build_katok_family(spliced_profile, make_cutoffs(0.4, 1.0, 1.9), 0.01)

    def test_metric_json_round_trip(self, katok_sphere):
        spec = katok_sphere.to_spec()
        assert spec["kind"] == "katok"
        rebuilt = metric_from_spec(spec)
        y = np.array([0.1, 0.2, 0.8, 0.3])
        assert rebuilt.value(y) == katok_sphere.value(y)


class TestReversibilization:
    def test_even_on_random_samples(self, katok_sphere, rng):
        rev = reversibilize(katok_sphere)
        states = sample_covectors(rng, 1000, x2_range=(-2.0, 2.0))
        mirrored = states.copy()
        mirrored[:, 2:] *= -1.0
        gap = np.abs(np.asarray(rev.value(states)) - np.asarray(rev.value(mirrored)))
        assert np.max(gap) <= 1e-12

    def test_unchanged_on_forward_half(self, katok_sphere, rng):
        rev = reversibilize(katok_sphere)
        states = sample_covectors(rng, 300)
        states[:, 2] = np.abs(states[:, 2])
        assert np.array_equal(rev.value(states), katok_sphere.value(states))

    def test_reversible_input_unchanged_pointwise(self, sphere_profile, cutoffs, rng):
        h_alpha0 = build_katok_family(sphere_profile, cutoffs, 0.0)
        rev = reversibilize(h_alpha0)
        states = sample_covectors(rng, 300)
        assert np.max(np.abs(np.asarray(rev.value(states)) - np.asarray(h_alpha0.value(states)))) == 0.0

    def test_seam_mismatch_detected(self):
        class Lopsided(RotationalDualMetric):
            def value(self, y):
                base = super().value(y)
                return base + 1e-6 * np.asarray(y)[..., 3]

        from finslerlab.profiles import RoundSphereProfile

        with pytest.raises(SeamMismatch):
            reversibilize(Lopsided(RoundSphereProfile()))

    def test_gradients_match_finite_differences(self, katok_sphere, rng):
        rev = reversibilize(katok_sphere)
        states = sample_covectors(rng, 60, x2_range=(-1.5, 1.5))
        states = states[np.abs(states[:, 2]) > 0.05]  # keep FD stencils off the seam
        _assert_gradients_match(rev, states, tol=1e-6)

    def test_scalar_rhs_matches_vector_field(self, katok_sphere, katok_torus_reversible, rng):
        # the torus states reach across the splice bridge |x2| in [1.75, 2.25]
        cases = [
            (reversibilize(katok_sphere), sample_covectors(rng, 100)),
            (katok_torus_reversible, sample_covectors(rng, 200, x2_range=(-2.25, 2.25))),
        ]
        for rev, states in cases:
            rhs = rev.scalar_rhs()
            for y in states:
                expected = rev.vector_field(y)
                got = rhs(0.0, list(y))
                assert np.max(np.abs(np.asarray(got) - expected)) <= 1e-14


class TestConvexityScan:
    def test_round_metric_eigenvalues_are_inverse_profile_squared(self, h0_sphere, sphere_profile):
        states = np.array([[0.0, x2, math.cos(t), math.sin(t)] for x2 in (-1.0, 0.0, 0.5) for t in (0.3, 2.0)])
        hess = fiber_hessian_fd(h0_sphere, states)
        f = np.asarray(sphere_profile.f(states[:, 1]))
        expected = 1.0 / f**2
        for k in range(len(states)):
            eig = np.linalg.eigvalsh(hess[k])
            assert eig[0] == pytest.approx(expected[k], rel=1e-5)
            assert eig[1] == pytest.approx(expected[k], rel=1e-5)

    def test_default_family_passes(self, katok_sphere, rng):
        states = sample_covectors(rng, 1000, x2_range=(-2.0, 2.0))
        report = fiber_convexity_check(katok_sphere, states)
        assert report.passed
        assert report.n_samples == 1000

    def test_critical_alpha_scan_brackets_failure(self, sphere_profile, cutoffs):
        lo, hi = critical_alpha_scan(sphere_profile, cutoffs, tol=1e-2)
        assert 0.0 < lo < hi
        states = None  # default scan states
        good = KatokDualMetric(sphere_profile, cutoffs, lo)
        bad = KatokDualMetric(sphere_profile, cutoffs, hi)
        from finslerlab.metrics import _default_convexity_states

        states = _default_convexity_states(sphere_profile, cutoffs)
        assert fiber_convexity_check(good, states).passed
        assert not fiber_convexity_check(bad, states).passed


class TestLegendreVelocity:
    """The fiber gradient ``grad_xi`` is the base velocity of the flow state."""

    def test_equator_unit_velocity(self, h0_sphere):
        v = h0_sphere.grad_xi(np.array([0.0, 0.0, 1.0, 0.0]))
        assert np.allclose(v, [1.0, 0.0], atol=1e-15)

    @given(st.floats(0.1, 3.0), st.floats(-1.2, 1.2), st.floats(0.0, 2 * math.pi))
    @settings(max_examples=100, deadline=None)
    def test_euler_identity(self, h0_sphere, rho, x2, theta):
        y = np.array([0.0, x2, rho * math.cos(theta), rho * math.sin(theta)])
        v = h0_sphere.grad_xi(y)
        assert y[2] * v[0] + y[3] * v[1] == pytest.approx(float(h0_sphere.value(y)), rel=1e-12)

    def test_cone_velocity_shifted_by_alpha(self, sphere_profile, cutoffs, katok_sphere, h0_sphere, rng):
        states = sample_cone_states(rng, sphere_profile, cutoffs.a0, 50)
        v_pert = katok_sphere.grad_xi(states)
        v_base = h0_sphere.grad_xi(states)
        expected = v_base + np.array([ALPHA_GOLDEN, 0.0])
        assert np.max(np.abs(v_pert - expected)) <= 1e-12


class TestCotangentPoint:
    def test_array_round_trip(self):
        p = CotangentPoint(7.0, -0.3, 0.2, 0.9)
        assert CotangentPoint(*p.array.tolist()) == p

    def test_reduction(self):
        p = CotangentPoint(2 * math.pi + 0.25, 4.0 + 1.5, 1.0, 0.0)
        b1, b2 = p.reduced(x2_period=4.0)
        assert b1 == pytest.approx(0.25, abs=1e-12)
        assert b2 == pytest.approx(1.5, abs=1e-12)
        b1_only, b2_raw = p.reduced()
        assert b2_raw == 5.5

    def test_unit_covector_lands_on_level(self, katok_sphere):
        y = unit_covector(katok_sphere, 0.3, 0.1, 0.2)
        assert float(katok_sphere.value(y)) == pytest.approx(1.0, abs=1e-15)


FIELD_KINDS = ["h0_sphere", "h0_torus", "katok_sphere", "katok_torus_reversible", "angular"]


def _field_metric(request, name):
    return AngularDualMetric() if name == "angular" else request.getfixturevalue(name)


def _field_states(rng, cutoffs, spliced_profile):
    """Random states plus the edges of every branch of the equations.

    xi1 = +-0 (reversibilization seam), |x2| = b (chi edge), L/2 +- eps (ends
    of the splice bridge) and ratio = f0(a1), f0(a0) (ends of the eta step).
    """
    half, eps = spliced_profile.period / 2.0, spliced_profile.eps_splice
    b = cutoffs.b
    x2s = [0.0, b, -b, np.nextafter(b, 3.0), half - eps, -(half - eps), half + eps, -(half + eps),
           np.nextafter(half - eps, 0.0), half]
    special = []
    for x2 in x2s:
        for xi1, xi2 in [(0.0, 1.0), (-0.0, 1.0), (0.0, -0.7), (-0.0, -1.3), (0.6, 0.8), (-0.6, -0.8)]:
            special.append([0.3, x2, xi1, xi2])
        for a in (cutoffs.a1, cutoffs.a0):
            c = float(eval_f0(a)) / float(spliced_profile.f(x2))
            for cos_theta in (np.nextafter(c, 0.0), c, np.nextafter(c, 2.0)):
                if cos_theta < 1.0:
                    s = math.sqrt(1.0 - cos_theta**2)
                    special.append([1.1, x2, cos_theta, s])
                    special.append([1.1, x2, -cos_theta, -s])
    return np.concatenate([np.array(special), sample_covectors(rng, 400, x2_range=(-2.5, 2.5))])


def _pow_states():
    """6,000 seeded states, xi1 of both signs.

    Among them are states (5 to 8 per kind, about one in 1,000) where libm's
    pow and numpy's square or cube kernel give different last bits for f**2
    or R**3, so a state evaluated with 0-d profile values (Python floats,
    raised by libm) would not be its batch row.
    """
    return sample_covectors(np.random.default_rng(11), 6000, x2_range=(-2.5, 2.5))


class TestVectorField:
    @pytest.mark.parametrize("name", FIELD_KINDS)
    def test_batch_matches_rows_bitwise(self, request, name, rng, cutoffs, spliced_profile):
        # one state is evaluated as a batch of one row: the same bits alone and
        # in any company
        H = _field_metric(request, name)
        states = np.concatenate([_field_states(rng, cutoffs, spliced_profile), _pow_states()])
        batch = H.vector_field(states)
        assert batch.shape == states.shape
        rows = np.array([H.vector_field(y) for y in states])
        assert all(H.vector_field(y).shape == (4,) for y in states[:3])
        assert rows.tobytes() == batch.tobytes()
        # march_rows' case: a one-row batch, and the rows in another company
        alone = np.concatenate([H.vector_field(states[i : i + 1]) for i in range(len(states))])
        assert alone.tobytes() == batch.tobytes()
        order = rng.permutation(len(states))[: len(states) // 3]
        assert H.vector_field(states[order]).tobytes() == batch[order].tobytes()
        m = 2 * (len(states) // 2)
        grid = H.vector_field(states[:m].reshape(2, m // 2, 4))
        assert grid.shape == (2, m // 2, 4)
        assert grid.tobytes() == batch[:m].tobytes()

    @pytest.mark.parametrize("name", FIELD_KINDS)
    def test_gradients_are_slices(self, request, name, rng, cutoffs, spliced_profile):
        H = _field_metric(request, name)
        states = _field_states(rng, cutoffs, spliced_profile)
        vf = H.vector_field(states)
        assert np.array_equal(H.grad_xi(states), vf[:, :2])
        assert np.array_equal(H.grad_x(states), -vf[:, 2:])
        # xi1 is conserved exactly: every kind is x1-invariant
        assert np.all(vf[:, 2] == 0.0)

    @pytest.mark.parametrize("name", FIELD_KINDS[:-1])
    def test_zero_covector_rejected(self, request, name):
        H = _field_metric(request, name)
        with pytest.raises(ZeroCovector):
            H.vector_field(np.array([0.0, 0.5, 0.0, 0.0]))
        batch = np.array([[0.0, 0.5, 0.6, 0.8], [0.0, 0.5, -0.0, 0.0]])
        with pytest.raises(ZeroCovector):
            H.vector_field(batch)

    def test_reversibilized_rows_with_and_without_mirrored_company(self, katok_torus_reversible, rng, cutoffs, spliced_profile):
        # a batch with no xi1 < 0 row skips the mirror and a batch of xi1 < 0
        # rows mirrors them all; either keeps its rows' bytes beside the other
        # rows, and alone (as one-row batches and as single states)
        H = katok_torus_reversible
        states = np.concatenate([_field_states(rng, cutoffs, spliced_profile), _pow_states()])
        for mirrored in (False, True):
            keep = (states[:, 2] < 0.0) == mirrored
            rows = states[keep]
            assert 0 < len(rows) < len(states)
            mixed = H.vector_field(states)[keep]
            assert H.vector_field(rows).tobytes() == mixed.tobytes()
            alone = np.concatenate([H.vector_field(rows[i : i + 1]) for i in range(len(rows))])
            assert alone.tobytes() == mixed.tobytes()
            assert np.array([H.vector_field(y) for y in rows]).tobytes() == mixed.tobytes()

    @pytest.mark.parametrize("name", FIELD_KINDS)
    def test_scalar_route_matches(self, request, name, rng, cutoffs, spliced_profile):
        # scalar_rhs is the independent pure-math route to the same equations.
        # Not the same bits: it takes libm's exp and tanh where vector_field
        # takes numpy's kernels.  Measured on 3 x 20,000 seeded states: up to
        # 5 ulp on the sphere, and up to 2,384 ulp (relative 4.7e-13) in a
        # component near a zero of f' on the torus, but at most 3.3e-15 of the
        # row's largest component
        H = _field_metric(request, name)
        states = _field_states(rng, cutoffs, spliced_profile)
        states = np.concatenate([states, sample_covectors(rng, 200, x2_range=(-2.25, 2.25))])
        vf = H.vector_field(states)
        rhs = H.scalar_rhs()
        got = np.array([rhs(0.0, list(y)) for y in states])
        assert np.max(np.abs(got - vf)) <= 1e-14
        assert np.all(np.max(np.abs(got - vf), axis=1) <= 1e-14 * np.max(np.abs(vf), axis=1))

    def test_angular_fallback_stacks_gradients(self):
        # the bits the stacked gradients gave: (grad_xi, -grad_x) with grad_x = +0.0
        h1 = AngularDualMetric()
        vf = h1.vector_field(np.array([[0.0, 1.0, 0.5, 0.5], [2.0, -1.0, -3.0, 0.0]]))
        assert vf.tobytes() == np.array([[1.0, 0.0, -0.0, -0.0]] * 2).tobytes()
        assert h1.grad_x(vf).tobytes() == np.zeros((2, 2)).tobytes()
        # the base class has no equations, not a recursion
        with pytest.raises(NotImplementedError):
            DualMetric().grad_x(np.array([0.0, 1.0, 0.5, 0.5]))


def _assert_gradients_match(H, states, tol):
    h = 1e-6
    for y in np.atleast_2d(states):
        gx = H.grad_x(y)
        gxi = H.grad_xi(y)
        for j, grad in ((1, gx[1]), (2, gxi[0]), (3, gxi[1])):
            yp, ym = y.copy(), y.copy()
            yp[j] += h
            ym[j] -= h
            fd = (float(H.value(yp)) - float(H.value(ym))) / (2 * h)
            assert fd == pytest.approx(grad, abs=tol), f"coordinate {j}"
        # x1-independence
        assert gx[0] == 0.0
