import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerlab.errors import InvalidBand, InvalidSplice
from finslerlab.profiles import (
    RoundSphereProfile,
    eval_f0,
    eval_f0_deriv,
    eval_h,
    make_cutoffs,
    make_eta,
    make_spliced_profile,
    profile_from_spec,
    smooth_step,
    smooth_step_deriv,
    smooth_step_pair,
    smooth_step_pair_array,
)

# f0(1) evaluated through the independent sech route, frozen
F0_AT_1 = 1.0 / math.cosh(1.0)  # 0.6480542736638855


class TestSphereProfile:
    def test_peak_value(self):
        assert eval_f0(0.0) == 1.0

    @pytest.mark.parametrize("t", [0.5, 1.0, 3.0])
    def test_evenness(self, t):
        assert eval_f0(-t) == pytest.approx(eval_f0(t), abs=1e-15)

    def test_value_at_one_against_sech(self):
        assert eval_f0(1.0) == pytest.approx(F0_AT_1, abs=2e-16)
        assert eval_f0(1.0) == pytest.approx(0.64805427366388, abs=1e-14)

    def test_large_argument_stability(self):
        # naive 2 e^t/(1+e^2t) overflows near t = 710; the stable form must not
        for t in (700.0, 800.0, -800.0):
            v = eval_f0(t)
            assert 0.0 <= v <= 2.0 * math.exp(-abs(t)) * 1.0000001

    def test_strictly_decreasing_on_positive_axis(self):
        grid = np.linspace(0.0, 20.0, 2001)
        vals = eval_f0(grid)
        assert np.all(np.diff(vals) < 0.0)
        assert vals[0] == 1.0 == np.max(vals)

    def test_derivative_matches_finite_differences(self):
        g = np.linspace(-3.0, 3.0, 13)
        fd = (eval_f0(g + 1e-6) - eval_f0(g - 1e-6)) / 2e-6
        assert np.max(np.abs(fd - eval_f0_deriv(g))) < 1e-9


class TestAntiderivative:
    def test_zero_at_origin(self):
        assert eval_h(0.0) == 0.0

    @pytest.mark.parametrize("t", [-1.0, 0.0, 2.0])
    def test_derivative_is_profile(self, t):
        d = 1e-6
        fd = (eval_h(t + d) - eval_h(t - d)) / (2.0 * d)
        assert fd == pytest.approx(eval_f0(t), abs=1e-8)

    @pytest.mark.parametrize("t", [0.0, 1.0, 5.0])
    def test_cosine_identity(self, t):
        assert math.cos(eval_h(t)) == pytest.approx(eval_f0(t), abs=1e-12)

    @given(st.floats(-30.0, 30.0))
    @settings(max_examples=200, deadline=None)
    def test_odd(self, t):
        assert eval_h(-t) == pytest.approx(-eval_h(t), abs=1e-12)

    def test_range(self):
        assert -math.pi / 2 < eval_h(-20.0) < eval_h(20.0) < math.pi / 2
        # saturates to the open-interval endpoints at double precision
        assert abs(eval_h(-40.0)) <= math.pi / 2

    def test_total_meridian_length(self):
        # distance from the equator to either pole in the model
        assert eval_h(60.0) == pytest.approx(math.pi / 2, abs=1e-12)


class TestSmoothStep:
    def test_exact_ends(self):
        assert smooth_step(0.0) == 0.0
        assert smooth_step(-3.0) == 0.0
        assert smooth_step(1.0) == 1.0
        assert smooth_step(7.0) == 1.0

    @given(st.floats(-1.0, 2.0))
    @settings(max_examples=200, deadline=None)
    def test_range_and_derivative_sign(self, u):
        assert 0.0 <= smooth_step(u) <= 1.0
        assert smooth_step_deriv(u) >= 0.0

    def test_derivative_matches_finite_differences(self):
        g = np.linspace(0.05, 0.95, 19)
        fd = (smooth_step(g + 1e-7) - smooth_step(g - 1e-7)) / 2e-7
        assert np.max(np.abs(fd - smooth_step_deriv(g))) < 1e-6

    def test_scalar_pair_matches_numpy_step(self):
        # flat ends are exact, also where a bump factor underflows
        for u in (-3.0, -1e-300, 0.0, 1e-3, 5e-324):
            assert smooth_step_pair(u) == (0.0, 0.0)
        for u in (1.0 - 1e-3, 1.0, 7.0):
            assert smooth_step_pair(u) == (1.0, 0.0)
        g = np.linspace(-0.5, 1.5, 20_001)
        pair = np.array([smooth_step_pair(float(u)) for u in g])
        w, dw = smooth_step(g), smooth_step_deriv(g)
        assert np.max(np.abs(pair[:, 0] - w)) <= 1e-15
        # dw peaks at 2, so its agreement is relative above 1
        assert np.max(np.abs(pair[:, 1] - dw) / np.maximum(1.0, dw)) <= 1e-15

    def test_array_pair_exact_ends(self):
        below = np.array([-7.0, -1e-300, -0.0, 0.0])
        above = np.array([1.0, 1.0 + 1e-15, 7.0, np.inf])
        w, dw = smooth_step_pair_array(np.concatenate([below, above]))
        assert w.tolist() == [0.0] * 4 + [1.0] * 4
        assert dw.tolist() == [0.0] * 8
        assert smooth_step_pair_array(0.0) == (0.0, 0.0)
        assert smooth_step_pair_array(1.0) == (1.0, 0.0)

    def test_array_pair_quiet_at_subnormal_and_near_one(self):
        u = np.array([5e-324, 1e-310, 1e-300, 1.0 - 1e-16, 1.0 - 2.0**-53])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, dw = smooth_step_pair_array(u)
            single = [smooth_step_pair_array(float(v)) for v in u]
        assert w.tolist() == [0.0, 0.0, 0.0, 1.0, 1.0]
        assert dw.tolist() == [0.0] * 5
        assert single == list(zip(w.tolist(), dw.tolist()))

    def test_array_pair_matches_scalar_pair(self):
        g = np.linspace(-0.5, 1.5, 20_001)
        edges = [1e-3, 1.0 - 1e-3, 1.0 / 760, 1.0 / 745, 1.0 - 1.0 / 760, 1.0 - 1.0 / 745]
        g = np.concatenate([g, edges])
        pair = np.array([smooth_step_pair(float(u)) for u in g])
        w, dw = smooth_step_pair_array(g)
        assert np.max(np.abs(pair[:, 0] - w)) <= 1e-15
        assert np.max(np.abs(pair[:, 1] - dw) / np.maximum(1.0, dw)) <= 1e-15
        # same flat ends, down to the last subnormal bump value
        assert np.array_equal(pair[:, 0] > 0.0, w > 0.0)
        assert np.array_equal(pair[:, 0] < 1.0, w < 1.0)
        assert np.array_equal(pair[:, 1] > 0.0, dw > 0.0)
        # the two halves are the array step and its derivative, bit for bit
        assert w.tobytes() == smooth_step(g).tobytes()
        assert dw.tobytes() == smooth_step_deriv(g).tobytes()
        w2, dw2 = smooth_step_pair_array(g[9_995:10_001].reshape(2, 3))
        assert w2.shape == dw2.shape == (2, 3)
        assert w2.tobytes() == w[9_995:10_001].tobytes()
        assert dw2.tobytes() == dw[9_995:10_001].tobytes()

    def test_eta_with_deriv_is_scaled_step_pair(self):
        eta = make_eta(0.3, 1.3)
        width = eta.hi - eta.lo
        t = np.linspace(eta.lo - 0.05, eta.hi + 0.05, 2001)
        w, dw = eta.with_deriv(t)
        assert w.tobytes() == eta(t).tobytes()
        assert dw.tobytes() == (smooth_step_deriv((t - eta.lo) / width) / width).tobytes()
        mid = 0.5 * (eta.lo + eta.hi)
        assert eta.with_deriv(mid) == (eta(mid), smooth_step_deriv(0.5) / width)


def _spliced_pair_reference(prof, x2):
    """Spliced (f, f') from the closed forms: f0 off the bridge, the blend on it."""
    L, eps = prof.period, prof.eps_splice
    t = x2 - L * np.round(x2 / L)
    f, fp = np.array(eval_f0(t)), np.array(eval_f0_deriv(t))
    bridge = np.abs(t) > L / 2.0 - eps
    s = np.where(t[bridge] < 0, t[bridge] + L, t[bridge])
    w, dw = smooth_step_pair_array((s - (L / 2.0 - eps)) / (2.0 * eps))
    dw = dw / (2.0 * eps)
    fa, fb = eval_f0(s), eval_f0(s - L)
    f[bridge] = (1.0 - w) * fa + w * fb
    fp[bridge] = (1.0 - w) * eval_f0_deriv(s) + w * eval_f0_deriv(s - L) + dw * (fb - fa)
    return f, fp


class TestSplicedProfile:
    def test_values_inside_splice_zone_are_bitexact(self):
        prof = make_spliced_profile(4.0, 0.25)
        assert prof.f(0.0) == 1.0
        assert prof.f(1.0) == eval_f0(1.0)
        assert prof.f(-1.7) == eval_f0(-1.7)

    def test_periodicity(self):
        prof = make_spliced_profile(4.0, 0.25)
        grid = np.linspace(-2.0, 2.0, 401)
        assert np.max(np.abs(prof.f(grid + 4.0) - prof.f(grid))) <= 1e-12
        assert prof.f(2.0) == prof.f(-2.0)

    def test_positive_on_dense_grid(self):
        prof = make_spliced_profile(4.0, 0.25)
        grid = np.linspace(-2.0, 6.0, 10_000)
        assert np.min(prof.f(grid)) > 0.0

    def test_minimum_from_dense_grid_oracle(self):
        prof = make_spliced_profile(4.0, 0.25)
        grid = np.linspace(-2.0, 2.0, 200_001)
        m = float(np.min(prof.f(grid)))
        assert 0.0 < m <= eval_f0(4.0 / 2.0 - 0.25)
        assert prof.min_value() == pytest.approx(m, rel=1e-6)

    def test_derivative_matches_finite_differences_in_bridge(self):
        prof = make_spliced_profile(4.0, 0.25)
        g = np.linspace(1.76, 2.24, 49)  # bridge zone
        fd = (prof.f(g + 1e-6) - prof.f(g - 1e-6)) / 2e-6
        assert np.max(np.abs(fd - prof.fp(g))) < 1e-6

    def test_scalar_path_agrees_with_vector_path(self):
        prof = make_spliced_profile(4.0, 0.25)
        for x in np.linspace(-6.0, 6.0, 97):
            f, fp = prof.f_fp_scalar(float(x))
            assert f == pytest.approx(float(prof.f(x)), abs=1e-15)
            assert fp == pytest.approx(float(prof.fp(x)), abs=1e-15)

    def test_array_pair_matches_f_and_fp_bitwise(self):
        spliced = make_spliced_profile(4.0, 0.25)
        zone = 2.0 - 0.25
        edges = [0.0, -0.0, zone, np.nextafter(zone, 3.0), -zone, 2.0, -2.0, 2.25, -2.25, 6.0]
        x = np.concatenate([edges, np.linspace(-6.0, 6.0, 4001)])
        for prof in (RoundSphereProfile(), spliced):
            f, fp = prof.f_fp(x)
            assert f.tobytes() == prof.f(x).tobytes()
            assert fp.tobytes() == prof.fp(x).tobytes()
            f2, fp2 = prof.f_fp(x[:4000].reshape(2, 2000))
            assert f2.shape == fp2.shape == (2, 2000)
            assert f2.tobytes() == f[:4000].tobytes() and fp2.tobytes() == fp[:4000].tobytes()
            for xs in edges:
                pair = prof.f_fp(xs)
                assert all(type(v) is float for v in pair)
                assert pair == (prof.f(xs), prof.fp(xs))
        assert np.array(spliced.f_fp(x)).tobytes() == np.array(_spliced_pair_reference(spliced, x)).tobytes()

    @pytest.mark.parametrize("L,eps", [(4.0, 1.0), (4.0, 0.0), (4.0, -0.1), (2.0, 0.6)])
    def test_invalid_splice_rejected(self, L, eps):
        with pytest.raises(InvalidSplice):
            make_spliced_profile(L, eps)

    def test_json_round_trip(self):
        prof = profile_from_spec({"kind": "spliced", "L": 4.0, "eps": 0.25})
        assert prof.to_spec() == {"kind": "spliced", "L": 4.0, "eps": 0.25}
        assert profile_from_spec({"kind": "round_sphere"}).to_spec() == {"kind": "round_sphere"}


class TestEta:
    def test_band_endpoint_values(self):
        eta = make_eta(0.4, 0.8)
        assert eta(float(eval_f0(0.8))) == 0.0
        assert eta(float(eval_f0(0.4))) == 1.0

    def test_below_band(self):
        eta = make_eta(0.4, 0.8)
        assert eta(0.0) == 0.0

    def test_midpoint_interior_and_monotone(self):
        eta = make_eta(0.4, 0.8)
        lo, hi = float(eval_f0(0.8)), float(eval_f0(0.4))
        mid = eta(0.5 * (lo + hi))
        assert 0.0 < mid < 1.0
        grid = np.linspace(lo - 0.1, hi + 0.1, 301)
        fd = np.diff(eta(grid))
        assert np.min(fd) >= -1e-15

    def test_constant_outside_band_bitexact(self):
        eta = make_eta(0.4, 0.8)
        lo, hi = float(eval_f0(0.8)), float(eval_f0(0.4))
        below = eta(np.linspace(-1.0, lo, 50))
        above = eta(np.linspace(hi, 2.0, 50))
        assert np.all(below == 0.0)
        assert np.all(above == 1.0)

    def test_invalid_band_rejected(self):
        with pytest.raises(InvalidBand):
            make_eta(0.8, 0.4)
        with pytest.raises(InvalidBand):
            make_eta(0.0, 0.4)
        with pytest.raises(InvalidBand):
            make_cutoffs(0.4, 0.8, 0.7)


class TestCutoffs:
    def test_chi_is_sharp_indicator(self):
        cut = make_cutoffs(0.3, 1.3, 1.6)
        assert cut.chi(0.0) == 1.0
        assert cut.chi(1.6) == 1.0
        assert cut.chi(1.6000001) == 0.0
        vals = cut.chi(np.array([-2.0, -1.0, 0.5, 1.59, 1.61]))
        assert list(vals) == [0.0, 1.0, 1.0, 1.0, 0.0]
