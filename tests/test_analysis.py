import math
import tracemalloc

import numpy as np
import pytest

from finslerlab import analysis
from finslerlab.analysis import (
    DirectionEstimate,
    TubeSpec,
    WitnessBall,
    asymptotic_direction,
    bounded_deviation,
    entropy_separated_sets,
    exact_separated_cardinality,
    invariant_graph_test,
    pairwise_orbit_distance,
    rotation_number,
    rotation_number_from_displacements,
    tube_diagnostics,
    turning_point_bisect,
    wrapped_metric,
)
from finslerlab.benchmarks import (
    CAT_ENTROPY,
    cat_map,
    doubling_map,
    iterate_map_segments,
    rigid_rotation,
    twist_map,
)
from finslerlab.errors import EmptySample, InsufficientCloud, MapFailure, NotConverged, StepFailure
from finslerlab.flow import TWO_PI, IntegratorConfig, integrate_ensemble, integrate_orbit, phase_space_distance
from finslerlab.sampling import sample_tube_states, solve_xi2_on_level


class TestRotationNumber:
    def test_rigid_rotation_exact(self):
        est = rotation_number(rigid_rotation(0.25), 0.0, 40)
        assert est.value == 0.25
        assert est.error_bound == 0.0
        assert est.reduction == 0.25

    def test_twist_map_row(self):
        est = rotation_number(twist_map(), (0.2, 1.0 / 3.0), 60)
        assert est.value == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_lift_choice_invariance(self):
        base = rigid_rotation(0.375)

        def shifted(x):
            x_new, d = base(x)
            return x_new, d - 2.0

        a = rotation_number(base, 0.0, 64)
        b = rotation_number(shifted, 0.0, 64)
        assert a.reduction == pytest.approx(b.reduction, abs=1e-14)
        assert b.value == pytest.approx(a.value - 2.0, abs=1e-14)

    def test_error_bound_scales_with_lift_range(self):
        # displacements oscillate around the mean with range 1
        seq = [0.5, -0.5] * 50
        est = rotation_number_from_displacements(seq)
        assert est.value == 0.0
        assert est.error_bound == pytest.approx(0.5 / 100, abs=1e-15)

    def test_map_failure_carries_index(self):
        def flaky(x):
            if x > 0.7:
                raise StepFailure("boom")
            return x + 0.3, 0.3

        with pytest.raises(MapFailure) as info:
            rotation_number(flaky, 0.0, 50)
        assert info.value.index == 3  # 0.0 -> 0.3 -> 0.6 -> 0.9 raises

    def test_programming_error_propagates(self):
        def broken(x):
            if x > 0.7:
                return x + None, 0.3
            return x + 0.3, 0.3

        with pytest.raises(TypeError) as info:
            rotation_number(broken, 0.0, 50)
        assert not isinstance(info.value, MapFailure)

    def test_too_few_iterates_rejected(self):
        with pytest.raises(ValueError):
            rotation_number(rigid_rotation(0.1), 0.0, 5)

    def test_perturbed_sphere_section_consistency(self, katok_sphere):
        # estimates from 1e3 and 1e4 iterates of the section map agree; the
        # map is an integrable twist, so the Birkhoff averages converge fast.
        # Statistics-tier tolerances: the twist structure is robust to the
        # tiny per-iterate state drift this costs.
        from finslerlab.sections import SectionSpec, iterate_section_map

        spec = SectionSpec(kind="equator_birkhoff", max_return_time=8.0)
        cfg = IntegratorConfig(method="DOP853", rel_tol=1e-7, abs_tol=1e-7)
        orbit = iterate_section_map(katok_sphere, spec, (1.0, 0.9), 10_000, cfg)
        short = rotation_number_from_displacements(orbit.displacements[:1000])
        full = rotation_number_from_displacements(orbit.displacements)
        assert abs(full.value - short.value) <= 1e-3


class TestAsymptoticDirection:
    def test_equator_orbit(self, h0_sphere, tight_config):
        trace = integrate_orbit(h0_sphere, np.array([0.0, 0.0, 1.0, 0.0]), 40.0, tight_config)
        est = asymptotic_direction(trace)
        assert np.allclose(est.direction, [1.0, 0.0], atol=1e-12)
        assert est.residual <= 1e-12

    def test_vertical_rotating_orbit(self, h0_torus, tight_config):
        y0 = np.array([1.0, 0.2, 0.0, float(h0_torus.profile.f(0.2))])
        trace = integrate_orbit(h0_torus, y0, 60.0, tight_config)
        est = asymptotic_direction(trace)
        assert abs(est.direction[0]) <= 1e-12
        assert est.direction[1] == pytest.approx(1.0, abs=1e-12)

    def test_not_converged_raised(self):
        # a quarter-turn arc has wildly different dyadic chords; the residual
        # is reported, and a check on it is the caller's
        t = np.linspace(0.0, math.pi / 2, 200)
        path = np.stack([np.cos(t), np.sin(t)], axis=1)
        est = asymptotic_direction(path, t)
        assert isinstance(est, DirectionEstimate)
        assert est.residual > 0.1

    def test_zero_chord_raises(self):
        path = np.zeros((10, 2))
        with pytest.raises(NotConverged):
            asymptotic_direction(path)


class TestBoundedDeviation:
    def test_equator_line(self, h0_sphere, tight_config):
        trace = integrate_orbit(h0_sphere, np.array([0.0, 0.0, 1.0, 0.0]), 30.0, tight_config)
        assert bounded_deviation(trace, (1.0, 0.0)).sup_distance <= 1e-10

    def test_trapped_orbit_bounded_by_turning_point(
        self, katok_torus_reversible, spliced_profile, fast_config
    ):
        c = 0.6
        y0 = np.array([0.0, 0.0, c, 0.8])
        trace = integrate_orbit(katok_torus_reversible, y0, 150.0, fast_config, enforce_drift=False)
        x_star = turning_point_bisect(spliced_profile, c, x_hi=1.75)
        dev = bounded_deviation(trace, (1.0, 0.0))
        assert dev.sup_distance <= x_star + 1e-6


def _greedy_set(segs, T, eps, metric):
    """The estimator's (T, eps) set at its first T, where farthest-first starts unseeded.

    The second T only keeps the estimator's slope fit well posed.
    """
    return entropy_separated_sets(segs, [T, T + 1], [eps], metric).sets[(T, eps)]


class TestSeparatedSets:
    def test_greedy_set_is_separated_and_maximal(self, rng):
        cloud = rng.uniform(0.0, 1.0, (300, 1))
        segs = iterate_map_segments(lambda p: doubling_map(p), cloud, 4)
        metric = wrapped_metric([1.0])
        T, eps = 3, 0.05
        sel = _greedy_set(segs, T, eps, metric)
        dmat = pairwise_orbit_distance(segs, T, metric)
        sub = dmat[np.ix_(sel, sel)]
        np.fill_diagonal(sub, np.inf)
        assert np.min(sub) > eps  # separated
        rest = np.setdiff1d(np.arange(len(cloud)), sel)
        assert np.all(np.min(dmat[np.ix_(rest, sel)], axis=1) <= eps)  # maximal

    def test_exact_enumeration_dominates_greedy(self, rng):
        cloud = rng.uniform(0.0, 1.0, (14, 1))
        segs = iterate_map_segments(lambda p: doubling_map(p), cloud, 4)
        metric = wrapped_metric([1.0])
        for T, eps in [(0, 0.1), (2, 0.1), (3, 0.2)]:
            g = len(_greedy_set(segs, T, eps, metric))
            exact = exact_separated_cardinality(segs, T, eps, metric)
            assert g <= exact <= 14
            assert exact <= 2 * g  # farthest-first is a 2-approximation

    def test_monotonicity_invariants(self, rng):
        cloud = rng.uniform(0.0, 1.0, (500, 2))
        segs = iterate_map_segments(cat_map, cloud, 4)
        est = entropy_separated_sets(
            segs, T_list=range(5), eps_list=[0.4, 0.25, 0.15], metric=wrapped_metric([1.0, 1.0])
        )
        by = {(T, e): s for (T, e, s) in est.table}
        for eps in (0.4, 0.25, 0.15):
            counts = [by[(T, eps)] for T in range(5)]
            assert all(b >= a for a, b in zip(counts, counts[1:]))  # nondecreasing in T
        for T in range(5):
            row = [by[(T, e)] for e in (0.4, 0.25, 0.15)]
            assert all(b >= a for a, b in zip(row, row[1:]))  # nondecreasing as eps shrinks
        assert len(est.sets[(3, 0.25)]) <= by[(3, 0.25)]  # a count is the envelope over coarser eps

    def test_single_time_rejected(self, rng):
        # a log-count slope through one T value is not defined
        cloud = rng.uniform(0.0, 1.0, (300, 1))
        segs = iterate_map_segments(doubling_map, cloud, 4)
        for T_list in ([3], [3, 3]):
            with pytest.raises(ValueError, match="two distinct T"):
                entropy_separated_sets(segs, T_list, [0.05], wrapped_metric([1.0]))

    def test_identity_map_estimate_zero(self, rng):
        cloud = rng.uniform(0.0, 1.0, (1200, 1))
        segs = iterate_map_segments(lambda p: p, cloud, 6)
        est = entropy_separated_sets(segs, range(7), [1 / 16, 1 / 32], wrapped_metric([1.0]))
        assert abs(est.value) <= 0.02

    def test_doubling_map_estimate(self, rng):
        cloud = rng.uniform(0.0, 1.0, (2000, 1))
        segs = iterate_map_segments(lambda p: doubling_map(p), cloud, 6)
        est = entropy_separated_sets(segs, range(7), [1 / 16, 1 / 32, 1 / 64], wrapped_metric([1.0]))
        assert abs(est.value / math.log(2.0) - 1.0) <= 0.15

    def test_cat_map_estimate(self, rng):
        cloud = rng.uniform(0.0, 1.0, (2000, 2))
        segs = iterate_map_segments(cat_map, cloud, 4)
        est = entropy_separated_sets(segs, [1, 2, 3, 4], [0.35, 0.3], wrapped_metric([1.0, 1.0]))
        assert abs(est.value / CAT_ENTROPY - 1.0) <= 0.10

    def test_insufficient_cloud_raises(self, rng):
        cloud = rng.uniform(0.0, 1.0, (40, 1))
        segs = iterate_map_segments(lambda p: doubling_map(p), cloud, 3)
        with pytest.raises(InsufficientCloud):
            entropy_separated_sets(segs, range(4), [1e-6], wrapped_metric([1.0]))

    def test_empty_cloud_raises(self):
        with pytest.raises(EmptySample):
            entropy_separated_sets(np.empty((0, 3, 1)), [0], [0.1], wrapped_metric([1.0]))

    def test_csv_schema(self, rng, tmp_path):
        cloud = rng.uniform(0.0, 1.0, (200, 1))
        segs = iterate_map_segments(lambda p: doubling_map(p), cloud, 3)
        est = entropy_separated_sets(segs, range(4), [0.1], wrapped_metric([1.0]))
        path = tmp_path / "ent.csv"
        est.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "T,eps,s,slope"
        assert len(lines) == 5


def _reference_pairwise(segments, T, periods):
    """The per-slice (N, N) formula the distance kernel reproduces bit for bit
    on coordinates reduced into [0, p] (see :func:`_reduced`)."""
    return _reference_pairwise_rows(segments, T, periods, slice(None))


def _reference_pairwise_rows(segments, T, periods, rows):
    """The rows ``rows`` of :func:`_reference_pairwise`."""

    def metric(a, b):
        total = 0.0
        for j, p in enumerate(periods):
            d = a[..., j] - b[..., j]
            if p is not None:
                d = (d + p / 2.0) % p - p / 2.0
            total = total + d * d
        return np.sqrt(total)

    dmat = np.zeros((len(segments[rows]), len(segments)))
    for t in range(T + 1):
        pts = segments[:, t, :]
        np.maximum(dmat, metric(pts[rows][:, None, :], pts[None, :, :]), out=dmat)
    return dmat


def _reduced(segments, periods):
    """Segments with each periodic coordinate reduced by ``np.mod``, as the kernel does."""
    out = np.array(segments, dtype=float)
    for j, p in enumerate(periods):
        if p is not None:
            out[..., j] = np.mod(out[..., j], p)
    return out


def _reference_sets(segments, T_list, eps_list, periods):
    """Farthest-first sets grown along T on full reference distance matrices."""
    seeds = {eps: () for eps in eps_list}
    sets = {}
    for T in sorted(T_list):
        dmat = _reference_pairwise(_reduced(segments, periods), T, periods)
        for eps in sorted(eps_list, reverse=True):
            sets[(T, eps)] = analysis._farthest_first_set(dmat, len(dmat), eps, seeds[eps])
            seeds[eps] = tuple(sets[(T, eps)])
    return sets


def _flow_like_cloud(rng, n, horizon, period):
    """Orbit segments shaped like the torus flow clouds: lifted x1 (wide), x2 on
    a period and two linear covector coordinates."""
    t = np.arange(horizon + 1.0)
    x1 = rng.uniform(0.0, TWO_PI, (n, 1)) + rng.normal(0.0, 0.4, (n, 1)) * t
    x2 = rng.uniform(0.0, period, (n, 1)) + 0.3 * np.sin(rng.uniform(0.1, 1.0, (n, 1)) * t)
    xi1 = np.repeat(rng.uniform(-1.0, 1.0, (n, 1)), horizon + 1, axis=1)
    xi2 = np.cos(rng.uniform(0.1, 1.0, (n, 1)) * t)
    return np.stack([x1, x2, xi1, xi2], axis=-1)


def _edge_cloud():
    """Slices whose wrap lands on every branch edge of numpy's remainder.

    Coordinate 0 (period 1): a slice in [0, p) holding 0, -0.0, p/2, 1 - 2^-53
    (differences reach x = p exactly, x = 3p/2 - 2^-53 and x = 0), the same
    slice shifted to +-1.5p (lifted: the kernel reduces it), and a slice
    whose reduction has spread exactly p: -2^-60 reduces to p itself, and
    0.5 - 0 reaches x = p again.  Coordinate 1 (period 3): 0 and 1.5 + 2^-52
    give x = -2^-52, where fl(x + 3) rounds up to p itself.  Coordinate 2 is
    linear.
    """
    base = np.array([0.0, -0.0, 0.5, 1.0 - 2.0**-53, 2.0**-53, 0.25, 0.75, 0.125])
    # the base slice lifted by 1.5p, with 1 - 2^-51 where 1.5 + (1 - 2^-53) would round to 2.5
    high = 1.5 + np.array([0.0, 0.5, 1.0 - 2.0**-51, 0.25, 0.75, 0.125, 2.0**-51, 0.375])
    full = np.array([0.0, 0.5, 0.25, -2.0**-60, 0.75, 1.0 - 2.0**-53, 2.0**-53, 0.125])
    c0 = np.stack([base, high, base - 1.5, full, base * 0.999])
    c1 = np.stack([np.array([0.0, 1.5 + 2.0**-52] * 4)] * 5)
    c1[1] = [0.0, 1.5, 3.0 - 2.0**-51, 2.9, -0.0, 1e-300, 1.5 - 2.0**-52, 0.1]
    c2 = np.stack([np.linspace(-1.0, 1.0, 8)] * 5)
    return np.stack([c0.T, c1.T, c2.T], axis=-1), [1.0, 3.0, None]


# cloud sizes for the all-rows kernel at T = 3: a tile holds all 4 slices of
# _BLOCK_ENTRIES // (4 N) rows, so 1 and 7 fit one tile, 181 = 4 * 45 + 1 and
# 313 = 12 * 26 + 1 end in a one-row tile, 182 and 314 in a two-row tile
_BLOCK_SIZES = [1, 7, 181, 182, 313, 314]


class TestDistanceKernel:
    @pytest.mark.parametrize("n", _BLOCK_SIZES)
    def test_blocks_match_reference_bitwise(self, rng, n):
        segs = iterate_map_segments(cat_map, rng.uniform(0.0, 1.0, (n, 2)), 3)
        got = pairwise_orbit_distance(segs, 3, wrapped_metric([1.0, 1.0]))
        want = _reference_pairwise(segs, 3, [1.0, 1.0])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_wrap_edges_match_reference_bitwise(self):
        segs, periods = _edge_cloud()
        metric = wrapped_metric(periods)
        reduced = _reduced(segs, periods)
        got = pairwise_orbit_distance(segs, 4, metric)
        assert np.array_equal(got.view(np.int64), _reference_pairwise(reduced, 4, periods).view(np.int64))
        spans = np.ptp(reduced, axis=0)
        assert np.all(spans[[0, 1, 2, 4], 0] < 1.0) and spans[3, 0] == 1.0 and spans[0, 1] < 3.0
        assert reduced[3, 3, 0] == 1.0  # np.mod(-tiny, p) is p itself
        # the called metric is the same formula
        pts = segs[:, 1, :]
        assert metric(pts[:, None], pts[None]).tobytes() == _reference_pairwise(segs[:, 1:2], 0, periods).tobytes()

    def test_wide_and_linear_coordinates_match_reference_bitwise(self, rng):
        period = 2.0 * math.pi * 0.9
        segs = _flow_like_cloud(rng, 300, 12, period)
        assert np.ptp(segs[:, -1, 0]) > TWO_PI  # lifted x1, reduced once by the kernel
        periods = [TWO_PI, period, None, None]
        got = pairwise_orbit_distance(segs, 12, wrapped_metric(periods))
        want = _reference_pairwise(_reduced(segs, periods), 12, periods)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        with pytest.raises(ValueError):
            pairwise_orbit_distance(segs, 13, wrapped_metric(periods))

    def test_incremental_windows_match_reference_bitwise(self, rng):
        segs = _flow_like_cloud(rng, 250, 9, 4.0)
        periods = [TWO_PI, 4.0, None, None]
        reduced = _reduced(segs, periods)
        dist = analysis._OrbitDistances(segs, 9, periods)
        dmat = np.zeros((250, 250))
        for t_lo, t_hi in [(0, 0), (1, 3), (4, 3), (4, 9)]:
            dist.raise_rows(dmat, np.arange(250), t_lo, t_hi)
            if t_hi >= t_lo:
                want = _reference_pairwise(reduced, t_hi, periods)
                assert np.array_equal(dmat.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("cloud", ["cat", "doubling", "flow"])
    def test_entropy_tables_and_sets_match_reference(self, rng, cloud):
        if cloud == "cat":
            segs = iterate_map_segments(cat_map, rng.uniform(0.0, 1.0, (600, 2)), 4)
            periods, T_list, eps_list = [1.0, 1.0], [1, 2, 3, 4], [0.35, 0.3]
        elif cloud == "doubling":
            segs = iterate_map_segments(doubling_map, rng.uniform(0.0, 1.0, (500, 1)), 6)
            periods, T_list, eps_list = [1.0], list(range(7)), [1 / 16, 1 / 32]
        else:
            segs = _flow_like_cloud(rng, 400, 20, 4.0)
            periods, T_list, eps_list = [TWO_PI, 4.0, None, None], [0, 5, 10, 20], [0.5, 0.3]
        est = entropy_separated_sets(segs, T_list, eps_list, wrapped_metric(periods))
        ref = _reference_sets(segs, T_list, eps_list, periods)
        assert est.sets.keys() == ref.keys()
        assert all(np.array_equal(est.sets[k], ref[k]) for k in ref)
        for T in T_list:
            running = 0
            for eps in sorted(eps_list, reverse=True):
                running = max(running, len(ref[(T, eps)]))
                assert (T, eps, running) in est.table

    def test_lifted_input_moves_distances_by_a_few_ulp(self, rng):
        # the reduction replaces fl(a - b) of two lifts by the difference of
        # their reductions: each wrapped difference moves by at most about
        # 7 ulp(L), L the largest lift, so the distance by at most about
        # 12 ulp(L) with squares, sum and sqrt; this cloud (lifts to ~45 over
        # 41 slices) moves about a quarter of its entries, by at most 1.4 ulp(L)
        period = 2.0 * math.pi * 0.9
        segs = _flow_like_cloud(rng, 300, 40, period)
        periods = [TWO_PI, period, None, None]
        lift = float(np.max(np.abs(segs[..., :2])))
        assert lift > 4.0 * TWO_PI
        got = pairwise_orbit_distance(segs, 40, wrapped_metric(periods))
        old = _reference_pairwise(segs, 40, periods)
        assert np.max(np.abs(got - old)) <= 4.0 * np.spacing(lift)

    def test_rows_on_demand_read_the_same_rows(self, rng):
        cat = iterate_map_segments(cat_map, rng.uniform(0.0, 1.0, (1500, 2)), 4)
        ident = iterate_map_segments(lambda p: p, rng.uniform(0.0, 1.0, (1000, 1)), 6)
        for segs, periods, T_list, eps_list in [
            (cat, [1.0, 1.0], [1, 2, 3, 4], [0.35, 0.3]),
            (ident, [1.0], list(range(7)), [1 / 16, 1 / 32]),
        ]:
            est = entropy_separated_sets(segs, T_list, eps_list, wrapped_metric(periods))
            ref = _reference_sets(segs, T_list, eps_list, periods)
            assert est.sets.keys() == ref.keys()
            assert all(np.array_equal(est.sets[k], ref[k]) for k in ref)
        # a row read late is computed over every slice so far
        dist = analysis._OrbitDistances(cat, 4, [1.0, 1.0])
        dist.advance(2)
        early = dist[5].copy()
        dist.advance(4)
        want = _reference_pairwise(cat, 4, [1.0, 1.0])
        assert np.array_equal(dist[5], want[5]) and np.array_equal(dist[700], want[700])
        assert np.array_equal(early, _reference_pairwise(cat, 2, [1.0, 1.0])[5])

    def test_rows_split_across_slice_tiles(self, rng):
        # a row of N points over more than _BLOCK_ENTRIES // N slices is tiled along time
        n = analysis._BLOCK_ENTRIES // 4 + 3
        segs = _flow_like_cloud(rng, n, 9, 4.0)
        periods = [TWO_PI, 4.0, None, None]
        dist = analysis._OrbitDistances(segs, 9, periods)
        dist.advance(9)
        pick = [0, 17, n - 1]
        reduced = _reduced(segs, periods)
        for i in pick:
            want = _reference_pairwise_rows(reduced, 9, periods, [i])[0]
            assert np.array_equal(dist[i].view(np.int64), want.view(np.int64))

    def test_entropy_peak_memory_below_one_matrix(self, rng):
        segs = iterate_map_segments(cat_map, rng.uniform(0.0, 1.0, (2000, 2)), 4)
        tracemalloc.start()
        try:
            entropy_separated_sets(segs, [1, 2, 3, 4], [0.35, 0.3], wrapped_metric([1.0, 1.0]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2000 * 2000 * 8

    def test_peak_memory_stays_near_output(self, rng):
        segs = iterate_map_segments(cat_map, rng.uniform(0.0, 1.0, (1500, 2)), 3)
        metric = wrapped_metric([1.0, 1.0])
        tracemalloc.start()
        try:
            dmat = pairwise_orbit_distance(segs, 3, metric)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * dmat.nbytes


class TestInvariantGraphs:
    def _level_states(self, profile, c, side=192):
        xx1, xx2 = np.meshgrid(
            np.linspace(0.0, TWO_PI, side, endpoint=False),
            np.linspace(0.0, 4.0, side, endpoint=False),
        )
        f = np.asarray(profile.f(xx2.ravel()))
        return np.stack(
            [xx1.ravel(), xx2.ravel(), np.full(xx1.size, c), np.sqrt(f**2 - c**2)], axis=1
        )

    def test_level_set_is_graph_at_both_resolutions(self, spliced_profile):
        states = self._level_states(spliced_profile, 0.2)
        for nb in (32, 128):
            rep = invariant_graph_test(states, x2_period=4.0, bins=(nb, nb))
            assert rep.is_graph
            assert rep.lipschitz_estimate < 5.0

    def test_two_branch_union_rejected(self, spliced_profile):
        states = self._level_states(spliced_profile, 0.2)
        both = np.concatenate([states, states * np.array([1.0, 1.0, 1.0, -1.0])])
        rep = invariant_graph_test(both, x2_period=4.0, bins=(32, 32))
        assert not rep.is_graph
        assert rep.max_fiber_gap > 1.0

    def test_long_rotating_orbit_is_graph(self, katok_torus_reversible, fast_config):
        y0 = np.array([0.0, 0.0, 0.2, math.sqrt(1.0 - 0.04)])
        cfg = fast_config.with_(checkpoint_dt=0.05)
        trace = integrate_orbit(katok_torus_reversible, y0, 1500.0, cfg, enforce_drift=False)
        reports = [
            invariant_graph_test(trace.states, x2_period=4.0, bins=(nb, nb)) for nb in (32, 128)
        ]
        assert all(r.is_graph for r in reports)
        # Lipschitz estimate stays of the same order under refinement
        lips = [r.lipschitz_estimate for r in reports]
        assert 0.0 < lips[1] < 5.0 * lips[0] + 1.0

    def test_empty_sample_raises(self):
        with pytest.raises(EmptySample):
            invariant_graph_test(np.empty((0, 4)), x2_period=4.0)


class TestTubeDiagnostics:
    def test_conserved_gap_bounds_min_distance(self, katok_torus_reversible, rng):
        tube = TubeSpec(c_lo=0.3, c_hi=0.9)
        states = sample_tube_states(katok_torus_reversible, rng, 24, (0.35, 0.85), x2_period=4.0)
        report = tube_diagnostics(
            katok_torus_reversible, tube, states, [0.05, 0.1, 0.2], [], ensemble_time=10.0
        )
        assert np.all(report.min_boundary_dists >= report.initial_gaps - 1e-6)
        assert np.all(np.diff(report.boundary_fraction) >= 0.0)

    def test_witness_ball_distance_from_conservation(self, katok_torus_reversible, rng):
        tube = TubeSpec(c_lo=0.3, c_hi=0.9)
        c = 0.55
        y0 = np.array([0.0, 0.0, c, solve_xi2_on_level(katok_torus_reversible, 0.0, 0.0, c)])
        balls = [
            WitnessBall(center=np.array([2.0, 1.0, c + 0.1, 0.3]), radius=0.05),
            WitnessBall(center=np.array([1.0, 0.5, c - 0.2, -0.4]), radius=0.08),
        ]
        report = tube_diagnostics(
            katok_torus_reversible, tube, y0[None, :], [0.1], balls,
            ensemble_time=5.0, long_time=60.0,
        )
        (c1, r1, d1), (c2, r2, d2) = report.witness_distances
        assert d1 >= 0.1 - r1 - 1e-6
        assert d2 >= 0.2 - r2 - 1e-6
        # independent route: the same start as a 1-orbit ensemble
        stacked = integrate_ensemble(katok_torus_reversible, y0[None, :], 60.0).states[:, 0, :]
        for (_, _, d), ball in zip(report.witness_distances, balls):
            ref = np.min(phase_space_distance(stacked, ball.center, 4.0)) - ball.radius
            assert d == pytest.approx(ref, abs=1e-6)

    def test_failed_orbit_is_counted_and_left_out(self, katok_torus_reversible, rng):
        tube = TubeSpec(c_lo=0.3, c_hi=0.9)
        good = sample_tube_states(katok_torus_reversible, rng, 3, (0.35, 0.85), x2_period=4.0)
        states = np.insert(good, 1, [0.0, 0.0, 0.0, 0.0], axis=0)  # xi = 0 cannot start
        report = tube_diagnostics(katok_torus_reversible, tube, states, [0.1], [], ensemble_time=2.0)
        alone = tube_diagnostics(katok_torus_reversible, tube, good, [0.1], [], ensemble_time=2.0)
        assert report.n_failed == 1 and alone.n_failed == 0
        assert report.min_boundary_dists.tobytes() == alone.min_boundary_dists.tobytes()
        assert report.boundary_fraction.tobytes() == alone.boundary_fraction.tobytes()
        assert report.initial_gaps[[0, 2, 3]].tobytes() == alone.initial_gaps.tobytes()

    def test_programming_error_in_batch_propagates(self, katok_torus_reversible, rng, monkeypatch):
        def broken_batch(*args, **kwargs):
            raise TypeError("bad argument")

        monkeypatch.setattr(analysis, "integrate_ensemble", broken_batch)
        states = sample_tube_states(katok_torus_reversible, rng, 2, (0.35, 0.85), x2_period=4.0)
        with pytest.raises(TypeError):
            tube_diagnostics(katok_torus_reversible, TubeSpec(0.3, 0.9), states, [0.1], [])

    def test_collar_fraction_statistics(self, katok_torus_reversible, rng):
        # uniform xi1 sampling: the eps-collar of the boundary holds about
        # 2 eps / (c_hi - c_lo) of the ensemble
        c_lo, c_hi = 0.35, 0.85
        tube = TubeSpec(c_lo=c_lo, c_hi=c_hi)
        states = sample_tube_states(katok_torus_reversible, rng, 500, (c_lo, c_hi), x2_period=4.0)
        report = tube_diagnostics(
            katok_torus_reversible, tube, states, [0.05], [], ensemble_time=2.0
        )
        frac = report.boundary_fraction[0]
        p = 2 * 0.05 / (c_hi - c_lo)
        sigma = math.sqrt(p * (1 - p) / 500)
        assert frac <= 2.0 * p + 4.0 * sigma

    def test_empty_ensemble_raises(self, katok_torus_reversible):
        with pytest.raises(EmptySample):
            tube_diagnostics(
                katok_torus_reversible, TubeSpec(0.3, 0.9), np.empty((0, 4)), [0.1], []
            )


class TestTurningPoint:
    def test_matches_inverse_sech(self, sphere_profile):
        for c in (0.2, 0.6, 0.9):
            assert turning_point_bisect(sphere_profile, c) == pytest.approx(
                math.acosh(1.0 / c), abs=1e-12
            )

    def test_out_of_range_rejected(self, sphere_profile):
        with pytest.raises(ValueError):
            turning_point_bisect(sphere_profile, 1.5)
