import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import DOP853 as ScipyDOP853
from scipy.integrate import RK45 as ScipyRK45
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from finslerlab.errors import (
    BranchMismatch,
    ExtrapolationUnstable,
    NoCrossing,
    NonTransverse,
    NotVanishing,
)
from finslerlab.flow import (
    TWO_PI,
    IntegratorConfig,
    _March,
    integrate_orbit,
    phase_space_distance,
    pole_cap,
)
from finslerlab.metrics import ALPHA_GOLDEN
from finslerlab.sections import (
    AnnulusChart,
    SectionSpec,
    _refine_roots,
    _returns,
    _upward_brackets,
    build_return_map_grid,
    detect_crossing,
    ensemble_return_step,
    first_return,
    iterate_section_map,
    return_time_boundary_extension,
    smooth_divide,
)
from finslerlab import solvers
from finslerlab.solvers import RowInterpolant
from flow_oracles import compose_commuting_flows

SPHERE_SPEC = SectionSpec(kind="equator_birkhoff", max_return_time=8.0)
SCIPY_STEPPERS = {"RK45": ScipyRK45, "DOP853": ScipyDOP853}


class TestChart:
    def test_round_trip_equator(self, katok_sphere):
        chart = AnnulusChart(katok_sphere, SPHERE_SPEC)
        for s, u in [(0.3, 0.4), (5.9, 2.8), (2.0, math.pi / 2)]:
            y = chart.point_to_state(s, u)
            assert float(katok_sphere.value(y)) == pytest.approx(1.0, abs=1e-14)
            s2, u2 = chart.state_to_point(y)
            assert s2 == pytest.approx(s, abs=1e-12)
            assert u2 == pytest.approx(u, abs=1e-12)

    def test_round_trip_meridian(self, katok_torus_reversible):
        spec = SectionSpec(kind="meridian", x1_star=0.0, max_return_time=40.0)
        chart = AnnulusChart(katok_torus_reversible, spec)
        assert 2.5 < chart.circumference < 2.7  # meridian length of the splice
        for s, u in [(0.5, 0.3), (2.0, 1.2), (2.4, 2.6)]:
            y = chart.point_to_state(s, u)
            assert float(katok_torus_reversible.value(y)) == pytest.approx(1.0, abs=1e-14)
            s2, u2 = chart.state_to_point(y)
            assert s2 == pytest.approx(s, abs=1e-9)
            assert u2 == pytest.approx(u, abs=1e-9)

    def test_meridian_circumference_is_profile_length(self, h0_torus, spliced_profile):
        spec = SectionSpec(kind="meridian", max_return_time=40.0)
        chart = AnnulusChart(h0_torus, spec)
        grid = np.linspace(0.0, 4.0, 100_001)
        length = float(np.trapezoid(spliced_profile.f(grid), grid))
        assert chart.circumference == pytest.approx(length, rel=1e-8)

    def test_points_of_states_matches_scalar(self, katok_sphere, rng):
        chart = AnnulusChart(katok_sphere, SPHERE_SPEC)
        pts = np.stack([rng.uniform(0, TWO_PI, 20), rng.uniform(0.2, math.pi - 0.2, 20)], axis=1)
        states = np.array([chart.point_to_state(s, u) for s, u in pts])
        batch = chart.points_of_states(states)
        singles = np.array([chart.state_to_point(y) for y in states])
        assert np.max(np.abs(batch - singles)) <= 1e-12


class TestDetectCrossing:
    def test_upcrossing_against_local_bisection_oracle(self, h0_sphere, tight_config):
        # launch from below the equator heading north-east
        y0 = np.array([0.0, -0.5, 0.3, float(np.sqrt(h0_sphere.profile.f(-0.5) ** 2 - 0.09))])
        event = detect_crossing(h0_sphere, y0, SPHERE_SPEC, tight_config)
        assert abs(event.state[1]) <= 1e-10
        # independent oracle: raw solve_ivp dense output + bisection in this test
        sol = solve_ivp(
            h0_sphere.scalar_rhs(), (0.0, 3.0), y0, method="DOP853",
            rtol=1e-12, atol=1e-12, dense_output=True,
        )
        t_oracle = brentq(lambda t: sol.sol(t)[1], 0.1, 3.0, xtol=1e-13)
        assert event.time == pytest.approx(t_oracle, abs=1e-9)

    def test_boundary_orbit_is_non_transverse(self, h0_sphere, tight_config):
        with pytest.raises(NonTransverse):
            first_return(h0_sphere, SPHERE_SPEC, (1.0, 0.0), tight_config)

    def test_no_crossing_reported(self, h0_torus, tight_config):
        # xi1 = 0 orbit never crosses a meridian section transversally
        spec = SectionSpec(kind="meridian", max_return_time=10.0)
        y0 = np.array([1.0, 0.3, 0.0, float(h0_torus.profile.f(0.3))])
        with pytest.raises(NoCrossing):
            detect_crossing(h0_torus, y0, spec, tight_config)

    def test_slow_crossing_is_skipped_as_tangency(self, h0_torus, tight_config):
        # this meridian orbit crosses first at normal speed 1.17, then at 2.61
        spec = SectionSpec(kind="meridian", max_return_time=40.0)
        chart = AnnulusChart(h0_torus, spec)
        y0 = chart.point_to_state(0.3, 0.3)
        orbit = iterate_section_map(h0_torus, spec, (0.3, 0.3), 2, tight_config)
        strict = replace(spec, transversality_tol=1.8)
        event = detect_crossing(h0_torus, y0, strict, tight_config, chart=chart)
        assert event.skipped_tangencies == 1
        assert event.transverse_speed >= 1.8
        assert event.time == pytest.approx(orbit.times[2], abs=1e-9)

    def test_torus_parallel_section_crossing_within_quadrature_bound(
        self, h0_torus, spliced_profile, tight_config
    ):
        # vertical rotating orbit hits {x2 = 0} once per x2-period

        spec = SectionSpec(kind="equator_birkhoff", x2_star=0.0, max_return_time=30.0)
        y0 = np.array([1.0, 0.0, 0.0, 1.0])
        event = detect_crossing(h0_torus, y0, spec, tight_config)
        # reduced period quadrature: dt = f dx2 when xi1 = 0, so the return
        # time is the meridian length, one x2-period climb
        grid = np.linspace(0.0, 4.0, 400_001)
        f = np.asarray(spliced_profile.f(grid))
        period = float(np.trapezoid(f, grid))
        assert event.time == pytest.approx(period, abs=1e-6)
        assert event.time <= spec.max_return_time

    def test_pole_cap_before_crossing_raises(self, h0_sphere, tight_config):
        # this orbit meets the cap at t = 0.96 (it would climb to x2 = 1.67), long before t = 2 pi
        y0 = AnnulusChart(h0_sphere, SPHERE_SPEC).point_to_state(1.0, 1.2)
        capped = tight_config.with_(x2_cap=1.0)
        with pytest.raises(NoCrossing, match="chart strip"):
            detect_crossing(h0_sphere, y0, SPHERE_SPEC, capped)

    def test_crossing_before_pole_cap_is_returned(self, h0_sphere, tight_config):
        # crosses the equator at t = 0.51 and meets the cap at t = 1.01 (it would climb to 1.87)
        y0 = np.array([0.0, -0.5, 0.3, float(np.sqrt(h0_sphere.profile.f(-0.5) ** 2 - 0.09))])
        capped = tight_config.with_(x2_cap=0.5)
        event = detect_crossing(h0_sphere, y0, SPHERE_SPEC, capped)
        free = detect_crossing(h0_sphere, y0, SPHERE_SPEC, tight_config)
        assert event.time < 1.0
        assert event.state.tobytes() == free.state.tobytes()
        assert np.float64(event.time).tobytes() == np.float64(free.time).tobytes()


    def test_crossing_in_the_capping_step_is_returned(self, h0_sphere, tight_config):
        # crosses the equator at t = 0.050, inside the step [0.019, 0.202] that meets the cap |x2| = 0.03
        y0 = np.array([0.0, -0.01, 0.98, float(np.sqrt(h0_sphere.profile.f(-0.01) ** 2 - 0.98**2))])
        capped = tight_config.with_(x2_cap=0.03)
        march = _March(h0_sphere.scalar_rhs(), y0, SPHERE_SPEC.max_return_time, capped, cap=pole_cap(h0_sphere, capped))
        while march.step():
            pass
        event = detect_crossing(h0_sphere, y0, SPHERE_SPEC, capped)
        t_old, t, *_ = march.last  # the capping step
        assert t_old < event.time < march.capped[0] < t
        free = detect_crossing(h0_sphere, y0, SPHERE_SPEC, tight_config)
        assert event.state.tobytes() == free.state.tobytes()


class TestRefineRoots:
    def test_closed_form_roots_to_brentq_tolerance(self):
        # sin(t) - level on brackets of one scan step, near 0 and near t = 100
        starts = np.array([0.1, 0.42, 1.0, 99.5, 100.43])
        levels = np.sin(starts + 0.013)
        roots = _refine_roots(lambda t: np.sin(t) - levels, starts, starts + 0.02)
        exact = np.arcsin(levels) + np.where(starts > 50, 32 * math.pi, 0.0)
        assert np.all(np.abs(roots - exact) <= 1e-13 + 4 * np.finfo(float).eps * exact)
        # a zero at a bracket end is returned exactly; no brackets, no calls
        assert _refine_roots(lambda t: t - 1.0, [0.5], [1.0])[0] == 1.0
        assert _refine_roots(None, [], []).shape == (0,)


class TestFirstReturn:
    def test_round_sphere_identity_at_many_points(self, h0_sphere, tight_config, rng):
        chart = AnnulusChart(h0_sphere, SPHERE_SPEC)
        for _ in range(20):
            s = float(rng.uniform(0.0, TWO_PI))
            u = float(rng.uniform(0.25, math.pi - 0.25))
            sample = first_return(h0_sphere, SPHERE_SPEC, (s, u), tight_config, chart=chart)
            assert abs(circdiff(sample.image[0] - s)) <= 1e-6
            assert abs(sample.image[1] - u) <= 1e-6
            assert sample.tau == pytest.approx(TWO_PI, abs=1e-6)

    def test_quarter_angle_point(self, h0_sphere, tight_config):
        sample = first_return(h0_sphere, SPHERE_SPEC, (1.0, math.pi / 4), tight_config)
        assert abs(circdiff(sample.image[0] - 1.0)) <= 1e-6
        assert sample.image[1] == pytest.approx(math.pi / 4, abs=1e-6)

    def test_only_the_bracketing_step_builds_its_interpolant(self, h0_sphere, tight_config, monkeypatch):
        # the return is refined on the interpolant of the one step that brackets it
        # (a march that sampled every step's dense output built 52 here); each
        # interpolant built is recorded by the ends of its steps
        built = []
        init = RowInterpolant.__init__

        def recording(self, *args):
            init(self, *args)
            built.append(self.t.tolist())

        monkeypatch.setattr(RowInterpolant, "__init__", recording)
        sample = first_return(h0_sphere, SPHERE_SPEC, (1.0, 0.8), tight_config)
        assert sample.tau == pytest.approx(TWO_PI, abs=1e-9)
        assert len(built) == 1 and len(built[0]) == 1 and built[0][0] > sample.tau

    def test_cone_point_shift_matches_composed_flow(
        self, sphere_profile, cutoffs, katok_sphere, tight_config
    ):
        chart = AnnulusChart(katok_sphere, SPHERE_SPEC)
        s0, u0 = 1.0, 0.25  # ratio cos(0.25) = 0.969 >= f0(a0) = 0.957
        y0 = chart.point_to_state(s0, u0)
        sample = first_return(katok_sphere, SPHERE_SPEC, (s0, u0), tight_config, chart=chart)
        composed = compose_commuting_flows(
            sphere_profile, ALPHA_GOLDEN, y0, sample.tau, cone_a=cutoffs.a0, config=tight_config
        )
        s_pred, u_pred = chart.state_to_point(composed.array)
        assert abs(circdiff(sample.image[0] - s_pred)) <= 1e-6
        assert abs(sample.image[1] - u_pred) <= 1e-6
        # the twist: angle preserved, s advanced by 2 pi alpha
        assert abs(circdiff(sample.image[0] - s0 - TWO_PI * ALPHA_GOLDEN)) <= 1e-6

    def test_reconstruction_invariant(self, katok_sphere, tight_config):
        chart = AnnulusChart(katok_sphere, SPHERE_SPEC)
        sample = first_return(katok_sphere, SPHERE_SPEC, (2.0, 0.8), tight_config, chart=chart)
        y0 = chart.point_to_state(*sample.point)
        trace = integrate_orbit(katok_sphere, y0, sample.tau, tight_config)
        y_img = chart.point_to_state(*sample.image)
        assert phase_space_distance(trace.final_state, y_img) <= 1e-7


class TestReturnMapGrid:
    def test_identity_grid(self, h0_sphere, tight_config):
        table = build_return_map_grid(
            h0_sphere, SPHERE_SPEC, np.linspace(0.5, 5.5, 4), np.linspace(0.4, math.pi - 0.4, 4),
            tight_config,
        )
        ok = table.ok_records()
        assert len(ok) == 16
        assert max(abs(r.tau - TWO_PI) for r in ok) <= 1e-6

    def test_boundary_rows_fail_nontransversally(self, h0_sphere, tight_config):
        table = build_return_map_grid(
            h0_sphere, SPHERE_SPEC, [1.0, 2.0], [0.0, math.pi], tight_config
        )
        assert all(r.status == "NonTransverse" for r in table.records)

    def test_mixed_torus_grid_statuses(self, katok_torus_reversible, tight_config):
        spec = SectionSpec(kind="meridian", max_return_time=60.0)
        # u = pi/2 launches along +e1 (deep trapped, fast return); u = 0.15 is
        # a slow rotating orbit that still returns; u = 0.01 is so close to
        # vertical that its return exceeds the time bound
        table = build_return_map_grid(
            katok_torus_reversible, spec, [1.0], [0.01, 0.15, 0.6, math.pi / 2], tight_config
        )
        by_u = {round(r.u, 3): r for r in table.records}
        assert by_u[0.01].status == "NoCrossing"
        assert by_u[0.15].status == "ok" and by_u[0.15].tau > 20.0
        assert by_u[0.6].status == "ok"
        assert by_u[round(math.pi / 2, 3)].status == "ok"
        assert by_u[round(math.pi / 2, 3)].tau == pytest.approx(TWO_PI, abs=1e-3)

    def test_trapped_state_with_opposite_drift_never_crosses(
        self, katok_torus_reversible, tight_config
    ):
        # xi1 < 0 states drift along -e1: they are outside this annulus's
        # admissible half-circle and never cross with positive normal speed
        spec = SectionSpec(kind="meridian", max_return_time=40.0)
        y0 = np.array([1.0, 0.0, -0.6, 0.8])
        with pytest.raises(NoCrossing):
            detect_crossing(katok_torus_reversible, y0, spec, tight_config)

    def test_csv_schema(self, h0_sphere, tight_config, tmp_path):
        table = build_return_map_grid(h0_sphere, SPHERE_SPEC, [1.0], [0.5], tight_config)
        path = tmp_path / "grid.csv"
        table.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "s,u,s_image,u_image,tau,lift_ds,status"
        assert len(lines) == 2


class TestIterateSectionMap:
    def test_matches_single_returns(self, katok_sphere, tight_config):
        orbit = iterate_section_map(katok_sphere, SPHERE_SPEC, (0.7, 0.9), 5, tight_config)
        chart = AnnulusChart(katok_sphere, SPHERE_SPEC)
        point = (0.7, 0.9)
        for k in range(1, 6):
            sample = first_return(katok_sphere, SPHERE_SPEC, point, tight_config, chart=chart)
            assert abs(circdiff(orbit.points[k][0] - sample.image[0])) <= 1e-7
            assert abs(orbit.points[k][1] - sample.image[1]) <= 1e-7
            point = sample.image

    @pytest.mark.parametrize("method, tol", [("DOP853", 1e-12), ("RK45", 1e-8)])
    def test_first_return_is_first_iterate_bitwise(self, katok_sphere, h0_torus, method, tol):
        config = IntegratorConfig(method=method, rel_tol=tol, abs_tol=tol)
        chart = AnnulusChart(katok_sphere, SPHERE_SPEC)
        rng = np.random.default_rng(3)
        cases = [
            (katok_sphere, SPHERE_SPEC, (s, u))
            for s, u in zip(rng.uniform(0.0, chart.circumference, 40), rng.uniform(0.2, 2.9, 40))
        ]
        # a meridian orbit that starts at normal speed 3.5 and whose first crossing
        # (speed 0.41) is skipped as a tangency
        meridian = SectionSpec(kind="meridian", max_return_time=40.0, transversality_tol=1.0)
        y0 = AnnulusChart(h0_torus, meridian).point_to_state(1.3, 1.2)
        assert detect_crossing(h0_torus, y0, meridian, config).skipped_tangencies == 1
        cases.append((h0_torus, meridian, (1.3, 1.2)))
        for H, spec, point in cases:
            sample = first_return(H, spec, point, config)
            orbit = iterate_section_map(H, spec, point, 1, config)
            assert np.float64(sample.tau).tobytes() == orbit.times[1].tobytes()
            assert np.array(sample.image).tobytes() == orbit.points[1].tobytes()
            assert np.float64(sample.lift_displacement).tobytes() == orbit.displacements[0].tobytes()

    def test_ensemble_step_agrees_with_tight_returns(self, katok_sphere, fast_config, tight_config):
        chart = AnnulusChart(katok_sphere, SPHERE_SPEC)
        pts = [(0.3, 0.5), (2.0, 1.2), (4.0, 2.2)]
        states = np.array([chart.point_to_state(s, u) for s, u in pts])
        new_states, taus, ok = ensemble_return_step(katok_sphere, SPHERE_SPEC, states, fast_config, chart=chart)
        assert ok.all()
        for i, (s, u) in enumerate(pts):
            sample = first_return(katok_sphere, SPHERE_SPEC, (s, u), tight_config, chart=chart)
            assert taus[i] == pytest.approx(sample.tau, abs=1e-6)
            got = chart.state_to_point(new_states[i])
            assert abs(circdiff(got[0] - sample.image[0])) <= 1e-5
            assert abs(got[1] - sample.image[1]) <= 1e-5

    @pytest.mark.parametrize(
        "method, tol, bounds",
        # (tau p90, tau max, u p90, u max); measured 8.0e-9, 1.7e-8, 3.1e-9, 3.7e-9
        # at RK45 1e-9 and 1.6e-11, 4.9e-10, 2.0e-11, 2.0e-10 at DOP853 1e-11.
        # Each orbit holds its own error to the tolerance, so these are tighter
        # tolerances than the shared step met the same bounds at (RK45 1e-8,
        # DOP853 1e-9): per-row DOP853 1e-10 still reads 1.97e-9 (tau max) and
        # 2.35e-9 (u max)
        [("RK45", 1e-9, (4e-8, 2e-7, 1.5e-8, 2e-8)), ("DOP853", 1e-11, (7e-10, 1.5e-9, 7e-10, 1.5e-9))],
        ids=["RK45-1e-09", "DOP853-1e-11"],
    )
    def test_ensemble_step_accuracy(self, katok_sphere, method, tol, bounds):
        # 120 equator points with u in the entropy cloud's range [0.15 pi, 0.85 pi]
        # against DOP853 1e-13 first returns: each crossing is refined on the
        # interpolant of its own step
        chart = AnnulusChart(katok_sphere, SPHERE_SPEC)
        rng = np.random.default_rng(23)
        s = rng.uniform(0.0, chart.circumference, 120)
        u = rng.uniform(0.15 * math.pi, 0.85 * math.pi, 120)
        states = np.array([chart.point_to_state(a, b) for a, b in zip(s, u)])
        tight = IntegratorConfig(method="DOP853", rel_tol=1e-13, abs_tol=1e-13)
        want = [first_return(katok_sphere, SPHERE_SPEC, point, tight, chart=chart) for point in zip(s, u)]
        config = IntegratorConfig(method=method, rel_tol=tol, abs_tol=tol)
        new_states, taus, ok = ensemble_return_step(katok_sphere, SPHERE_SPEC, states, config, chart=chart)
        assert ok.all()
        tau_err = np.abs(taus - [r.tau for r in want])
        u_err = np.abs(chart.points_of_states(new_states)[:, 1] - [r.image[1] for r in want])
        got = (np.quantile(tau_err, 0.9), tau_err.max(), np.quantile(u_err, 0.9), u_err.max())
        assert all(g <= b for g, b in zip(got, bounds)), got

    def test_zero_covector_orbit_fails_alone(self, katok_sphere, fast_config):
        chart = AnnulusChart(katok_sphere, SPHERE_SPEC)
        valid = chart.point_to_state(0.3, 0.5)
        states = np.array([valid, [0.7, 0.0, 0.0, 0.0]])
        new_states, taus, ok = ensemble_return_step(katok_sphere, SPHERE_SPEC, states, fast_config, chart=chart)
        alone = ensemble_return_step(katok_sphere, SPHERE_SPEC, valid[None], fast_config, chart=chart)
        assert ok.tolist() == [True, False]
        assert new_states[1].tobytes() == states[1].tobytes() and math.isnan(taus[1])
        assert new_states[0].tobytes() == alone[0][0].tobytes() and taus[0].tobytes() == alone[1][0].tobytes()

    def test_batched_return_is_its_return_alone(self, katok_sphere, monkeypatch):
        # with TAIL_ROWS = 0, every orbit is stepped in the batch to its own
        # crossing, and its return is the same bytes alone and in any company
        monkeypatch.setattr(solvers, "TAIL_ROWS", 0)
        config = IntegratorConfig(method="RK45", rel_tol=1e-9, abs_tol=1e-9)
        chart = AnnulusChart(katok_sphere, SPHERE_SPEC)
        rng = np.random.default_rng(41)
        pts = zip(rng.uniform(0.0, chart.circumference, 16), rng.uniform(0.15 * math.pi, 0.85 * math.pi, 16))
        states = np.array([chart.point_to_state(s, u) for s, u in pts])
        got = ensemble_return_step(katok_sphere, SPHERE_SPEC, states, config, chart=chart)
        assert got[2].all()
        company = rng.choice(16, 6, replace=False)
        part = ensemble_return_step(katok_sphere, SPHERE_SPEC, states[company], config, chart=chart)
        for i in range(16):
            alone = ensemble_return_step(katok_sphere, SPHERE_SPEC, states[[i]], config, chart=chart)
            for a, b in zip(got, alone):
                assert a[i].tobytes() == b[0].tobytes(), i
        for a, b in zip(got, part):
            assert a[company].tobytes() == b.tobytes()

    @pytest.mark.parametrize("method, tol", [("RK45", 1e-9), ("DOP853", 1e-9)])
    def test_tail_return_is_first_return(self, katok_sphere, monkeypatch, method, tol):
        # a cloud of TAIL_ROWS or fewer orbits steps each orbit on the float
        # stepper from its start, as first_return steps it: the same bytes
        monkeypatch.setattr(solvers, "TAIL_ROWS", 24)
        config = IntegratorConfig(method=method, rel_tol=tol, abs_tol=tol)
        chart = AnnulusChart(katok_sphere, SPHERE_SPEC)
        rng = np.random.default_rng(42)
        pts = list(zip(rng.uniform(0.0, chart.circumference, 24), rng.uniform(0.15 * math.pi, 0.85 * math.pi, 24)))
        states = np.array([chart.point_to_state(s, u) for s, u in pts])
        new_states, taus, ok = ensemble_return_step(katok_sphere, SPHERE_SPEC, states, config, chart=chart)
        assert ok.all()
        points = chart.points_of_states(new_states)
        for i, point in enumerate(pts):
            want = first_return(katok_sphere, SPHERE_SPEC, point, config, chart=chart)
            assert taus[i].tobytes() == np.float64(want.tau).tobytes()
            assert points[i].tobytes() == np.array(want.image).tobytes()

    @pytest.mark.parametrize("method, tol", [("RK45", 1e-9), ("DOP853", 1e-9)])
    def test_cloud_iterates_are_single_orbit_iterates(self, katok_sphere, monkeypatch, method, tol):
        # with TAIL_ROWS or fewer orbits, the crossing loop steps each orbit of
        # a cloud as iterate_section_map steps it alone, near-polar orbits
        # (u = pi/2 -+ 0.002) included: its n iterates are the same bytes
        config = IntegratorConfig(method=method, rel_tol=tol, abs_tol=tol)
        chart = AnnulusChart(katok_sphere, SPHERE_SPEC)
        rng = np.random.default_rng(44)
        u = rng.uniform(0.15 * math.pi, 0.85 * math.pi, 12)
        u[:2] = math.pi / 2 - 0.002, math.pi / 2 + 0.002
        pts = list(zip(rng.uniform(0.0, chart.circumference, 12), u))
        states = np.array([chart.point_to_state(s, u) for s, u in pts])
        monkeypatch.setattr(solvers, "TAIL_ROWS", len(states))
        times, crossings, _, errors = _returns(katok_sphere, states, SPHERE_SPEC, config, chart, 5)
        assert errors == [None] * 12
        for i, point in enumerate(pts):
            want = iterate_section_map(katok_sphere, SPHERE_SPEC, point, 5, config)
            orbit = [states[i], *crossings[i]]
            assert times[i].tobytes() == want.times[1:].tobytes(), i
            assert chart.points_of_states(orbit).tobytes() == want.points.tobytes(), i
            assert np.array([chart.lift_s(y) for y in orbit]).tobytes() == want.lift_s.tobytes(), i

    def test_batched_iterates_are_their_iterates_alone(self, katok_sphere, monkeypatch):
        # with TAIL_ROWS = 0, every orbit is stepped in the batch through its n
        # crossings, and its iterates are the same bytes alone and in any company
        monkeypatch.setattr(solvers, "TAIL_ROWS", 0)
        config = IntegratorConfig(method="RK45", rel_tol=1e-9, abs_tol=1e-9)
        chart = AnnulusChart(katok_sphere, SPHERE_SPEC)
        rng = np.random.default_rng(45)
        pts = zip(rng.uniform(0.0, chart.circumference, 16), rng.uniform(0.15 * math.pi, 0.85 * math.pi, 16))
        states = np.array([chart.point_to_state(s, u) for s, u in pts])
        got = _returns(katok_sphere, states, SPHERE_SPEC, config, chart, 4)
        assert got[3] == [None] * 16
        company = rng.choice(16, 6, replace=False)
        part = _returns(katok_sphere, states[company], SPHERE_SPEC, config, chart, 4)
        for a, b in zip(got[:3], part[:3]):
            assert a[company].tobytes() == b.tobytes()
        for i in range(16):
            alone = _returns(katok_sphere, states[[i]], SPHERE_SPEC, config, chart, 4)
            for a, b in zip(got[:3], alone[:3]):
                assert a[i].tobytes() == b[0].tobytes(), i

    def test_step_underflow_fails_alone(self, katok_sphere, monkeypatch):
        # an orbit whose step size underflows fails on its own, in the batch
        # and on the float stepper, and the cloud's other orbits return
        config = IntegratorConfig(method="RK45", rel_tol=1e-9, abs_tol=1e-9)
        chart = AnnulusChart(katok_sphere, SPHERE_SPEC)
        rng = np.random.default_rng(43)
        pts = zip(rng.uniform(0.0, chart.circumference, 20), rng.uniform(0.15 * math.pi, 0.85 * math.pi, 20))
        states = np.array([chart.point_to_state(s, u) for s, u in pts])
        states[7] = (100.0, 0.0, 0.6, 0.8)
        H = _BlowUp(katok_sphere)
        for tail in (0, 16, 20):  # the blow-up in the batch, in the batch, on the float stepper from its start
            monkeypatch.setattr(solvers, "TAIL_ROWS", tail)
            new_states, taus, ok = ensemble_return_step(H, SPHERE_SPEC, states, config, chart=chart)
            assert ok.tolist() == [i != 7 for i in range(20)]
            assert new_states[7].tobytes() == states[7].tobytes() and math.isnan(taus[7])
            others = np.arange(20) != 7
            if tail == 0:
                want = ensemble_return_step(katok_sphere, SPHERE_SPEC, states[others], config, chart=chart)
                assert new_states[others].tobytes() == want[0].tobytes()
                assert taus[others].tobytes() == want[1].tobytes()

    def test_empty_cloud(self, katok_sphere, fast_config):
        new_states, taus, ok = ensemble_return_step(katok_sphere, SPHERE_SPEC, np.empty((0, 4)), fast_config)
        assert (new_states.shape, taus.shape, ok.shape) == ((0, 4), (0,), (0,))

    def test_transversality_rejects_orbit_by_orbit(self, katok_sphere, fast_config):
        chart = AnnulusChart(katok_sphere, SPHERE_SPEC)
        rng = np.random.default_rng(31)
        pts = list(zip(rng.uniform(0.0, chart.circumference, 12), rng.uniform(0.3, 2.8, 12)))
        states = np.array([chart.point_to_state(s, u) for s, u in pts])
        base_states, base_taus, base_ok = ensemble_return_step(
            katok_sphere, SPHERE_SPEC, states, fast_config, chart=chart
        )
        assert base_ok.all()
        speeds = chart.transverse_velocity(base_states)
        tol = float(np.median(speeds))
        slow = speeds < tol
        assert 0 < np.count_nonzero(slow) < len(states)
        # a slow orbit skips its first crossing as a tangency, as a single orbit
        # does, and finds no other within max_return_time: it fails alone
        strict = replace(SPHERE_SPEC, transversality_tol=tol)
        new_states, taus, ok = ensemble_return_step(katok_sphere, strict, states, fast_config, chart=chart)
        assert np.array_equal(ok, ~slow)
        assert new_states[slow].tobytes() == states[slow].tobytes()
        assert np.isnan(taus[slow]).all()
        assert new_states[ok].tobytes() == base_states[ok].tobytes()
        assert taus[ok].tobytes() == base_taus[ok].tobytes()
        for i in np.flatnonzero(slow):
            with pytest.raises(NoCrossing, match=r"0 of 1 .* \(1 tangencies skipped\)"):
                detect_crossing(katok_sphere, states[i], strict, fast_config, chart=chart)
        # the map keeps u, so each later crossing is as slow: with three times
        # the budget, a slow orbit skips every crossing, as detect_crossing does
        longer = replace(strict, max_return_time=3 * SPHERE_SPEC.max_return_time)
        _, _, skipped, errors = _returns(katok_sphere, states, longer, fast_config, chart, 1)
        assert [err is None for err in errors] == (~slow).tolist()
        for i in np.flatnonzero(slow):
            with pytest.raises(NoCrossing) as want:
                detect_crossing(katok_sphere, states[i], longer, fast_config, chart=chart)
            assert str(errors[i]) == str(want.value) and skipped[i] >= 2

    def test_returns_within_the_budget(self, h0_sphere, h0_torus, tight_config):
        # n returns are marched to n max_return_time; on the round sphere every
        # return takes 2 pi, so the 6th lies in the step clamped at 12 pi + 6e-7
        spec = SectionSpec(max_return_time=TWO_PI + 1e-7)
        orbit = iterate_section_map(h0_sphere, spec, (1.0, 0.8), 6, tight_config)
        assert np.allclose(np.diff(orbit.times), TWO_PI, atol=1e-9)
        assert np.allclose(orbit.displacements, 1.0, atol=1e-9)
        # this meridian orbit's k-th return comes at k times 6.97, 6.68, 6.55,
        # 6.49, 6.47 and 6.56 (k = 1, ..., 6): a budget just past the 5th
        # return holds 5 returns, the 5th in the clamped step, but not 6
        meridian = SectionSpec(kind="meridian", max_return_time=40.0)
        t5 = iterate_section_map(h0_torus, meridian, (0.3, 0.3), 5, tight_config).times[5]
        tight_budget = replace(meridian, max_return_time=(t5 + 1e-6) / 5)
        orbit = iterate_section_map(h0_torus, tight_budget, (0.3, 0.3), 5, tight_config)
        y0 = AnnulusChart(h0_torus, meridian).point_to_state(0.3, 0.3)
        march = _March(h0_torus.scalar_rhs(), y0, 5 * tight_budget.max_return_time, tight_config)
        while march.step():
            pass
        assert march.solver.t_old < orbit.times[5] <= march.solver.t
        assert orbit.times[5] == pytest.approx(t5, abs=1e-12)
        with pytest.raises(NoCrossing, match="5 of 6"):
            iterate_section_map(h0_torus, tight_budget, (0.3, 0.3), 6, tight_config)


def _reference_returns(H, y0, spec, n, config):
    """The first n (or fewer) transverse crossings of scipy's stepper run by hand to n max_return_time.

    After the first step, every step whose ends straddle a section level
    upward is refined on that step's own ``dense_output()``.  Returns the
    times, states and speeds of the crossings kept and the tangencies skipped
    before the first.
    """
    chart = AnnulusChart(H, spec)
    solver = SCIPY_STEPPERS[config.method](
        H.scalar_rhs(), 0.0, y0, n * spec.max_return_time, rtol=config.rel_tol, atol=config.abs_tol
    )
    g = chart.coordinate(y0)
    times, states, speeds, skipped = [], [], [], 0
    while len(times) < n and solver.status == "running":
        assert solver.step() is None
        g_old, g = g, chart.coordinate(solver.y)
        up, level = _upward_brackets(g_old, g, chart.periodic_levels)
        if solver.t_old == 0.0 or not up:
            continue
        sol = solver.dense_output()
        t = _refine_roots(lambda t: chart.coordinate(sol(t).T) - level, [solver.t_old], [solver.t])[0]
        speed = float(chart.transverse_velocity(sol(t)))
        if speed < spec.transversality_tol:
            skipped += not times
            continue
        times.append(t)
        states.append(sol(t))
        speeds.append(speed)
    return np.array(times), np.array(states), np.array(speeds), skipped


class _BlowUp:
    """A metric's equations, but x1' = x1^2 (the rest 0) at x1 >= 100: such an orbit blows up at t = 1 / x1."""

    def __init__(self, H):
        self.H = H

    def vector_field(self, states):
        out = self.H.vector_field(states)
        far = states[:, 0] >= 100.0
        out[far] = 0.0
        out[far, 0] = states[far, 0] * states[far, 0]
        return out

    def scalar_rhs(self):
        rhs = self.H.scalar_rhs()

        def fun(t, y):
            return (y[0] * y[0], 0.0, 0.0, 0.0) if y[0] >= 100.0 else rhs(t, y)

        return fun


class TestMarchAgainstFullSolve:
    """Section solves match scipy's stepper run by hand with the same crossing rule.

    The lab's steppers sum stages term by term in stage order and scipy with
    ``np.dot``, so single orbits and the orbits of the cloud's return step,
    each of which brackets on its own step ends, match scipy to measured
    bounds.
    """

    @pytest.mark.parametrize("method, tol", [("DOP853", 1e-12), ("RK45", 1e-8)])
    def test_detect_crossing_bitwise(self, katok_sphere, h0_torus, method, tol):
        config = IntegratorConfig(method=method, rel_tol=tol, abs_tol=tol)
        chart = AnnulusChart(katok_sphere, SPHERE_SPEC)
        rng = np.random.default_rng(7)
        points = zip(rng.uniform(0.0, chart.circumference, 4), rng.uniform(0.2, 2.9, 4))
        cases = [(katok_sphere, SPHERE_SPEC, chart.point_to_state(s, u)) for s, u in points]
        # a meridian orbit whose first crossing (speed 1.17) is skipped as a tangency
        meridian = SectionSpec(kind="meridian", max_return_time=40.0, transversality_tol=1.8)
        cases.append((h0_torus, meridian, AnnulusChart(h0_torus, meridian).point_to_state(0.3, 0.3)))
        for H, spec, y0 in cases:
            got = detect_crossing(H, y0, spec, config)
            times, states, speeds, skipped = _reference_returns(H, y0, spec, 1, config)
            # largest gaps measured: 5.3e-14 (time), 2.0e-13 (state), 9.8e-13 (speed)
            assert abs(got.time - times[0]) <= 1e-12
            assert np.max(np.abs(got.state - states[0])) <= 1e-12
            assert abs(got.transverse_speed - speeds[0]) <= 5e-12
            assert got.skipped_tangencies == skipped
        assert got.skipped_tangencies == 1

    @pytest.mark.parametrize("method, tol", [("DOP853", 1e-12), ("RK45", 1e-8)])
    def test_iterate_section_map_bitwise(self, katok_sphere, h0_torus, method, tol):
        # budgets of 24, 63 and 14 for returns by t = 19.2, 61.4 and 13.4
        config = IntegratorConfig(method=method, rel_tol=tol, abs_tol=tol)
        cases = [
            (katok_sphere, SPHERE_SPEC, (1.0, 0.9), 3),
            (katok_sphere, SectionSpec(max_return_time=7.0), (0.7, 0.6), 9),
            (h0_torus, SectionSpec(kind="meridian", max_return_time=7.0), (0.3, 0.3), 2),
        ]
        for H, spec, point, n in cases:
            got = iterate_section_map(H, spec, point, n, config)
            chart = AnnulusChart(H, spec)
            y0 = chart.point_to_state(*point)
            times, states, _, _ = _reference_returns(H, y0, spec, n, config)
            points = chart.points_of_states([y0, *states])
            lift = [chart.lift_s(y) for y in [y0, *states]]
            # largest gaps measured: 3.2e-13 (points), 9.9e-14 (lift), 7.1e-14 (times)
            assert np.max(np.abs(got.points - points)) <= 1e-12
            assert np.max(np.abs(got.lift_s - lift)) <= 1e-12
            assert np.max(np.abs(got.times[1:] - times)) <= 1e-12

    @pytest.mark.parametrize("max_return_time", [8.0, 6.35])
    def test_ensemble_step_bitwise(self, katok_sphere, monkeypatch, max_return_time):
        # katok-sphere's entropy settings, with a stricter transversality
        # tolerance; each orbit against scipy's run of that orbit alone, with
        # every orbit batched to its crossing (vector_field) and with every
        # orbit stepped on the float stepper from its start (scalar_rhs)
        spec = SectionSpec(scan_dt=0.04, max_return_time=max_return_time, transversality_tol=1e-3)
        config = IntegratorConfig(method="RK45", rel_tol=1e-8, abs_tol=1e-8)
        chart = AnnulusChart(katok_sphere, spec)
        rng = np.random.default_rng(5)
        s = rng.uniform(0.0, chart.circumference, 12)
        u = rng.uniform(0.1, 3.0, 12)
        u[0] = 1e-4  # grazes the section: crosses again at speed ~1e-4, below the tolerance
        states = np.array([chart.point_to_state(a, b) for a, b in zip(s, u)])
        want = [_reference_returns(katok_sphere, y0, spec, 1, config) for y0 in states]
        for tail in (0, len(states)):
            monkeypatch.setattr(solvers, "TAIL_ROWS", tail)
            new_states, taus, ok = ensemble_return_step(katok_sphere, spec, states, config, chart=chart)
            # the cloud skips a tangency and looks on, as the single orbit does
            assert ok.tolist() == [len(times) == 1 for times, _, _, _ in want]
            assert new_states[~ok].tobytes() == states[~ok].tobytes() and np.isnan(taus[~ok]).all()
            for i in np.flatnonzero(ok):
                times, crossings, _, _ = want[i]
                # largest gaps measured: 5.4e-14 (states), 5.8e-14 (taus)
                assert abs(taus[i] - times[0]) <= 1e-12
                assert np.max(np.abs(new_states[i] - crossings[0])) <= 1e-12
            # orbit 0 skips its graze and crosses no more within the budget
            assert not ok[0] and want[0][3] == 1
            # orbit 9 starts in the perturbation cone and returns at tau = 6.42
            assert ok[9] == (max_return_time > 6.42)
            assert np.count_nonzero(ok) == 11 - (max_return_time < 6.42)


class TestAreaPreservation:
    def test_flux_area_of_quadrilateral(self, katok_sphere, tight_config):
        # the return map preserves the section restriction of the canonical
        # area, which in (x1-lift, xi1) coordinates is the euclidean area
        chart = AnnulusChart(katok_sphere, SPHERE_SPEC)
        s0, u0, d = 0.8, 0.45, 0.02
        corners = [(s0 - d, u0 - d), (s0 + d, u0 - d), (s0 + d, u0 + d), (s0 - d, u0 + d)]
        before, after = [], []
        for corner in corners:
            y = chart.point_to_state(*corner)
            before.append(chart.symplectic_coords(y))
            sample = first_return(katok_sphere, SPHERE_SPEC, corner, tight_config, chart=chart)
            y_img = chart.point_to_state(*sample.image)
            after.append((y[0] + sample.lift_displacement * TWO_PI, y_img[2]))
        assert shoelace(after) == pytest.approx(shoelace(before), rel=0.01)


class TestSmoothDivide:
    def test_linear_gives_one(self):
        q = smooth_divide(lambda x, t: t, order=2)
        assert q(0.0, 0.0) == pytest.approx(1.0, abs=1e-10)
        assert q(0.0, 0.4) == 1.0

    def test_sine_leading_coefficient(self):
        q = smooth_divide(lambda x, t: x * math.sin(t), order=2)
        for x in (-1.0, 0.5, 2.0):
            assert q(x, 0.0) == pytest.approx(x, abs=1e-9)

    def test_exponential_derivative_identity(self):
        q = smooth_divide(lambda x, t: t * math.exp(x * t), order=2)
        for x in (-1.0, 0.5, 2.0):
            # dG/dt(x, 0) = d2F/dt2(x, 0) / 2 = x
            assert q.dt_at_zero(x, 1) == pytest.approx(x, abs=1e-4)

    def test_second_derivative_identity(self):
        q = smooth_divide(lambda x, t: t * math.cos(x * t), order=2)
        for x in (-1.0, 0.5, 2.0):
            # d3F/dt3(x, 0)/3 = -x^2
            assert q.dt_at_zero(x, 2) == pytest.approx(-x * x, abs=1e-4)

    def test_not_vanishing_guard(self):
        q = smooth_divide(lambda x, t: 1.0 + t, order=1)
        with pytest.raises(NotVanishing):
            q(0.0, 0.0)

    def test_branch_agreement_at_switch(self):
        q = smooth_divide(lambda x, t: math.sin(1.7 * t) * math.exp(x * t), order=2)
        for x in (-0.5, 1.0):
            lo = q(x, q.t_switch * (1 - 1e-9))
            hi = q(x, q.t_switch * (1 + 1e-9))
            assert lo == pytest.approx(hi, abs=1e-8)

    def test_branch_mismatch_detected_for_nonsmooth_input(self):
        # |t| is not of the form t * smooth, so the Taylor model cannot match
        q = smooth_divide(lambda x, t: abs(t) * (1.0 + t * t), order=1)
        with pytest.raises(BranchMismatch):
            q(0.0, 0.0)

    def test_derivative_slot_guard(self):
        q = smooth_divide(lambda x, t: t, order=1)
        with pytest.raises(ValueError):
            q.dt_at_zero(0.0, 5)


class TestBoundaryExtension:
    def test_round_sphere_boundary_time_is_full_period(self, h0_sphere, tight_config):
        report = return_time_boundary_extension(h0_sphere, SPHERE_SPEC, tight_config)
        assert report.tau_boundary == pytest.approx(TWO_PI, abs=1e-5)
        assert report.tau_polyfit == pytest.approx(TWO_PI, abs=1e-5)
        assert report.residual <= 1e-4

    def test_perturbed_sphere_extension_is_finite_and_smooth(self, katok_sphere, tight_config):
        report = return_time_boundary_extension(katok_sphere, SPHERE_SPEC, tight_config)
        assert math.isfinite(report.tau_boundary)
        assert report.residual <= 1e-4
        assert report.branch_gap <= 1e-4

    def test_large_residual_is_reported_not_raised(self, h0_sphere, tight_config, monkeypatch):
        # The polynomial residual is the scenario check's to judge. No lab
        # metric yields a cubic residual above 1e-4 while the smooth
        # quotient's branch check (1e-8) still passes -- the quotient sees
        # the same orbits -- so one sampled return time is moved by 1e-3
        # instead. The quotient route never reads the samples' times.
        from finslerlab import sections

        angles = 2.0 ** -np.arange(3, 11)
        exact = sections.first_return

        def bumped(H, spec, point, config, *, chart=None):
            sample = exact(H, spec, point, config, chart=chart)
            return replace(sample, tau=sample.tau + (1e-3 if point[1] == angles[4] else 0.0))

        monkeypatch.setattr(sections, "first_return", bumped)
        report = return_time_boundary_extension(h0_sphere, SPHERE_SPEC, tight_config, angles=angles)
        assert report.residual > 1e-4
        assert report.tau_boundary == pytest.approx(TWO_PI, abs=1e-5)

    def test_non_geometric_samples_rejected(self, h0_sphere, tight_config):
        with pytest.raises(ExtrapolationUnstable):
            return_time_boundary_extension(
                h0_sphere, SPHERE_SPEC, tight_config, angles=np.array([0.4, 0.39, 0.38, 0.37, 0.36, 0.35])
            )


def circdiff(d):
    return (d + math.pi) % TWO_PI - math.pi


def shoelace(points):
    pts = np.asarray(points, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))
