"""Scenario registry: named, seeded, reproducible experiment bundles.

Each scenario builds its objects from a config dict, consumes one RNG stream
in a fixed order, evaluates its check battery, and (optionally) writes text
artifacts.  Identical (scenario, seed, config) triples produce byte-identical
report payloads; wall-clock timings are kept out of the report body.
"""

from __future__ import annotations

import copy
import math
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .analysis import (
    TubeSpec,
    WitnessBall,
    asymptotic_direction,
    bounded_deviation,
    entropy_separated_sets,
    invariant_graph_test,
    rotation_number,
    rotation_number_from_displacements,
    tube_diagnostics,
    turning_point_bisect,
    wrapped_metric,
)
from .benchmarks import CAT_ENTROPY, cat_map, doubling_map, iterate_map_segments, rigid_rotation, twist_map
from .config import build_config, default_config, integrator_from_config, require_keys, section_from_config
from .errors import ConfigInvalid, NotVanishing, PoleProximity, StepFailure, UnknownScenario
from .flow import (
    ENSEMBLE_CONFIG,
    TWO_PI,
    IntegratorConfig,
    check_periodicity,
    integrate_ensemble,
    integrate_orbit,
    phase_space_distance,
)
from .metrics import (
    RotationalDualMetric,
    build_katok_family,
    critical_alpha_scan,
    fiber_convexity_check,
    reversibilize,
)
from .profiles import make_cutoffs, profile_from_spec
from .reporting import Check, RunReport, at_least, at_most, dump_json, export_report, holds, render_section_plot
from .sampling import (
    sample_cone_states,
    sample_covectors,
    sample_outside_cone_states,
    sample_tube_states,
    sample_unit_level,
    solve_xi2_on_level,
)
from .sections import (
    AnnulusChart,
    _returns,
    build_return_map_grid,
    first_return,
    iterate_section_map,
    return_time_boundary_extension,
    smooth_divide,
)

__all__ = [
    "SCENARIO_NAMES",
    "MAP_SYSTEMS",
    "axiom_checks",
    "evenness_check",
    "flow_entropy",
    "level_set_graphs",
    "tube_run",
    "scenario_defaults",
    "run_scenario",
]

SCENARIO_NAMES = (
    "round-sphere-baseline",
    "katok-sphere",
    "katok-torus",
    "benchmark-maps",
    "appendix-smooth-division",
)


# --- shared batteries ---------------------------------------------------------


def axiom_checks(H, states, rng) -> list[Check]:
    """Positive 1-homogeneity, Euler identity, fiber Hessian positivity."""
    states = np.asarray(states, dtype=float)
    scales = rng.uniform(0.3, 3.0, states.shape[0])
    scaled = states.copy()
    scaled[:, 2] *= scales
    scaled[:, 3] *= scales
    h = np.asarray(H.value(states))
    homo = float(np.max(np.abs(np.asarray(H.value(scaled)) - scales * h) / (scales * h)))
    gxi = H.grad_xi(states)
    euler = float(
        np.max(np.abs(states[:, 2] * gxi[:, 0] + states[:, 3] * gxi[:, 1] - h) / h)
    )
    hess = fiber_convexity_check(H, states)
    return [
        at_most("axioms.homogeneity", homo, 1e-10),
        at_most("axioms.euler_identity", euler, 1e-10),
        holds(
            "axioms.hessian_min_eigenvalue",
            hess.min_eigenvalue > 0.0,
            hess.min_eigenvalue,
            0.0,
            detail="pass iff > tolerance",
        ),
    ]


def evenness_check(H, states) -> Check:
    """Reversibility H(x, -xi) = H(x, xi) on the given states."""
    mirrored = states.copy()
    mirrored[:, 2:] *= -1.0
    gap = float(np.max(np.abs(np.asarray(H.value(states)) - np.asarray(H.value(mirrored)))))
    return at_most("reversible.evenness", gap, 1e-12)


class MapSystem(NamedTuple):
    """Calibration map of the unit d-torus with its default estimator window."""

    step: Callable
    dim: int
    T_list: tuple
    eps: tuple

    def entropy(self, cloud, T_list, eps_list):
        """Separated-set entropy of the map on a cloud of (N, dim) start points."""
        segments = iterate_map_segments(self.step, cloud, max(T_list))
        return entropy_separated_sets(segments, T_list, eps_list, wrapped_metric([1.0] * self.dim))


_GOLDEN_ROTATION = (math.sqrt(5.0) - 1.0) / 2.0

MAP_SYSTEMS = {
    "identity": MapSystem(lambda p: p, 1, tuple(range(7)), (1 / 16, 1 / 32)),
    "rotation": MapSystem(lambda p: (p + _GOLDEN_ROTATION) % 1.0, 1, tuple(range(7)), (1 / 16, 1 / 32)),
    "doubling": MapSystem(doubling_map, 1, tuple(range(7)), (1 / 16, 1 / 32, 1 / 64)),
    "cat": MapSystem(cat_map, 2, (1, 2, 3, 4), (0.35, 0.3)),
}


# RK45 1e-8 for the flow entropy cloud and the iterate plot (statistics, not
# acceptance); katok-sphere's return cloud steps it at 1e-9
CLOUD_CONFIG = IntegratorConfig(method="RK45", rel_tol=1e-8, abs_tol=1e-8)

# settings of the two batteries shared with the CLI; katok-torus runs them as is
FLOW_ENTROPY_DEFAULTS = {"cloud": 2000, "horizon": 60, "T_list": [0, 10, 20, 40, 60], "eps": [0.5, 0.3]}
TUBE_DEFAULTS = {"orbits": 32, "eps_grid": [0.02, 0.04, 0.08, 0.12, 0.2, 0.3]}


def flow_entropy(H, period: float, ent_cfg: dict, rng):
    """Separated-set entropy of the time-1 flow on a unit-level cloud over one x2-period.

    ``ent_cfg`` overrides any of ``FLOW_ENTROPY_DEFAULTS``.
    """
    ent = {**FLOW_ENTROPY_DEFAULTS, **ent_cfg}
    horizon = int(ent["horizon"])
    cloud = sample_unit_level(H, rng, int(ent["cloud"]), x2_range=(0.0, period))
    trace = integrate_ensemble(H, cloud, float(horizon), CLOUD_CONFIG, t_eval=np.arange(horizon + 1.0))
    if trace.errors:
        raise StepFailure(f"{len(trace.errors)} of {len(cloud)} entropy-cloud orbits failed")
    return entropy_separated_sets(
        np.swapaxes(trace.states, 0, 1),  # (N, horizon+1, 4)
        T_list=ent["T_list"],
        eps_list=ent["eps"],
        metric=wrapped_metric([TWO_PI, period, None, None]),
    )


def level_set_graphs(period: float, c: float, side: int, xi2_of_x2, bins):
    """The level set {xi1 = c} on a side x side torus grid and its graph test per bin count.

    ``xi2_of_x2`` maps the x2 axis of the grid to the xi2 of each row; rows
    where it is nan are dropped.
    """
    x2 = np.linspace(0.0, period, side, endpoint=False)
    xx1, xx2 = np.meshgrid(np.linspace(0.0, TWO_PI, side, endpoint=False), x2)
    level = np.stack([xx1.ravel(), xx2.ravel(), np.full(xx1.size, c), np.repeat(xi2_of_x2(x2), side)], axis=1)
    level = level[~np.isnan(level[:, 3])]
    return level, [invariant_graph_test(level, x2_period=period, bins=(int(nb), int(nb))) for nb in bins]


def tube_run(
    H, tube: TubeSpec, period: float, tube_cfg: dict, rng, witness_c: float, witness_rows,
    ensemble_time: float, long_time: float, config: IntegratorConfig,
):
    """Tube diagnostics of a random tube ensemble placed after ``witness_rows``.

    The long witness orbit starts from the first row; the witness balls sit
    around the level xi1 = witness_c. ``tube_cfg`` overrides any of
    ``TUBE_DEFAULTS``, which size the ensemble (``orbits``) and the eps grid;
    the horizons and the integrator are the caller's.
    """
    tube_cfg = {**TUBE_DEFAULTS, **tube_cfg}
    ens = sample_tube_states(
        H, rng, int(tube_cfg["orbits"]), (tube.c_lo + 0.02, tube.c_hi - 0.02), x2_period=period
    )
    balls = [
        WitnessBall(center=np.array([math.pi, 0.3, witness_c + off, 0.5]), radius=0.05)
        for off in (0.1, 0.15, -0.12, 0.2, -0.18)
    ]
    return tube_diagnostics(
        H,
        tube,
        np.vstack([*witness_rows, ens]),
        tube_cfg["eps_grid"],
        balls,
        ensemble_time=ensemble_time,
        long_time=long_time,
        config=config,
    )


def _commuting_check(profile, alpha, cutoffs, samples, config) -> Check:
    """Direct perturbed-family orbits against the composed-flow oracle over one period 2 pi."""
    metric = build_katok_family(profile, cutoffs, alpha, check_convexity=False)
    h0 = RotationalDualMetric(profile)
    worst = 0.0
    for y0 in np.atleast_2d(samples):
        direct = integrate_orbit(metric, y0, TWO_PI, config)
        base = integrate_orbit(h0, y0, TWO_PI, config)
        shifted = base.states.copy()
        shifted[:, 0] += alpha * base.times
        d = phase_space_distance(direct.states, shifted, None)
        worst = max(worst, float(np.max(d)))
    return at_most("commuting.flow_identity", worst, 1e-6)


_FORWARD_STENCILS = {
    1: ([-25.0, 48.0, -36.0, 16.0, -3.0], 12.0, 1),
    2: ([35.0, -104.0, 114.0, -56.0, 11.0], 12.0, 2),
    3: ([-5.0, 18.0, -24.0, 14.0, -3.0], 2.0, 3),
}
_CENTRAL_STENCILS = {
    1: ([1.0, -8.0, 0.0, 8.0, -1.0], 12.0, 1),
    2: ([-1.0, 16.0, -30.0, 16.0, -1.0], 12.0, 2),
    3: ([-1.0, 2.0, 0.0, -2.0, 1.0], 2.0, 3),
}


def _jet_gap_across_seam(H, seam_states, h: float = 1e-3) -> float:
    """Max disagreement of xi1-derivatives (orders 1..3) across {xi1 = 0}.

    Each derivative is estimated three ways at the seam: one-sided from the
    right, one-sided from the left, and centrally straddling it; a smooth
    metric makes all three agree to stencil accuracy.
    """

    def value_at(y, offset):
        z = np.array(y, dtype=float)
        z[2] = offset
        return float(H.value(z))

    worst = 0.0
    for y in np.atleast_2d(seam_states):
        for k, (coeffs, denom, power) in _FORWARD_STENCILS.items():
            right = sum(c * value_at(y, j * h) for j, c in enumerate(coeffs)) / (denom * h**power)
            left = sum(c * value_at(y, j * -h) for j, c in enumerate(coeffs)) / (denom * (-h) ** power)
            ccoef, cden, cpow = _CENTRAL_STENCILS[k]
            central = sum(
                c * value_at(y, (j - 2) * h) for j, c in enumerate(ccoef)
            ) / (cden * h**cpow)
            worst = max(worst, abs(right - left), abs(right - central), abs(left - central))
    return worst


_CONSERVATION_T = 100.0  # flow time of each conservation orbit


def _conservation_checks(H, starts, config) -> list[Check]:
    h_worst = 0.0
    xi1_worst = 0.0
    for y0 in np.atleast_2d(starts):
        # the drift bounds are the checks' own, so the integrator only reports
        trace = integrate_orbit(H, y0, _CONSERVATION_T, config, enforce_drift=False)
        h_worst = max(h_worst, trace.h_drift())
        xi1_worst = max(xi1_worst, trace.h1_drift())
    return [
        at_most("conservation.h_drift", h_worst, 1e-8),
        at_most("conservation.xi1_drift", xi1_worst, 1e-8),
    ]


def _return_map_entropy(H, spec, rng, *, n_cloud, T_list, eps_list, config) -> tuple:
    """Separated-set entropy of the section return map on a random cloud.

    Each orbit is marched once through ``max(T_list)`` returns (the crossing
    loop of :mod:`~finslerlab.sections`); orbits short of them are left out
    and counted.  The fit window (T_list) should sit in the tail of the
    iterate range: a zero-entropy twist map has linear count growth, whose
    log-slope over an early window reflects the window, not the map.
    """
    chart = AnnulusChart(H, spec)
    n_iter = max(T_list)
    s = rng.uniform(0.0, chart.circumference, n_cloud)
    u = rng.uniform(0.15 * math.pi, 0.85 * math.pi, n_cloud)
    states = np.array([chart.point_to_state(si, ui) for si, ui in zip(s, u)])
    _, crossings, _, errors = _returns(H, states, spec, config, chart, n_iter)
    alive = np.array([err is None for err in errors], dtype=bool)
    orbits = np.concatenate([states[alive, None], crossings[alive]], axis=1)
    segments = chart.points_of_states(orbits.reshape(-1, 4)).reshape(-1, n_iter + 1, 2)
    est = entropy_separated_sets(
        segments,
        T_list=T_list,
        eps_list=eps_list,
        metric=wrapped_metric([chart.circumference, None]),
    )
    return est, int(np.count_nonzero(~alive))


def _shoelace(points) -> float:
    """Polygon area, summed in Python floats so that no BLAS kernel sets its bits."""
    pts = [(float(x), float(y)) for x, y in points]
    forward = backward = 0.0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1]):
        forward += x0 * y1
        backward += y0 * x1
    return 0.5 * abs(forward - backward)


def _direction_from_cycles(lifted_base: np.ndarray, period: float) -> np.ndarray:
    """Chord direction between the first and last whole-x2-cycle crossings."""
    x2 = lifted_base[:, 1]
    levels = np.floor(x2 / period)
    jumps = np.nonzero(np.diff(levels) != 0)[0]
    if len(jumps) < 2:
        raise ValueError("trace covers fewer than two x2 cycles")

    def crossing_point(i):
        lv = period * max(levels[i], levels[i + 1])
        w = (lv - x2[i]) / (x2[i + 1] - x2[i])
        return lifted_base[i] + w * (lifted_base[i + 1] - lifted_base[i])

    chord = crossing_point(jumps[-1]) - crossing_point(jumps[0])
    return chord / np.hypot(chord[0], chord[1])


# --- scenario defaults ---------------------------------------------------------


def scenario_defaults(name: str) -> dict:
    cfg = default_config()
    cfg["scenario"]["name"] = name
    if name == "round-sphere-baseline":
        cfg["analysis"] = {"periodicity_samples": 50, "grid": 8}
    elif name == "katok-sphere":
        cfg["metric"]["kind"] = "katok"
        cfg["analysis"] = {
            "axiom_samples": 1000,
            "entropy": {"cloud": 2000, "T_list": [8, 12, 16, 20, 24], "eps": [0.5, 0.25]},
            "iterate_plot": {"seeds": 5, "iterates": 200},
        }
    elif name == "katok-torus":
        cfg["profile"] = {"kind": "spliced", "L": 4.0, "eps": 0.25}
        cfg["metric"].update(kind="katok", reversible=True)
        cfg["section"].update(kind="meridian", max_return_time=40.0)
        cfg["analysis"] = {
            "entropy": copy.deepcopy(FLOW_ENTROPY_DEFAULTS),
            "tube": copy.deepcopy(TUBE_DEFAULTS),
            "graph_bins": [32, 128],
        }
    elif name == "benchmark-maps":
        cfg["analysis"] = {
            "cloud": 2000,
            "doubling": {"iterates": max(MAP_SYSTEMS["doubling"].T_list), "eps": list(MAP_SYSTEMS["doubling"].eps)},
            "cat": {"T_list": list(MAP_SYSTEMS["cat"].T_list), "eps": list(MAP_SYSTEMS["cat"].eps)},
        }
    elif name == "appendix-smooth-division":
        cfg["analysis"] = {"xs": [-1.0, 0.5, 2.0], "fd_step": 0.05}
    else:
        raise UnknownScenario(name)
    return cfg


# --- scenario runners ------------------------------------------------------------


def _run_round_sphere(cfg, rng, artifact, stage) -> list[Check]:
    profile = profile_from_spec(cfg["profile"])
    h0 = RotationalDualMetric(profile)
    config = integrator_from_config(cfg)
    spec = section_from_config(cfg)
    checks: list[Check] = []

    with stage("axioms"):
        states = sample_covectors(rng, 1000, x2_range=(-2.0, 2.0))
        checks += axiom_checks(h0, states, rng)

    with stage("periodicity"):
        n_samp = int(cfg["analysis"]["periodicity_samples"])
        cone_states = sample_cone_states(rng, profile, 0.5, n_samp)
        worst = check_periodicity(h0, cone_states, TWO_PI, config).max_distance
        checks.append(at_most("periodicity.max_distance", worst, 1e-6))

    with stage("return_grid"):
        n_grid = int(cfg["analysis"]["grid"])
        s_vals = np.linspace(0.2, TWO_PI - 0.2, n_grid)
        # asymmetric angle grid: the exact polar direction u = pi/2 leaves the
        # sphere chart through a pole and never returns in-chart
        u_vals = np.linspace(0.3, math.pi - 0.35, n_grid)
        table = build_return_map_grid(h0, spec, s_vals, u_vals, config)
        ok = table.ok_records()
        id_err = max(
            max(
                abs((r.s_image - r.s + math.pi) % TWO_PI - math.pi),
                abs(r.u_image - r.u),
            )
            for r in ok
        )
        tau_err = max(abs(r.tau - TWO_PI) for r in ok)
        checks.append(at_most("return_grid.identity", id_err, 1e-6))
        checks.append(at_most("return_grid.tau", tau_err, 1e-6))
        checks.append(at_least("return_grid.all_points_returned", float(len(ok)), float(n_grid**2)))

    with stage("boundary"):
        ext = return_time_boundary_extension(h0, spec, config)
        gap = abs(ext.tau_boundary - TWO_PI)
        checks.append(at_most("boundary.tau_gap", gap, 1e-5))
        checks.append(at_most("boundary.poly_residual", ext.residual, 1e-4))

    with stage("conservation"):
        trapped = np.array([0.0, 0.0, 0.6, 0.8])
        meridianish = np.array([0.0, -0.5, 0.2, float(np.sqrt(profile.f(-0.5) ** 2 - 0.04))])
        checks += _conservation_checks(h0, [trapped, meridianish], config)

    try:
        integrate_orbit(h0, np.array([0.0, 0.0, 0.0, 1.0]), 2.0, config)
        checks.append(at_most("pole.abort", math.inf, math.pi / 2 + 0.01, detail="no abort"))
    except PoleProximity as err:
        checks.append(at_most("pole.abort", err.time, math.pi / 2 + 0.01))

    with stage("artifacts"):
        path = artifact("return_grid.csv")
        if path:
            table.to_csv(path)
        path = artifact("section.svg")
        if path:
            pts = np.array([[r.s, r.u] for r in ok])
            Path(path).write_text(render_section_plot([pts], title="round sphere return map"), encoding="utf-8")
        path = artifact("orbit.csv")
        if path:
            integrate_orbit(h0, trapped, 20.0, config).to_csv(path)
    return checks


def _require_metric(m: dict, **fixed) -> None:
    """Reject a metric block that names another metric than the one the runner builds."""
    for key, value in fixed.items():
        if m[key] != value:
            raise ConfigInvalid(f"metric.{key}", f"this scenario runs {key} = {value!r}, not {m[key]!r}")


def _run_katok_sphere(cfg, rng, artifact, stage) -> list[Check]:
    profile = profile_from_spec(cfg["profile"])
    m = cfg["metric"]
    _require_metric(m, kind="katok", reversible=False)
    cutoffs = make_cutoffs(m["a0"], m["a1"], m["b"])
    alpha = float(m["alpha"])
    metric = build_katok_family(profile, cutoffs, alpha)
    reversible = reversibilize(metric)
    h0 = RotationalDualMetric(profile)
    config = integrator_from_config(cfg)
    spec = section_from_config(cfg)
    checks: list[Check] = []
    n_ax = int(cfg["analysis"]["axiom_samples"])

    with stage("axioms"):
        states = sample_covectors(rng, n_ax, x2_range=(-1.5, 1.5))
        checks += axiom_checks(metric, states, rng)

    with stage("locality"):
        outside = sample_outside_cone_states(rng, profile, m["a1"], 1000, x2_range=(-2.5, 2.5))
        gap_out = float(np.max(np.abs(np.asarray(metric.value(outside)) - np.asarray(h0.value(outside)))))
        checks.append(at_most("locality.outside_inner_cone", gap_out, 0.0, detail="exact zero"))
        inside = sample_cone_states(rng, profile, m["a0"], 1000)
        gap_in = float(
            np.max(np.abs(np.asarray(metric.value(inside)) - (np.asarray(h0.value(inside)) + alpha * inside[:, 2])))
        )
        checks.append(at_most("locality.inner_cone_formula", gap_in, 1e-14))

    with stage("commuting"):
        cone_samples = sample_cone_states(rng, profile, m["a0"], 10, scale_range=(1.0, 1.0))
        checks.append(_commuting_check(profile, alpha, cutoffs, cone_samples, config))

    with stage("reversibilization"):
        pts = sample_covectors(rng, 1000, x2_range=(-2.0, 2.0))
        checks.append(evenness_check(reversible, pts))
        seam = np.array([[0.3, x2, 0.0, s] for x2 in (-1.0, -0.2, 0.5, 1.1) for s in (0.9, -0.9)])
        jet_gap = _jet_gap_across_seam(reversible, seam)
        checks.append(at_most("reversible.seam_jets", jet_gap, 1e-5))

    with stage("area"):
        chart = AnnulusChart(metric, spec)
        s0, u0, d = 0.8, 0.25, 0.01
        corners = [(s0 - d, u0 - d), (s0 + d, u0 - d), (s0 + d, u0 + d), (s0 - d, u0 + d)]
        before = []
        after = []
        for corner in corners:
            y = chart.point_to_state(*corner)
            before.append(chart.symplectic_coords(y))
            sample = first_return(metric, spec, corner, config, chart=chart)
            y_img = chart.point_to_state(*sample.image)
            # x1-lift of the crossing state: winding in turns times 2 pi
            after.append((y[0] + sample.lift_displacement * TWO_PI, y_img[2]))
        a0_, a1_ = _shoelace(before), _shoelace(after)
        area_err = abs(a1_ - a0_) / a0_
        checks.append(at_most("area.quad_relative_error", area_err, 0.01))

    with stage("rotation"):
        orbit = iterate_section_map(metric, spec, (0.5, 0.3), 40, config)
        rot = rotation_number_from_displacements(orbit.displacements)
        rot_err = abs(rot.value - (1.0 + alpha))
        checks.append(at_most("rotation.cone_twist", rot_err, 1e-6))

    with stage("boundary"):
        ext = return_time_boundary_extension(metric, spec, config)
        checks.append(holds("boundary.tau_finite", math.isfinite(ext.tau_boundary), ext.tau_boundary))
        checks.append(at_most("boundary.poly_residual", ext.residual, 1e-4))

    with stage("entropy"):
        ent_cfg = cfg["analysis"]["entropy"]
        est, n_failed = _return_map_entropy(
            metric,
            spec,
            rng,
            n_cloud=int(ent_cfg["cloud"]),
            T_list=[int(t) for t in ent_cfg["T_list"]],
            eps_list=list(ent_cfg["eps"]),
            # each orbit holds its own error to the tolerance: at 1e-9 it beats the
            # cloud's former shared RK45 1e-8 step on every return error measured
            config=CLOUD_CONFIG.with_(rel_tol=1e-9, abs_tol=1e-9),
        )
        checks.append(at_most("entropy.return_map", est.value, 0.05))
        checks.append(at_most("entropy.return_map_failures", float(n_failed), 0.0))

    with stage("conservation"):
        band_xi2 = solve_xi2_on_level(metric, 0.0, 0.0, 0.84)
        starts = [
            sample_cone_states(rng, profile, m["a0"], 1, scale_range=(1.0, 1.0))[0],
            np.array([0.0, 0.0, 0.84, band_xi2]),
            np.array([0.0, 0.0, 0.6, 0.8]),
        ]
        checks += _conservation_checks(metric, starts, config)

    lo, hi = critical_alpha_scan(profile, cutoffs, tol=1e-2)
    checks.append(holds("convexity.critical_alpha", True, lo, detail=f"sampled bracket ({lo:.4f}, {hi:.4f})"))

    with stage("artifacts"):
        path = artifact("entropy.csv")
        if path:
            est.to_csv(path)
        path = artifact("iterates.svg")
        if path:
            plot_cfg = cfg["analysis"]["iterate_plot"]
            groups = []
            # u = pi/2 is the polar direction, which leaves the chart strip
            for u_seed in np.linspace(0.25, math.pi / 2, int(plot_cfg["seeds"]), endpoint=False):
                so = iterate_section_map(metric, spec, (1.0, float(u_seed)), int(plot_cfg["iterates"]), CLOUD_CONFIG)
                groups.append(so.points)
            Path(path).write_text(
                render_section_plot(groups, title="perturbed sphere section iterates"), encoding="utf-8"
            )
    return checks


def _run_katok_torus(cfg, rng, artifact, stage) -> list[Check]:
    profile = profile_from_spec(cfg["profile"])
    period = profile.period
    m = cfg["metric"]
    _require_metric(m, kind="katok", reversible=True)
    cutoffs = make_cutoffs(m["a0"], m["a1"], m["b"])
    alpha = float(m["alpha"])
    metric = reversibilize(build_katok_family(profile, cutoffs, alpha))
    h0 = RotationalDualMetric(profile)
    config = integrator_from_config(cfg)
    checks: list[Check] = []

    with stage("axioms"):
        states = sample_covectors(rng, 1000, x2_range=(0.0, period))
        checks += axiom_checks(metric, states, rng)

    # invariant level-set graphs, closed form, two bin resolutions
    with stage("graphs_level"):
        c_rot = 0.2
        bins = cfg["analysis"]["graph_bins"]
        level, reports = level_set_graphs(
            period, c_rot, 256, lambda x2: np.sqrt(np.asarray(profile.f(x2)) ** 2 - c_rot**2), bins
        )
        stable = all(r.is_graph for r in reports)
        checks.append(
            holds(
                "graphs.level_set_stable",
                stable,
                max(r.max_fiber_gap for r in reports),
                detail=f"bins {bins}, verdicts {[r.is_graph for r in reports]}",
            )
        )
        two_branch = np.concatenate([level, level * np.array([1.0, 1.0, 1.0, -1.0])])
        rep2 = invariant_graph_test(two_branch, x2_period=period, bins=(32, 32))
        checks.append(holds("graphs.two_branch_rejected", not rep2.is_graph, rep2.max_fiber_gap))

    # long rotating orbit lies on the analytic graph
    with stage("graphs_orbit"):
        y_rot = np.array([0.0, 0.0, c_rot, float(np.sqrt(profile.f(0.0) ** 2 - c_rot**2))])
        orbit_cfg = ENSEMBLE_CONFIG.with_(checkpoint_dt=0.05)
        tr_rot = integrate_orbit(metric, y_rot, 2000.0, orbit_cfg, enforce_drift=False)
        rep_orbit = [
            invariant_graph_test(tr_rot.states, x2_period=period, bins=(nb, nb)) for nb in (32, 128)
        ]
        checks.append(
            holds(
                "graphs.rotating_orbit",
                all(r.is_graph for r in rep_orbit),
                max(r.max_fiber_gap for r in rep_orbit),
                detail=f"lipschitz {['%.3f' % r.lipschitz_estimate for r in rep_orbit]}",
            )
        )

    # bounded deviation of the rotating orbit stabilizes between T and 2T.
    # The line direction comes from whole x2-cycles: the x1-advance per cycle
    # is an exact constant of the reduced system, so a chord between
    # same-phase crossings is parallel to the true asymptotic direction.
    with stage("deviation"):
        rho = _direction_from_cycles(tr_rot.lifted_base, period)
        half = tr_rot.states[: len(tr_rot.times) // 2, :2]
        dev_half = bounded_deviation(half, rho).sup_distance
        dev_full = bounded_deviation(tr_rot.lifted_base, rho).sup_distance
        dev_change = abs(dev_full - dev_half) / dev_full
        checks.append(at_most("deviation.rotating_stable", dev_change, 0.05))

    # trapped orbit confined by the turning point
    with stage("trapped"):
        c_trap = 0.6
        y_trap = np.array([0.0, 0.0, c_trap, float(np.sqrt(profile.f(0.0) ** 2 - c_trap**2))])
        tr_trap = integrate_orbit(metric, y_trap, 300.0, ENSEMBLE_CONFIG, enforce_drift=False)
        x_star = turning_point_bisect(profile, c_trap, x_hi=period / 2.0 - float(cfg["profile"]["eps"]))
        sup_x2 = float(np.max(np.abs(tr_trap.states[:, 1])))
        checks.append(at_most("trapped.sup_x2_bound", sup_x2, x_star + 1e-4))

    # tube diagnostics
    with stage("tube"):
        witness_c = 0.55
        y_wit = np.array([0.0, 0.0, witness_c, solve_xi2_on_level(metric, 0.0, 0.0, witness_c)])
        tube = TubeSpec(c_lo=profile.min_value(), c_hi=1.0 / (1.0 + alpha))
        report = tube_run(
            metric, tube, period, cfg["analysis"]["tube"], rng, witness_c, [y_wit], 30.0, 1000.0, ENSEMBLE_CONFIG
        )
        gap_violation = float(np.max(report.initial_gaps - report.min_boundary_dists))
        checks.append(at_most("tube.gap_bound", gap_violation, 1e-6))
        n_positive = sum(1 for (_, _, d) in report.witness_distances if d > 0.0)
        checks.append(at_least("tube.witness_holes", float(n_positive), 5.0, detail="positive distances"))
        mono = bool(np.all(np.diff(report.boundary_fraction) >= 0.0))
        checks.append(holds("tube.fraction_monotone", mono, float(mono)))

    # separated-set entropy of the integrable time-1 flow
    with stage("entropy"):
        est = flow_entropy(h0, period, cfg["analysis"]["entropy"], rng)
        checks.append(at_most("entropy.integrable_flow", est.value, 0.05))

    # conservation battery (trapped, rotating, in-cone, band-crossing)
    with stage("conservation"):
        band_xi2 = solve_xi2_on_level(metric, 0.0, 0.0, 0.84)
        cone_state = sample_cone_states(rng, profile, m["a0"], 1, scale_range=(1.0, 1.0))[0]
        checks += _conservation_checks(
            metric,
            [y_trap, y_rot, cone_state, np.array([0.0, 0.0, 0.84, band_xi2])],
            config,
        )

    # asymptotic directions
    with stage("directions"):
        c_deep = 0.96
        y_deep = np.array([0.0, 0.0, c_deep, solve_xi2_on_level(metric, 0.0, 0.0, c_deep)])
        tr_deep = integrate_orbit(metric, y_deep, 1000.0, ENSEMBLE_CONFIG, enforce_drift=False)
        dir_est = asymptotic_direction(tr_deep)
        angle = abs(math.atan2(dir_est.direction[1], dir_est.direction[0]))
        checks.append(
            holds(
                "directions.trapped_horizontal",
                angle <= 2e-3 and dir_est.residual <= 1e-3,
                dir_est.residual,
                1e-3,
                detail=f"angle to +e1: {angle:.2e}",
            )
        )
        y_vert = np.array([1.0, 0.3, 0.0, float(profile.f(0.3))])
        tr_vert = integrate_orbit(metric, y_vert, 50.0, ENSEMBLE_CONFIG, enforce_drift=False)
        dir_vert = asymptotic_direction(tr_vert)
        checks.append(at_most("directions.vertical_rotating", abs(float(dir_vert.direction[0])), 1e-9))

    with stage("commuting"):
        cone_samples = sample_cone_states(rng, profile, m["a0"], 4, scale_range=(1.0, 1.0))
        checks.append(_commuting_check(profile, alpha, cutoffs, cone_samples, config))

    with stage("artifacts"):
        path = artifact("entropy.csv")
        if path:
            est.to_csv(path)
        path = artifact("tube.json")
        if path:
            dump_json(
                {
                    "eps_grid": report.eps_grid,
                    "boundary_fraction": report.boundary_fraction,
                    "witness_distances": [[c.tolist(), r, d] for (c, r, d) in report.witness_distances],
                },
                path,
            )
        path = artifact("rotating_orbit.csv")
        if path:
            tr_trap.to_csv(path)
    return checks


def _run_benchmark_maps(cfg, rng, artifact, stage) -> list[Check]:
    checks: list[Check] = []
    n_cloud = int(cfg["analysis"]["cloud"])
    identity, rotation, doubling, cat_sys = (MAP_SYSTEMS[k] for k in ("identity", "rotation", "doubling", "cat"))

    with stage("entropy_zero"):
        cloud1 = rng.uniform(0.0, 1.0, (n_cloud, 1))
        ident = identity.entropy(cloud1, identity.T_list, identity.eps)
        checks.append(holds("entropy.identity", abs(ident.value) <= 0.02, ident.value, 0.02))
        rot = rotation.entropy(cloud1, rotation.T_list, rotation.eps)
        checks.append(holds("entropy.rigid_rotation", abs(rot.value) <= 0.02, rot.value, 0.02))

    with stage("entropy_doubling"):
        dbl_cfg = cfg["analysis"]["doubling"]
        dbl = doubling.entropy(cloud1, range(int(dbl_cfg["iterates"]) + 1), dbl_cfg["eps"])
        rel_dbl = abs(dbl.value / math.log(2.0) - 1.0)
        checks.append(holds("entropy.doubling", rel_dbl <= 0.15, dbl.value, detail=f"rel err {rel_dbl:.3f} vs log 2"))

    with stage("entropy_cat"):
        cat_cfg = cfg["analysis"]["cat"]
        cloud2 = rng.uniform(0.0, 1.0, (n_cloud, cat_sys.dim))
        cat = cat_sys.entropy(cloud2, cat_cfg["T_list"], cat_cfg["eps"])
        rel_cat = abs(cat.value / CAT_ENTROPY - 1.0)
        checks.append(
            holds(
                "entropy.cat_map", rel_cat <= 0.10, cat.value, detail=f"rel err {rel_cat:.3f} vs log((3+sqrt5)/2)"
            )
        )

    est = rotation_number(rigid_rotation(0.25), 0.1, 200)
    checks.append(holds("rotation.rigid_exact", est.value == 0.25 and est.error_bound <= 1e-15, est.value))
    est2 = rotation_number(twist_map(), (0.0, 1.0 / 3.0), 150)
    err2 = abs(est2.reduction - 1.0 / 3.0)
    checks.append(at_most("rotation.twist_row", err2, 1e-12))

    base = rigid_rotation(0.25)

    def shifted_lift(x):
        x_new, d = base(x)
        return x_new, d + 3.0

    est3 = rotation_number(shifted_lift, 0.1, 100)
    checks.append(at_most("rotation.lift_invariance", abs(est3.reduction - est.reduction), 1e-12))

    with stage("artifacts"):
        for name, est_obj in (("identity", ident), ("doubling", dbl), ("cat", cat)):
            path = artifact(f"entropy_{name}.csv")
            if path:
                est_obj.to_csv(path)
    return checks


def _run_smooth_division(cfg, rng, artifact, stage) -> list[Check]:
    del rng
    xs = [float(x) for x in cfg["analysis"]["xs"]]
    battery = [
        # name, F(x, t), exact [G, G', G''] at t = 0 as functions of x
        ("linear", lambda x, t: t, lambda x: (1.0, 0.0, 0.0)),
        ("sine", lambda x, t: x * math.sin(t), lambda x: (x, 0.0, -x / 3.0)),
        ("texp", lambda x, t: t * math.exp(x * t), lambda x: (1.0, x, x * x)),
        ("tcos", lambda x, t: t * math.cos(x * t), lambda x: (1.0, 0.0, -x * x)),
    ]
    fd_step = float(cfg["analysis"]["fd_step"])
    checks: list[Check] = []
    rows = []
    with stage("battery"):
        worst = {0: 0.0, 1: 0.0, 2: 0.0}
        worst_identity = {0: 0.0, 1: 0.0, 2: 0.0}
        for name, F, exact in battery:
            q = smooth_divide(F, order=2)
            for x in xs:
                vals = exact(x)
                for k in range(3):
                    got = q.dt_at_zero(x, k)
                    worst[k] = max(worst[k], abs(got - vals[k]))
                    # independent route: (k+1)-th derivative of F by central stencil
                    nodes = np.arange(-4, 5) * fd_step
                    fv = np.array([F(x, t) for t in nodes])
                    coeff = np.polynomial.polynomial.polyfit(nodes, fv, 7)
                    dkp1_f = math.factorial(k + 1) * coeff[k + 1]
                    worst_identity[k] = max(worst_identity[k], abs(got - dkp1_f / (k + 1.0)))
                    rows.append((name, x, k, got, vals[k]))
        for k in range(3):
            checks.append(at_most(f"smooth_divide.exact_k{k}", worst[k], 1e-4))
            checks.append(
                at_most(
                    f"smooth_divide.derivative_identity_k{k}",
                    worst_identity[k],
                    1e-4,
                    detail="dG^k(0) vs dF^(k+1)(0)/(k+1), finite-difference route",
                )
            )

    try:
        smooth_divide(lambda x, t: 1.0 + t, order=1)(0.0, 0.0)
        checks.append(holds("smooth_divide.not_vanishing_guard", False, 1.0))
    except NotVanishing:
        checks.append(holds("smooth_divide.not_vanishing_guard", True, 0.0))

    q = smooth_divide(lambda x, t: math.sin(x * t), order=2)
    t_switch = q.t_switch
    gap = abs(q(1.3, t_switch * 1.0000001) - q(1.3, t_switch * 0.9999999))
    checks.append(at_most("smooth_divide.branch_agreement", gap, 1e-8))

    with stage("artifacts"):
        path = artifact("battery.csv")
        if path:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("case,x,k,value,exact\n")
                for name, x, k, got, val in rows:
                    fh.write(f"{name},{x!r},{k},{got!r},{val!r}\n")
    return checks


_RUNNERS = {
    "round-sphere-baseline": _run_round_sphere,
    "katok-sphere": _run_katok_sphere,
    "katok-torus": _run_katok_torus,
    "benchmark-maps": _run_benchmark_maps,
    "appendix-smooth-division": _run_smooth_division,
}


def run_scenario(
    name: str,
    *,
    seed: int | None = None,
    config_file=None,
    overrides=(),
    out_root="out",
    write: bool = True,
) -> RunReport:
    """Run one registered scenario and (optionally) persist its artifacts.

    Output layout: <out_root>/<scenario>/<timestamp>/ with a ``latest``
    symlink; report.json carries no wall-clock data, so identical
    (scenario, seed, config) runs are byte-identical.  The run directory is
    made at the first file written, so a run that raises first leaves none.
    """
    if name not in _RUNNERS:
        raise UnknownScenario(f"{name!r} (known: {', '.join(SCENARIO_NAMES)})")
    cfg = build_config(scenario_defaults(name), config_file, overrides, seed)
    require_keys(cfg, scenario_defaults(name))
    seed_val = cfg["scenario"]["seed"]
    rng = np.random.default_rng(seed_val)

    run_dir = None
    artifacts: list[str] = []
    if write:
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime()) + f"-{time.time_ns() % 10**6:06d}"
        run_dir = Path(out_root) / name / stamp

    def artifact(fname: str):
        if run_dir is None:
            return None
        run_dir.mkdir(parents=True, exist_ok=True)
        artifacts.append(fname)
        return run_dir / fname

    timings: dict[str, float] = {}

    @contextmanager
    def stage(key: str):
        """Add the wall time of the block to ``key`` (sidecar only)."""
        t0 = time.perf_counter()
        yield
        timings[key] = timings.get(key, 0.0) + time.perf_counter() - t0

    with stage("total"):
        checks = _RUNNERS[name](cfg, rng, artifact, stage)

    report = RunReport(
        scenario=name,
        seed=seed_val,
        config=cfg,
        checks=checks,
        artifacts=sorted(artifacts),
        timings=timings,
    )
    if run_dir is not None:
        run_dir.mkdir(parents=True, exist_ok=True)
        export_report(report, run_dir / "report.json", "json")
        export_report(report, run_dir / "checks.csv", "csv-summary")
        dump_json(timings, run_dir / "timings.json")
        latest = run_dir.parent / "latest"
        try:
            if latest.is_symlink() or latest.exists():
                latest.unlink()
            latest.symlink_to(run_dir.name)
        except OSError:
            pass
    return report
