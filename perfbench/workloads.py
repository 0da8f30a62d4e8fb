"""The three benchmark workloads: seeded inputs, one timed pass, reference checks.

Each workload class builds its inputs in ``__init__`` (the set-up that
``setup_s`` measures), runs its library calls in ``run`` (one pass, timed as
``wall_s``) and judges the pass in ``check``.  ``check`` returns one
``(name, passed, value)`` triple per checked operation -- an orbit, a grid
point, a cloud return or an entropy estimate -- against a reference that does
not come from the computation itself: closed forms (tau = 2 pi on the round
sphere, rotation number 1 + alpha in the inner cone), conserved quantities,
the Clairaut turning point, and the known entropies of the calibration maps.
Tolerances are the scenario checks' tolerances (``finslerlab.scenarios``).

Only inputs generated from the seed reach the library.  Every pass repeats
the same calls on the same inputs, so pass times differ only by noise.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import finslerlab.analysis as analysis_mod
from finslerlab.analysis import (
    TubeSpec,
    WitnessBall,
    entropy_separated_sets,
    invariant_graph_test,
    rotation_number_from_displacements,
    tube_diagnostics,
    turning_point_bisect,
    wrapped_metric,
)
from finslerlab.benchmarks import CAT_ENTROPY, cat_map, doubling_map, iterate_map_segments
from finslerlab.errors import FinslerLabError
from finslerlab.flow import TWO_PI, IntegratorConfig, integrate_ensemble, integrate_orbit
from finslerlab.metrics import ALPHA_GOLDEN, RotationalDualMetric, build_katok_family, reversibilize
from finslerlab.profiles import RoundSphereProfile, make_cutoffs, make_spliced_profile
from finslerlab.reporting import dump_json
from finslerlab.sampling import sample_tube_states, sample_unit_level, solve_xi2_on_level
from finslerlab.sections import (
    AnnulusChart,
    SectionSpec,
    build_return_map_grid,
    ensemble_return_step,
    iterate_section_map,
)

from tracing import MetricProxy, ProfileProxy

# integrator settings of the scenario stages each workload mirrors
ACCEPT = IntegratorConfig()  # DOP853 1e-12: conservation, return grid, section map
FAST = IntegratorConfig(method="DOP853", rel_tol=1e-9, abs_tol=1e-9)  # katok-torus orbits
CLOUD = IntegratorConfig(method="RK45", rel_tol=1e-8, abs_tol=1e-8)  # entropy clouds

TORUS_L, TORUS_EPS = 4.0, 0.25
A0, A1, B = 0.3, 1.3, 1.6


@dataclass(frozen=True)
class References:
    """Independent reference values; the smoke test perturbs them."""

    tau: float = TWO_PI  # round-sphere return time
    rotation: float = 1.0 + ALPHA_GOLDEN  # inner-cone twist of the Katok sphere
    doubling_entropy: float = math.log(2.0)
    cat_entropy: float = CAT_ENTROPY


class Inputs:
    """Wraps profiles and metrics in counting proxies when the pass is traced."""

    def __init__(self, tracer):
        self.tracer = tracer

    def profile(self, p):
        return ProfileProxy(p, self.tracer) if self.tracer.enabled else p

    def metric(self, H):
        return MetricProxy(H, self.tracer) if self.tracer.enabled else H


def _stratified(rng, lo, hi, n):
    """One uniform draw in each of n equal sub-intervals of [lo, hi]."""
    return lo + (np.arange(n) + rng.uniform(0.0, 1.0, n)) * (hi - lo) / n


def _torus_katok(inp):
    profile = inp.profile(make_spliced_profile(TORUS_L, TORUS_EPS))
    cut = make_cutoffs(A0, A1, B)
    return profile, inp.metric(reversibilize(build_katok_family(profile, cut, ALPHA_GOLDEN)))


def _sphere_katok(inp):
    profile = inp.profile(RoundSphereProfile())
    cut = make_cutoffs(A0, A1, B)
    return profile, inp.metric(build_katok_family(profile, cut, ALPHA_GOLDEN))


def _entropy(tr, segments, T_list, eps_list, metric):
    n, _, d = np.shape(segments)
    entries = n * n * (max(T_list) + 1)
    tr.count("analysis.dist_entries", entries)
    # bytes of float64 planes one distance slice computes: d coordinate
    # differences, the distance itself and the running-max update
    tr.count("analysis.dist_bytes_computed", entries * 8 * (d + 2))
    return tr.call(
        "analysis.entropy_separated_sets",
        entropy_separated_sets,
        segments,
        T_list=T_list,
        eps_list=eps_list,
        metric=metric,
    )


# --- per-orbit ---------------------------------------------------------------


class PerOrbit:
    """Acceptance-grade single orbits, tube, round-sphere grid, section map, CSV."""

    SIZES = {
        "full": dict(n_rot=4, t_rot=30.0, n_trap=4, t_trap=60.0, t_cons=15.0,
                     n_tube=4, t_tube=5.0, t_witness=20.0, grid=4, iterates=20),
        "tiny": dict(n_rot=1, t_rot=4.0, n_trap=1, t_trap=8.0, t_cons=3.0,
                     n_tube=2, t_tube=2.0, t_witness=3.0, grid=2, iterates=4),
    }

    def __init__(self, seed, size, tracer, out_dir):
        z = self.SIZES[size]
        self.z = z
        self.out_dir = Path(out_dir)
        inp = Inputs(tracer)
        rng = np.random.default_rng(seed)
        self.torus, self.H = _torus_katok(inp)
        self.sphere_h0 = inp.metric(RotationalDualMetric(inp.profile(RoundSphereProfile())))
        _, self.sphere_katok = _sphere_katok(inp)

        def start(c):
            x1 = float(rng.uniform(0.0, TWO_PI))
            xi2 = solve_xi2_on_level(self.H, x1, 0.0, c)
            return np.array([x1, 0.0, c, xi2 if rng.uniform() < 0.5 else -xi2])

        with tracer.span("sampling.torus_orbits"):
            # rotating levels lie below min f (about 0.266) and cross the splice
            # bridge; trapped levels above it turn back before the bridge
            self.rotating = [start(c) for c in _stratified(rng, 0.12, 0.22, z["n_rot"])]
            self.trapped = [start(c) for c in _stratified(rng, 0.5, 0.9, z["n_trap"])]
            self.conserve = [self.rotating[0], self.trapped[-1]]
        self.turning = [
            turning_point_bisect(self.torus, float(y[2]), x_hi=TORUS_L / 2.0 - TORUS_EPS)
            for y in self.trapped
        ]

        c_lo, c_hi = self.torus.min_value(), 1.0 / (1.0 + ALPHA_GOLDEN)
        self.tube = TubeSpec(c_lo=c_lo, c_hi=c_hi)
        with tracer.span("sampling.tube_states"):
            ens = sample_tube_states(
                self.H, rng, z["n_tube"], (c_lo + 0.02, c_hi - 0.02), x2_period=TORUS_L
            )
            c_w = float(rng.uniform(0.5, 0.6))
            witness = np.array([0.0, 0.0, c_w, solve_xi2_on_level(self.H, 0.0, 0.0, c_w)])
        self.tube_states = np.vstack([witness, ens])
        self.balls = [
            WitnessBall(center=np.array([math.pi, 0.3, c_w + off, 0.5]), radius=0.05)
            for off in (0.1, 0.15, -0.12, 0.2, -0.18)
        ]

        self.spec = SectionSpec()
        n = z["grid"]
        # the exact polar direction u = pi/2 leaves the chart, so the u grid
        # stays asymmetric about it (as in round-sphere-baseline)
        self.s_values = np.linspace(0.2, TWO_PI - 0.2, n) + rng.uniform(-0.1, 0.1)
        self.u_values = np.linspace(0.3, math.pi - 0.35, n) + rng.uniform(-0.05, 0.05)
        self.section_start = (float(rng.uniform(0.0, TWO_PI)), float(rng.uniform(0.1, 0.25)))

    def run(self, tr):
        z = self.z
        res = {}
        orbit_cfg = FAST.with_(checkpoint_dt=0.05)
        res["rotating"] = [
            self._orbit(tr, y, z["t_rot"], orbit_cfg) for y in self.rotating
        ]
        res["graphs"] = [
            None if isinstance(t, FinslerLabError) else tr.call(
                "analysis.invariant_graph_test", invariant_graph_test, t.states,
                x2_period=TORUS_L, bins=(32, 32))
            for t in res["rotating"]
        ]
        res["trapped"] = [self._orbit(tr, y, z["t_trap"], FAST) for y in self.trapped]
        res["conserve"] = [self._orbit(tr, y, z["t_cons"], ACCEPT) for y in self.conserve]

        with _traced_inner_flow(tr):
            res["tube"] = tr.call(
                "analysis.tube_diagnostics", tube_diagnostics, self.H, self.tube,
                self.tube_states, [0.02, 0.04, 0.08, 0.12, 0.2, 0.3], self.balls,
                ensemble_time=z["t_tube"], long_time=z["t_witness"], config=FAST,
            )

        n_points = len(self.s_values) * len(self.u_values)
        tr.count("flow.orbit_time", n_points * self.spec.max_return_time)
        res["grid"] = tr.call(
            "sections.build_return_map_grid", build_return_map_grid, self.sphere_h0,
            self.spec, self.s_values, self.u_values, ACCEPT,
        )
        res["section"] = self._section_map(tr)

        self.out_dir.mkdir(parents=True, exist_ok=True)
        files = {
            "trace": self.out_dir / "rotating_orbit.csv",
            "grid": self.out_dir / "return_grid.csv",
            "tube": self.out_dir / "tube.json",
        }
        first = res["rotating"][0]
        if not isinstance(first, FinslerLabError):
            self._write(tr, files["trace"], first.to_csv)
        self._write(tr, files["grid"], res["grid"].to_csv)
        tube = res["tube"]
        self._write(tr, files["tube"], lambda p: dump_json(
            {"eps_grid": tube.eps_grid, "boundary_fraction": tube.boundary_fraction,
             "witness_distances": [[c.tolist(), r, d] for c, r, d in tube.witness_distances]},
            p,
        ))
        res["files"] = files
        return res

    def _orbit(self, tr, y, T, config):
        tr.count("flow.orbit_time", T)
        try:
            return tr.call("flow.integrate_orbit", integrate_orbit, self.H, y, T, config,
                           enforce_drift=False)
        except FinslerLabError as err:
            return err

    def _section_map(self, tr):
        window = 16.0 * self.spec.max_return_time  # iterate_section_map's default
        try:
            orbit = tr.call(
                "sections.iterate_section_map", iterate_section_map, self.sphere_katok,
                self.spec, self.section_start, self.z["iterates"], ACCEPT,
            )
        except FinslerLabError as err:
            return err
        tr.count("flow.orbit_time", window * (math.floor(orbit.times[-1] / window) + 1))
        return orbit

    @staticmethod
    def _write(tr, path, writer):
        tr.call("reporting.write", writer, path)
        tr.count("reporting.bytes", path.stat().st_size)

    def check(self, res, refs: References):
        checks = []
        for i, t in enumerate(res["rotating"]):
            g = res["graphs"][i]
            ok = g is not None and g.is_graph
            checks.append((f"graphs.rotating_orbit[{i}]", ok, t if g is None else g.max_fiber_gap))
        for i, t in enumerate(res["trapped"]):
            bound = self.turning[i] + 1e-4
            sup = math.inf if isinstance(t, FinslerLabError) else float(np.max(np.abs(t.states[:, 1])))
            checks.append((f"trapped.sup_x2_bound[{i}]", sup <= bound, sup))
        for i, t in enumerate(res["conserve"]):
            drift = math.inf if isinstance(t, FinslerLabError) else max(t.h_drift(), t.h1_drift())
            checks.append((f"conservation.drift[{i}]", drift <= 1e-8, drift))

        tube = res["tube"]
        gap = tube.initial_gaps - tube.min_boundary_dists
        checks += [(f"tube.gap_bound[{i}]", v <= 1e-6, float(v)) for i, v in enumerate(gap)]
        checks.append(("tube.n_failed", tube.n_failed == 0, tube.n_failed))
        holes = [d for (_, _, d) in tube.witness_distances]
        checks.append(("tube.witness_holes", all(d > 0.0 for d in holes), min(holes)))

        for r in res["grid"].records:
            name = f"return_grid[{r.s:.3f},{r.u:.3f}]"
            if r.status != "ok":
                checks.append((name, False, r.status))
                continue
            id_err = max(abs((r.s_image - r.s + math.pi) % TWO_PI - math.pi), abs(r.u_image - r.u))
            tau_err = abs(r.tau - refs.tau)
            checks.append((name, id_err <= 1e-6 and tau_err <= 1e-6, max(id_err, tau_err)))

        orbit = res["section"]
        if isinstance(orbit, FinslerLabError):
            checks.append(("rotation.cone_twist", False, repr(orbit)))
        else:
            rot = rotation_number_from_displacements(orbit.displacements)
            err = abs(rot.value - refs.rotation)
            checks.append(("rotation.cone_twist", err <= 1e-6, err))

        files = res["files"]
        rows = files["grid"].read_text(encoding="utf-8").splitlines()[1:]
        taus = [float(line.split(",")[4]) for line in rows]
        same = np.array_equal(taus, [r.tau for r in res["grid"].records], equal_nan=True)
        checks.append(("reporting.grid_csv_roundtrip", same, len(rows)))
        first = res["rotating"][0]
        if not isinstance(first, FinslerLabError):
            n_rows = len(files["trace"].read_text(encoding="utf-8").splitlines()) - 1
            checks.append(("reporting.trace_csv_rows", n_rows == len(first.times), n_rows))
        loaded = json.loads(files["tube"].read_text(encoding="utf-8"))
        checks.append(("reporting.tube_json", loaded["boundary_fraction"] == tube.boundary_fraction.tolist(), 0))
        return checks


@contextmanager
def _traced_inner_flow(tr):
    """Trace the stacked integrations ``tube_diagnostics`` makes internally.

    Traced passes only: the library's own reference to ``integrate_ensemble``
    is swapped for a span-recording wrapper and restored afterwards.
    """
    if not tr.enabled:
        yield
        return
    original = analysis_mod.integrate_ensemble

    def traced(H, states0, T, *args, **kwargs):
        tr.count("flow.orbit_time", np.atleast_2d(states0).shape[0] * abs(T))
        return tr.call("flow.integrate_ensemble", original, H, states0, T, *args, **kwargs)

    analysis_mod.integrate_ensemble = traced
    try:
        yield
    finally:
        analysis_mod.integrate_ensemble = original


# --- return-cloud --------------------------------------------------------------


class ReturnCloud:
    """Stacked return-map steps of a Katok-sphere equator cloud, then 2-D entropy."""

    SIZES = {
        "full": dict(cloud=200, steps=8, T_list=[2, 4, 6, 8]),
        "tiny": dict(cloud=40, steps=4, T_list=[1, 2, 3, 4]),
    }
    EPS = [0.5, 0.25]
    POLAR_MARGIN = 0.002  # a 200-point uniform cloud's nearest orbit lies ~0.005 away

    def __init__(self, seed, size, tracer, out_dir):
        self.z = self.SIZES[size]
        inp = Inputs(tracer)
        rng = np.random.default_rng(seed)
        _, self.H = _sphere_katok(inp)
        # katok-sphere's entropy stage scans returns on a 0.04 grid
        self.spec = SectionSpec(scan_dt=0.04)
        self.chart = AnnulusChart(self.H, self.spec)
        n = self.z["cloud"]
        with tracer.span("sampling.section_cloud"):
            s = rng.uniform(0.0, self.chart.circumference, n)
            # The orbit nearest the polar direction u = pi/2 sets the shared step
            # of the stacked solve, and the pass time grows with log(1/|u - pi/2|):
            # uniform u made it vary by 40% between seeds.  So two orbits sit at
            # exactly POLAR_MARGIN from pi/2 and the rest are drawn outside it.
            lo, hi, m = 0.15 * math.pi, 0.85 * math.pi, self.POLAR_MARGIN
            u = rng.uniform(lo, hi - 2.0 * m, n)
            u[u >= math.pi / 2 - m] += 2.0 * m
            u[:2] = math.pi / 2 - m, math.pi / 2 + m
            self.states = np.array([self.chart.point_to_state(a, b) for a, b in zip(s, u)])

    def run(self, tr):
        z = self.z
        states = self.states
        n = states.shape[0]
        segments = np.empty((n, z["steps"] + 1, 2))
        segments[:, 0, :] = self.chart.points_of_states(states)
        ok_steps = []
        for k in range(1, z["steps"] + 1):
            tr.count("flow.orbit_time", n * self.spec.max_return_time)
            states, _, ok = tr.call(
                "sections.ensemble_return_step", ensemble_return_step, self.H, self.spec,
                states, CLOUD, chart=self.chart,
            )
            tr.count("sections.returns", n)
            tr.count("sections.returns_ok", int(np.count_nonzero(ok)))
            ok_steps.append(ok)
            segments[:, k, :] = self.chart.points_of_states(states)
        alive = np.logical_and.reduce(ok_steps)
        est = _entropy(tr, segments[alive], z["T_list"], self.EPS,
                       wrapped_metric([self.chart.circumference, None]))
        return {"ok": ok_steps, "entropy": est}

    def check(self, res, refs: References):
        checks = [
            (f"return[{k}][{j}]", bool(v), 0)
            for k, ok in enumerate(res["ok"])
            for j, v in enumerate(ok)
        ]
        value = res["entropy"].value
        checks.append(("entropy.return_map", value <= 0.05, value))
        return checks


# --- entropy-battery -------------------------------------------------------------


class EntropyBattery:
    """H0 spliced-torus cloud to integer times with 4-D entropy, plus the map battery."""

    SIZES = {
        "full": dict(cloud=400, horizon=10, maps=1000, cat=3000),
        "tiny": dict(cloud=400, horizon=4, maps=300, cat=3000),
    }

    def __init__(self, seed, size, tracer, out_dir):
        self.z = self.SIZES[size]
        inp = Inputs(tracer)
        rng = np.random.default_rng(seed)
        self.H = inp.metric(RotationalDualMetric(inp.profile(make_spliced_profile(TORUS_L, TORUS_EPS))))
        with tracer.span("sampling.unit_level"):
            self.cloud = sample_unit_level(self.H, rng, self.z["cloud"], x2_range=(0.0, TORUS_L))
        self.circle_cloud = rng.uniform(0.0, 1.0, (self.z["maps"], 1))
        # benchmark-maps' 2000-point cat cloud misses the 10% tolerance on
        # about one seed in 40 (error sd 0.024); 3000 points bring the sd to 0.020
        self.torus_cloud = rng.uniform(0.0, 1.0, (self.z["cat"], 2))

    def run(self, tr):
        horizon = self.z["horizon"]
        n = self.cloud.shape[0]
        tr.count("flow.orbit_time", n * horizon)
        trace = tr.call(
            "flow.integrate_ensemble", integrate_ensemble, self.H, self.cloud, float(horizon),
            CLOUD, t_eval=np.arange(horizon + 1.0),
        )
        segments = np.swapaxes(trace.states, 0, 1)
        res = {
            "flow": _entropy(tr, segments, list(range(0, horizon + 1, max(1, horizon // 5))),
                             [0.5, 0.3], wrapped_metric([TWO_PI, TORUS_L, None, None]))
        }
        circle = wrapped_metric([1.0])
        rot = (math.sqrt(5.0) - 1.0) / 2.0
        maps = {
            "identity": (lambda p: p, 6, [1 / 16, 1 / 32]),
            "rigid_rotation": (lambda p: (p + rot) % 1.0, 6, [1 / 16, 1 / 32]),
            "doubling": (doubling_map, 6, [1 / 16, 1 / 32, 1 / 64]),
        }
        for name, (fn, n_iter, eps) in maps.items():
            segs = iterate_map_segments(fn, self.circle_cloud, n_iter)
            res[name] = _entropy(tr, segs, list(range(n_iter + 1)), eps, circle)
        segs = iterate_map_segments(cat_map, self.torus_cloud, 4)
        res["cat"] = _entropy(tr, segs, [1, 2, 3, 4], [0.35, 0.3], wrapped_metric([1.0, 1.0]))
        return res

    def check(self, res, refs: References):
        dbl = abs(res["doubling"].value / refs.doubling_entropy - 1.0)
        cat = abs(res["cat"].value / refs.cat_entropy - 1.0)
        return [
            ("entropy.integrable_flow", res["flow"].value <= 0.05, res["flow"].value),
            ("entropy.identity", abs(res["identity"].value) <= 0.02, res["identity"].value),
            ("entropy.rigid_rotation", abs(res["rigid_rotation"].value) <= 0.02, res["rigid_rotation"].value),
            ("entropy.doubling", dbl <= 0.15, dbl),
            ("entropy.cat_map", cat <= 0.10, cat),
        ]


WORKLOADS = {
    "per-orbit": PerOrbit,
    "return-cloud": ReturnCloud,
    "entropy-battery": EntropyBattery,
}
