"""Command-line interface.

Subcommands: simulate, section, rotation, entropy, graphs, tube, validate,
run <scenario>.  Common flags: --config <file.json>, --out <dir>,
--seed <int>, --set key.path=value (repeatable, JSON-parsed values).

Exit codes: 0 pass/ok, 2 a check failed, 3 usage or runtime error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .analysis import TubeSpec, rotation_number_from_displacements
from .config import (
    build_config,
    default_config,
    integrator_from_config,
    metric_from_config,
    parse_set_option,
    profile_from_config,
    section_from_config,
)
from .errors import FinslerLabError
from .flow import ENSEMBLE_CONFIG, integrate_orbit
from .reporting import dump_json, render_section_plot
from .sampling import sample_covectors, solve_xi2_on_level
from .scenarios import (
    MAP_SYSTEMS,
    SCENARIO_NAMES,
    axiom_checks,
    evenness_check,
    flow_entropy,
    level_set_graphs,
    run_scenario,
    tube_run,
)
from .sections import AnnulusChart, build_return_map_grid, iterate_section_map


def _overrides(args) -> list:
    return [parse_set_option(item) for item in args.set or []]


def _build_config(args) -> dict:
    return build_config(default_config(), args.config, _overrides(args), args.seed)


def _torus_period(cfg: dict, needs: str) -> float:
    period = cfg["profile"].get("L")
    if period is None:
        raise FinslerLabError(f"{needs} a periodic (spliced) profile")
    return float(period)


def _out_dir(args, command: str) -> Path:
    out = Path(args.out) if args.out else Path("out") / command
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_simulate(args) -> int:
    cfg = _build_config(args)
    metric = metric_from_config(cfg)
    integ = integrator_from_config(cfg)
    sim = cfg["analysis"].get("simulate", {})
    x1, x2 = float(sim.get("x1", 0.0)), float(sim.get("x2", 0.0))
    if "xi1" in sim or "xi2" in sim:
        y0 = np.array([x1, x2, float(sim.get("xi1", 1.0)), float(sim.get("xi2", 0.0))])
    else:
        theta = float(sim.get("theta", 0.0))
        from .metrics import unit_covector

        y0 = unit_covector(metric, x1, x2, theta)
    T = float(sim.get("T", 20.0))
    trace = integrate_orbit(metric, y0, T, integ)
    out = _out_dir(args, "simulate")
    trace.to_csv(out / "orbit.csv")
    dump_json(
        {
            "final_state": trace.final_state,
            "h_drift": trace.h_drift(),
            "xi1_drift": trace.h1_drift(),
            "time": T,
        },
        out / "summary.json",
    )
    print(f"orbit dumped to {out / 'orbit.csv'} (H drift {trace.h_drift():.2e})")
    return 0


def _cmd_section(args) -> int:
    cfg = _build_config(args)
    metric = metric_from_config(cfg)
    integ = integrator_from_config(cfg)
    spec = section_from_config(cfg)
    sec = cfg["analysis"].get("section", {})
    n_s = int(sec.get("grid_s", 8))
    n_u = int(sec.get("grid_u", 8))
    chart = AnnulusChart(metric, spec)
    s_vals = np.linspace(0.0, chart.circumference, n_s, endpoint=False) + 0.1
    u_vals = np.linspace(0.3, math.pi - 0.35, n_u)
    table = build_return_map_grid(metric, spec, s_vals, u_vals, integ)
    out = _out_dir(args, "section")
    table.to_csv(out / "return_map.csv")
    ok = table.ok_records()
    if ok:
        pts = np.array([[r.s, r.u] for r in ok])
        imgs = np.array([[r.s_image, r.u_image] for r in ok])
        (out / "section.svg").write_text(
            render_section_plot([pts, imgs], s_range=(0.0, chart.circumference)),
            encoding="utf-8",
        )
    print(f"{len(ok)}/{len(table.records)} grid points returned; table at {out / 'return_map.csv'}")
    return 0


def _cmd_rotation(args) -> int:
    cfg = _build_config(args)
    metric = metric_from_config(cfg)
    integ = integrator_from_config(cfg)
    spec = section_from_config(cfg)
    rot = cfg["analysis"].get("rotation", {})
    s0 = float(rot.get("s", 1.0))
    u0 = float(rot.get("u", 0.25))
    n = int(rot.get("n", 100))
    fast = integ.with_(rel_tol=max(integ.rel_tol, 1e-10), abs_tol=max(integ.abs_tol, 1e-10))
    orbit = iterate_section_map(metric, spec, (s0, u0), n, fast)
    est = rotation_number_from_displacements(orbit.displacements)
    out = _out_dir(args, "rotation")
    dump_json(
        {
            "start": [s0, u0],
            "n": est.n,
            "value": est.value,
            "reduction": est.reduction,
            "error_bound": est.error_bound,
        },
        out / "rotation.json",
    )
    print(f"rotation number {est.value!r} (mod 1: {est.reduction!r}, n={n})")
    return 0


def _cmd_entropy(args) -> int:
    cfg = _build_config(args)
    ent = cfg["analysis"].get("entropy", {})
    system = ent.get("system", "doubling")
    rng = np.random.default_rng(cfg["scenario"]["seed"])
    if system in MAP_SYSTEMS:
        maps = MAP_SYSTEMS[system]
        est = maps.entropy(rng.uniform(0, 1, (int(ent.get("cloud", 2000)), maps.dim)), maps.T_list, maps.eps)
    elif system == "flow":
        est = flow_entropy(metric_from_config(cfg), _torus_period(cfg, "flow entropy needs"), ent, rng)
    else:
        raise FinslerLabError(f"unknown entropy system {system!r}")
    out = _out_dir(args, "entropy")
    est.to_csv(out / f"entropy_{system}.csv")
    dump_json(
        {"system": system, "value": est.value, "value_eps": est.value_eps, "slopes": est.slopes},
        out / f"entropy_{system}.json",
    )
    print(f"{system}: entropy estimate {est.value:.4f} (eps {est.value_eps})")
    return 0


def _cmd_graphs(args) -> int:
    cfg = _build_config(args)
    metric = metric_from_config(cfg)
    period = _torus_period(cfg, "graph tests need")
    g = cfg["analysis"].get("graphs", {})
    c = float(g.get("c", 0.2))
    bins = g.get("bins", [32, 128])

    def xi2_of_x2(x2):
        return np.array([solve_xi2_on_level(metric, 0.0, v, c) or math.nan for v in x2])

    _, graph_reports = level_set_graphs(period, c, int(g.get("side", 256)), xi2_of_x2, bins)
    reports = {
        str(nb): {
            "is_graph": rep.is_graph,
            "max_fiber_gap": rep.max_fiber_gap,
            "lipschitz": rep.lipschitz_estimate,
            "occupied_fraction": rep.occupied_fraction,
        }
        for nb, rep in zip(bins, graph_reports)
    }
    out = _out_dir(args, "graphs")
    dump_json({"c": c, "reports": reports}, out / "graphs.json")
    print(f"graph verdicts: {[(k, v['is_graph']) for k, v in reports.items()]}")
    return 0


def _cmd_tube(args) -> int:
    cfg = _build_config(args)
    metric = metric_from_config(cfg)
    period = _torus_period(cfg, "tube diagnostics need")
    t = cfg["analysis"].get("tube", {})
    c_lo = float(t.get("c_lo", profile_from_config(cfg).min_value()))
    c_hi = float(t.get("c_hi", 0.95))
    rng = np.random.default_rng(cfg["scenario"]["seed"])
    report = tube_run(
        metric, TubeSpec(c_lo=c_lo, c_hi=c_hi), period, t, rng, 0.5 * (c_lo + c_hi), [],
        float(t.get("ensemble_time", 30.0)), float(t.get("long_time", 1000.0)), ENSEMBLE_CONFIG,
    )
    out = _out_dir(args, "tube")
    dump_json(
        {
            "tube": [c_lo, c_hi],
            "eps_grid": report.eps_grid,
            "boundary_fraction": report.boundary_fraction,
            "min_boundary_dists": report.min_boundary_dists,
            "witness_distances": [[c.tolist(), r, d] for (c, r, d) in report.witness_distances],
            "n_failed": report.n_failed,
        },
        out / "tube.json",
    )
    print(f"tube report at {out / 'tube.json'}")
    return 0


# validate.json key of each axiom-battery check
_VALIDATE_KEYS = {
    "axioms.homogeneity": "homogeneity_max_rel_err",
    "axioms.euler_identity": "euler_max_rel_err",
    "axioms.hessian_min_eigenvalue": "hessian_min_eigenvalue",
    "reversible.evenness": "evenness_max_err",
}


def _cmd_validate(args) -> int:
    cfg = _build_config(args)
    metric = metric_from_config(cfg)
    rng = np.random.default_rng(cfg["scenario"]["seed"])
    x2_range = (0.0, float(cfg["profile"]["L"])) if cfg["profile"]["kind"] == "spliced" else (-2.0, 2.0)
    states = sample_covectors(rng, 1000, x2_range=x2_range)
    checks = axiom_checks(metric, states, rng)
    if metric.reversible:
        checks.append(evenness_check(metric, states))
    result = {_VALIDATE_KEYS[c.name]: c.value for c in checks}
    passed = all(c.passed for c in checks)
    result["passed"] = passed
    out = _out_dir(args, "validate")
    dump_json(result, out / "validate.json")
    print(f"validate: {'PASS' if passed else 'FAIL'} ({out / 'validate.json'})")
    return 0 if passed else 2


def _cmd_run(args) -> int:
    report = run_scenario(
        args.scenario,
        seed=args.seed,
        config_file=args.config,
        overrides=_overrides(args),
        out_root=args.out or "out",
        write=True,
    )
    for c in report.checks:
        print(f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.value!r} (tol {c.tolerance!r}) {c.detail}")
    print(f"scenario {report.scenario}: {'PASS' if report.overall_pass else 'FAIL'}")
    return 0 if report.overall_pass else 2


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file merged over defaults")
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int, default=None, help="scenario seed")
    p.add_argument(
        "--set",
        action="append",
        metavar="KEY.PATH=VALUE",
        help="dotted-path config override (value parsed as JSON when possible)",
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="finslerlab",
        description="Rotational Finsler geodesic-flow laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "simulate": _cmd_simulate,
        "section": _cmd_section,
        "rotation": _cmd_rotation,
        "entropy": _cmd_entropy,
        "graphs": _cmd_graphs,
        "tube": _cmd_tube,
        "validate": _cmd_validate,
    }
    for name, help_text in (
        ("simulate", "integrate one orbit and dump it as CSV"),
        ("section", "tabulate a return-map grid as CSV (+SVG)"),
        ("rotation", "rotation number of the section map"),
        ("entropy", "separated-set entropy of a benchmark map or flow"),
        ("graphs", "invariant-graph test of a conserved level set"),
        ("tube", "elliptic-tube boundary/witness diagnostics"),
        ("validate", "metric axiom battery"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
    p_run = sub.add_parser("run", help="run a registered scenario")
    p_run.add_argument("scenario", choices=SCENARIO_NAMES)
    _add_common(p_run)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return handlers[args.command](args)
    except FinslerLabError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
