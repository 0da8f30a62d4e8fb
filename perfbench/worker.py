"""One benchmark process: set up one workload, then run timed, checked passes.

Started by ``run.py`` in a fresh interpreter with single-threaded BLAS, one
process at a time.  Prints one JSON object on its last stdout line.

Untraced (``--trace 0``): one checked warm-up pass, then timed passes until
``--seconds`` have elapsed (at least ``MIN_PASSES``).  Traced (``--trace 1``):
the same, alternating untraced passes with passes whose profiles and metrics
are wrapped in counting proxies; the per-layer numbers come from the traced
passes and the ratio of the two medians is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import finslerlab
from finslerlab.errors import FinslerLabError
from tracing import NullTracer, Tracer
from workloads import WORKLOADS, References

MIN_PASSES = 3


def checked_pass(wl, tr, refs):
    """Run one pass; return (wall_s, cpu_s, checks).  Library errors fail the pass."""
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        res = wl.run(tr)
    except FinslerLabError as err:
        return time.perf_counter() - t0, time.process_time() - c0, [
            ("pass", False, f"{type(err).__name__}: {err}")
        ]
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    return wall, cpu, wl.check(res, refs)


def layer_metrics(s: dict) -> dict:
    """Per-layer values of one traced pass, from the tracer summary ``s``."""
    calls, total, self_s, cnt = s["calls"], s["total_s"], s["self_s"], s["counters"]

    def ratio(num, den, empty):
        return num / den if den else empty

    out = {
        "profiles.scalar_calls": calls.get("profiles.scalar", 0),
        "profiles.scalar_s": total.get("profiles.scalar", 0.0),
        "profiles.bridge_frac": ratio(cnt.get("profiles.bridge_calls", 0), calls.get("profiles.scalar", 0), 0.0),
        "profiles.vector_calls": calls.get("profiles.vector", 0),
        "profiles.vector_s": total.get("profiles.vector", 0.0),
        "metrics.rhs_calls": calls.get("metrics.rhs", 0),
        "metrics.rhs_self_s": self_s.get("metrics.rhs", 0.0),
        "metrics.grad_calls": calls.get("metrics.grad", 0),
        "metrics.grad_rows": cnt.get("metrics.grad_rows", 0),
        "metrics.grad_self_s": self_s.get("metrics.grad", 0.0),
        "flow.orbit_time": cnt.get("flow.orbit_time", 0.0),
        "sections.return_ok_frac": ratio(cnt.get("sections.returns_ok", 0), cnt.get("sections.returns", 0), 1.0),
        "analysis.dist_entries": cnt.get("analysis.dist_entries", 0),
        "analysis.dist_bytes_computed": cnt.get("analysis.dist_bytes_computed", 0),
        "analysis.invariant_graph_test.s": total.get("analysis.invariant_graph_test", 0.0),
        "reporting.write_s": total.get("reporting.write", 0.0),
        "reporting.bytes": cnt.get("reporting.bytes", 0),
    }
    for span in ("flow.integrate_orbit", "flow.integrate_ensemble", "sections.ensemble_return_step"):
        out[f"{span}.calls"] = calls.get(span, 0)
    for span in (
        "flow.integrate_orbit",
        "flow.integrate_ensemble",
        "sections.build_return_map_grid",
        "sections.iterate_section_map",
        "sections.ensemble_return_step",
        "analysis.entropy_separated_sets",
        "analysis.tube_diagnostics",
    ):
        out[f"{span}.s"] = total.get(span, 0.0)
        if span != "analysis.entropy_separated_sets":
            out[f"{span}.self_s"] = self_s.get(span, 0.0)
    return out


def deterministic_part(s: dict) -> dict:
    """Counts that must repeat exactly for one seed."""
    return {"calls": s["calls"], "counters": s["counters"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    cls = WORKLOADS[args.workload]
    refs = References()
    result = {
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "finslerlab": finslerlab.__version__,
        },
    }
    out_dir = Path(args.out_dir)

    if args.trace:
        tracer = Tracer()
        traced = cls(args.seed, args.size, tracer, out_dir)
        sampling_s = sum(v for k, v in tracer.total.items() if k.startswith("sampling."))
    wl = cls(args.seed, args.size, NullTracer(), out_dir)
    result["setup_s"] = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps(result))
        return 0

    checks = []
    _, _, warm = checked_pass(wl, NullTracer(), refs)
    checks += warm
    walls, cpus, traced_walls, summaries = [], [], [], []
    begin = time.perf_counter()
    while time.perf_counter() - begin < args.seconds or len(walls) < MIN_PASSES or (
        args.trace and len(traced_walls) < MIN_PASSES
    ):
        wall, cpu, c = checked_pass(wl, NullTracer(), refs)
        walls.append(wall)
        cpus.append(cpu)
        checks += c
        if args.trace:
            tracer.reset()
            wall, _, c = checked_pass(traced, tracer, refs)
            traced_walls.append(wall)
            checks += c
            summaries.append(tracer.summary())

    if args.trace:
        repeat = all(deterministic_part(s) == deterministic_part(summaries[0]) for s in summaries)
        checks.append(("trace.counters_repeat", repeat, len(summaries)))
        per_pass = [layer_metrics(s) for s in summaries]
        # times are medians over the traced passes; counts repeat exactly
        layers = {
            k: statistics.median(p[k] for p in per_pass) if k.endswith(("_s", ".s")) else v
            for k, v in per_pass[0].items()
        }
        layers["sampling.s"] = sampling_s
        layers["process.cpu_s"] = statistics.median(cpus)
        layers["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(walls) - 1.0
        result["layers"] = layers
        result["traced_walls"] = traced_walls
        result["trace"] = {
            "summary": summaries[-1],
            "spans": [
                {"id": i, "parent": p, "name": n, "start": a, "end": b}
                for (i, p, n, a, b) in tracer.records
            ],
        }

    failures = [(n, v) for (n, ok, v) in checks if not ok]
    result.update(
        walls=walls,
        cpus=cpus,
        attempted=len(checks),
        failed=len(failures),
        failures=failures[:20],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
