"""finslerlab benchmark: one command, three workloads, checked results.

Usage (from the repository root)::

    python3 perfbench/run.py --workload per-orbit --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each measurement runs in a fresh single-threaded process (``worker.py``), one
process at a time.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics (``wall_s``, ``setup_s``, ``peak_rss_mb``); with
``--trace 1`` it carries the per-layer metrics of a separate traced run.
``failed``/``attempted`` in that line are the checked operations; their ratio
is printed as ``fail_frac``.  A failed check sets ``"correct": false`` and the
exit code to 1.  Full results, provenance and trace spans are written under
``perfbench/.out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
WORKLOADS = ("per-orbit", "return-cloud", "entropy-battery")
SETUP_RUNS = 5  # set-up-only processes per run, besides the measuring one
SETUP_TIMEOUT = 40.0
BENCH_TIMEOUT = 150.0
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(SINGLE_THREAD, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    return env


def run_worker(args, *extra, timeout) -> dict:
    """Start one worker, wait for it to end, return its JSON result."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", args.size, "--out-dir", str(OUT / "files"),
        "--spawned-at", repr(time.monotonic()), *extra,
    ]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as err:  # subprocess.run has killed and reaped it
        raise BenchError(f"worker exceeded {timeout:.0f} s") from err
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def provenance(args, versions) -> dict:
    return {
        **versions,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "size": args.size,
        "src_lines": src_lines(),
        "thread_env": SINGLE_THREAD,
    }


def measure(args) -> tuple[dict, dict]:
    """Run one workload; return (result line, full record)."""
    setups = []
    if not args.trace:
        for _ in range(SETUP_RUNS):
            setups.append(run_worker(args, "--setup-only", timeout=SETUP_TIMEOUT)["setup_s"])
    res = run_worker(args, timeout=BENCH_TIMEOUT)
    setups.append(res["setup_s"])
    walls = res["walls"]
    if args.trace:
        values = res["layers"]
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    line = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    q1, _, q3 = statistics.quantiles(walls, n=4)  # the worker times at least 3 passes
    record = {
        "provenance": provenance(args, res.pop("versions")),
        "wall_s": {"median": statistics.median(walls), "q1": q1, "q3": q3, "n": len(walls)},
        "setup_s": {"median": statistics.median(setups), "samples": setups},
        "fail_frac": res["failed"] / res["attempted"],
        "result": line,
        "worker": res,
    }
    return line, record


def report(record, line, trace) -> None:
    p, w = record["provenance"], record["wall_s"]
    print(f"perfbench {p['workload']} seed={p['seed']} trace={trace}")
    print("provenance: " + json.dumps(p, sort_keys=True))
    print(f"wall_s: median {w['median']:.4f} s (q1 {w['q1']:.4f}, q3 {w['q3']:.4f}, n={w['n']} passes)")
    for name, m in line["metrics"].items():
        print(f"  {name}: {m['value']!r} {m['unit']}")
    print(f"fail_frac: {line['failed']}/{line['attempted']} = {record['fail_frac']!r}")
    for name, value in record["worker"]["failures"]:
        print(f"  FAILED {name}: {value}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="'tiny' shrinks every workload for the smoke test")
    args = ap.parse_args(argv)

    if not (SRC / "finslerlab" / "__init__.py").is_file():
        print(f"perfbench: no finslerlab sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    for name in names:
        one = argparse.Namespace(**{**vars(args), "workload": name})
        try:
            line, record = measure(one)
        except BenchError as err:
            print(f"perfbench: {name}: {err}", file=sys.stderr)
            return 2
        report(record, line, args.trace)
        out = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
        lines[name] = line

    if args.workload == "all":
        final = {
            "correct": all(v["correct"] for v in lines.values()),
            "attempted": sum(v["attempted"] for v in lines.values()),
            "failed": sum(v["failed"] for v in lines.values()),
            "metrics": {f"{w}.{k}": m for w, v in lines.items() for k, m in v["metrics"].items()},
        }
    else:
        final = lines[args.workload]
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
