"""Smoke test of the benchmark itself, at tiny sizes (about three minutes).

Run from the repository root:  python3 perfbench/smoke.py

Asserts that every metric named in BENCHMARK.json is printed with its unit,
that the per-layer counts repeat exactly across two traced runs of one seed,
that a second seed still passes every gate, and that the gates trip when a
reference is perturbed.  Exits 0 when all hold.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload, seed, trace) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"{workload} seed {seed}: no output\n{proc.stderr}")
    if "fail_frac:" not in proc.stdout:
        raise AssertionError(f"{workload}: fail_frac not printed")
    return json.loads(lines[-1])


def expect(cond, message, problems):
    if not cond:
        problems.append(message)


def check_printed_metrics(problems):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        for wl in (w["name"] for w in SPEC["workloads"]):
            out = bench(wl, 1, trace)
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            expect(got == want, f"{wl} trace={trace}: metrics/units differ: {set(got) ^ set(want)}", problems)
            expect(out["correct"] and out["failed"] == 0 and out["attempted"] >= 1,
                   f"{wl} trace={trace} seed 1 failed its gates: {out}", problems)
            if trace:
                again = bench(wl, 1, trace)
                differ = [k for k, v in out["metrics"].items()
                          if v["unit"] != "s" and k != "trace.overhead_frac"
                          and again["metrics"][k]["value"] != v["value"]]
                expect(not differ, f"{wl}: counts differ between two traced runs: {differ}", problems)


def check_second_seed(problems):
    for wl in (w["name"] for w in SPEC["workloads"]):
        out = bench(wl, 2, 0)
        expect(out["correct"], f"{wl} seed 2 failed its gates", problems)


def check_perturbed_reference(problems):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from tracing import NullTracer
    from workloads import PerOrbit, References

    wl = PerOrbit(3, "tiny", NullTracer(), HERE / ".out" / "smoke")
    res = wl.run(NullTracer())
    base = References()

    def failures(refs):
        return [name for name, ok, _ in wl.check(res, refs) if not ok]

    expect(failures(base) == [], f"unperturbed references fail: {failures(base)}", problems)
    tau = failures(replace(base, tau=base.tau + 1e-3))
    expect(tau and all(n.startswith("return_grid[") for n in tau),
           f"tau + 1e-3 should fail exactly the grid points, got {tau}", problems)
    rot = failures(replace(base, rotation=base.rotation + 1e-3))
    expect(rot == ["rotation.cone_twist"], f"rotation + 1e-3 should trip cone_twist, got {rot}", problems)


def main() -> int:
    problems: list[str] = []
    check_perturbed_reference(problems)
    check_printed_metrics(problems)
    check_second_seed(problems)
    for p in problems:
        print("FAIL:", p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
