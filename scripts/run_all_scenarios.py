#!/usr/bin/env python3
"""Run every registered scenario and print a one-line verdict per check.

The verdict line of each scenario ends with the sha256 of the report.json it
wrote, so two runs can be compared without opening the files.

Usage: python scripts/run_all_scenarios.py [--seed N] [--out DIR]
"""

import argparse
import hashlib
import sys
import time
from pathlib import Path

from finslerlab.scenarios import SCENARIO_NAMES, run_scenario


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="out")
    args = ap.parse_args()

    all_pass = True
    for name in SCENARIO_NAMES:
        t0 = time.perf_counter()
        report = run_scenario(name, seed=args.seed, out_root=args.out)
        dt = time.perf_counter() - t0
        all_pass &= report.overall_pass
        digest = hashlib.sha256((Path(args.out) / name / "latest" / "report.json").read_bytes())
        print(
            f"== {name}: {'PASS' if report.overall_pass else 'FAIL'} ({dt:.1f}s) "
            f"report.json sha256 {digest.hexdigest()}"
        )
        for c in report.checks:
            print(f"   [{'PASS' if c.passed else 'FAIL'}] {c.name} = {c.value!r}")
    return 0 if all_pass else 2


if __name__ == "__main__":
    sys.exit(main())
