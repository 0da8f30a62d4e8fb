#!/usr/bin/env python3
"""Sweep the perturbation strength and report where fiber convexity fails.

The admissible strength depends on the steepness of the cutoff step: the
narrower the ratio band (f0(a1), f0(a0)), the earlier the fiber Hessian of
H^2/2 loses positivity.  The failure threshold is reported, never asserted.

Usage: python scripts/alpha_convexity_sweep.py [--a0 A0 --a1 A1 --b B]
"""

import argparse
import math

import numpy as np

from finslerlab.metrics import KatokDualMetric, critical_alpha_scan, fiber_convexity_check
from finslerlab.profiles import RoundSphereProfile, eval_f0, make_cutoffs


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--a0", type=float, default=0.3)
    ap.add_argument("--a1", type=float, default=1.3)
    ap.add_argument("--b", type=float, default=1.6)
    args = ap.parse_args()

    profile = RoundSphereProfile()
    cutoffs = make_cutoffs(args.a0, args.a1, args.b)
    width = float(eval_f0(args.a0) - eval_f0(args.a1))
    print(f"cutoffs ({args.a0}, {args.a1}, {args.b}); ratio band width {width:.3f}")

    x2 = np.linspace(-args.b - 0.2, args.b + 0.2, 80)
    th = np.linspace(-math.pi, math.pi, 360, endpoint=False)
    xx, tt = np.meshgrid(x2, th)
    states = np.stack(
        [np.zeros(xx.size), xx.ravel(), np.cos(tt.ravel()), np.sin(tt.ravel())], axis=1
    )

    for alpha in (0.01, 0.02, 0.03, 0.05, 0.08, 0.12, 0.2):
        rep = fiber_convexity_check(KatokDualMetric(profile, cutoffs, alpha), states)
        print(f"  alpha={alpha:6.3f}: min Hessian eigenvalue {rep.min_eigenvalue:+.4f}")

    lo, hi = critical_alpha_scan(profile, cutoffs, tol=1e-3, states=states)
    print(f"critical strength bracket: ({lo:.4f}, {hi:.4f})")


if __name__ == "__main__":
    main()
