"""Deterministic report and plot emission.

All outputs are text (JSON, CSV, SVG) with repr-exact floats and sorted keys,
so identical (scenario, seed, config) runs produce byte-identical files.
Wall-clock timings never enter report.json; they go to a sidecar.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import EmptyInput, IoFailure

__all__ = [
    "Check",
    "at_most",
    "at_least",
    "holds",
    "RunReport",
    "jsonify",
    "dump_json",
    "export_report",
    "render_section_plot",
]


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    value: float
    tolerance: float | None = None
    detail: str = ""


def at_most(name: str, value: float, bound: float, detail: str = "") -> Check:
    """Passes iff value <= bound (so a NaN value fails)."""
    return Check(name, bool(value <= bound), float(value), bound, detail)


def at_least(name: str, value: float, bound: float, detail: str = "") -> Check:
    """Passes iff value >= bound (so a NaN value fails)."""
    return Check(name, bool(value >= bound), float(value), bound, detail)


def holds(name: str, passed: bool, value: float, tolerance: float | None = None, detail: str = "") -> Check:
    """A verdict that is not the reported value compared with the reported tolerance."""
    return Check(name, passed, value, tolerance, detail)


@dataclass
class RunReport:
    scenario: str
    seed: int
    config: dict
    checks: list[Check] = field(default_factory=list)
    artifacts: list[str] = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        """Report payload; excludes wall-clock timings for reproducibility."""
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "config": self.config,
            "checks": [
                {
                    "name": c.name,
                    "passed": bool(c.passed),
                    "value": float(c.value),
                    "tolerance": None if c.tolerance is None else float(c.tolerance),
                    "detail": c.detail,
                }
                for c in self.checks
            ],
            "artifacts": list(self.artifacts),
            "overall_pass": self.overall_pass,
        }


def jsonify(obj):
    """Convert numpy scalars/arrays (and nan/inf) to plain JSON-safe values."""
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def dump_json(obj, path) -> None:
    Path(path).write_text(
        json.dumps(jsonify(obj), sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def export_report(report: RunReport, path, fmt: str = "json") -> Path:
    """Write a run report as schema-stable JSON or a per-check CSV summary."""
    path = Path(path)
    try:
        if fmt == "json":
            dump_json(report.to_dict(), path)
        elif fmt == "csv-summary":
            with path.open("w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["name", "passed", "value", "tolerance", "detail"])
                for c in report.checks:
                    tol = "" if c.tolerance is None else repr(float(c.tolerance))
                    writer.writerow([c.name, c.passed, repr(float(c.value)), tol, c.detail])
        else:
            raise IoFailure(f"unknown report format {fmt!r}")
    except OSError as err:
        raise IoFailure(str(err)) from err
    return path


_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf"]
_PLOT_WIDTH, _PLOT_HEIGHT = 640, 400  # SVG size in pixels
_POINT_RADIUS = 1.4


def render_section_plot(point_groups, *, s_range=(0.0, 2.0 * math.pi), title: str = "") -> str:
    """Deterministic SVG scatter of annulus points, one color per group.

    Input is a list of (k_i, 2) arrays of (s, u) points, u in [0, pi];
    identical input yields a byte-identical document (fixed precision, fixed
    ordering).
    """
    groups = [np.atleast_2d(np.asarray(g, dtype=float)) for g in point_groups]
    if not groups or all(g.size == 0 for g in groups):
        raise EmptyInput("no points to plot")
    pad = 30.0
    s_lo, s_hi = s_range
    u_lo, u_hi = 0.0, math.pi
    width, height = _PLOT_WIDTH, _PLOT_HEIGHT

    def to_xy(s, u):
        x = pad + (s - s_lo) / (s_hi - s_lo) * (width - 2 * pad)
        y = height - pad - (u - u_lo) / (u_hi - u_lo) * (height - 2 * pad)
        return x, y

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{pad:.1f}" y="{pad:.1f}" width="{width - 2 * pad:.1f}" '
        f'height="{height - 2 * pad:.1f}" fill="none" stroke="#444444" stroke-width="1"/>',
    ]
    if title:
        lines.append(
            f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
            f'font-family="monospace" font-size="13">{title}</text>'
        )
    for gi, g in enumerate(groups):
        color = _PALETTE[gi % len(_PALETTE)]
        for row in g:
            x, y = to_xy(float(row[0]), float(row[1]))
            lines.append(f'<circle cx="{x:.3f}" cy="{y:.3f}" r="{_POINT_RADIUS}" fill="{color}"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
