"""Configuration schema, defaults, merging and dotted-path overrides.

Top-level keys: profile, metric, integrator, section, analysis, scenario.
Command-specific estimator parameters live under ``analysis.<command>``.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

from .errors import ConfigInvalid
from .flow import IntegratorConfig
from .metrics import ALPHA_GOLDEN
from .sections import SectionSpec

__all__ = [
    "default_config",
    "load_config_file",
    "merge_config",
    "apply_override",
    "parse_set_option",
    "validate_config",
    "build_config",
    "integrator_from_config",
    "section_from_config",
]

TOP_LEVEL_KEYS = ("profile", "metric", "integrator", "section", "analysis", "scenario")


def default_config() -> dict:
    return {
        "profile": {"kind": "round_sphere"},
        "metric": {
            "kind": "rotational",
            "a0": 0.3,
            "a1": 1.3,
            "b": 1.6,
            "alpha": ALPHA_GOLDEN,
            "reversible": False,
        },
        "integrator": {
            "method": "DOP853",
            "rel_tol": 1e-12,
            "abs_tol": 1e-12,
            "checkpoint_dt": 0.1,
            "invariant_drift_tol": 1e-8,
            "x2_cap": 30.0,
        },
        "section": {
            "kind": "equator_birkhoff",
            "x2_star": 0.0,
            "x1_star": 0.0,
            "transversality_tol": 1e-6,
            "max_return_time": 8.0,
        },
        "analysis": {},
        "scenario": {"name": "", "seed": 0},
    }


def load_config_file(path) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigInvalid(str(path), f"cannot read config: {err}") from err


def merge_config(base: dict, override: dict, path: str = "") -> dict:
    """Deep merge of nested dicts; scalar values in override win."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        here = f"{path}.{key}" if path else str(key)
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = merge_config(out[key], value, here)
        else:
            out[key] = copy.deepcopy(value)
    return out


def parse_set_option(text: str) -> tuple[str, object]:
    """Parse one --set key.path=value option; value is parsed as JSON if possible."""
    if "=" not in text:
        raise ConfigInvalid(text, "--set expects key.path=value")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.strip(), value


def apply_override(cfg: dict, dotted_key: str, value) -> dict:
    out = copy.deepcopy(cfg)
    node = out
    parts = dotted_key.split(".")
    for part in parts[:-1]:
        if part not in node or not isinstance(node[part], dict):
            node[part] = {}
        node = node[part]
    node[parts[-1]] = value
    return out


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigInvalid(path, message)


def validate_config(cfg: dict) -> None:
    """Schema check; raises ConfigInvalid with the dotted path of the offender."""
    for key in cfg:
        _require(key in TOP_LEVEL_KEYS, key, f"unknown top-level key (allowed: {TOP_LEVEL_KEYS})")
    profile = cfg.get("profile", {})
    _require(isinstance(profile, dict), "profile", "must be an object")
    kind = profile.get("kind", "round_sphere")
    _require(kind in ("round_sphere", "spliced"), "profile.kind", f"unknown kind {kind!r}")
    if kind == "spliced":
        _require(float(profile.get("L", 0)) > 0, "profile.L", "must be positive")
        _require(
            0 < float(profile.get("eps", 0)) < float(profile["L"]) / 4,
            "profile.eps",
            "must satisfy 0 < eps < L/4",
        )
    metric = cfg.get("metric", {})
    mkind = metric.get("kind", "rotational")
    _require(
        mkind in ("rotational", "angular", "katok"),
        "metric.kind",
        f"unknown kind {mkind!r}",
    )
    if mkind == "katok":
        a0, a1, b = (float(metric.get(k, 0)) for k in ("a0", "a1", "b"))
        _require(0 < a0 < a1 < b, "metric.a0", "need 0 < a0 < a1 < b")
    integ = cfg.get("integrator", {})
    for key in ("rel_tol", "abs_tol", "checkpoint_dt", "invariant_drift_tol"):
        if key in integ:
            _require(float(integ[key]) > 0, f"integrator.{key}", "must be positive")
    if integ.get("method") is not None:
        _require(
            integ["method"] in ("RK45", "DOP853"),
            "integrator.method",
            "must be RK45 or DOP853 (adaptive, order >= 5, dense output)",
        )
    section = cfg.get("section", {})
    if section.get("kind") is not None:
        _require(
            section["kind"] in ("equator_birkhoff", "meridian"),
            "section.kind",
            f"unknown kind {section.get('kind')!r}",
        )
    for key in ("transversality_tol", "max_return_time"):
        if key in section:
            _require(float(section[key]) > 0, f"section.{key}", "must be positive")
    scenario = cfg.get("scenario", {})
    if "seed" in scenario:
        _require(
            isinstance(scenario["seed"], int) and scenario["seed"] >= 0,
            "scenario.seed",
            "must be a nonnegative integer",
        )


def build_config(base: dict, config_file, overrides, seed) -> dict:
    """Base config, then the file merged over it, then --set overrides, then the seed; validated."""
    cfg = base
    if config_file is not None:
        cfg = merge_config(cfg, load_config_file(config_file))
    for key, value in overrides:
        cfg = apply_override(cfg, key, value)
    if seed is not None:
        cfg["scenario"]["seed"] = int(seed)
    validate_config(cfg)
    return cfg


def integrator_from_config(cfg: dict) -> IntegratorConfig:
    integ = cfg.get("integrator", {})
    return IntegratorConfig(
        method=integ.get("method", "DOP853"),
        rel_tol=float(integ.get("rel_tol", 1e-12)),
        abs_tol=float(integ.get("abs_tol", 1e-12)),
        checkpoint_dt=float(integ.get("checkpoint_dt", 0.1)),
        invariant_drift_tol=float(integ.get("invariant_drift_tol", 1e-8)),
        x2_cap=integ.get("x2_cap", 30.0),
    )


def section_from_config(cfg: dict) -> SectionSpec:
    sec = cfg.get("section", {})
    return SectionSpec(
        kind=sec.get("kind", "equator_birkhoff"),
        x2_star=float(sec.get("x2_star", 0.0)),
        x1_star=float(sec.get("x1_star", 0.0)),
        transversality_tol=float(sec.get("transversality_tol", 1e-6)),
        max_return_time=float(sec.get("max_return_time", 8.0)),
    )
