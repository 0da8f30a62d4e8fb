"""Configuration schema, defaults, merging and dotted-path overrides.

Top-level keys: profile, metric, integrator, section, analysis, scenario.
The integrator and section blocks are the fields of ``IntegratorConfig`` and
``SectionSpec`` and take their defaults from them; the profile, metric,
integrator and section blocks are validated by building their objects.
Command-specific estimator parameters live under ``analysis.<command>``.
"""

from __future__ import annotations

import copy
import json
from dataclasses import asdict
from pathlib import Path

from .errors import ConfigInvalid, InvalidField
from .flow import IntegratorConfig
from .metrics import ALPHA_GOLDEN, metric_from_spec
from .profiles import RoundSphereProfile, profile_from_spec
from .sections import SectionSpec

__all__ = [
    "default_config",
    "load_config_file",
    "merge_config",
    "apply_override",
    "parse_set_option",
    "validate_config",
    "require_keys",
    "build_config",
    "profile_from_config",
    "metric_from_config",
    "integrator_from_config",
    "section_from_config",
]

TOP_LEVEL_KEYS = ("profile", "metric", "integrator", "section", "analysis", "scenario")
PROFILE_KEYS = ("kind", "L", "eps")  # the keys of the round-sphere and spliced profile specs


def default_config() -> dict:
    return {
        "profile": RoundSphereProfile().to_spec(),
        "metric": {
            "kind": "rotational",
            "a0": 0.3,
            "a1": 1.3,
            "b": 1.6,
            "alpha": ALPHA_GOLDEN,
            "reversible": False,
        },
        "integrator": asdict(IntegratorConfig()),
        "section": SectionSpec().to_spec(),
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
    """Schema check; raises ConfigInvalid with the dotted path of the offender.

    Every block but ``analysis`` accepts only its own keys; the values of the
    profile, metric, integrator and section blocks are checked by building
    their objects, so each rule lives in the constructor that needs it.
    """
    allowed = default_config()
    allowed["profile"] = dict.fromkeys(PROFILE_KEYS)
    for key in cfg:
        _require(key in TOP_LEVEL_KEYS, key, f"unknown top-level key (allowed: {TOP_LEVEL_KEYS})")
    for block, known in allowed.items():
        _require(isinstance(cfg.get(block), dict), block, "must be an object")
        if block != "analysis":
            for key in cfg[block]:
                _require(key in known, f"{block}.{key}", f"unknown key (allowed: {tuple(known)})")
    seed = cfg["scenario"].get("seed")
    _require(isinstance(seed, int) and seed >= 0, "scenario.seed", "must be a nonnegative integer")
    for build in (profile_from_config, metric_from_config, integrator_from_config, section_from_config):
        build(cfg)


def require_keys(cfg: dict, defaults: dict) -> None:
    """Raise ConfigInvalid at the first key of ``defaults`` (at any depth) missing from ``cfg``.

    Scenario runners read their settings without fallbacks; a key goes
    missing when an override replaces a whole block.
    """

    def walk(node, spec: dict, path: str) -> None:
        for key, value in spec.items():
            _require(isinstance(node, dict) and key in node, path + key, "missing (an override replaced its block)")
            if isinstance(value, dict):
                walk(node[key], value, f"{path}{key}.")

    walk(cfg, defaults, "")


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


def _build(cfg: dict, block: str, make):
    """``make(cfg[block])``, with a constructor's error as ConfigInvalid at its field's dotted path."""
    spec = cfg[block]
    try:
        return make(spec)
    except KeyError as err:
        raise ConfigInvalid(f"{block}.{err.args[0]}", "missing") from err
    except InvalidField as err:
        raise ConfigInvalid(f"{block}.{err.field}", err.reason) from err
    except (TypeError, ValueError) as err:
        raise ConfigInvalid(block, str(err)) from err


def profile_from_config(cfg: dict):
    return _build(cfg, "profile", profile_from_spec)


def metric_from_config(cfg: dict):
    return _build(cfg, "metric", lambda spec: metric_from_spec({**spec, "profile": cfg["profile"]}))


def integrator_from_config(cfg: dict) -> IntegratorConfig:
    return _build(cfg, "integrator", lambda spec: IntegratorConfig(**spec))


def section_from_config(cfg: dict) -> SectionSpec:
    return _build(cfg, "section", lambda spec: SectionSpec(**spec))
