"""Plain-text run configuration: `key = value` lines with dotted keys.

Blank lines and `#` comments are ignored. `KEYS` below maps each recognized
key to the type of its value; a 1-tuple type such as `(float,)` is a
comma-separated list, and a `Literal` of strings is a string that must be
one of them. `read_config`, which every `--config` command uses, rejects
any other key, so a misspelt key is an error rather than a silent default,
and parses and checks every value as the file is read, so a malformed or
unknown value is an error under every command, whether or not the command
reads it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Literal, Mapping, get_args, get_origin, get_type_hints

import numpy as np

from .core import (
    PARAM_FIELDS,
    GridDomain,
    InitSpec,
    MissingParameters,
    ModelParams,
    validate_params,
)
from .integrator import StepConfig


class ConfigError(ValueError):
    """Malformed or incomplete configuration."""


InitKind = Literal["constant", "perturbation", "array"]

KEYS: dict[str, Any] = {
    **{name: float for name in PARAM_FIELDS},  # model coefficients
    "domain.dimension": int, "domain.lengths": (float,), "domain.cells": (int,),
    "init.kind": InitKind, "init.value": float, "init.u_star": float,
    "init.amplitude": float, "init.mode": (int,), "init.path": str,
    # run.* keys take StepConfig's field types; their defaults live there too.
    **{f"run.{name}": kind for name, kind in get_type_hints(StepConfig).items()},
    # A sweep varies one model coefficient.
    "sweep.parameter": Literal[PARAM_FIELDS], "sweep.values": (float,),
}


def parse_config_text(text: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw!r}")
        if key in cfg:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        cfg[key] = value
    return cfg


def read_config(path: str | Path) -> dict[str, Any]:
    """The file's values, each parsed as its `KEYS` type; ConfigError on a
    key outside KEYS or on a value that does not parse."""
    cfg = parse_config_text(Path(path).read_text())
    unknown = sorted(set(cfg) - KEYS.keys())
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(map(repr, unknown))}")
    return {key: _convert(key, value, KEYS[key]) for key, value in cfg.items()}


def _convert(key: str, value: str, kind: Any) -> Any:
    if isinstance(kind, tuple):
        return tuple(_convert(key, part.strip(), kind[0]) for part in value.split(","))
    if get_origin(kind) is Literal:
        if value in get_args(kind):
            return value
        raise ConfigError(f"key {key!r}: {value!r} is not one of {', '.join(get_args(kind))}")
    try:
        if kind is bool:
            lowered = value.lower()
            if lowered in ("true", "yes", "1"):
                return True
            if lowered in ("false", "no", "0"):
                return False
            raise ValueError(value)
        return kind(value)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: cannot parse {value!r} as {kind.__name__}") from exc


def required(cfg: Mapping[str, Any], key: str) -> Any:
    """cfg[key]; ConfigError naming the key when it is absent."""
    if key not in cfg:
        raise ConfigError(f"missing required key {key!r}")
    return cfg[key]


def params_from_config(cfg: Mapping[str, Any]) -> ModelParams:
    try:
        return validate_params(cfg)
    except MissingParameters as exc:
        raise ConfigError(str(exc)) from exc


def grid_from_config(cfg: Mapping[str, Any]) -> GridDomain:
    dimension = required(cfg, "domain.dimension")
    lengths = required(cfg, "domain.lengths")
    cells = required(cfg, "domain.cells")
    if len(lengths) != dimension or len(cells) != dimension:
        raise ConfigError(
            f"domain.lengths and domain.cells must each have {dimension} entries"
        )
    return GridDomain(dimension=dimension, lengths=lengths, cells=cells)


def init_from_config(cfg: Mapping[str, Any], base_u_star: float | None = None) -> InitSpec:
    """Build the initial-condition spec; `base_u_star` supplies the
    equilibrium density when init.u_star is absent (perturbation kind)."""
    kind = required(cfg, "init.kind")
    if kind == "constant":
        return InitSpec.constant(required(cfg, "init.value"))
    if kind == "perturbation":
        fallback = {"init.u_star": base_u_star} if base_u_star else {}
        return InitSpec.perturbation(
            u_star=required({**fallback, **cfg}, "init.u_star"),
            amplitude=cfg.get("init.amplitude", 0.0),
            mode=cfg.get("init.mode", 1),
        )
    if kind == "array":
        path = required(cfg, "init.path")
        try:
            array = np.load(path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load init.path {path!r}: {exc}") from exc
        return InitSpec.from_array(array)
    raise ConfigError(f"init.kind must be one of {', '.join(get_args(InitKind))}, got {kind!r}")


def step_config_from_config(cfg: Mapping[str, Any]) -> StepConfig:
    """StepConfig from the run.* keys present; run.t_end is required."""
    required(cfg, "run.t_end")
    given = {key.removeprefix("run."): value for key, value in cfg.items()
             if key.startswith("run.")}
    try:
        return StepConfig(**given)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
