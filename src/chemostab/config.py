"""Plain-text run configuration: `key = value` lines with dotted keys.

Blank lines and `#` comments are ignored. Lists are comma-separated.
`CONFIG_KEYS` below lists the recognized keys; `read_config`, which every
`--config` command uses, rejects any other, so a misspelt key is an error
rather than a silent default.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping

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


# run.* keys and the types they parse as; their defaults live in StepConfig.
RUN_KEYS = {
    "t_end": float, "dt": float, "dt_policy": str, "sigma_cfl": float,
    "output_stride": int, "blowup_cap": float, "positivity_floor": float,
    "store_snapshots": bool,
}

CONFIG_KEYS = frozenset(
    PARAM_FIELDS  # model coefficients
    + ("domain.dimension", "domain.lengths", "domain.cells")
    # init.kind is constant, perturbation or array
    + ("init.kind", "init.value", "init.u_star", "init.amplitude", "init.mode", "init.path")
    + tuple(f"run.{name}" for name in RUN_KEYS)
    + ("sweep.parameter", "sweep.values")
)


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


def load_config(path: str | Path) -> dict[str, str]:
    return parse_config_text(Path(path).read_text())


def read_config(path: str | Path) -> dict[str, str]:
    """`load_config`, raising ConfigError on a key outside CONFIG_KEYS."""
    cfg = load_config(path)
    unknown = sorted(set(cfg) - CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(map(repr, unknown))}")
    return cfg


def _convert(key: str, value: str, kind: type) -> float | int | str | bool:
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


def get_float(cfg: Mapping[str, str], key: str, default: float | None = None) -> float:
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    return _convert(key, cfg[key], float)


def get_int(cfg: Mapping[str, str], key: str, default: int | None = None) -> int:
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    return _convert(key, cfg[key], int)


def get_str(cfg: Mapping[str, str], key: str, default: str | None = None) -> str:
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    return cfg[key]


def get_float_list(cfg: Mapping[str, str], key: str) -> tuple[float, ...]:
    if key not in cfg:
        raise ConfigError(f"missing required key {key!r}")
    return tuple(_convert(key, part.strip(), float) for part in cfg[key].split(","))


def get_int_list(cfg: Mapping[str, str], key: str) -> tuple[int, ...]:
    if key not in cfg:
        raise ConfigError(f"missing required key {key!r}")
    return tuple(_convert(key, part.strip(), int) for part in cfg[key].split(","))


def params_from_config(cfg: Mapping[str, str]) -> ModelParams:
    coeffs = {name: _convert(name, cfg[name], float) for name in PARAM_FIELDS if name in cfg}
    try:
        return validate_params(coeffs)
    except MissingParameters as exc:
        raise ConfigError(str(exc)) from exc


def grid_from_config(cfg: Mapping[str, str]) -> GridDomain:
    dimension = get_int(cfg, "domain.dimension")
    lengths = get_float_list(cfg, "domain.lengths")
    cells = get_int_list(cfg, "domain.cells")
    if len(lengths) != dimension or len(cells) != dimension:
        raise ConfigError(
            f"domain.lengths and domain.cells must each have {dimension} entries"
        )
    return GridDomain(dimension=dimension, lengths=lengths, cells=cells)


def init_from_config(cfg: Mapping[str, str], base_u_star: float | None = None) -> InitSpec:
    """Build the initial-condition spec; `base_u_star` supplies the
    equilibrium density when init.u_star is absent (perturbation kind)."""
    kind = get_str(cfg, "init.kind")
    if kind == "constant":
        return InitSpec.constant(get_float(cfg, "init.value"))
    if kind == "perturbation":
        u_star = get_float(cfg, "init.u_star", base_u_star if base_u_star else None)
        return InitSpec.perturbation(
            u_star=u_star,
            amplitude=get_float(cfg, "init.amplitude", 0.0),
            mode=get_int_list(cfg, "init.mode") if "init.mode" in cfg else 1,
        )
    if kind == "array":
        path = get_str(cfg, "init.path")
        try:
            array = np.load(path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load init.path {path!r}: {exc}") from exc
        return InitSpec.from_array(array)
    raise ConfigError(
        f"init.kind must be constant, perturbation or array, got {kind!r}"
    )


def step_config_from_config(cfg: Mapping[str, str]) -> StepConfig:
    """StepConfig from the run.* keys present; run.t_end is required."""
    if "run.t_end" not in cfg:
        raise ConfigError("missing required key 'run.t_end'")
    given = {
        name: _convert(f"run.{name}", cfg[f"run.{name}"], kind)
        for name, kind in RUN_KEYS.items()
        if f"run.{name}" in cfg
    }
    try:
        return StepConfig(**given)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
