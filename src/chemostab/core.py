"""Core model records shared by every other module.

The model under study is a parabolic-elliptic chemotaxis system on an
interval or an axis-aligned rectangle with zero-flux boundary conditions:

    u_t = lap(u) - chi0 div( u^m (1+v)^(-beta) grad(v) ) + a u - b u^(1+alpha)
    0   = lap(v) - mu v + nu u^gamma

This module owns the coefficient record (`ModelParams`), the grid
description (`GridDomain`), constant equilibria (`Equilibrium`), the
analytic Neumann Laplacian spectrum (`SpectrumTable`), and initial-state
construction (`init_state`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np


class NonPositiveCoefficient(ValueError):
    """A coefficient that must be strictly positive is zero or negative."""


class MIsBelowOne(ValueError):
    """The diffusion-advection exponent m is below 1."""


class MixedLogistic(ValueError):
    """Exactly one of the source coefficients a, b is zero.

    The model is treated either with a full logistic source (a, b > 0) or
    with no source at all (a = b = 0, the mass-conserving minimal model).
    """


class MissingFreeParameter(ValueError):
    """The minimal model needs an explicit equilibrium density u*."""


class NonPositiveInitialData(ValueError):
    """Initial population density must have a positive infimum."""


class MissingParameters(ValueError):
    """A coefficient mapping lacks some of the PARAM_FIELDS keys."""


PARAM_FIELDS = ("chi0", "beta", "m", "alpha", "gamma", "a", "b", "mu", "nu")


@dataclass(frozen=True)
class ModelParams:
    """All PDE coefficients.

    `chi0` may take any sign (attraction when positive, repulsion when
    negative). The remaining coefficients are constrained on construction:
    mu, nu, alpha, gamma > 0; beta >= 0; m >= 1; and either a, b > 0 or
    a = b = 0.
    """

    chi0: float
    beta: float
    m: float
    alpha: float
    gamma: float
    a: float
    b: float
    mu: float
    nu: float

    def __post_init__(self) -> None:
        for name in ("mu", "nu", "alpha", "gamma"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0.0:
                raise NonPositiveCoefficient(f"{name} must be positive, got {value}")
        if not math.isfinite(self.chi0):
            raise NonPositiveCoefficient(f"chi0 must be finite, got {self.chi0}")
        if self.beta < 0.0 or not math.isfinite(self.beta):
            raise NonPositiveCoefficient(f"beta must be >= 0, got {self.beta}")
        if self.m < 1.0 or not math.isfinite(self.m):
            raise MIsBelowOne(f"m must be >= 1, got {self.m}")
        if self.a < 0.0 or self.b < 0.0:
            raise NonPositiveCoefficient(
                f"source coefficients must be >= 0, got a={self.a}, b={self.b}"
            )
        if (self.a == 0.0) != (self.b == 0.0):
            raise MixedLogistic(
                f"a and b must be both positive or both zero, got a={self.a}, b={self.b}"
            )

    @property
    def minimal(self) -> bool:
        """True for the source-free, mass-conserving model (a = b = 0)."""
        return self.a == 0.0 and self.b == 0.0


def validate_params(raw: Mapping[str, float]) -> ModelParams:
    """Build a validated `ModelParams` from a flat mapping.

    The mapping must provide every coefficient key: chi0, beta, m, alpha,
    gamma, a, b, mu, nu. Extra keys are ignored so a full config mapping
    can be passed directly.
    """
    missing = [name for name in PARAM_FIELDS if name not in raw]
    if missing:
        raise MissingParameters(f"missing model parameters: {', '.join(missing)}")
    return ModelParams(**{name: float(raw[name]) for name in PARAM_FIELDS})


@dataclass(frozen=True)
class GridDomain:
    """Cell-centered grid on an interval (1D) or rectangle (2D).

    Cell centers along an axis of length L with n cells sit at
    (i + 1/2) L / n. Zero-flux boundaries are realized by mirror ghost
    cells in the discrete operators.
    """

    dimension: int
    lengths: tuple[float, ...]
    cells: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.dimension not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.dimension}")
        object.__setattr__(self, "lengths", tuple(float(x) for x in self.lengths))
        object.__setattr__(self, "cells", tuple(int(n) for n in self.cells))
        if len(self.lengths) != self.dimension or len(self.cells) != self.dimension:
            raise ValueError(
                f"expected {self.dimension} lengths and cell counts, "
                f"got {self.lengths} and {self.cells}"
            )
        for L in self.lengths:
            if not math.isfinite(L) or L <= 0.0:
                raise ValueError(f"lengths must be positive, got {self.lengths}")
        for n in self.cells:
            if n < 8:
                raise ValueError(f"need at least 8 cells per axis, got {self.cells}")

    @classmethod
    def interval(cls, length: float, cells: int) -> GridDomain:
        return cls(1, (length,), (cells,))

    @classmethod
    def rectangle(cls, lx: float, ly: float, nx: int, ny: int) -> GridDomain:
        return cls(2, (lx, ly), (nx, ny))

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(L / n for L, n in zip(self.lengths, self.cells))

    @property
    def volume(self) -> float:
        return math.prod(self.lengths)

    @property
    def cell_volume(self) -> float:
        return math.prod(self.spacing)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.cells

    @property
    def total_cells(self) -> int:
        return math.prod(self.cells)

    def centers(self, axis: int = 0) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        n = self.cells[axis]
        h = self.spacing[axis]
        return (np.arange(n) + 0.5) * h

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        """Cell-center coordinate arrays shaped like a field."""
        axes = [self.centers(k) for k in range(self.dimension)]
        return tuple(np.meshgrid(*axes, indexing="ij"))


@dataclass(frozen=True)
class Equilibrium:
    """Spatially constant steady state (u*, v*) with v* = (nu/mu) u*^gamma."""

    u_star: float
    v_star: float

    def __post_init__(self) -> None:
        if self.u_star <= 0.0 or self.v_star <= 0.0:
            raise ValueError(
                f"equilibrium must be positive, got ({self.u_star}, {self.v_star})"
            )


def equilibrium(params: ModelParams, u_star: float | None = None) -> Equilibrium:
    """Constant equilibrium of the model.

    With a full logistic source the equilibrium density is pinned to
    (a/b)^(1/alpha) and `u_star` must not be supplied. In the minimal
    model every positive density is an equilibrium, so `u_star` is a
    required free parameter.
    """
    if params.minimal:
        if u_star is None:
            raise MissingFreeParameter(
                "a = b = 0 leaves a one-parameter family of equilibria; pass u_star"
            )
        if u_star <= 0.0:
            raise MissingFreeParameter(f"u_star must be positive, got {u_star}")
        u = float(u_star)
    else:
        if u_star is not None:
            raise ValueError("u_star is determined by (a/b)^(1/alpha); do not pass it")
        u = _logistic_density(params.a, params.b, params.alpha)
    return Equilibrium(u, _signal_level(u, params.gamma, params.mu, params.nu))


def _logistic_density(a, b, alpha):
    """u* = (a/b)^(1/alpha) of the logistic source; elementwise over arrays."""
    return (a / b) ** (1.0 / alpha)


def _signal_level(u_star, gamma, mu, nu):
    """v* = (nu/mu) u*^gamma; elementwise over arrays."""
    return (nu / mu) * u_star**gamma


@dataclass(frozen=True)
class SpectrumTable:
    """Leading eigenvalues of the negative Neumann Laplacian, ascending.

    Entry 0 is exactly 0 (the constant mode); `lambda_star` is the first
    nonzero eigenvalue, the spectral gap.
    """

    eigenvalues: tuple[float, ...]

    def __post_init__(self) -> None:
        ev = self.eigenvalues
        if len(ev) < 2:
            raise ValueError("spectrum needs at least the constant mode and one more")
        if ev[0] != 0.0:
            raise ValueError(f"lowest eigenvalue must be exactly 0, got {ev[0]}")
        if any(ev[i] > ev[i + 1] for i in range(len(ev) - 1)):
            raise ValueError("eigenvalues must be sorted ascending")
        if ev[1] <= 0.0:
            raise ValueError("all eigenvalues after the first must be positive")
        array = np.array(ev, dtype=float)
        array.flags.writeable = False
        object.__setattr__(self, "_array", array)

    def __len__(self) -> int:
        return len(self.eigenvalues)

    @property
    def lambda_star(self) -> float:
        return self.eigenvalues[1]

    def as_array(self) -> np.ndarray:
        """The eigenvalues as one read-only array, built on construction."""
        return self._array


def neumann_eigenvalues(domain: GridDomain, n_max: int) -> SpectrumTable:
    """First n_max + 1 analytic Neumann eigenvalues of the domain.

    Interval of length L: (n pi / L)^2 for n = 0..n_max. Rectangle
    Lx x Ly: the merged, sorted values of (j pi / Lx)^2 + (k pi / Ly)^2.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if domain.dimension == 1:
        L = domain.lengths[0]
        values = [(n * math.pi / L) ** 2 for n in range(n_max + 1)]
    else:
        lx, ly = domain.lengths
        # The n_max+1 smallest sums never need a single index above n_max.
        j = np.arange(n_max + 1)
        gx = (j * math.pi / lx) ** 2
        gy = (j * math.pi / ly) ** 2
        combined = np.sort((gx[:, None] + gy[None, :]).ravel())
        values = combined[: n_max + 1].tolist()
    values[0] = 0.0
    return SpectrumTable(tuple(values))


@dataclass(frozen=True)
class FieldState:
    """Discrete (u, v) pair at one instant on a cell-centered grid.

    `v` is expected to satisfy the discrete signal equation
    (mu I - lap_h) v = nu u^gamma up to the elliptic solver tolerance.
    """

    time: float
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        if self.time < 0.0:
            raise ValueError(f"time must be >= 0, got {self.time}")
        if self.u.shape != self.v.shape:
            raise ValueError(
                f"u and v must share a shape, got {self.u.shape} vs {self.v.shape}"
            )


@dataclass(frozen=True)
class InitSpec:
    """Initial-condition descriptor.

    kinds:
      constant     -- u identically `value`
      perturbation -- u* (1 + amplitude * product of axis cosines at `mode`)
      array        -- user-supplied cell values
    """

    kind: str
    value: float | None = None
    u_star: float | None = None
    amplitude: float = 0.0
    mode: tuple[int, ...] = (1,)
    array: np.ndarray | None = None

    @classmethod
    def constant(cls, value: float) -> InitSpec:
        return cls(kind="constant", value=float(value))

    @classmethod
    def perturbation(
        cls, u_star: float, amplitude: float, mode: int | Sequence[int] = 1
    ) -> InitSpec:
        modes = (int(mode),) if isinstance(mode, int) else tuple(int(k) for k in mode)
        return cls(
            kind="perturbation",
            u_star=float(u_star),
            amplitude=float(amplitude),
            mode=modes,
        )

    @classmethod
    def from_array(cls, array: np.ndarray) -> InitSpec:
        return cls(kind="array", array=np.asarray(array, dtype=float))


def _build_initial_u(domain: GridDomain, spec: InitSpec) -> np.ndarray:
    if spec.kind == "constant":
        if spec.value is None:
            raise ValueError("constant initial data needs a value")
        return np.full(domain.shape, float(spec.value))
    if spec.kind == "perturbation":
        if spec.u_star is None:
            raise ValueError("perturbation initial data needs u_star")
        modes = spec.mode
        if len(modes) < domain.dimension:
            modes = modes + (0,) * (domain.dimension - len(modes))
        profile = np.ones(domain.shape)
        for axis in range(domain.dimension):
            x = domain.centers(axis)
            wave = np.cos(modes[axis] * math.pi * x / domain.lengths[axis])
            shape = [1] * domain.dimension
            shape[axis] = -1
            profile = profile * wave.reshape(shape)
        return spec.u_star * (1.0 + spec.amplitude * profile)
    if spec.kind == "array":
        if spec.array is None:
            raise ValueError("array initial data needs the array")
        u = np.asarray(spec.array, dtype=float)
        if u.shape != domain.shape:
            raise ValueError(f"array shape {u.shape} does not match grid {domain.shape}")
        return u.copy()
    raise ValueError(f"unknown initial-condition kind {spec.kind!r}")


def init_state(domain: GridDomain, spec: InitSpec, params: ModelParams) -> FieldState:
    """Construct the t = 0 state: positive u plus its slaved signal field."""
    from .helmholtz import chemical_field

    u = _build_initial_u(domain, spec)
    if not np.all(np.isfinite(u)):
        raise NonPositiveInitialData("initial density contains non-finite values")
    if float(u.min()) <= 0.0:
        raise NonPositiveInitialData(
            f"initial density must be strictly positive, min is {u.min()}"
        )
    v = chemical_field(params, u, domain)
    return FieldState(time=0.0, u=u, v=v)
