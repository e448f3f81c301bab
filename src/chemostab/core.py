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
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

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
    a = b = 0. Every coefficient must be finite.
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
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise NonPositiveCoefficient(
                f"source coefficients must be finite, got a={self.a}, b={self.b}"
            )
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

    # Made on first use and kept on the instance, like `GridDomain.faces`; it
    # is not a field, so equality and hashing still see only the
    # coefficients, and `dataclasses.replace` builds a record that makes its
    # own.
    @cached_property
    def scalars(self) -> ParamScalars:
        """The coefficients that the step kernels apply to fields, as
        read-only 0-d float64 arrays (see `ParamScalars`)."""
        return ParamScalars(*(read_only_scalar(value) for value in (
            self.chi0, -self.beta, self.m, self.a, self.b, 1.0 + self.alpha,
            self.gamma, self.nu)))


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


# float64, the dtype of every field a run makes. A float64 ndarray has this
# very dtype object, so `x.dtype is FLOAT64` tells a kernel, at the cost of
# an attribute read, that `np.asarray(x, dtype=float)` would return x.
FLOAT64 = np.dtype(float)


def read_only_scalar(value: float) -> np.ndarray:
    """`value` as a read-only 0-d float64 array."""
    array = np.array(value, dtype=float)
    array.flags.writeable = False
    return array


# The extrema of a run's fields, read by index. On the small grids of the
# paper's verdicts a ufunc reduction costs its dispatch, not its arithmetic:
# on 64 floats `x.item(x.argmin())` takes about a third of the time of
# `np.minimum.reduce(x, axis=None)`. Both give the same element, except
# where it is NaN or a zero: argmin takes the first NaN and the first of
# tied zeros, while the reduction picks a NaN payload and a zero's sign by
# its own rule. So a NaN or zero found by index is handed to the reduction,
# and each helper returns, bit for bit, the Python float of the reduction
# it stands for.

def array_min(x: np.ndarray) -> float:
    """`float(np.minimum.reduce(x, axis=None))`, found by index."""
    value = x.item(x.argmin())
    if value != value or value == 0.0:
        return float(np.minimum.reduce(x, axis=None))
    return value


def array_max(x: np.ndarray) -> float:
    """`float(np.maximum.reduce(x, axis=None))`, found by index."""
    value = x.item(x.argmax())
    if value != value or value == 0.0:
        return float(np.maximum.reduce(x, axis=None))
    return value


def max_abs(x: np.ndarray) -> float:
    """`float(np.maximum.reduce(np.abs(x), axis=None))`, the larger of
    max x and -min x, each found by index; negation is exact."""
    high, low = x.item(x.argmax()), -x.item(x.argmin())
    value = high if high >= low else low
    # A NaN in x is found by argmax, so high and low are both NaN.
    if value != value or value == 0.0:
        return float(np.maximum.reduce(np.abs(x), axis=None))
    return value


class ParamScalars(NamedTuple):
    """`ModelParams` coefficients as the step kernels take them: read-only
    0-d float64 arrays. With an array operand numpy skips the conversion of
    a Python float (see `AxisFaces`), and on float64 fields every float is
    the same. `neg_beta` is the drift's exponent -beta and `sink_exponent`
    the source's 1 + alpha."""

    chi0: np.ndarray
    neg_beta: np.ndarray
    m: np.ndarray
    a: np.ndarray
    b: np.ndarray
    sink_exponent: np.ndarray
    gamma: np.ndarray
    nu: np.ndarray


class AxisFaces(NamedTuple):
    """The faces of one grid axis, as the flux kernels index them.

    `low` and `high` index the cells on the low and on the high side of the
    interior faces. `h` is the spacing along the axis as a read-only 0-d
    float64 array: with an array operand numpy skips the conversion of a
    Python float that costs a small field's arithmetic about as much as the
    arithmetic itself, and the result is the same. `padded` is the shape of
    an array over all faces of the axis, boundary faces included (one more
    than the cells along the axis), and `interior` indexes its interior
    faces in it. A field's face difference is w[high] - w[low]; the
    divergence of a padded face array P is P[high] - P[low], the same two
    index tuples. Axes after the grid's are carried along by every index.
    """

    low: tuple[slice, ...]
    high: tuple[slice, ...]
    h: np.ndarray
    padded: tuple[int, ...]
    interior: tuple[slice, ...]


def _real(value, name: str) -> float:
    """`value`, an integer or a float, numpy's included, as a float."""
    if not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _whole(value, name: str) -> int:
    """`value`, an integer or a float with no fractional part, as an int."""
    if not (isinstance(value, numbers.Integral)
            or isinstance(value, numbers.Real) and float(value).is_integer()):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class GridDomain:
    """Cell-centered grid on an interval (1D) or rectangle (2D).

    Cell centers along an axis of length L with n cells sit at
    (i + 1/2) L / n. Zero-flux boundaries are realized by mirror ghost
    cells in the discrete operators. `faces` holds each axis's face
    geometry (`AxisFaces`), worked out once per grid. Lengths must be
    positive finite numbers (numpy's included; a string raises ValueError),
    and cell counts and the dimension whole numbers.
    """

    dimension: int
    lengths: tuple[float, ...]
    cells: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dimension", _whole(self.dimension, "dimension"))
        if self.dimension not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.dimension}")
        object.__setattr__(self, "lengths", tuple(_real(x, "length") for x in self.lengths))
        object.__setattr__(self, "cells", tuple(_whole(n, "cell count") for n in self.cells))
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

    # Computed on first use and kept on the instance: the time-stepping loop
    # reads them several times per step. They are not fields, so equality and
    # hashing still see only (dimension, lengths, cells).
    @cached_property
    def spacing(self) -> tuple[float, ...]:
        return tuple(L / n for L, n in zip(self.lengths, self.cells))

    @property
    def volume(self) -> float:
        return math.prod(self.lengths)

    @cached_property
    def cell_volume(self) -> float:
        return math.prod(self.spacing)

    @cached_property
    def faces(self) -> tuple[AxisFaces, ...]:
        """One `AxisFaces` per axis, in axis order."""
        faces = []
        for axis, (n, h) in enumerate(zip(self.cells, self.spacing)):
            low = [slice(None)] * self.dimension
            high, interior, padded = list(low), list(low), list(self.cells)
            low[axis], high[axis], interior[axis] = slice(None, -1), slice(1, None), slice(1, -1)
            padded[axis] = n + 1
            faces.append(AxisFaces(tuple(low), tuple(high), read_only_scalar(h),
                                   tuple(padded), tuple(interior)))
        return tuple(faces)

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
    """Spatially constant steady state (u*, v*) with v* = (nu/mu) u*^gamma.

    Both values must be positive and finite.
    """

    u_star: float
    v_star: float

    def __post_init__(self) -> None:
        # Written so that NaN, which fails every comparison, fails too.
        if not (0.0 < self.u_star < math.inf and 0.0 < self.v_star < math.inf):
            raise ValueError(
                f"equilibrium must be positive and finite, got ({self.u_star}, {self.v_star})"
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


def reference_equilibrium(params: ModelParams, grid: GridDomain, u0: np.ndarray | None = None,
                          u_star: float | None = None) -> Equilibrium:
    """The constant state a run from the density `u0` is measured against:
    the logistic equilibrium, or in the minimal model (u_star, v*), u_star
    defaulting to the mean of `u0`, the state that mass conservation selects."""
    if params.minimal and u_star is None and u0 is not None:
        u_star = mass_average(u0, grid)
    return equilibrium(params, u_star=u_star)


def _logistic_density(a, b, alpha):
    """u* = (a/b)^(1/alpha) of the logistic source; elementwise over arrays."""
    return (a / b) ** (1.0 / alpha)


def _signal_level(u_star, gamma, mu, nu):
    """v* = (nu/mu) u*^gamma; elementwise over arrays."""
    return (nu / mu) * u_star**gamma


@dataclass(frozen=True, eq=False)
class SpectrumTable:
    """Leading eigenvalues of the negative Neumann Laplacian, ascending, as
    one read-only float64 array, a copy of the caller's. Entry 0 is exactly
    0 (the constant mode); `lambda_star` is the first nonzero eigenvalue.
    """

    eigenvalues: np.ndarray

    def __post_init__(self) -> None:
        array = np.array(self.eigenvalues, dtype=float)
        if len(array) < 2:
            raise ValueError("spectrum needs at least the constant mode and one more")
        if array[0] != 0.0:
            raise ValueError(f"lowest eigenvalue must be exactly 0, got {array[0]}")
        if np.any(array[:-1] > array[1:]):
            raise ValueError("eigenvalues must be sorted ascending")
        if array[1] <= 0.0:
            raise ValueError("all eigenvalues after the first must be positive")
        # A NaN after entry 0 passes the checks above, so finiteness is tested by name.
        if not np.isfinite(array).all():
            raise ValueError("eigenvalues must be finite")
        array.flags.writeable = False
        object.__setattr__(self, "eigenvalues", array)

    def __len__(self) -> int:
        return len(self.eigenvalues)

    @property
    def lambda_star(self) -> float:
        return float(self.eigenvalues[1])


def neumann_eigenvalues(domain: GridDomain, n_max: int) -> SpectrumTable:
    """First n_max + 1 analytic Neumann eigenvalues of the domain.

    Interval of length L: (n pi / L)^2 for n = 0..n_max. Rectangle
    Lx x Ly: the merged, sorted values of (j pi / Lx)^2 + (k pi / Ly)^2.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if domain.dimension == 1:
        L = domain.lengths[0]
        # Python's float power, not numpy's x * x: they differ in the last bit on some n.
        values = [(n * math.pi / L) ** 2 for n in range(n_max + 1)]
    else:
        lx, ly = domain.lengths
        # The n_max+1 smallest sums never need a single index above n_max.
        j = np.arange(n_max + 1)
        gx = (j * math.pi / lx) ** 2
        gy = (j * math.pi / ly) ** 2
        # `bound`, the (n_max+1)-th smallest sum over a box of n_max+1 or more
        # index pairs, sides in the ratio lx : ly, caps the n_max+1 smallest
        # sums; they need only the j with gx[j] <= bound and k with gy[k] <= bound.
        nx = min(n_max + 1, math.ceil(math.sqrt((n_max + 1) * lx / ly)))
        ny = min(n_max + 1, -(-(n_max + 1) // nx))
        bound = np.partition((gx[:nx, None] + gy[None, :ny]).ravel(), n_max)[n_max]
        nx, ny = np.searchsorted(gx, bound, "right"), np.searchsorted(gy, bound, "right")
        values = np.sort((gx[:nx, None] + gy[None, :ny]).ravel())[: n_max + 1]
    values[0] = 0.0
    return SpectrumTable(values)


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
        # Written so that NaN, which fails every comparison, fails too.
        if not 0.0 <= self.time < math.inf:
            raise ValueError(f"time must be finite and >= 0, got {self.time}")
        if self.u.shape != self.v.shape:
            raise ValueError(
                f"u and v must share a shape, got {self.u.shape} vs {self.v.shape}"
            )


@dataclass(frozen=True)
class InitSpec:
    """Initial-condition descriptor.

    kinds:
      constant     -- u identically `value`
      perturbation -- u* (1 + amplitude * product of axis cosines at `mode`);
                      a mode with fewer entries than the grid has axes is
                      padded with zeros, one with more is a ValueError
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
        # A number, numpy's included, is one mode; anything else a sequence.
        # Each mode is whole, as a cell count is: 2.0 is mode 2, 1.7 an error.
        modes = (mode,) if isinstance(mode, numbers.Number) else mode
        return cls(
            kind="perturbation",
            u_star=float(u_star),
            amplitude=float(amplitude),
            mode=tuple(_whole(k, "perturbation mode") for k in modes),
        )

    @classmethod
    def from_array(cls, array: np.ndarray) -> InitSpec:
        return cls(kind="array", array=np.asarray(array, dtype=float))


def mass_average(u: np.ndarray, grid: GridDomain) -> float:
    """Mass of a cell field over the domain volume: its spatial mean."""
    return float(u.sum()) * grid.cell_volume / grid.volume


def initial_density(domain: GridDomain, spec: InitSpec) -> np.ndarray:
    """The t = 0 density of `spec`; raises NonPositiveInitialData unless it
    is finite and strictly positive."""
    u = _build_initial_u(domain, spec)
    if not np.all(np.isfinite(u)):
        raise NonPositiveInitialData("initial density contains non-finite values")
    if float(u.min()) <= 0.0:
        raise NonPositiveInitialData(
            f"initial density must be strictly positive, min is {u.min()}"
        )
    return u


def _build_initial_u(domain: GridDomain, spec: InitSpec) -> np.ndarray:
    if spec.kind == "constant":
        if spec.value is None:
            raise ValueError("constant initial data needs a value")
        return np.full(domain.shape, float(spec.value))
    if spec.kind == "perturbation":
        if spec.u_star is None:
            raise ValueError("perturbation initial data needs u_star")
        modes = spec.mode
        if len(modes) > domain.dimension:
            raise ValueError(
                f"perturbation mode {modes} has {len(modes)} entries; a "
                f"{domain.dimension}D grid takes at most {domain.dimension}"
            )
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
    from .helmholtz import chemical_field, get_operator  # helmholtz imports core

    u = initial_density(domain, spec)
    v = chemical_field(params, u, get_operator(domain, params.mu))
    return FieldState(time=0.0, u=u, v=v)
