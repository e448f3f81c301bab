"""Direct screened-Poisson solves for the signal and diffusion equations.

The signal field obeys 0 = lap(v) - mu v + nu u^gamma with zero-flux
boundaries, discretized as (mu I - lap_h) v = nu u^gamma on the
cell-centered grid; backward-Euler diffusion solves the same operator with
mu = 1/dt. The mirror-ghost Laplacian has zero row sums, so mu I - lap_h
is a symmetric M-matrix: constants are reproduced exactly and the discrete
comparison principle holds.

Both solves are direct, and the 1D solve keeps its factorisation:

- 1D: mu I - lap_h is a symmetric positive-definite tridiagonal matrix.
  `get_operator` factors it once as L D L^T with LAPACK's `dpttrf`, and
  each solve is the O(n) substitution `dpttrs`. That is what `dptsv` does
  on every call, so the solution is bitwise the same; the factors live on
  the operator that `get_operator`'s cache holds, and nowhere else.
- 2D: the mirror-ghost Laplacian is diagonal in the type-II DCT basis,
  with eigenvalues (4/h^2) sin^2(k pi / 2n) per axis (G. Strang, "The
  Discrete Cosine Transform", SIAM Review 41, 1999), so the solve is one
  forward transform, a division and one inverse transform.

1D stays tridiagonal because the transform pair rounds more than the
elimination: a 1D DCT solve misses the residual contract at 1024 cells and
mu = 1. Every solve checks max |(mu - lap_h) w - r| <= 1e-10 max |r| with
the mirror-ghost stencil `add_laplacian` and raises SolverFailure otherwise,
NaN included; a non-finite right-hand side raises NonFiniteInput, a
SolverFailure too. `HelmholtzOperator.solve` is the one entry point for both
the signal and the diffusion solve.

The check certifies with one reduction when it can. It first tests the
residual against 1e-10 |r_0|, r_0 being the first cell: since |r_0| is at
most max |r| and a rounded product keeps that order, a residual within this
bound is within the full one. Only a residual that it does not accept pays
for the reduction max |r| and the full test, which then decides exactly as
before; so the accept-or-raise decision and its message never change, and
on a good solve the check costs one reduction instead of two.

`add_laplacian` is the one written form of lap_h: the residual check, the
dense matrix of the stability check (`laplacian` on unit fields) and
`face_gradients` all index faces through `face_slices`. The 1D bands and the
2D DCT eigenvalues are lap_h in the forms that `dpttrf` and the DCT take.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .core import GridDomain, ModelParams

RESIDUAL_RTOL = 1e-10


class SingularOperator(ValueError):
    """The screening coefficient mu must be positive."""


class SolverFailure(RuntimeError):
    """A linear solve did not reach the required residual."""


class NonFiniteInput(SolverFailure, ValueError):
    """Right-hand side contains NaN or infinity."""


def _dct_eigenvalues(n: int, h: float) -> np.ndarray:
    """Eigenvalues of -lap_h on n cells, in the order of the DCT-II modes."""
    return (4.0 / h**2) * np.sin(np.arange(n) * np.pi / (2.0 * n)) ** 2


@dataclass(frozen=True, eq=False)
class HelmholtzOperator:
    """(mu I - lap_h) for one (grid, mu) pair, solved directly.

    In 1D `diagonal` and `off_diagonal` hold the L D L^T factors of the
    tridiagonal matrix, as `dpttrf` returns them: D, and the subdiagonal of
    the unit bidiagonal L. In 2D `diagonal` holds the matrix's eigenvalues
    mu + lambda_x + lambda_y in the DCT-II basis and `off_diagonal` is None.
    Immutable and shareable; `solve` allocates its own output.
    """

    grid: GridDomain
    mu: float
    diagonal: np.ndarray
    off_diagonal: np.ndarray | None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (mu I - lap_h) w = rhs for a raveled or grid-shaped rhs.

        Returns w in the shape of rhs. Raises SolverFailure unless the
        max-norm residual is at most 1e-10 * max |rhs|; a NaN residual fails.
        A failed check raises NonFiniteInput when rhs holds NaN or infinity,
        so finiteness is only looked at once the check has failed.

        The check accepts first on 1e-10 * |rhs_0|, rhs_0 the first cell:
        that bound is at most the full one, so what it accepts the full test
        accepts too. Anything else goes to the full test, so the decision
        is the same and a good solve takes one reduction, not two.
        """
        rhs = np.asarray(rhs, dtype=float)
        shape = self.grid.shape
        # A reshape costs about what a small ufunc call does; a grid-shaped
        # rhs needs none, on the way in or out.
        r = rhs if rhs.shape == shape else rhs.reshape(shape)
        if self.off_diagonal is not None:
            # info is nonzero only for an illegal argument, which leaves w
            # unsolved; the residual check below then fails.
            w, _ = dpttrs(self.diagonal, self.off_diagonal, r)
        else:
            from scipy import fft  # imports scipy.special; only 2D grids pay for it

            modes = fft.dctn(r, type=2, norm="ortho") / self.diagonal
            w = fft.idctn(modes, type=2, norm="ortho")
        # r - (mu - lap_h) w, the negated residual, accumulated in one buffer.
        res = self.mu * w
        np.subtract(r, res, out=res)
        add_laplacian(res, w, self.grid)
        # Max-norms by the ufunc reduction itself (ndarray.max wraps it in
        # Python); NaN propagates through both.
        residual = float(np.maximum.reduce(np.abs(res, out=res), axis=None))
        # An infinite one-cell bound (an infinite first cell) accepts nothing
        # by itself: the full test decides.
        quick = RESIDUAL_RTOL * abs(r.item(0))
        if not (residual <= quick and math.isfinite(quick)):
            scale = float(np.maximum.reduce(np.abs(r), axis=None)) or 1.0
            if not residual <= RESIDUAL_RTOL * scale:
                if not np.isfinite(r).all():
                    raise NonFiniteInput("right-hand side contains non-finite values")
                raise SolverFailure(
                    f"elliptic residual {residual:.3e} exceeds {RESIDUAL_RTOL:.1e} * {scale:.3e}"
                )
        return w if r is rhs else w.reshape(rhs.shape)


@lru_cache(maxsize=64)
def get_operator(grid: GridDomain, mu: float) -> HelmholtzOperator:
    """Build (or fetch a cached) operator.

    A 1D build fills the tridiagonal bands and factors them with `dpttrf`,
    both O(n); it raises SolverFailure if the factorisation fails. A 2D
    build fills the DCT eigenvalues. The cache is the only store of
    operators and factors.
    """
    if not math.isfinite(mu) or mu <= 0.0:
        raise SingularOperator(f"mu must be positive, got {mu}")
    if grid.dimension == 1:
        n, h = grid.cells[0], grid.spacing[0]
        diagonal = np.full(n, mu + 2.0 / h**2)
        diagonal[0] = diagonal[-1] = mu + 1.0 / h**2
        # The bands are fresh, so dpttrf factors them where they lie.
        factor_d, factor_e, info = dpttrf(diagonal, np.full(n - 1, -1.0 / h**2),
                                          overwrite_d=1, overwrite_e=1)
        if info != 0:
            raise SolverFailure(f"tridiagonal factorisation failed with info={info}")
        return HelmholtzOperator(grid, mu, factor_d, factor_e)
    (nx, ny), (hx, hy) = grid.cells, grid.spacing
    diagonal = mu + _dct_eigenvalues(nx, hx)[:, None] + _dct_eigenvalues(ny, hy)[None, :]
    return HelmholtzOperator(grid, mu, diagonal, None)


def chemical_field(params: ModelParams, u: np.ndarray, grid: GridDomain) -> np.ndarray:
    """Signal field slaved to the density: solve with rhs = nu u^gamma."""
    u = np.asarray(u, dtype=float)
    # With gamma = 1, u**gamma is u itself, and with nu = 1, nu * source is
    # source itself; both are skipped. `solve` only reads its rhs.
    source = u if params.gamma == 1.0 else u**params.gamma
    if params.nu != 1.0:
        source = params.nu * source
    return get_operator(grid, params.mu).solve(source)


@lru_cache(maxsize=None)
def face_slices(dimension: int, axis: int) -> tuple[tuple[slice, ...], tuple[slice, ...]]:
    """Index tuples of the cells on the low and on the high side of the
    interior faces along one axis."""
    low = [slice(None)] * dimension
    high = [slice(None)] * dimension
    low[axis] = slice(None, -1)
    high[axis] = slice(1, None)
    return tuple(low), tuple(high)


def add_laplacian(out: np.ndarray, w: np.ndarray, grid: GridDomain) -> None:
    """Add lap_h w into `out` in place, by the mirror-ghost stencil.

    Each interior face difference over h^2 goes into its low cell and out of
    its high cell; boundary faces carry none. Face differences come first, so
    neighbouring values cancel exactly. Axes after the grid's are carried
    along, so one call applies lap_h to a stack of fields.
    """
    for axis, h in enumerate(grid.spacing):
        low, high = face_slices(grid.dimension, axis)
        flux = (w[high] - w[low]) / h**2
        # In place on views: `out[low] += flux` would also copy the view
        # back onto itself.
        low_cells, high_cells = out[low], out[high]
        low_cells += flux
        high_cells -= flux


def laplacian(w: np.ndarray, grid: GridDomain) -> np.ndarray:
    """lap_h w in a new array shaped like w (grid axes first)."""
    w = np.asarray(w, dtype=float)
    out = np.zeros_like(w)
    add_laplacian(out, w, grid)
    return out


def face_gradients(w: np.ndarray, grid: GridDomain) -> list[np.ndarray]:
    """Interior-face gradients (w_high - w_low) / h, one array per axis.

    Boundary faces carry zero gradient under the mirror-ghost convention
    and are omitted.
    """
    w = np.asarray(w, dtype=float)
    grads = []
    for axis, h in enumerate(grid.spacing):
        low, high = face_slices(grid.dimension, axis)
        grads.append((w[high] - w[low]) / h)
    return grads
