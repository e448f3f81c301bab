"""Direct screened-Poisson solves for the signal and diffusion equations.

The signal field obeys 0 = lap(v) - mu v + nu u^gamma with zero-flux
boundaries, discretized as (mu I - lap_h) v = nu u^gamma on the
cell-centered grid; backward-Euler diffusion solves the same operator with
mu = 1/dt. The mirror-ghost Laplacian has zero row sums, so mu I - lap_h
is a symmetric M-matrix: constants are reproduced exactly and the discrete
comparison principle holds.

Both solves are direct and keep no factorisation:

- 1D: mu I - lap_h is a symmetric positive-definite tridiagonal matrix,
  solved in O(n) by LAPACK's `dptsv`.
- 2D: the mirror-ghost Laplacian is diagonal in the type-II DCT basis,
  with eigenvalues (4/h^2) sin^2(k pi / 2n) per axis (G. Strang, "The
  Discrete Cosine Transform", SIAM Review 41, 1999), so the solve is one
  forward transform, a division and one inverse transform.

1D stays tridiagonal because the transform pair rounds more than the
elimination: a 1D DCT solve misses the residual contract at 1024 cells and
mu = 1. Every solve checks max |(mu - lap_h) w - r| <= 1e-10 max |r| with a
mirror-ghost stencil and raises SolverFailure otherwise, NaN included.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dptsv

from .core import GridDomain, ModelParams

RESIDUAL_RTOL = 1e-10


class SingularOperator(ValueError):
    """The screening coefficient mu must be positive."""


class NonFiniteInput(ValueError):
    """Right-hand side contains NaN or infinity."""


class SolverFailure(RuntimeError):
    """A linear solve did not reach the required residual."""


def neumann_laplacian_1d(n: int, h: float) -> sp.csr_matrix:
    """Second-order cell-centered Laplacian with mirror ghost cells."""
    main = np.full(n, -2.0)
    main[0] = -1.0
    main[-1] = -1.0
    off = np.ones(n - 1)
    lap = sp.diags([off, main, off], offsets=[-1, 0, 1], format="csr")
    return lap * (1.0 / h**2)


def neumann_laplacian(grid: GridDomain) -> sp.csr_matrix:
    """Discrete Neumann Laplacian on the grid, acting on raveled fields."""
    if grid.dimension == 1:
        return neumann_laplacian_1d(grid.cells[0], grid.spacing[0])
    nx, ny = grid.cells
    hx, hy = grid.spacing
    lx = neumann_laplacian_1d(nx, hx)
    ly = neumann_laplacian_1d(ny, hy)
    return (sp.kron(lx, sp.identity(ny)) + sp.kron(sp.identity(nx), ly)).tocsr()


def _dct_eigenvalues(n: int, h: float) -> np.ndarray:
    """Eigenvalues of -lap_h on n cells, in the order of the DCT-II modes."""
    return (4.0 / h**2) * np.sin(np.arange(n) * np.pi / (2.0 * n)) ** 2


@dataclass(frozen=True, eq=False)
class HelmholtzOperator:
    """(mu I - lap_h) for one (grid, mu) pair, solved directly.

    In 1D `diagonal` and `off_diagonal` are the tridiagonal matrix; in 2D
    `diagonal` holds its eigenvalues mu + lambda_x + lambda_y in the DCT-II
    basis and `off_diagonal` is None. Immutable and shareable; `solve`
    allocates its own output.
    """

    grid: GridDomain
    mu: float
    diagonal: np.ndarray
    off_diagonal: np.ndarray | None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (mu I - lap_h) w = rhs for a raveled or grid-shaped rhs.

        Returns w in the shape of rhs. Raises SolverFailure unless the
        max-norm residual is at most 1e-10 * max |rhs|; a NaN residual fails.
        """
        r = np.asarray(rhs, dtype=float).reshape(self.grid.shape)
        if self.off_diagonal is not None:
            _, _, w, info = dptsv(self.diagonal, self.off_diagonal, r)
            if info != 0:
                raise SolverFailure(f"tridiagonal solve failed with info={info}")
        else:
            from scipy import fft  # imports scipy.special; only 2D grids pay for it

            modes = fft.dctn(r, type=2, norm="ortho") / self.diagonal
            w = fft.idctn(modes, type=2, norm="ortho")
        # (mu - lap_h) w - r by the mirror-ghost stencil, accumulated in place;
        # face differences come first, so neighbouring values cancel exactly.
        res = self.mu * w - r
        for axis, h in enumerate(self.grid.spacing):
            low, high = face_slices(self.grid.dimension, axis)
            flux = (w[high] - w[low]) / h**2
            res[low] -= flux
            res[high] += flux
        residual = float(np.abs(res).max())
        scale = float(np.abs(r).max()) or 1.0
        if not residual <= RESIDUAL_RTOL * scale:
            raise SolverFailure(
                f"elliptic residual {residual:.3e} exceeds {RESIDUAL_RTOL:.1e} * {scale:.3e}"
            )
        return w.reshape(np.shape(rhs))


@lru_cache(maxsize=64)
def get_operator(grid: GridDomain, mu: float) -> HelmholtzOperator:
    """Build (or fetch a cached) operator; a build is one O(n) array fill."""
    if not np.isfinite(mu) or mu <= 0.0:
        raise SingularOperator(f"mu must be positive, got {mu}")
    if grid.dimension == 1:
        n, h = grid.cells[0], grid.spacing[0]
        diagonal = np.full(n, mu + 2.0 / h**2)
        diagonal[[0, -1]] = mu + 1.0 / h**2
        return HelmholtzOperator(grid, mu, diagonal, np.full(n - 1, -1.0 / h**2))
    (nx, ny), (hx, hy) = grid.cells, grid.spacing
    diagonal = mu + _dct_eigenvalues(nx, hx)[:, None] + _dct_eigenvalues(ny, hy)[None, :]
    return HelmholtzOperator(grid, mu, diagonal, None)


def solve_helmholtz(op: HelmholtzOperator, rhs: np.ndarray) -> np.ndarray:
    """Solve (mu I - lap_h) v = rhs to max-norm residual 1e-10 * |rhs|_inf."""
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != op.grid.shape:
        raise ValueError(f"rhs shape {rhs.shape} does not match grid {op.grid.shape}")
    if not np.all(np.isfinite(rhs)):
        raise NonFiniteInput("right-hand side contains non-finite values")
    return op.solve(rhs)


def chemical_field(params: ModelParams, u: np.ndarray, grid: GridDomain) -> np.ndarray:
    """Signal field slaved to the density: solve with rhs = nu u^gamma."""
    u = np.asarray(u, dtype=float)
    op = get_operator(grid, params.mu)
    return solve_helmholtz(op, params.nu * u**params.gamma)


@lru_cache(maxsize=None)
def face_slices(dimension: int, axis: int) -> tuple[tuple[slice, ...], tuple[slice, ...]]:
    """Index tuples of the cells on the low and on the high side of the
    interior faces along one axis."""
    low = [slice(None)] * dimension
    high = [slice(None)] * dimension
    low[axis] = slice(None, -1)
    high[axis] = slice(1, None)
    return tuple(low), tuple(high)


def face_differences(w: np.ndarray, grid: GridDomain) -> list[np.ndarray]:
    """Interior-face gradients (w_right - w_left) / h along each axis.

    Boundary faces carry zero gradient under the mirror-ghost convention
    and are omitted.
    """
    w = np.asarray(w, dtype=float)
    grads = []
    for axis in range(grid.dimension):
        h = grid.spacing[axis]
        grads.append(np.diff(w, axis=axis) / h)
    return grads


def max_face_gradient(w: np.ndarray, grid: GridDomain) -> float:
    """Largest face-gradient magnitude over all axes."""
    best = 0.0
    for g in face_differences(w, grid):
        if g.size:
            best = max(best, float(np.abs(g).max()))
    return best
