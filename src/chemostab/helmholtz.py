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
  the operator, which its caller holds (`integrator.run`, for a whole run).
- 2D: the mirror-ghost Laplacian is diagonal in the type-II DCT basis,
  with eigenvalues (4/h^2) sin^2(k pi / 2n) per axis (G. Strang, "The
  Discrete Cosine Transform", SIAM Review 41, 1999), so the solve is one
  forward transform, a division and one inverse transform; the division
  and the inverse transform work in the modes' own buffer.

1D stays tridiagonal because the transform pair rounds more than the
elimination: a 1D DCT solve misses the residual contract at 1024 cells and
mu = 1. Every solve is certified by `certify`: max |(mu - lap_h) w - r| <=
1e-10 max |r| with the mirror-ghost stencil `add_laplacian`, else
SolverFailure, NaN included; a non-finite right-hand side raises
NonFiniteInput, a SolverFailure too. `HelmholtzOperator.solve` is the one
entry point for every solve: the signal and diffusion solves, the stacks
of unit fields behind the gradient constant M0, and the stacks of DCT
basis fields of the discrete stability check.

`certify` checks one grid-shaped solve, or a stack of solves in one pass,
one solve per column, and each column on its own: its residual against its
own max |r|, so a large column cannot mask a small one. One decision serves
both. It first tests a residual against 1e-10 |r_0|, r_0 the solve's first
cell: since |r_0| is at most max |r| and a rounded product keeps that
order, a residual within this bound is within the full one. On a stack
this quick test runs on all columns at once, as array operations, each
column's residual norm a ufunc reduction; one solve's residual norm is
read by index (`core.max_abs`), bitwise that reduction, at about half
its cost on 64 cells. Only a residual that the quick test does not accept
pays for max |r| and the full test, in a Python loop over those columns
alone, which then decides exactly as the full test alone; so every
accept-or-raise decision and message is that of the full test, and the
first failing column, in order, raises.

When the check runs: an operator certifies each solve at once, unless
`get_operator` built it with a `SolveBlock`, as `integrator.run` builds its
two on grids of at most 256 cells, where the check's numpy dispatch, not
its arithmetic, is the cost of a solve (128 solves on 64 cells per block).
Only grid-shaped solves wait in a block: a stack is certified at once, in
its own stacked pass, on any operator.
The one rule: a block is certified when it is full and when the run leaves
its `with solve_block(grid)`, where a failing solve replaces any Exception
in flight. So nothing built on an uncertified solve leaves the run, a
failing solve raises what it would have raised at once, and the solutions
are those of the direct solve either way. A block works out once, when it
is made, each slot's two rows as views, which `add` copies a solve into,
and the axis order that presents its slots to `certify` as columns.

`add_laplacian` is the one written form of lap_h, behind the residual
check and `laplacian`. It works on the field with its grid axes merged
into one: along axis a the two cells of a face lie S_a = prod(cells[a+1:])
apart, so each axis is one shifted difference, a contiguous sweep even
along the last axis of a 2D grid. The pairs S_a apart that straddle a row
end are no faces and are set to 0 before they are added, which changes no
float that the check or `laplacian` can show (see `add_laplacian`).
`face_gradients` indexes faces through `GridDomain.faces`. The 1D bands
and the 2D DCT eigenvalues are lap_h in the forms that `dpttrf` and the
DCT take.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .core import FLOAT64, GridDomain, ModelParams, max_abs

RESIDUAL_RTOL = 1e-10

# Block sizes of `solve_block`, measured on 1D grids of 64 to 1024 cells and
# 2D grids of 8 x 12 and 12 x 20 on the 2-vCPU x86-64 machine described in
# perfbench/README.md.
BLOCK_CELLS = 1 << 13
BLOCK_MIN_SOLVES = 32


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
    Immutable and shareable; `solve` allocates its own output. An operator
    built with a `block` defers the certificates of its solves into it.
    """

    grid: GridDomain
    mu: float
    diagonal: np.ndarray
    off_diagonal: np.ndarray | None
    block: SolveBlock | None = None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (mu I - lap_h) w = rhs for a grid-shaped rhs, or for a stack:
        the grid axes, then one axis of solves. Other shapes raise ValueError.

        1D hands the (n, k) stack to `dpttrs` and 2D transforms the grid
        axes only, so each column is bitwise its own solve. w is certified
        by `certify` at once, a stack in one pass: SolverFailure unless each
        column's residual is at most 1e-10 * max |rhs| (NaN fails),
        NonFiniteInput if that rhs holds NaN or infinity. On an operator with
        a `block` the check of a grid-shaped solve waits in the block; a
        stack is certified at once, as on any operator.

        A float64 ndarray rhs, as every rhs of a run is, is solved as it
        is; any other input is converted with np.asarray(rhs, dtype=float)
        first, so its solution is that of its float64 copy.
        """
        if rhs.__class__ is not np.ndarray or rhs.dtype is not FLOAT64:
            rhs = np.asarray(rhs, dtype=float)
        shape = self.grid.cells
        stacked = rhs.shape != shape
        if stacked and rhs.shape[:-1] != shape:
            raise ValueError(f"rhs shape {rhs.shape} is neither the grid shape {shape} "
                             "nor the grid shape with one trailing axis of solves")
        if self.off_diagonal is not None:
            # info is nonzero only for an illegal argument, which leaves w
            # unsolved; the residual check then fails.
            w, _ = dpttrs(self.diagonal, self.off_diagonal, rhs)
        else:
            from scipy import fft  # imports scipy.special; only 2D grids pay for it

            # The modes are the solve's own: divided and inverse-transformed
            # where they lie.
            modes = fft.dctn(rhs, type=2, norm="ortho", axes=(0, 1))
            modes /= self.diagonal[..., None] if stacked else self.diagonal
            w = fft.idctn(modes, type=2, norm="ortho", axes=(0, 1), overwrite_x=True)
        # Only a grid-shaped solve waits in a block; a stack is one pass already.
        block = self.block
        if block is None or stacked:
            certify(self.grid, self.mu, rhs, w)
        else:
            block.add(self.mu, rhs, w)
        return w


def certify(grid: GridDomain, mu, rhs: np.ndarray, solutions: np.ndarray) -> None:
    """Certify one solve (mu I - lap_h) w = r, or a stack of them as columns.

    For one solve `rhs` and `solutions` are grid-shaped and `mu` is a float.
    For a stack they have the grid axes first and one trailing axis of
    solves, and `mu` is a float or one value per solve. Solve k is accepted
    when max |r_k - (mu_k - lap_h) w_k| <= 1e-10 max |r_k| (or 1e-10 when
    r_k is all zero); a NaN residual fails. The first solve, in order, that
    is not accepted raises NonFiniteInput when r_k holds NaN or infinity,
    SolverFailure otherwise.

    Each solve is first tested against 1e-10 |r_k0|, r_k0 its first cell:
    that bound is at most the full one, so what it accepts the full test
    accepts too. A stack runs this test on all its solves at once; only the
    solves it does not accept pay for max |r_k| and the full test, in order.
    """
    # r - (mu - lap_h) w, the negated residual, accumulated in one buffer.
    res = mu * solutions
    np.subtract(rhs, res, out=res)
    add_laplacian(res, solutions, grid)
    # A stack runs the one-cell test on all its solves at once, their
    # max-norms by one ufunc reduction per column; one solve runs it as
    # Python floats, its max-norm read by index (`core.max_abs`, bitwise
    # the reduction of |res|). NaN propagates through both. Only the solves
    # that the test does not accept reach the loop, in order.
    if rhs.ndim > grid.dimension:
        np.abs(res, out=res)
        residuals = np.maximum.reduce(res, axis=tuple(range(grid.dimension)))
        quick = RESIDUAL_RTOL * np.abs(rhs[(0,) * grid.dimension])
        # An infinite one-cell bound (an infinite first cell) accepts nothing
        # by itself: the full test decides. NaN fails the comparison.
        pending = np.flatnonzero(~((residuals <= quick) & np.isfinite(quick)))
        untested = [(float(residuals[k]), rhs[..., k]) for k in pending]
    else:
        residual = max_abs(res)
        quick = RESIDUAL_RTOL * abs(rhs.item(0))
        untested = [] if residual <= quick and math.isfinite(quick) else [(residual, rhs)]
    for residual, r in untested:
        scale = max_abs(r) or 1.0
        if not residual <= RESIDUAL_RTOL * scale:
            if not np.isfinite(r).all():
                raise NonFiniteInput("right-hand side contains non-finite values")
            raise SolverFailure(
                f"elliptic residual {residual:.3e} exceeds {RESIDUAL_RTOL:.1e} * {scale:.3e}"
            )


class SolveBlock:
    """Solves on one grid whose certificates wait for one stacked pass.

    `add` copies a solve into the next slot of the stack, through views of
    the slot's rows made with the block; `flush` certifies
    the filled slots with `certify`, in the order they were added, and
    empties the block, also when it raises. A block flushes when it is full
    and when a `with` over it exits cleanly or with an Exception, which a
    failing flush replaces, chained; any other BaseException exits unchecked.
    """

    def __init__(self, grid: GridDomain, capacity: int):
        self.grid = grid
        self.capacity = capacity
        # Stack-major: each solve is one contiguous slot.
        self.rhs = np.empty((capacity, *grid.shape))
        self.solutions = np.empty((capacity, *grid.shape))
        self.mu = np.empty(capacity)
        self.count = 0
        # Each slot's two rows as views, which `add` copies into directly.
        self._slots = list(zip(self.rhs, self.solutions))
        # The axis order that puts the stack axis last, as `certify` takes it.
        self._columns = (*range(1, grid.dimension + 1), 0)

    def add(self, mu: float, rhs: np.ndarray, w: np.ndarray) -> None:
        k = self.count
        rhs_slot, w_slot = self._slots[k]
        rhs_slot[...] = rhs
        w_slot[...] = w
        self.mu[k] = mu
        self.count = k = k + 1
        if k == self.capacity:
            self.flush()

    def flush(self) -> None:
        count, self.count = self.count, 0
        if count:
            # Columns with the grid axes first, as add_laplacian takes them;
            # not .T, which on a 2D grid would also swap x and y.
            certify(self.grid, self.mu[:count], self.rhs[:count].transpose(self._columns),
                    self.solutions[:count].transpose(self._columns))

    def __enter__(self) -> SolveBlock:
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        if exc_type is None or issubclass(exc_type, Exception):
            self.flush()


def solve_block(grid: GridDomain) -> SolveBlock | nullcontext[None]:
    """The block `integrator.run` collects its solves in, or a
    `nullcontext()`, which gives None, where each solve is certified at once.

    A block holds BLOCK_CELLS cells per stacked array (64 KiB), so a flush
    works in cache. Where that leaves room for fewer than BLOCK_MIN_SOLVES
    solves (grids above 256 cells) a check's arithmetic outweighs its
    dispatch and stacking gains nothing, so each solve is certified at once.
    """
    capacity = BLOCK_CELLS // grid.total_cells
    return SolveBlock(grid, capacity) if capacity >= BLOCK_MIN_SOLVES else nullcontext()


def get_operator(grid: GridDomain, mu: float,
                 block: SolveBlock | None = None) -> HelmholtzOperator:
    """Build a new operator for (mu I - lap_h) on `grid`.

    A 1D build fills the tridiagonal bands and factors them with `dpttrf`,
    both O(n); it raises SolverFailure if the factorisation fails. A 2D
    build fills the DCT eigenvalues. Given a `block`, its solves wait in it.
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
        return HelmholtzOperator(grid, mu, factor_d, factor_e, block)
    (nx, ny), (hx, hy) = grid.cells, grid.spacing
    diagonal = mu + _dct_eigenvalues(nx, hx)[:, None] + _dct_eigenvalues(ny, hy)[None, :]
    return HelmholtzOperator(grid, mu, diagonal, None, block)


def chemical_field(params: ModelParams, u: np.ndarray, signal: HelmholtzOperator) -> np.ndarray:
    """Signal field slaved to the density: solve with rhs = nu u^gamma.

    `signal` is get_operator(grid, params.mu).
    """
    # With gamma = 1, u**gamma is u itself, and with nu = 1, nu * source is
    # source itself; both are skipped. `solve` only reads its rhs, and
    # converts one that is not float64, as u**gamma and nu * u are.
    source = u if params.gamma == 1.0 else u**params.scalars.gamma
    if params.nu != 1.0:
        source = params.scalars.nu * source
    return signal.solve(source)


def add_laplacian(out: np.ndarray, w: np.ndarray, grid: GridDomain) -> None:
    """Add lap_h w into `out` in place, by the mirror-ghost stencil.

    Each interior face difference over h^2 goes into its low cell and out of
    its high cell; boundary faces carry none. Face differences come first, so
    neighbouring values cancel exactly. Axes after the grid's are carried
    along, so one call applies lap_h to a stack of fields.

    The passes run on the fields with their grid axes merged into one. Along
    axis a the two cells of a face lie S_a = prod(cells[a+1:]) apart, so
    the face differences of an axis are one shifted difference over the
    merged axis, a contiguous sweep on every axis. The pairs S_a apart that
    straddle the end of a row along axis a (none along the first axis) are
    no faces: their differences are set to 0 before they are added, and
    adding or subtracting that 0 changes no float, except that an exact
    -0.0 in `out` at a row end can become +0.0. Neither `certify`, which
    takes |.|, nor `laplacian`, which starts from +0.0, can show that.
    """
    flat_out, flat_w = out, w
    if grid.dimension > 1:
        merged = (grid.total_cells, *w.shape[grid.dimension:])
        flat_out, flat_w = out.reshape(merged), w.reshape(merged)
    total = stride = len(flat_out)
    for n, h in zip(grid.cells, grid.spacing):
        stride //= n
        faces = flat_w[stride:] - flat_w[:-stride]
        if n * stride < total:
            # Pair (i, i + stride) straddles a row end when i lies in the
            # last `stride` cells of a run of n * stride cells.
            faces[(n - 1) * stride:].reshape(-1, n * stride, *faces.shape[1:])[:, :stride] = 0.0
        faces /= h**2
        # In place on views: `out[:-stride] += faces` would also copy the
        # view back onto itself.
        low_cells, high_cells = flat_out[:-stride], flat_out[stride:]
        low_cells += faces
        high_cells -= faces
    if flat_out is not out and not np.may_share_memory(flat_out, out):
        # The grid axes of `out` do not merge in place (a Fortran-ordered
        # field does not), so the reshape copied: write the copy back.
        out[...] = flat_out.reshape(out.shape)


def laplacian(w: np.ndarray, grid: GridDomain) -> np.ndarray:
    """lap_h w in a new array shaped like w (grid axes first)."""
    w = np.asarray(w, dtype=float)
    # C order whatever the layout of w, so that the grid axes merge in place.
    out = np.zeros(w.shape)
    add_laplacian(out, w, grid)
    return out


def face_gradients(w: np.ndarray, grid: GridDomain) -> list[np.ndarray]:
    """Interior-face gradients (w_high - w_low) / h, one array per axis.

    Boundary faces carry zero gradient under the mirror-ghost convention
    and are omitted.
    """
    w = np.asarray(w, dtype=float)
    return [(w[high] - w[low]) / h for low, high, h, _, _ in grid.faces]
