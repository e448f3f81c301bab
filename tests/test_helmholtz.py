"""Discrete Laplacian structure and the screened elliptic solve."""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dptsv, dpttrf

import chemostab
from chemostab import (
    GridDomain,
    InitSpec,
    StepConfig,
    chemical_field,
    get_operator,
    init_state,
    run,
)
from chemostab.helmholtz import (
    BLOCK_CELLS,
    BLOCK_MIN_SOLVES,
    RESIDUAL_RTOL,
    NonFiniteInput,
    SingularOperator,
    SolveBlock,
    SolverFailure,
    add_laplacian,
    certify,
    face_gradients,
    laplacian,
    solve_block,
)
from chemostab.stability import SWEEP_CELL_LIMIT, SweepTooLarge
from conftest import dense_laplacian, make_params


def discrete_eigenvalue(n: int, length: float, cells: int) -> float:
    """lambda_n of the cell-centered mirror-ghost Laplacian."""
    h = length / cells
    return (4.0 / h**2) * math.sin(n * math.pi * h / (2.0 * length)) ** 2


def tridiagonal_laplacian(n: int, h: float) -> np.ndarray:
    """The mirror-ghost 1D Laplacian written out as a dense matrix."""
    lap = (np.diag(np.full(n, -2.0)) + np.diag(np.ones(n - 1), 1)
           + np.diag(np.ones(n - 1), -1))
    lap[0, 0] = lap[-1, -1] = -1.0
    return lap / h**2


class TestLaplacian:
    def test_row_sums_vanish(self):
        lap = dense_laplacian(GridDomain.interval(4.0, 16))
        assert np.abs(lap.sum(axis=1)).max() < 1e-12

    def test_symmetry(self):
        lap = dense_laplacian(GridDomain.interval(4.0, 16))
        assert np.abs(lap - lap.T).max() == 0.0

    @pytest.mark.parametrize("grid", [
        GridDomain.interval(math.pi, 64), GridDomain.interval(math.pi, 17),
        GridDomain.rectangle(1.0, 2.5, 12, 10), GridDomain.rectangle(1.0, 2.5, 8, 12),
    ], ids=lambda grid: "x".join(map(str, grid.cells)))
    def test_dense_laplacian_is_exactly_symmetric(self, grid):
        # The stencil's matrix is symmetric bit for bit, on odd, even and
        # non-square grids: the stability check's Weyl bound takes J, a
        # function of lap_h, to be symmetric.
        lap = dense_laplacian(grid)
        assert lap.tobytes() == lap.T.tobytes()

    def test_dense_laplacian_cell_limit(self):
        big = GridDomain.rectangle(1.0, 1.0, 128, 128)
        assert big.total_cells > SWEEP_CELL_LIMIT
        with pytest.raises(SweepTooLarge):
            dense_laplacian(big)

    def test_constant_in_kernel_2d(self):
        g = GridDomain.rectangle(1.0, 2.0, 8, 12)
        assert np.abs(laplacian(np.ones(g.shape), g)).max() < 1e-12

    def test_cosine_is_exact_eigenvector(self):
        # cos(n pi x / L) sampled at cell centers diagonalizes the stencil.
        g = GridDomain.interval(math.pi, 32)
        for n in (1, 3, 7):
            w = np.cos(n * g.centers())
            lam = discrete_eigenvalue(n, math.pi, 32)
            assert laplacian(w, g) == pytest.approx(-lam * w, abs=1e-10)

    @pytest.mark.parametrize(
        "grid",
        [GridDomain.interval(4.0, 16), GridDomain.rectangle(1.0, 2.5, 12, 20)],
        ids=["1d", "2d"],
    )
    def test_dense_matrix_is_the_kronecker_sum_of_tridiagonals(self, grid):
        # An independent form of lap_h: the stencil's matrix on unit fields
        # against the tridiagonal matrices, combined as lx (x) I + I (x) ly.
        mats = [tridiagonal_laplacian(n, h) for n, h in zip(grid.cells, grid.spacing)]
        if grid.dimension == 1:
            (expected,) = mats
        else:
            (nx, ny), (lx, ly) = grid.cells, mats
            expected = np.kron(lx, np.eye(ny)) + np.kron(np.eye(nx), ly)
        lap = dense_laplacian(grid)
        assert np.abs(lap - expected).max() <= 1e-14 * np.abs(expected).max()


def face_form_laplacian(out, w, grid):
    """Add lap_h w into out face slice by face slice: the reference that the
    shifted differences of `add_laplacian` must match byte for byte."""
    for axis, h in enumerate(grid.spacing):
        low = [slice(None)] * grid.dimension
        high = [slice(None)] * grid.dimension
        low[axis], high[axis] = slice(None, -1), slice(1, None)
        low, high = tuple(low), tuple(high)
        flux = (w[high] - w[low]) / h**2
        low_cells, high_cells = out[low], out[high]
        low_cells += flux
        high_cells -= flux


def laid_out(x, layout, dimension):
    """x in C order, in Fortran order, or as a stack-major array with the
    grid axes moved first, as `SolveBlock.flush` hands its stack over."""
    if layout == "C":
        return np.ascontiguousarray(x)
    if layout == "F":
        return np.asfortranarray(x)
    grid_axes, stack_axes = range(dimension), range(dimension, x.ndim)
    stack_major = np.ascontiguousarray(np.moveaxis(x, stack_axes, range(x.ndim - dimension)))
    return np.moveaxis(stack_major, range(x.ndim - dimension), stack_axes)


LAYOUTS = st.sampled_from(["C", "F", "stack"])


class TestShiftedDifferences:
    """`add_laplacian` sweeps each axis as one shifted difference over the
    merged grid axes; its floats are those of the face-slice form."""

    @given(cells=st.lists(st.integers(8, 40), min_size=1, max_size=2),
           lengths=st.lists(st.floats(0.5, 4.0), min_size=2, max_size=2),
           trailing=st.lists(st.integers(1, 3), max_size=2),
           out_layout=LAYOUTS, w_layout=LAYOUTS, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_face_slice_form_byte_for_byte(self, cells, lengths, trailing,
                                                       out_layout, w_layout, seed):
        grid = GridDomain(len(cells), tuple(lengths[:len(cells)]), tuple(cells))
        rng = np.random.default_rng(seed)
        shape = (*grid.shape, *trailing)
        w = laid_out(rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, size=shape),
                     w_layout, grid.dimension)
        start = rng.standard_normal(shape)
        expected = start.copy()
        face_form_laplacian(expected, w, grid)
        out = laid_out(start, out_layout, grid.dimension)
        add_laplacian(out, w, grid)
        assert out.shape == expected.shape
        # tobytes is in C order whatever the layout.
        assert out.tobytes() == expected.tobytes()

    def test_row_ends_differ_from_the_face_form_only_in_the_sign_of_a_zero(self):
        # Signed zeros everywhere: the one place the zeroed row-end pairs can
        # show is an exact -0.0 in out at the end of a row, which adding +0.0
        # turns into +0.0.
        grid = GridDomain.rectangle(1.0, 1.0, 8, 9)
        rng = np.random.default_rng(3)
        for _ in range(50):
            w = rng.choice([0.0, -0.0], size=grid.shape)
            out = rng.choice([0.0, -0.0], size=grid.shape)
            expected = out.copy()
            face_form_laplacian(expected, w, grid)
            add_laplacian(out, w, grid)
            assert np.array_equal(out, expected)
            differs = np.signbit(out) != np.signbit(expected)
            assert not np.signbit(out[differs]).any()
            assert not differs[:, :-1].any()

    def test_laplacian_of_a_fortran_ordered_field(self, rng):
        grid = GridDomain.rectangle(1.0, 2.5, 12, 20)
        w = rng.standard_normal(grid.shape)
        expected = np.zeros(grid.shape)
        face_form_laplacian(expected, w, grid)
        assert laplacian(np.asfortranarray(w), grid).tobytes() == expected.tobytes()


class TestSolver:
    def test_mu_must_be_positive(self, interval_pi):
        for mu in (0.0, -2.0, math.nan, math.inf, -math.inf):
            with pytest.raises(SingularOperator):
                get_operator(interval_pi, mu)

    @pytest.mark.parametrize("grid", [GridDomain.interval(math.pi, 64),
                                      GridDomain.rectangle(1.0, 2.5, 12, 20)],
                             ids=["1d", "2d"])
    def test_each_call_builds_a_new_operator_with_equal_factors(self, grid):
        # Nothing is cached: a second build is a new operator, bitwise the first.
        a = get_operator(grid, 1.0)
        b = get_operator(grid, 1.0)
        assert a is not b
        assert a.diagonal is not b.diagonal
        assert a.diagonal.tobytes() == b.diagonal.tobytes()
        if grid.dimension == 1:
            assert a.off_diagonal.tobytes() == b.off_diagonal.tobytes()
        else:
            assert a.off_diagonal is b.off_diagonal is None

    def test_constant_solution_exact(self, interval_pi):
        op = get_operator(interval_pi, 3.0)
        rhs = np.full(64, 6.0)
        v = op.solve(rhs)
        assert v == pytest.approx(np.full(64, 2.0), abs=1e-12)

    def test_discrete_eigenvector_solved_exactly(self):
        g = GridDomain.interval(math.pi, 64)
        mu = 1.0
        op = get_operator(g, mu)
        w = np.cos(2.0 * g.centers())
        lam = discrete_eigenvalue(2, math.pi, 64)
        v = op.solve((mu + lam) * w)
        assert v == pytest.approx(w, abs=1e-10)

    def test_manufactured_cosine_second_order(self):
        # (1 - d^2/dx^2) cos x = 2 cos x on [0, pi]; error drops ~4x per
        # mesh doubling.
        errors = {}
        for cells in (128, 256):
            g = GridDomain.interval(math.pi, cells)
            op = get_operator(g, 1.0)
            x = g.centers()
            v = op.solve(2.0 * np.cos(x))
            errors[cells] = float(np.abs(v - np.cos(x)).max())
        assert errors[256] < 1e-4
        assert 3.5 < errors[128] / errors[256] < 4.5

    def test_2d_discrete_eigenvector(self):
        g = GridDomain.rectangle(math.pi, math.pi, 24, 24)
        mu = 2.0
        op = get_operator(g, mu)
        xx, yy = g.meshgrid()
        w = np.cos(xx) * np.cos(2.0 * yy)
        lam = discrete_eigenvalue(1, math.pi, 24) + discrete_eigenvalue(2, math.pi, 24)
        v = op.solve((mu + lam) * w)
        assert v == pytest.approx(w, abs=1e-8)

    def test_comparison_principle_random_pairs(self, rng):
        g = GridDomain.interval(math.pi, 48)
        op = get_operator(g, 1.5)
        for _ in range(20):
            f2 = rng.uniform(0.0, 1.0, size=48)
            f1 = f2 + rng.uniform(0.0, 1.0, size=48)
            v1 = op.solve(f1)
            v2 = op.solve(f2)
            assert float((v1 - v2).min()) >= -1e-12

    def test_positivity(self, rng):
        g = GridDomain.interval(2.0, 32)
        op = get_operator(g, 0.7)
        v = op.solve(rng.uniform(0.1, 1.0, size=32))
        assert v.min() > 0.0

    def test_shape_mismatch_rejected(self, interval_pi):
        op = get_operator(interval_pi, 1.0)
        with pytest.raises(ValueError, match="shape"):
            op.solve(np.ones(32))

    def test_non_finite_rhs_rejected(self, interval_pi):
        op = get_operator(interval_pi, 1.0)
        rhs = np.ones(64)
        rhs[3] = math.nan
        with pytest.raises(NonFiniteInput):
            op.solve(rhs)

    def test_chemical_field_mean_identity(self, interval_pi, rng):
        # Summing the discrete equation: mu sum(v) = nu sum(u^gamma).
        p = make_params(gamma=1.5, mu=2.0, nu=3.0)
        u = rng.uniform(0.5, 2.0, size=64)
        v = chemical_field(p, u, get_operator(interval_pi, p.mu))
        assert 2.0 * v.sum() == pytest.approx(3.0 * (u**1.5).sum(), rel=1e-12)


class TestDirectSolves:
    """Both direct solves against a dense solve of mu I - lap_h."""

    GRIDS = {
        "1d": GridDomain.interval(math.pi, 48),
        # Unequal cells and lengths per axis: a swapped eigenvalue shows.
        "2d": GridDomain.rectangle(1.0, 2.5, 12, 20),
    }

    @pytest.mark.parametrize("mu", [0.5, 1.0, 200.0])
    @pytest.mark.parametrize("name", ["1d", "2d"])
    def test_matches_dense_solve(self, name, mu, rng):
        grid = self.GRIDS[name]
        rhs = rng.uniform(-1.0, 2.0, size=grid.shape)
        dense = mu * np.eye(grid.total_cells) - dense_laplacian(grid)
        expected = np.linalg.solve(dense, rhs.ravel()).reshape(grid.shape)
        v = get_operator(grid, mu).solve(rhs)
        assert v.shape == grid.shape
        assert np.abs(v - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("cells", [(8, 12), (24, 36), (32, 32)])
    @pytest.mark.parametrize("mu", [0.5, 200.0])
    def test_2d_solve_is_bitwise_the_transform_pair(self, cells, mu, rng):
        # The modes are divided and inverse-transformed in their own buffer;
        # the floats are those of the expression written out.
        grid = GridDomain.rectangle(1.0, 2.5, *cells)
        op = get_operator(grid, mu)
        rhs = rng.uniform(-1.0, 2.0, size=grid.shape)
        kept = rhs.copy()
        expected = scipy.fft.idctn(scipy.fft.dctn(rhs, type=2, norm="ortho") / op.diagonal,
                                   type=2, norm="ortho")
        assert op.solve(rhs).tobytes() == expected.tobytes()
        assert rhs.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("name", ["1d", "2d"])
    def test_nan_rhs_fails_the_residual_check(self, name):
        # NaN and infinities fail the check and are reported as NonFiniteInput,
        # which every handler of SolverFailure or ValueError still catches.
        grid = self.GRIDS[name]
        for value in (math.nan, math.inf, -math.inf):
            rhs = np.ones(grid.shape)
            rhs.flat[5] = value
            with np.errstate(invalid="ignore"), pytest.raises(NonFiniteInput) as info:
                get_operator(grid, 1.0).solve(rhs)
            assert isinstance(info.value, SolverFailure)
            assert isinstance(info.value, ValueError)

    def test_finite_rhs_failing_the_check_is_a_plain_solver_failure(self, monkeypatch, rng):
        monkeypatch.setattr(chemostab.helmholtz, "RESIDUAL_RTOL", 0.0)
        grid = self.GRIDS["1d"]
        with pytest.raises(SolverFailure) as info:
            get_operator(grid, 1.0).solve(rng.uniform(0.0, 1.0, size=grid.shape))
        assert not isinstance(info.value, NonFiniteInput)

    def test_residual_contract_on_a_large_2d_grid(self, rng):
        grid = GridDomain.rectangle(math.pi, math.pi, 128, 128)
        rhs = rng.uniform(0.0, 1.0, size=grid.shape)
        for mu in (1.0, 1e3):
            v = get_operator(grid, mu).solve(rhs)
            # The stencil on the field: a dense 16,384^2 matrix would take 2 GiB.
            residual = mu * v - laplacian(v, grid) - rhs
            assert np.abs(residual).max() <= RESIDUAL_RTOL * np.abs(rhs).max()

    @pytest.mark.parametrize("module", ["scipy.fft", "scipy.sparse"])
    def test_import_leaves_module_unloaded(self, module):
        # scipy.fft pulls in scipy.special; only a 2D solve should pay for it.
        # No code path needs scipy.sparse.
        src = str(Path(chemostab.__file__).resolve().parents[1])
        code = f"import sys; sys.path.insert(0, {src!r}); import chemostab; " \
               f"print({module!r} in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "False"


class TestStackedSolves:
    """A trailing axis of right-hand sides, solved and certified as one stack."""

    GRIDS = (GridDomain.interval(math.pi, 8), GridDomain.interval(2.0, 64),
             GridDomain.rectangle(1.0, 2.5, 8, 12), GridDomain.rectangle(1.0, 2.5, 24, 36))

    @given(grid=st.sampled_from(GRIDS), columns=st.integers(1, 40),
           mu=st.sampled_from([0.1, 1.0, 1e3]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_a_stack_is_bitwise_its_column_solves(self, grid, columns, mu, seed):
        op = get_operator(grid, mu)
        rhs = np.random.default_rng(seed).uniform(-1.0, 2.0, size=(*grid.shape, columns))
        kept = rhs.copy()
        stacked = op.solve(rhs)
        alone = np.stack([op.solve(rhs[..., k]) for k in range(columns)], axis=-1)
        assert stacked.shape == rhs.shape
        assert stacked.tobytes() == alone.tobytes()
        assert rhs.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("grid", GRIDS, ids=lambda grid: "x".join(map(str, grid.cells)))
    def test_a_nan_column_raises_non_finite_input(self, grid):
        rhs = np.ones((*grid.shape, 6))
        rhs[(2,) * grid.dimension + (4,)] = math.nan
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteInput):
            get_operator(grid, 1.0).solve(rhs)

    @pytest.mark.parametrize("cells, shape", [
        ((64,), (32,)), ((64,), (2, 64)), ((64,), (64, 2, 3)), ((64,), ()),
        ((8, 12), (96,)), ((8, 12), (12, 8)), ((8, 12), (12, 8, 3)),
        ((8, 12), (8, 12, 2, 3)), ((8, 12), (8,)),
    ], ids=lambda axes: "x".join(map(str, axes)) or "scalar")
    def test_a_misshaped_rhs_raises_value_error(self, cells, shape):
        grid = (GridDomain.interval(math.pi, *cells) if len(cells) == 1
                else GridDomain.rectangle(1.0, 2.5, *cells))
        with pytest.raises(ValueError, match="shape") as info:
            get_operator(grid, 1.0).solve(np.ones(shape))
        assert not isinstance(info.value, SolverFailure)


class TestFactoredSolve:
    """The 1D operator is factored once by `dpttrf`; each solve substitutes."""

    @pytest.mark.parametrize("cells", [8, 64, 512])
    # The last mu is 1/dt, the diffusion operator of a step of dt = 7e-3.
    @pytest.mark.parametrize("mu", [0.5, 1.0, 200.0, 1e3, 1.0 / 7e-3])
    def test_solve_is_bitwise_dptsv_on_the_bands(self, cells, mu, rng):
        # dptsv factors the unfactored bands and substitutes in one call:
        # the reference this operator's solve must reproduce byte for byte.
        grid = GridDomain.interval(math.pi, cells)
        h = grid.spacing[0]
        diagonal = np.full(cells, mu + 2.0 / h**2)
        diagonal[[0, -1]] = mu + 1.0 / h**2
        off_diagonal = np.full(cells - 1, -1.0 / h**2)
        for rhs in (rng.uniform(-1.0, 2.0, size=cells), 1.0 + 0.5 * np.cos(grid.centers())):
            _, _, expected, info = dptsv(diagonal, off_diagonal, rhs)
            assert info == 0
            assert get_operator(grid, mu).solve(rhs).tobytes() == expected.tobytes()

    def test_each_operator_is_factored_once_per_run(self, monkeypatch):
        calls = []
        factor = chemostab.helmholtz.dpttrf

        def counting_dpttrf(*args, **kwargs):
            calls.append(args)
            return factor(*args, **kwargs)

        monkeypatch.setattr(chemostab.helmholtz, "dpttrf", counting_dpttrf)
        grid = GridDomain.interval(math.pi, 64)
        p = make_params(chi0=2.0)
        state = init_state(grid, InitSpec.perturbation(1.0, 0.1), p)
        traj = run(p, grid, state, StepConfig(t_end=0.2, dt=1e-3))
        assert traj.steps_taken == 200
        # Once for init_state's signal operator, and in the run once for its
        # own signal operator (mu = 1) and once for diffusion (1/dt).
        assert len(calls) == 3

    @pytest.mark.parametrize("cells", [8, 64, 1024])
    @pytest.mark.parametrize("mu", [1e-2, 1.0, 1e3, 1.0 / 7e-3])
    def test_factors_are_bitwise_those_of_the_written_bands(self, cells, mu):
        # The bands built with a fancy-indexed end-cell write and factored on
        # copies, as before the build wrote the end cells as scalars and let
        # dpttrf overwrite its input.
        grid = GridDomain.interval(math.pi, cells)
        h = grid.spacing[0]
        diagonal = np.full(cells, mu + 2.0 / h**2)
        diagonal[[0, -1]] = mu + 1.0 / h**2
        factor_d, factor_e, info = dpttrf(diagonal, np.full(cells - 1, -1.0 / h**2))
        assert info == 0
        op = get_operator(grid, mu)
        assert op.diagonal.tobytes() == factor_d.tobytes()
        assert op.off_diagonal.tobytes() == factor_e.tobytes()

    def test_failed_factorisation_raises_at_build(self, monkeypatch):
        monkeypatch.setattr(chemostab.helmholtz, "dpttrf",
                            lambda d, e, **overwrite: (d, e, 3))
        with pytest.raises(SolverFailure, match="info=3"):
            get_operator(GridDomain.interval(math.pi, 64), 1.0)


def solve_with_dense(op, r):
    """(mu I - lap_h)^-1 r by a dense LU solve, independent of `solve`."""
    dense = op.mu * np.eye(op.grid.total_cells) - dense_laplacian(op.grid)
    return np.linalg.solve(dense, r.ravel()).reshape(op.grid.shape)


def reference_certificate(op, r, w):
    """The residual check as two full reductions: None when (r, w) passes,
    else the type and message of the exception `solve` must raise."""
    with np.errstate(invalid="ignore", over="ignore"):
        res = r - op.mu * w
        add_laplacian(res, w, op.grid)
    residual = float(np.abs(res).max())
    scale = float(np.abs(r).max()) or 1.0
    if residual <= chemostab.helmholtz.RESIDUAL_RTOL * scale:
        return None
    if not np.isfinite(r).all():
        return NonFiniteInput, "right-hand side contains non-finite values"
    return SolverFailure, (f"elliptic residual {residual:.3e} exceeds "
                           f"{chemostab.helmholtz.RESIDUAL_RTOL:.1e} * {scale:.3e}")


def solve_with(op, r, w):
    """op.solve(r) with the direct solve made to return w: the outcome of
    the certificate on (r, w), as (None, solution) or (type, message)."""
    with pytest.MonkeyPatch.context() as mp:
        if op.grid.dimension == 1:
            mp.setattr(chemostab.helmholtz, "dpttrs", lambda d, e, b: (w.copy(), 0))
        else:
            mp.setattr(scipy.fft, "idctn", lambda *args, **kwargs: w.copy())
        try:
            with np.errstate(invalid="ignore", over="ignore"):
                return None, op.solve(r)
        except SolverFailure as exc:
            return type(exc), str(exc)


def certify_outcome(grid, mu, r, w):
    """`certify` on (r, w): None, or the type and message it raised."""
    try:
        with np.errstate(invalid="ignore", over="ignore"):
            certify(grid, mu, r, w)
    except SolverFailure as exc:
        return type(exc), str(exc)
    return None


# The last two are above 256 cells, where `run` certifies each solve at once.
# The 1D one is long enough (h = 0.1) that solves of random right-hand sides
# meet the contract at mu = 1e-2; on [0, 2] with 300 cells none does.
CERTIFICATE_GRIDS = [GridDomain.interval(math.pi, 8), GridDomain.interval(2.0, 64),
                     GridDomain.rectangle(1.0, 2.5, 8, 12),
                     GridDomain.rectangle(math.pi, 1.0, 16, 9),
                     GridDomain.interval(30.0, 300), GridDomain.rectangle(1.0, 2.5, 18, 20)]

# One (r, w) pair near the certificate's bounds, drawn by certificate_case.
CERTIFICATE_CASE = dict(
    grid=st.sampled_from(CERTIFICATE_GRIDS),
    mu=st.sampled_from([1e-2, 1.0, 1e3]),
    seed=st.integers(0, 2**32 - 1),
    # Relative noise on the exact solve: 0, or 1e-18 up to 1e-6, which
    # puts the residual on either side of the bound.
    noise=st.one_of(st.just(0.0), st.floats(-18.0, -6.0).map(lambda e: 10.0**e)),
    # Or noise scaled so that the residual lands near `ratio` times the
    # full bound, where a wrong one-cell bound would show.
    ratio=st.one_of(st.none(), st.floats(0.25, 4.0)),
    # Scale of the first cell against the others: the one-cell bound is
    # then too small to accept, and max |r| decides.
    first=st.sampled_from([1.0, 1e-3, 1e-9, 0.0, -1.0, 1e3]),
)


def certificate_case(grid, mu, seed, noise, ratio, first):
    """(op, r, w, rng): a dense solve of r perturbed as CERTIFICATE_CASE draws."""
    rng = np.random.default_rng(seed)
    op = get_operator(grid, mu)
    r = rng.uniform(-1.0, 2.0, size=grid.shape)
    r.flat[0] *= first
    exact = solve_with_dense(op, r)
    delta = exact * rng.uniform(-1.0, 1.0, size=grid.shape)
    if ratio is not None:
        image = np.abs(op.mu * delta - laplacian(delta, grid)).max()
        noise = ratio * RESIDUAL_RTOL * np.abs(r).max() / image
    return op, r, exact + noise * delta, rng


class TestResidualCertificate:
    """`solve` accepts on one cell's bound first; its decision must be that of
    the check with max |r|, for every (r, w)."""

    GRIDS = CERTIFICATE_GRIDS

    @given(**CERTIFICATE_CASE)
    @settings(max_examples=300, deadline=None)
    def test_decision_equals_the_two_reduction_check(self, grid, mu, seed, noise, ratio,
                                                     first):
        op, r, w, _ = certificate_case(grid, mu, seed, noise, ratio, first)
        outcome, value = solve_with(op, r, w)
        expected = reference_certificate(op, r, w)
        if expected is None:
            assert outcome is None
            assert value.tobytes() == w.tobytes()
        else:
            assert (outcome, value) == expected

    @given(**CERTIFICATE_CASE)
    @settings(max_examples=100, deadline=None)
    def test_one_solve_decides_as_a_one_column_stack(self, grid, mu, seed, noise, ratio,
                                                     first):
        op, r, w, _ = certificate_case(grid, mu, seed, noise, ratio, first)
        assert certify_outcome(grid, mu, r, w) == certify_outcome(grid, mu, r[..., None],
                                                                  w[..., None])

    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_a_perturbation_across_last_axis_faces_fails(self, layout):
        # delta alternates along the last axis only: (mu - lap_h) delta is
        # almost all last-axis faces, 8e4 times mu delta. A check that lost
        # the last-axis pass would accept it.
        grid = GridDomain.rectangle(1.0, 2.5, 24, 36)
        op = get_operator(grid, 1e-2)
        r = 1.0 + 0.5 * np.cos(grid.meshgrid()[0])
        delta = 1e-11 * (-1.0) ** np.arange(grid.cells[1])[None, :] * np.ones(grid.shape)
        w = laid_out(solve_with_dense(op, r) + delta, layout, grid.dimension)
        assert np.abs(op.mu * delta).max() < 1e-2 * RESIDUAL_RTOL
        expected = reference_certificate(op, r, w)
        assert expected[0] is SolverFailure
        assert solve_with(op, r, w) == expected
        assert certify_outcome(grid, op.mu, r, w) == expected

    @pytest.mark.parametrize("grid", [GRIDS[1], GRIDS[2]], ids=["1d", "2d"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("cell", [0, -1], ids=["first", "last"])
    def test_non_finite_cell_raises_non_finite_input(self, grid, value, cell):
        r = np.ones(grid.shape)
        r.flat[cell] = value
        with np.errstate(invalid="ignore", over="ignore"), \
                pytest.raises(NonFiniteInput, match="non-finite values"):
            get_operator(grid, 1.0).solve(r)

    @pytest.mark.parametrize("grid", [GRIDS[1], GRIDS[2]], ids=["1d", "2d"])
    @pytest.mark.parametrize("first_w", [1.0, math.inf], ids=["inf-residual", "nan-residual"])
    def test_infinite_first_cell_leaves_the_decision_to_the_full_check(self, grid, first_w):
        # The one-cell bound is infinite here, so it must not accept; the
        # full check decides, as it did before there was a one-cell bound.
        op = get_operator(grid, 1.0)
        r = np.ones(grid.shape)
        r.flat[0] = math.inf
        w = np.ones(grid.shape)
        w.flat[0] = first_w
        outcome, value = solve_with(op, r, w)
        expected = reference_certificate(op, r, w)
        if expected is None:
            assert outcome is None and value.tobytes() == w.tobytes()
        else:
            assert (outcome, value) == expected

    @pytest.mark.parametrize("grid", [GRIDS[1], GRIDS[2]], ids=["1d", "2d"])
    def test_zero_first_cell_with_other_cells_nonzero(self, grid, rng):
        r = rng.uniform(0.5, 2.0, size=grid.shape)
        r.flat[0] = 0.0
        op = get_operator(grid, 1.0)
        w = op.solve(r)
        assert reference_certificate(op, r, w) is None
        residual = np.abs(op.mu * w - laplacian(w, grid) - r).max()
        assert residual <= RESIDUAL_RTOL * np.abs(r).max()

    @pytest.mark.parametrize("grid", [GRIDS[1], GRIDS[2]], ids=["1d", "2d"])
    def test_all_zero_rhs_solves_to_zero(self, grid):
        w = get_operator(grid, 1.0).solve(np.zeros(grid.shape))
        assert not np.any(w)

    @pytest.mark.parametrize("grid", [GRIDS[1], GRIDS[2]], ids=["1d", "2d"])
    def test_zero_tolerance_decides_as_the_full_check(self, grid, monkeypatch, rng):
        monkeypatch.setattr(chemostab.helmholtz, "RESIDUAL_RTOL", 0.0)
        op = get_operator(grid, 1.0)
        # A zero residual meets a zero bound on both tests.
        assert not np.any(op.solve(np.zeros(grid.shape)))
        r = rng.uniform(0.0, 1.0, size=grid.shape)
        w = solve_with_dense(op, r)
        outcome, message = solve_with(op, r, w)
        assert outcome is SolverFailure
        assert "exceeds 0.0e+00" in message
        assert (outcome, message) == reference_certificate(op, r, w)


def certify_in_block(grid, entries, capacity):
    """Add (mu, r, w) entries to a SolveBlock of `capacity` and flush it: the
    outcome, None or the (type, message) of the exception it raised."""
    block = SolveBlock(grid, capacity)
    try:
        with np.errstate(invalid="ignore", over="ignore"):
            for mu, r, w in entries:
                block.add(mu, r, w)
            block.flush()
    except SolverFailure as exc:
        return type(exc), str(exc)
    finally:
        assert block.count == 0
    return None


class TestSolveBlock:
    """A block certifies its solves in one stacked pass; each solve must get
    the decision, exception type and message it gets alone, and the first
    failing solve, in order, raises."""

    GRIDS = CERTIFICATE_GRIDS

    @pytest.mark.parametrize("grid", [GridDomain.interval(math.pi, 64),
                                      GridDomain.interval(1.0, 256),
                                      GridDomain.rectangle(1.0, 2.5, 8, 12),
                                      GridDomain.rectangle(1.0, 2.5, 12, 20)],
                             ids=["64", "256", "8x12", "12x20"])
    def test_small_grids_get_a_block(self, grid):
        block = solve_block(grid)
        assert block.capacity == BLOCK_CELLS // grid.total_cells >= BLOCK_MIN_SOLVES
        assert block.rhs.shape == block.solutions.shape == (block.capacity, *grid.shape)

    @pytest.mark.parametrize("grid", [GridDomain.interval(1.0, 257),
                                      GridDomain.interval(math.pi, 1024),
                                      GridDomain.rectangle(math.pi, math.pi, 128, 128)],
                             ids=["257", "1024", "128x128"])
    def test_large_grids_certify_each_solve_at_once(self, grid):
        with solve_block(grid) as block:
            assert block is None
            assert get_operator(grid, 1.0, block).block is None

    @given(**CERTIFICATE_CASE, capacity=st.integers(1, 24), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_each_case_decides_in_a_block_as_alone(self, grid, mu, seed, noise, ratio, first,
                                                  capacity, data):
        # The cases of TestResidualCertificate, each at a random position in a
        # block of good solves with mixed mu; the block is full (it flushes
        # itself) or not (flushed by hand).
        op, r, w, rng = certificate_case(grid, mu, seed, noise, ratio, first)
        alone = reference_certificate(op, r, w)
        assert solve_with(op, r, w)[0] is (None if alone is None else alone[0])

        count = data.draw(st.integers(1, capacity), label="count")
        position = data.draw(st.integers(0, count - 1), label="position")
        entries = []
        for _ in range(count - 1):
            good = get_operator(grid, float(rng.choice([1e-2, 1.0, 1e3])))
            rhs = rng.uniform(-1.0, 2.0, size=grid.shape)
            entries.append((good.mu, rhs, good.solve(rhs)))
        entries.insert(position, (op.mu, r, w))
        assert certify_in_block(grid, entries, capacity) == alone

    @pytest.mark.parametrize("grid", [GRIDS[1], GRIDS[2]], ids=["1d", "2d"])
    def test_the_first_failing_solve_raises(self, grid, rng):
        op = get_operator(grid, 1.0)
        entries = []
        for _ in range(8):
            r = rng.uniform(0.5, 2.0, size=grid.shape)
            entries.append((op.mu, r, op.solve(r)))
        nan_rhs = np.ones(grid.shape)
        nan_rhs.flat[3] = math.nan
        non_finite = (op.mu, nan_rhs, np.ones(grid.shape))
        r = entries[5][1]
        wrong = (op.mu, r, entries[5][2] * (1.0 + 1e-6))
        failure = reference_certificate(op, r, wrong[2])
        assert failure[0] is SolverFailure
        first_nan = entries[:2] + [non_finite] + entries[2:4] + [wrong] + entries[4:]
        assert certify_in_block(grid, first_nan, 16) == (
            NonFiniteInput, "right-hand side contains non-finite values")
        first_wrong = entries[:2] + [wrong] + entries[2:4] + [non_finite] + entries[4:]
        assert certify_in_block(grid, first_wrong, 16) == failure
        # A full block raises from `add`, at the solve that fills it.
        assert certify_in_block(grid, first_wrong, 3) == failure

    @pytest.mark.parametrize("grid", [GRIDS[1], GRIDS[2]], ids=["1d", "2d"])
    def test_columns_the_quick_test_leaves_get_the_full_test(self, grid, rng):
        # A zero first cell gives a zero one-cell bound, so every such column
        # reaches the full test: the good ones pass it, the wrong one raises.
        op = get_operator(grid, 1.0)
        entries = []
        for _ in range(8):
            r = rng.uniform(0.5, 2.0, size=grid.shape)
            r.flat[0] = 0.0
            entries.append((op.mu, r, op.solve(r)))
        assert certify_in_block(grid, entries, 16) is None
        mu, r, w = entries[6]
        wrong = (mu, r, w * (1.0 + 1e-6))
        failure = reference_certificate(op, r, wrong[2])
        assert failure[0] is SolverFailure
        assert certify_in_block(grid, entries[:6] + [wrong] + entries[7:], 16) == failure

    @pytest.mark.parametrize("grid", [GRIDS[1], GRIDS[2]], ids=["1d", "2d"])
    def test_a_stack_on_a_block_operator_is_certified_at_once(self, grid, rng):
        # Only grid-shaped solves wait in the block; a stack is one pass.
        block = SolveBlock(grid, 128)
        op, plain = get_operator(grid, 1.0, block), get_operator(grid, 1.0)
        for rhs in (np.ones((*grid.shape, 3)), rng.uniform(0.5, 2.0, size=(*grid.shape, 5))):
            assert op.solve(rhs).tobytes() == plain.solve(rhs).tobytes()
            assert block.count == 0
        w = plain.solve(rhs)
        w[..., 3] *= 1.0 + 1e-6
        outcome = solve_with(op, rhs, w)
        assert outcome[0] is SolverFailure
        assert outcome == solve_with(plain, rhs, w)
        assert block.count == 0
        op.solve(rhs[..., 0])
        assert block.count == 1

    def test_a_2d_block_keeps_the_grid_axes_in_order(self, rng):
        # Unequal spacings: with the grid axes swapped the stencil is wrong.
        grid = GridDomain.rectangle(1.0, 2.5, 12, 12)
        entries = []
        for mu in (1e-2, 1.0, 1e3):
            op = get_operator(grid, mu)
            r = rng.uniform(0.5, 2.0, size=grid.shape)
            entries.append((mu, r, op.solve(r)))
        assert certify_in_block(grid, entries, 4) is None
        mu, r, w = entries[1]
        swapped = [entries[0], (mu, r, solve_with_dense(get_operator(grid, mu), r.T).T),
                   entries[2]]
        outcome = certify_in_block(grid, swapped, 4)
        assert outcome == reference_certificate(get_operator(grid, mu), r, swapped[1][2])
        assert outcome[0] is SolverFailure


class TestFaceGradients:
    def test_face_gradients_shapes(self):
        g = GridDomain.rectangle(1.0, 1.0, 8, 10)
        w = np.arange(80, dtype=float).reshape(8, 10)
        gx, gy = face_gradients(w, g)
        assert gx.shape == (7, 10)
        assert gy.shape == (8, 9)

    def test_linear_profile_gradient(self):
        g = GridDomain.interval(1.0, 10)
        w = 3.0 * g.centers()
        (gx,) = face_gradients(w, g)
        assert gx == pytest.approx(np.full(9, 3.0), rel=1e-12)

    def test_constant_has_zero_face_gradients(self, interval_pi):
        (g,) = face_gradients(np.ones(64), interval_pi)
        assert np.abs(g).max() == 0.0
