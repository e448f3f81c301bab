"""Discrete Laplacian structure and the screened elliptic solve."""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chemostab
from chemostab import GridDomain, chemical_field, get_operator
from chemostab.helmholtz import (
    RESIDUAL_RTOL,
    NonFiniteInput,
    SingularOperator,
    SolverFailure,
    face_differences,
    max_face_gradient,
    neumann_laplacian,
    neumann_laplacian_1d,
)
from conftest import make_params


def discrete_eigenvalue(n: int, length: float, cells: int) -> float:
    """lambda_n of the cell-centered mirror-ghost Laplacian."""
    h = length / cells
    return (4.0 / h**2) * math.sin(n * math.pi * h / (2.0 * length)) ** 2


class TestLaplacian:
    def test_row_sums_vanish(self):
        lap = neumann_laplacian_1d(16, 0.25).toarray()
        assert np.abs(lap.sum(axis=1)).max() < 1e-12

    def test_symmetry(self):
        lap = neumann_laplacian_1d(16, 0.25).toarray()
        assert np.abs(lap - lap.T).max() == 0.0

    def test_constant_in_kernel_2d(self):
        g = GridDomain.rectangle(1.0, 2.0, 8, 12)
        lap = neumann_laplacian(g)
        ones = np.ones(g.total_cells)
        assert np.abs(lap @ ones).max() < 1e-12

    def test_cosine_is_exact_eigenvector(self):
        # cos(n pi x / L) sampled at cell centers diagonalizes the stencil.
        g = GridDomain.interval(math.pi, 32)
        lap = neumann_laplacian(g)
        for n in (1, 3, 7):
            w = np.cos(n * g.centers())
            lam = discrete_eigenvalue(n, math.pi, 32)
            assert lap @ w == pytest.approx(-lam * w, abs=1e-10)


class TestSolver:
    def test_mu_must_be_positive(self, interval_pi):
        with pytest.raises(SingularOperator):
            get_operator(interval_pi, 0.0)
        with pytest.raises(SingularOperator):
            get_operator(interval_pi, -2.0)

    def test_operator_cache_returns_same_object(self, interval_pi):
        a = get_operator(interval_pi, 1.0)
        b = get_operator(interval_pi, 1.0)
        assert a is b
        assert get_operator(interval_pi, 2.0) is not a

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
        v = chemical_field(p, u, interval_pi)
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
        dense = mu * np.eye(grid.total_cells) - neumann_laplacian(grid).toarray()
        expected = np.linalg.solve(dense, rhs.ravel()).reshape(grid.shape)
        v = get_operator(grid, mu).solve(rhs)
        assert v.shape == grid.shape
        assert np.abs(v - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_raveled_rhs_returns_raveled_solution(self, rng):
        grid = self.GRIDS["2d"]
        rhs = rng.uniform(0.0, 1.0, size=grid.shape)
        op = get_operator(grid, 1.0)
        assert op.solve(rhs.ravel()).shape == (grid.total_cells,)
        assert np.array_equal(op.solve(rhs.ravel()), op.solve(rhs).ravel())

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
            residual = mu * v.ravel() - neumann_laplacian(grid) @ v.ravel() - rhs.ravel()
            assert np.abs(residual).max() <= RESIDUAL_RTOL * np.abs(rhs).max()

    def test_import_leaves_scipy_fft_unloaded(self):
        # scipy.fft pulls in scipy.special; only a 2D solve should pay for it.
        src = str(Path(chemostab.__file__).resolve().parents[1])
        code = f"import sys; sys.path.insert(0, {src!r}); import chemostab; " \
               "print('scipy.fft' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "False"


class TestFaceGradients:
    def test_face_differences_shapes(self):
        g = GridDomain.rectangle(1.0, 1.0, 8, 10)
        w = np.arange(80, dtype=float).reshape(8, 10)
        gx, gy = face_differences(w, g)
        assert gx.shape == (7, 10)
        assert gy.shape == (8, 9)

    def test_linear_profile_gradient(self):
        g = GridDomain.interval(1.0, 10)
        w = 3.0 * g.centers()
        (gx,) = face_differences(w, g)
        assert gx == pytest.approx(np.full(9, 3.0), rel=1e-12)

    def test_max_face_gradient_constant_is_zero(self, interval_pi):
        assert max_face_gradient(np.ones(64), interval_pi) == 0.0
