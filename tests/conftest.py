"""Shared fixtures: the reference parameter point and small grids.

The reference point (beta=0, m=alpha=gamma=a=b=mu=nu=1 on [0, pi]) has
float-exact landmarks: u* = v* = 1, eigenvalues n^2, instability
threshold 4 attained at mode 1. Most oracle tests start from it.
"""

import math

import numpy as np
import pytest
from hypothesis import settings

from chemostab import GridDomain, ModelParams, equilibrium
from chemostab.helmholtz import laplacian
from chemostab.stability import _candidates, _sweep_cells

# Every run of the suite draws the same Hypothesis examples, so a failure
# is a property of the tree. `pytest --hypothesis-profile explore` draws
# fresh examples and replays failures from the local example database.
settings.register_profile("explore", settings.get_profile("default"))
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")

REFERENCE = dict(
    chi0=1.0, beta=0.0, m=1.0, alpha=1.0, gamma=1.0,
    a=1.0, b=1.0, mu=1.0, nu=1.0,
)


def make_params(**overrides) -> ModelParams:
    merged = {**REFERENCE, **overrides}
    return ModelParams(**merged)


def tau_grid_for(traj_times: np.ndarray, a: float, dt: float) -> float:
    """Smallest ODE end time, on the dt grid, that covers tau = a t for
    every PDE sample time t."""
    tau_max = float(a * np.max(traj_times))
    return math.ceil(tau_max / dt - 1e-9) * dt


def scanned_minimum(unit, scale, a_alpha, mu, gain):
    """chi* and its 1-based mode by a scan of every nonzero mode of the
    table, with the (B,) coefficients as columns: the oracle of
    stability._bracketed_minimum on tables that reach sqrt(a alpha mu)."""
    candidates = _candidates(
        unit[1:] * scale[:, None], a_alpha[:, None], mu[:, None], gain[:, None]
    )
    return candidates.min(axis=1), candidates.argmin(axis=1) + 1


def dense_laplacian(grid):
    """lap_h as a dense (n, n) matrix: the stencil applied to every unit
    field. Above SWEEP_CELL_LIMIT cells SweepTooLarge, before the
    n x n identity is built."""
    n = _sweep_cells(grid)
    return laplacian(np.eye(n).reshape(*grid.shape, n), grid).reshape(n, n)


def face_cells(dimension, axis):
    """Index tuples of the cells on the low and on the high side of the
    interior faces along one axis, built on every call: the oracle of
    GridDomain.faces."""
    low = [slice(None)] * dimension
    high = [slice(None)] * dimension
    low[axis] = slice(None, -1)
    high[axis] = slice(1, None)
    return tuple(low), tuple(high)


def oracle_face_drift(v, params, grid):
    """integrator.face_drift in its written form, one new array per
    operation and slices built per call."""
    drifts = []
    for axis, h in enumerate(grid.spacing):
        lo, hi = face_cells(grid.dimension, axis)
        v_lo, v_hi = v[lo], v[hi]
        drift = params.chi0
        if params.beta != 0.0:
            drift = drift * (1.0 + 0.5 * (v_lo + v_hi)) ** (-params.beta)
        drifts.append(drift * (v_hi - v_lo) / h)
    return drifts


def oracle_face_flux(u, drifts, params, grid):
    """integrator.chemotactic_face_flux in its written form."""
    fluxes = []
    for axis, drift in enumerate(drifts):
        lo, hi = face_cells(grid.dimension, axis)
        donor = np.where(drift > 0.0, u[lo], u[hi])
        fluxes.append((donor if params.m == 1.0 else donor**params.m) * drift)
    return fluxes


def oracle_flux_divergence(fluxes, grid):
    """integrator.flux_divergence in accumulate form: from zero, each face
    flux over h added to its low cell and subtracted from its high cell."""
    div = np.zeros(grid.shape + fluxes[0].shape[grid.dimension:])
    for axis, (flux, h) in enumerate(zip(fluxes, grid.spacing)):
        lo, hi = face_cells(grid.dimension, axis)
        scaled = flux / h
        low_cells, high_cells = div[lo], div[hi]
        low_cells += scaled
        high_cells -= scaled
    return div


def full_sort_eigenvalues(lx, ly, n_max, indices=None):
    """The first n_max + 1 Neumann eigenvalues of the Lx x Ly rectangle by
    sorting all sums over index pairs below `indices` (default n_max + 1,
    which always suffices): the oracle of neumann_eigenvalues. A smaller
    `indices` is exact while the last value returned lies below both
    (indices pi / Lx)^2 and (indices pi / Ly)^2."""
    j = np.arange(n_max + 1 if indices is None else indices)
    gx = (j * math.pi / lx) ** 2
    gy = (j * math.pi / ly) ** 2
    values = np.sort((gx[:, None] + gy[None, :]).ravel())[: n_max + 1]
    values[0] = 0.0
    return values


@pytest.fixture
def reference_params() -> ModelParams:
    return make_params()


@pytest.fixture
def reference_eq(reference_params):
    return equilibrium(reference_params)


@pytest.fixture
def interval_pi() -> GridDomain:
    return GridDomain.interval(math.pi, 64)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
