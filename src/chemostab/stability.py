"""Linear stability of the spatially uniform steady state.

Perturbing (u*, v*) by a Neumann eigenfunction with eigenvalue lambda
decouples the linearized dynamics mode by mode; each mode grows or decays
like exp(sigma(lambda) t) with

    sigma(lambda) = -lambda
                    + chi0 nu gamma u*^(m+gamma-1) / (1+v*)^beta
                      * lambda / (mu + lambda)
                    - a alpha.

The critical sensitivity chi* is the exact positive chi0 at which the
largest sigma over the nonzero modes crosses zero: the infimum over them of
a per-mode candidate that is convex in lambda, least at sqrt(a alpha mu).
So the two modes that bracket that point give chi*, and a table that
reaches it proves the infimum over the whole spectrum. Likewise for chi0 > 0
sigma is concave in lambda, greatest at sqrt(chi0 g mu) - mu (g the
feedback gain), so a table that reaches that point proves sigma's maximum.

`discrete_spectrum_check` ties this formula to the scheme: it applies the
linearisation at (u*, v*) of the code that steps (`integrator.face_drift`,
`chemotactic_face_flux`, `flux_divergence` and the logistic source) to the
grid's DCT basis fields, and checks that each is an eigenvector with the
rate sigma of its own grid eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .core import Equilibrium, GridDomain, ModelParams, SpectrumTable
from .helmholtz import _dct_eigenvalues, get_operator, laplacian
from .integrator import chemotactic_face_flux, face_drift, flux_divergence


class SpectrumTooShort(ValueError):
    """The eigenvalue table ends below sqrt(a alpha mu), so it cannot prove
    chi*, or below the peak of sigma, so it cannot prove sigma's maximum."""


class SweepTooLarge(RuntimeError):
    """The grid is above SWEEP_CELL_LIMIT cells, the bound on the O(n^2)
    work of the discrete check's mode sweep and of the gradient constant's
    sweep over the unit fields."""


SWEEP_CELL_LIMIT = 4096
# Fields that discrete_spectrum_check and thresholds.gradient_constant sweep at once.
SWEEP_COLUMNS = 128
CRITICAL_BAND = 1e-12


def _sweep_cells(grid: GridDomain) -> int:
    """grid.total_cells; SweepTooLarge above SWEEP_CELL_LIMIT, before
    any O(n^2) sweep starts."""
    n = grid.total_cells
    if n > SWEEP_CELL_LIMIT:
        raise SweepTooLarge(
            f"{n} cells exceeds the cell limit {SWEEP_CELL_LIMIT} of an O(n^2) sweep"
        )
    return n


def _feedback_gain(params: ModelParams, eq: Equilibrium) -> float:
    """chi0-independent factor nu gamma u*^(m+gamma-1) / (1+v*)^beta."""
    return _gain(params.nu, params.gamma, params.m, params.beta, eq.u_star, eq.v_star)


def _gain(nu, gamma, m, beta, u_star, v_star):
    """The feedback gain from raw coefficients; elementwise over arrays."""
    return nu * gamma * u_star ** (m + gamma - 1.0) / (1.0 + v_star) ** beta


def sigma_n(
    params: ModelParams, eq: Equilibrium, lam: float | np.ndarray
) -> float | np.ndarray:
    """Growth rate of the mode with Neumann eigenvalue lam (vectorized)."""
    lam = np.asarray(lam, dtype=float)
    gain = _feedback_gain(params, eq)
    rate = (
        -lam
        + params.chi0 * gain * lam / (params.mu + lam)
        - params.a * params.alpha
    )
    if rate.ndim == 0:
        return float(rate)
    return rate


def sigma_zero(params: ModelParams) -> float:
    """Rate of the spatially uniform mode: -a alpha, zero for the minimal model."""
    return -params.a * params.alpha


def _candidates(lam, a_alpha, mu, gain):
    """(lam + a alpha)(mu + lam) / (gain lam) per mode. A batch of samples
    passes its coefficients as (B, 1) columns against (B, modes) rows."""
    return (lam + a_alpha) * (mu + lam) / (gain * lam)


def critical_sensitivity(
    params: ModelParams, eq: Equilibrium, spectrum: SpectrumTable
) -> tuple[float, int]:
    """Exact instability threshold chi* and the mode index attaining it.

    chi* is the infimum of the per-mode candidates over the whole Neumann
    spectrum, taken by _bracketed_minimum from the modes of the table that
    bracket sqrt(a alpha mu). A table whose last eigenvalue lies below that
    point cannot prove the infimum and raises SpectrumTooShort.
    """
    value, mode = _bracketed_minimum(
        spectrum.eigenvalues, np.ones(1), np.array([params.a * params.alpha]),
        np.array([params.mu]), np.array([_feedback_gain(params, eq)]),
    )
    return float(value[0]), int(mode[0])


def _bracketed_minimum(unit, scale, a_alpha, mu, gain):
    """chi* and its 1-based mode for a batch of rows, with the (B,)
    coefficients as columns. Row i's eigenvalues are unit * scale[i]:
    `unit` is an ascending Neumann table whose entry 0 is the constant
    mode, and `scale` is (pi/L)^2 for the ordering fuzzer's intervals, or
    1 for critical_sensitivity's own table.

    Why the window is exact: the candidate (lam + a alpha + mu + a alpha
    mu / lam) / gain is convex in lam > 0 with its minimum at
    lam0 = sqrt(a alpha mu). So over any set of eigenvalues it is least at
    one of the two that bracket lam0; it falls before them and rises after.
    One table entry >= lam0 thus proves the infimum over the whole infinite
    spectrum, and a row whose lam0 / scale lies above the last entry raises
    SpectrumTooShort. The search puts the bracket at k-1, k with
    unit[k-1] < lam0 / scale <= unit[k]; the window k-2 .. k+1, min(4,
    modes) wide and shifted to stay in the table, holds it, even when
    rounding puts the search one index off.

    The window's candidates are the floats a scan of the table computes.
    Where neighbouring eigenvalues lie apart, as on intervals, those
    outside the window exceed one inside by far more than rounding, so the
    value and mode are the scan's. Where eigenvalues are equal up to
    rounding (rectangles: 65 = 1^2 + 8^2 = 4^2 + 7^2), the mode may move
    among them and the value by 1 ulp.
    """
    modes = unit.size - 1
    lam0 = np.sqrt(a_alpha * mu)
    bracket = np.searchsorted(unit, lam0 / scale)
    if bracket.max() > modes:
        i = bracket.argmax()
        raise SpectrumTooShort(
            f"sqrt(a alpha mu) = {float(lam0[i])!r} lies above the last "
            f"eigenvalue {float(unit[-1] * scale[i])!r} of the table; "
            "supply more eigenvalues"
        )
    width = min(4, modes)
    start = np.minimum(np.maximum(bracket - 2, 1), modes - width + 1)
    at = start[:, None] + np.arange(width)
    window = _candidates(
        unit[at] * scale[:, None], a_alpha[:, None], mu[:, None], gain[:, None]
    )
    return window.min(axis=1), at[np.arange(at.shape[0]), window.argmin(axis=1)]


@dataclass(frozen=True)
class StabilityReport:
    """Verdict on one (parameters, equilibrium, spectrum) triple."""

    chi_star: float
    argmin_mode: int
    verdict: str                # "stable" | "unstable" | "critical"
    sigma_zero: float
    sigma_max: float            # over modes n >= 1
    fastest_mode: int           # argmax of sigma over n >= 1


def classify_equilibrium(
    params: ModelParams, eq: Equilibrium, spectrum: SpectrumTable
) -> StabilityReport:
    """Dichotomy verdict: stable iff chi0 < chi*, with a relative band of
    1e-12 around chi* reported as critical.

    `sigma_max` and `fastest_mode` are the maximum of sigma over the table's
    nonzero modes, and it is the whole spectrum's: where chi0 g > mu, sigma
    is concave in lambda with its peak at lambda_p = sqrt(chi0 g mu) - mu,
    so it falls after the table once the table reaches lambda_p; elsewhere
    sigma is decreasing. A table whose last eigenvalue lies below lambda_p
    raises SpectrumTooShort, as does one below sqrt(a alpha mu) (see
    `critical_sensitivity`).
    """
    chi_star, argmin_mode = critical_sensitivity(params, eq, spectrum)
    drive = params.chi0 * _feedback_gain(params, eq)
    if drive > params.mu:
        peak = math.sqrt(drive * params.mu) - params.mu
        last = float(spectrum.eigenvalues[-1])
        if last < peak:
            raise SpectrumTooShort(
                f"the peak of sigma at lambda = {peak!r} lies above the last "
                f"eigenvalue {last!r} of the table; supply more eigenvalues"
            )
    rates = np.asarray(sigma_n(params, eq, spectrum.eigenvalues))
    fastest = 1 + int(np.argmax(rates[1:]))
    if abs(params.chi0 - chi_star) <= CRITICAL_BAND * max(1.0, abs(chi_star)):
        verdict = "critical"
    elif params.chi0 < chi_star:
        verdict = "stable"
    else:
        verdict = "unstable"
    return StabilityReport(
        chi_star=chi_star,
        argmin_mode=argmin_mode,
        verdict=verdict,
        sigma_zero=sigma_zero(params),
        sigma_max=float(rates[fastest]),
        fastest_mode=fastest,
    )


def _dct_fields(grid: GridDomain, modes: tuple[np.ndarray, ...]) -> np.ndarray:
    """The DCT-II basis fields of the given modes, stacked on a trailing
    axis. Along an axis of n cells mode k is cos(pi (2i + 1) k / (2n)) in
    cell i; the phase (2i + 1) k is reduced mod 4n in integers first, so
    the argument of cos rounds once, whatever k. A rectangle's field is
    the product of its two axes' fields.
    """
    fields = 1.0
    for axis, (n, k) in enumerate(zip(grid.cells, modes)):
        phase = (2 * np.arange(n)[:, None] + 1) * k % (4 * n)
        shape = [1] * grid.dimension + [len(k)]
        shape[axis] = n
        fields = fields * np.cos(np.pi * phase / (2 * n)).reshape(shape)
    return fields


def _equilibrium_jacobian(
    params: ModelParams, eq: Equilibrium, grid: GridDomain, fields: np.ndarray
) -> np.ndarray:
    """J w for each field w of a stack (*grid.shape, k): J is the Jacobian
    at (u*, v*) of the right-hand side that `step` takes,

        G(u) = lap_h u - div_h(flux(u, v(u))) + a u - b u^(1+alpha),
        v(u) = (mu I - lap_h)^{-1} nu u^gamma,

    applied, never formed. The signal's response goes through one stacked,
    certified `HelmholtzOperator.solve`, the flux's through the stepping
    code's face_drift, chemotactic_face_flux and flux_divergence.
    """
    # The signal response (mu I - lap_h)^{-1} nu gamma u*^(gamma-1) w.
    gain = params.nu * params.gamma * eq.u_star ** (params.gamma - 1.0)
    response = get_operator(grid, params.mu).solve(gain * fields)
    # At the constant v* the derivative of (1 + v_face)^(-beta) (v_hi - v_lo) / h
    # is (1 + v*)^(-beta) (dv_hi - dv_lo) / h, since the factor's own derivative
    # multiplies v_hi - v_lo = 0. So face_drift with that factor folded into
    # chi0 and beta = 0 gives the drift's derivative exactly.
    frozen = replace(params, chi0=params.chi0 * (1.0 + eq.v_star) ** (-params.beta), beta=0.0)
    drifts = face_drift(response, frozen, grid)
    # The drift at (u*, v*) is 0, so the donor choice and the derivative of
    # the donor density drop out: the flux's derivative is u*^m times the
    # drift's, which is the flux of the constant u*.
    flux = chemotactic_face_flux(np.full((*grid.shape, 1), eq.u_star), drifts, params, grid)
    reaction = params.a - params.b * (1.0 + params.alpha) * eq.u_star**params.alpha
    return laplacian(fields, grid) - flux_divergence(flux, grid) + reaction * fields


@dataclass(frozen=True)
class DiscreteSpectrumReport:
    """Agreement between the discrete linearization and the dispersion relation."""

    grid_eigenvalues: tuple[float, ...]      # lambda_h of the reported modes, ascending
    predicted: tuple[float, ...]             # sigma on those eigenvalues
    residuals: tuple[float, ...]             # |J q_k - sigma q_k|_inf of those modes
    max_spectrum_residual: float             # the same, over all n modes
    n_modes: int


def discrete_spectrum_check(
    params: ModelParams,
    eq: Equilibrium,
    grid: GridDomain,
    n_modes: int,
) -> DiscreteSpectrumReport:
    """Verify that the scheme's linearization reproduces sigma on the grid
    eigenvalues, mode by mode.

    lap_h is diagonal in the grid's DCT-II basis, and at (u*, v*) J (see
    `_equilibrium_jacobian`) is a rational function of lap_h. So each basis
    field q_k, its entries of modulus at most 1, is an eigenvector of J with
    eigenvalue sigma(lambda_h,k). The check applies J through the stepping
    code to every q_k, SWEEP_COLUMNS at a time, and reports
    |J q_k - sigma(lambda_h,k) q_k|_inf for the first n_modes + 1 modes in
    ascending lambda_h, and its maximum over all n modes.

    That maximum bounds the whole spectrum: J is symmetric and
    |q_k|_2^2 >= n / 2^d on a d-dimensional grid, so J differs from
    Q diag(sigma) Q^T, Q the normalised basis, by at most sqrt(2^d n) times
    the maximum in the 2-norm, and by Weyl's inequality so does each sorted
    eigenvalue of J from the sorted sigma(lambda_h,k).

    The sweep costs O(n^2), so above SWEEP_CELL_LIMIT cells it raises
    SweepTooLarge before any solve. A solve that misses the residual
    contract raises SolverFailure.
    """
    n = grid.total_cells
    if n_modes < 1 or n_modes >= n:
        raise ValueError(f"n_modes must be in [1, {n - 1}], got {n_modes}")
    _sweep_cells(grid)
    # lambda_h of every mode, ascending, and its DCT-II index on each axis; on
    # a rectangle lambda_x + lambda_y, sorted stably over the index pairs.
    lam = reduce(np.add.outer, [_dct_eigenvalues(m, h) for m, h in zip(grid.cells, grid.spacing)])
    order = np.argsort(lam, axis=None, kind="stable")
    lam, modes = lam.ravel()[order], np.unravel_index(order, grid.shape)
    predicted = np.asarray(sigma_n(params, eq, lam))
    residuals = np.empty(n)
    grid_axes = tuple(range(grid.dimension))
    for start in range(0, n, SWEEP_COLUMNS):
        block = slice(start, start + SWEEP_COLUMNS)
        fields = _dct_fields(grid, tuple(k[block] for k in modes))
        misfit = _equilibrium_jacobian(params, eq, grid, fields) - predicted[block] * fields
        residuals[block] = np.abs(misfit).max(axis=grid_axes)

    keep = n_modes + 1
    return DiscreteSpectrumReport(
        grid_eigenvalues=tuple(float(x) for x in lam[:keep]),
        predicted=tuple(float(x) for x in predicted[:keep]),
        residuals=tuple(float(x) for x in residuals[:keep]),
        max_spectrum_residual=float(residuals.max()),
        n_modes=n_modes,
    )
