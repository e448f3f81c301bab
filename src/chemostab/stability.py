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

Everything here is a closed form in the coefficients and an eigenvalue
table; nothing reads a grid field. The check that ties sigma to the scheme,
`integrator.discrete_spectrum_check`, linearises the stepping code, so it
lives beside that code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Equilibrium, GridDomain, ModelParams, SpectrumTable


class SpectrumTooShort(ValueError):
    """The eigenvalue table ends below sqrt(a alpha mu), so it cannot prove
    chi*, or below the peak of sigma, so it cannot prove sigma's maximum."""


class SweepTooLarge(RuntimeError):
    """The grid is above SWEEP_CELL_LIMIT cells, the bound on the O(n^2)
    work of the discrete check's mode sweep and of the gradient constant's
    sweep over the unit fields."""


SWEEP_CELL_LIMIT = 4096
# Fields that integrator.discrete_spectrum_check and thresholds.gradient_constant
# sweep at once.
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
