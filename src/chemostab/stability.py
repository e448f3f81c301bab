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
The coefficients fix both points, so `critical_sensitivity` and
`classify_equilibrium` take the domain and build the shortest table of its
Neumann eigenvalues that reaches the points they report on.

Everything here is a closed form in the coefficients and the domain's
eigenvalues; nothing reads a grid field. The check that ties sigma to the
scheme, `integrator.discrete_spectrum_check`, linearises the stepping code,
so it lives beside that code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Equilibrium, GridDomain, ModelParams, neumann_eigenvalues


class SpectrumTooShort(ValueError):
    """A table that reaches sqrt(a alpha mu), or the peak of sigma, would be
    longer than PROVING_MODES_CAP; or a batch's table ends below some row's
    sqrt(a alpha mu), so it cannot prove that row's chi*."""


class SweepTooLarge(RuntimeError):
    """The grid is above SWEEP_CELL_LIMIT cells, the bound on the O(n^2)
    work of the discrete check's mode sweep and of the gradient constant's
    sweep over the unit fields."""


SWEEP_CELL_LIMIT = 4096
# Fields that integrator.discrete_spectrum_check and thresholds.gradient_constant
# sweep at once.
SWEEP_COLUMNS = 128
CRITICAL_BAND = 1e-12
# Eigenvalues within this relative distance are one eigenvalue up to
# rounding: a square's (i^2 + j^2)(pi/L)^2 summed as i^2 + j^2 and as
# j^2 + i^2, or as 1 + 64 and 16 + 49, differ by a few ulp.
RUN_RTOL = 64 * np.finfo(float).eps
# The longest table _proving_table builds, in modes.
PROVING_MODES_CAP = 1 << 20


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
    try:
        return _gain(params.nu, params.gamma, params.m, params.beta, eq.u_star, eq.v_star)
    except OverflowError:
        raise OverflowError(
            f"the feedback gain g = nu gamma u*^(m+gamma-1) / (1+v*)^beta overflows a "
            f"float at u* = {eq.u_star!r}, v* = {eq.v_star!r}, m = {params.m!r}, "
            f"gamma = {params.gamma!r}, beta = {params.beta!r}"
        ) from None


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


def _sigma_peak(params: ModelParams, eq: Equilibrium) -> float:
    """lambda_p = sqrt(chi0 g mu) - mu, where sigma peaks when chi0 g > mu;
    0 otherwise, where sigma decreases in lambda."""
    drive = params.chi0 * _feedback_gain(params, eq)
    return math.sqrt(drive * params.mu) - params.mu if drive > params.mu else 0.0


def _proving_table(grid: GridDomain, reach: float) -> np.ndarray:
    """The shortest Neumann table of `grid` that holds the window
    _bracketed_minimum takes about `reach` and one entry past it, from
    tables of 4, 8, 16, ... modes.

    About sqrt(a alpha mu) it proves chi* and its mode, which no longer
    table moves. About a reach at or past lambda_p it proves sigma's
    maximum and its mode too: every eigenvalue past it lies more than
    RUN_RTOL above two that reach lambda_p, where sigma falls. A table of
    more than PROVING_MODES_CAP modes raises SpectrumTooShort, before any
    table is built where reach > 2 (PROVING_MODES_CAP pi / L)^2, L the
    longest side: the cap's table holds that side's own modes, so it ends
    at or below half that.
    """
    # reach <= 2 (PROVING_MODES_CAP pi / L)^2, in a form that no length overflows.
    if math.sqrt(reach / 2.0) * max(grid.lengths) <= PROVING_MODES_CAP * math.pi:
        n_max = 4
        while n_max <= PROVING_MODES_CAP:
            lam = neumann_eigenvalues(grid, n_max)
            last = _window(lam, np.searchsorted(lam, [reach]))[0, -1]
            if last < n_max:
                return lam[: last + 2]
            n_max *= 2
    raise SpectrumTooShort(
        f"sqrt(a alpha mu) or the peak of sigma, lambda = {reach!r}, lies beyond "
        f"the first {PROVING_MODES_CAP} Neumann modes of the domain"
    )


def sigma_zero(params: ModelParams) -> float:
    """Rate of the spatially uniform mode: -a alpha, zero for the minimal model."""
    return -params.a * params.alpha


def _candidates(lam, a_alpha, mu, gain):
    """(lam + a alpha)(mu + lam) / (gain lam) per mode. A batch of samples
    passes its coefficients as (B, 1) columns against (B, modes) rows."""
    return (lam + a_alpha) * (mu + lam) / (gain * lam)


def critical_sensitivity(
    params: ModelParams, eq: Equilibrium, grid: GridDomain
) -> tuple[float, int]:
    """Exact instability threshold chi* and the mode index attaining it.

    chi* is the infimum of the per-mode candidates over the whole Neumann
    spectrum of the domain. _bracketed_minimum takes it from the modes
    that bracket sqrt(a alpha mu), in the shortest table that reaches that
    point; chi0 does not enter it.
    """
    lam = _proving_table(grid, math.sqrt(params.a * params.alpha * params.mu))
    return _chi_star(params, eq, lam)


def _chi_star(params: ModelParams, eq: Equilibrium, lam: np.ndarray) -> tuple[float, int]:
    """chi* and its mode from a table `lam` that reaches sqrt(a alpha mu)."""
    value, mode = _bracketed_minimum(
        lam, np.ones(1), np.array([params.a * params.alpha]),
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

    Where eigenvalues are equal up to rounding (rectangles: 65 = 1^2 + 8^2
    = 4^2 + 7^2), the window widens to every entry within RUN_RTOL of its
    first and its last, so it never splits such a run. Its candidates are
    the floats a scan of the table computes, and those of the entries
    outside it exceed one inside by far more than rounding; so the value
    and mode are the scan's.
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
    at = _window(unit, bracket)
    window = _candidates(
        unit[at] * scale[:, None], a_alpha[:, None], mu[:, None], gain[:, None]
    )
    return window.min(axis=1), at[np.arange(at.shape[0]), window.argmin(axis=1)]


def _window(unit, bracket):
    """The indices of the window about each (B,) `bracket`, one row each:
    k-2 .. k+1, min(4, modes) wide and shifted to stay in the table, then
    widened to every entry within RUN_RTOL of its first and its last."""
    modes = unit.size - 1
    width = min(4, modes)
    start = np.minimum(np.maximum(bracket - 2, 1), modes - width + 1)
    first = np.searchsorted(unit, unit[start] * (1.0 - RUN_RTOL))
    last = np.searchsorted(unit, unit[start + width - 1] * (1.0 + RUN_RTOL), "right") - 1
    # Rows narrower than the widest repeat their last entry, which moves
    # neither the minimum nor its first index.
    return np.minimum(first[:, None] + np.arange((last - first).max() + 1), last[:, None])


@dataclass(frozen=True)
class StabilityReport:
    """Verdict on one (parameters, equilibrium, domain) triple: chi*, sigma's
    maximum and their modes over the domain's whole Neumann spectrum."""

    chi_star: float
    argmin_mode: int
    verdict: str                # "stable" | "unstable" | "critical"
    sigma_zero: float
    sigma_max: float            # over modes n >= 1
    fastest_mode: int           # argmax of sigma over n >= 1


def classify_equilibrium(
    params: ModelParams, eq: Equilibrium, grid: GridDomain
) -> StabilityReport:
    """Dichotomy verdict: stable iff chi0 < chi*, with a relative band of
    1e-12 around chi* reported as critical.

    `sigma_max` and `fastest_mode` are the maximum of sigma over the nonzero
    modes of the whole spectrum: where chi0 g > mu, sigma is concave in
    lambda with its peak at lambda_p = sqrt(chi0 g mu) - mu, elsewhere it is
    decreasing. One table, the shortest that reaches both sqrt(a alpha mu)
    and lambda_p, proves chi* (see `critical_sensitivity`) and that maximum.
    """
    lam = _proving_table(
        grid, max(math.sqrt(params.a * params.alpha * params.mu), _sigma_peak(params, eq))
    )
    chi_star, argmin_mode = _chi_star(params, eq, lam)
    rates = sigma_n(params, eq, lam)
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
