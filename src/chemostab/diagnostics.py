"""Diagnostics: convergence functionals, decay fits, persistence metrics.

The descent functional used for the strong-logistic stability experiments
is F = integral of h_m(u), where h_m(s) is the antiderivative of
1 - (u*/s)^(2m-1) vanishing at u*. Its dissipation partner is
D = integral of (u - u*)(u^alpha - u*^alpha), nonnegative because s^alpha
is increasing. Both are evaluated in closed form per cell and summed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import thresholds
from .core import GridDomain, ModelParams
from .helmholtz import face_gradients

if TYPE_CHECKING:
    from .integrator import Trajectory


class NonPositiveDensity(ValueError):
    """The functional needs a strictly positive density field."""


class WindowEmpty(ValueError):
    """No usable window for the exponential fit."""


class HypothesisNotMet(ValueError):
    """A parameter gate required by the targeted result fails."""


def lyapunov_F(u: np.ndarray, u_star: float, m: float, cell_volume: float = 1.0) -> float:
    """Cell-summed descent functional, closed form.

    m = 1:  h(s) = s - u* - u* log(s/u*)
    m > 1:  h(s) = (s - u*) + u*^(2m-1) (s^(2-2m) - u*^(2-2m)) / (2m - 2)
                 = (s - u*) - u* expm1(p log(s/u*)) / p,   p = 2 - 2m.

    The expm1 form keeps full precision as m -> 1+, where the difference
    of powers over 2m - 2 cancels catastrophically: at m = 1 + 2^-52,
    s = 2, u* = 3 that form gives -0.25 instead of 0.216.
    """
    u = np.asarray(u, dtype=float)
    if float(u.min()) <= 0.0:
        raise NonPositiveDensity(f"density must be positive, min is {u.min()}")
    return _lyapunov_sum(u, u_star, m, cell_volume)


def _lyapunov_sum(u: np.ndarray, u_star: float, m: float, cell_volume: float) -> float:
    """`lyapunov_F` of a float array u whose cells the caller knows to be
    positive, without the check."""
    if m == 1.0:
        h = u - u_star - u_star * np.log(u / u_star)
    else:
        p = 2.0 - 2.0 * m
        h = (u - u_star) - u_star * np.expm1(p * np.log(u / u_star)) / p
    return float(h.sum()) * cell_volume


def dissipation_D(
    u: np.ndarray, u_star: float, alpha: float, cell_volume: float = 1.0
) -> float:
    """Cell-summed (u - u*)(u^alpha - u*^alpha); nonnegative pointwise."""
    u = np.asarray(u, dtype=float)
    return float(((u - u_star) * (u**alpha - u_star**alpha)).sum()) * cell_volume


def signal_energy(
    v: np.ndarray, v_star: float, grid: GridDomain, mu: float
) -> float:
    """Discrete energy mu |v - v*|_2^2 + |grad_h (v - v*)|_2^2.

    The gradient uses the same interior face differences as the elliptic
    stencil; boundary faces contribute zero.
    """
    w = np.asarray(v, dtype=float) - v_star
    energy = mu * float((w**2).sum()) * grid.cell_volume
    for g in face_gradients(w, grid):
        energy += float((g**2).sum()) * grid.cell_volume
    return energy


@dataclass(frozen=True)
class DecayFit:
    rate: float
    prefactor: float
    r_squared: float
    window: tuple[int, int]


def fit_decay_rate(times: np.ndarray, values: np.ndarray) -> DecayFit:
    """Least-squares exponential fit on an automatically chosen window.

    The window keeps samples with value in [10 * floor, 0.1 * initial],
    clipping away both the nonlinear transient and the resolution floor.
    Returns the decay rate (slope magnitude), the prefactor, and r^2.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.shape != y.shape or t.ndim != 1:
        raise ValueError("times and values must be 1D arrays of equal length")
    positive = y[y > 0.0]
    if positive.size == 0:
        raise WindowEmpty("series has no positive values")
    floor = float(positive.min())
    lo, hi = 10.0 * floor, 0.1 * float(y[0])
    mask = (y > 0.0) & (y >= lo) & (y <= hi)
    if int(mask.sum()) < 2:
        raise WindowEmpty(
            f"no fit window: bounds [{lo:.3e}, {hi:.3e}] keep {int(mask.sum())} samples"
        )
    tw, yw = t[mask], np.log(y[mask])
    slope, intercept = np.polyfit(tw, yw, 1)
    residuals = yw - (slope * tw + intercept)
    total = yw - yw.mean()
    ss_tot = float((total**2).sum())
    ss_res = float((residuals**2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else (1.0 if ss_res == 0.0 else 0.0)
    idx = np.flatnonzero(mask)
    return DecayFit(
        rate=-float(slope),
        prefactor=float(math.exp(intercept)),
        r_squared=r2,
        window=(int(idx[0]), int(idx[-1])),
    )


# Trials drawn and checked per block of check_power_diff_inequality; a
# block's arrays take a few MiB, whatever the trial count.
POWER_BLOCK = 1 << 16


def check_power_diff_inequality(trials: int, rng: np.random.Generator) -> int:
    """Fuzz the power-difference inequality; returns the violation count.

    For every u, u* > 0 and exponents with 2 gamma <= alpha + 1,

        (u^gamma - u*^gamma)^2
            <= C_{alpha,gamma} u*^(2 gamma - alpha - 1) (u - u*)(u^alpha - u*^alpha).

    Samples are drawn log-uniformly with u, u* in (1e-3, 1e3); pairs with
    u = u* are not checked. Trials are drawn in blocks of POWER_BLOCK, one
    rng call per variable, and each block is checked with array operations
    and the rounding headroom of `thresholds._violates`. A negative trial
    count raises ValueError; zero trials check nothing.
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    violations = 0
    for start in range(0, trials, POWER_BLOCK):
        size = min(POWER_BLOCK, trials - start)
        alpha = 10.0 ** rng.uniform(-2.0, 1.0, size)
        gamma = rng.uniform(0.0, (alpha + 1.0) / 2.0)
        gamma[gamma == 0.0] = 1e-6
        u_star = 10.0 ** rng.uniform(-3.0, 3.0, size)
        u = 10.0 ** rng.uniform(-3.0, 3.0, size)
        c = thresholds.power_diff_constant(alpha, gamma)
        lhs = (u**gamma - u_star**gamma) ** 2
        rhs = c * u_star ** (2.0 * gamma - alpha - 1.0) * (u - u_star) * (
            u**alpha - u_star**alpha
        )
        violated = thresholds._violates(lhs, rhs) & (u != u_star)
        violations += int(np.count_nonzero(violated))
    return violations


@dataclass(frozen=True)
class PersistenceReport:
    """Tail infima of a run against the applicable eventual lower bounds."""

    tail_inf_u: float
    tail_inf_v: float
    u_bound: float | None
    v_bound: float | None
    bound_case: str | None          # "m=1" or "m>1" eventual bound, else None
    hypothesis_failure: str | None  # why no theorem bound applies
    generic_v_bound: float          # (nu/mu) * tail_inf_u^gamma, always checked
    u_bound_met: bool | None
    v_bound_met: bool | None
    generic_v_met: bool

    @property
    def all_met(self) -> bool:
        checks = [self.generic_v_met]
        if self.u_bound_met is not None:
            checks.append(self.u_bound_met)
        if self.v_bound_met is not None:
            checks.append(self.v_bound_met)
        return all(checks)


# Share of the samples, at the end of a run, whose infima persistence_metrics
# compares against the eventual bounds.
PERSISTENCE_TAIL = 0.25


def persistence_floor(params: ModelParams) -> tuple[str | None, float | None, str | None]:
    """The eventual density floor at `params`, from the coefficients alone:
    (case, u_bound, None) with case "m=1" or "m>1", else (None, None, why).

    Both need beta >= 1 and a, b > 0. The m = 1 floor
    ((a - chi0 mu Theta_{beta-1}) / b)^(1/alpha) needs
    0 <= chi0 < a / (mu Theta_{beta-1}); the m > 1 floor
    min{1, (a / (b + chi0 mu Theta_{beta-1}))^max{1/(m-1), 1/alpha}}
    needs chi0 > 0.
    """
    if params.minimal:
        return None, None, "a = b = 0: no explicit eventual lower bound is computed here"
    if params.beta < 1.0:
        return None, None, f"beta >= 1 required for the eventual bounds, got beta = {params.beta}"
    th = thresholds.theta(params.beta - 1.0)
    if params.m == 1.0:
        cap = params.a / (params.mu * th)
        if params.chi0 < 0.0:
            return None, None, f"chi0 >= 0 required for the m = 1 bound, got chi0 = {params.chi0}"
        if params.chi0 >= cap:
            return None, None, (f"chi0 < a / (mu Theta_(beta-1)) required, "
                                f"got chi0 = {params.chi0} >= {cap}")
        top = params.a - params.chi0 * params.mu * th
        return "m=1", (top / params.b) ** (1.0 / params.alpha), None
    if params.chi0 <= 0.0:
        return None, None, f"chi0 > 0 required for the m > 1 bound, got chi0 = {params.chi0}"
    ratio = params.a / (params.b + params.chi0 * params.mu * th)
    return "m>1", float(thresholds._density_floor(ratio, params.m, params.alpha)), None


def persistence_metrics(
    traj: Trajectory, params: ModelParams, slack: float = 0.05
) -> PersistenceReport:
    """Compare tail infima of u and v against the eventual lower bounds.

    The density floor, for any m >= 1, is `persistence_floor(params)`'s,
    with its signal floor (nu/mu) u_bound^gamma; where none applies,
    `hypothesis_failure` says why. The generic signal bound
    (nu/mu) (tail inf u)^gamma is checked in every case. Bounds carry a
    multiplicative slack because the proofs are asymptotic statements.
    """
    n = len(traj.times)
    if n < 4:
        raise ValueError("trajectory too short for a tail window")
    start = max(0, n - max(1, int(math.ceil(PERSISTENCE_TAIL * n))))
    tail_inf_u = float(traj.u_min[start:].min())
    tail_inf_v = float(traj.v_min[start:].min())

    case, u_bound, failure = persistence_floor(params)
    v_bound = None if u_bound is None else (params.nu / params.mu) * u_bound**params.gamma
    generic_v_bound = (params.nu / params.mu) * tail_inf_u**params.gamma
    return PersistenceReport(
        tail_inf_u=tail_inf_u,
        tail_inf_v=tail_inf_v,
        u_bound=u_bound,
        v_bound=v_bound,
        bound_case=case,
        hypothesis_failure=failure,
        generic_v_bound=generic_v_bound,
        u_bound_met=None if u_bound is None else tail_inf_u >= u_bound * (1.0 - slack),
        v_bound_met=None if v_bound is None else tail_inf_v >= v_bound * (1.0 - slack),
        generic_v_met=tail_inf_v >= generic_v_bound * (1.0 - slack),
    )
