"""Two-point comparison system bounding the PDE's spatial envelope.

In normalized variables U = u/u*, tau = a t, the running maximum ubar and
minimum ulow of U are squeezed by the ODE pair

    ubar' = k ubar^m (ubar^g - ulow^g) + q k ubar^m (ubar^g - ulow^g)^2
            + ubar (1 - ubar^a)
    ulow' = k ulow^m (ulow^g - ubar^g) + ulow (1 - ulow^a)

with k = chi0 nu u*^(m+g-1) / a and q = beta v* M0^2. When the signal is
known to stay above a floor v_lb, sensitivity saturation improves both
coefficients: k -> k / (1+v_lb)^beta and q -> q / (1+v_lb). The pair
preserves ulow <= 1 <= ubar and contracts to (1, 1) when k (2 + q0) < 1,
where q0 is the unreduced quadratic coefficient.

`integrate_rectangle` advances the pair as two Python floats, four rate
evaluations per RK4 step. It binds the coefficients of its
`RectangleParams` once per call into the one written form of the rates
(`_pair_rates(rp)`), so a rate evaluation reads local names rather than
five fields of `rp`, and the products and powers that the form takes
twice are taken once; every float is the form's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Equilibrium, ModelParams
from .integrator import Trajectory, _fixed_steps
from .thresholds import HypothesisViolated, bar_chi, require_m0, v_lower_ab


class MinimalModelUnsupported(ValueError):
    """The comparison system needs the logistic source (a, b > 0)."""


class OrderViolation(RuntimeError):
    """The ordering ulow <= 1 <= ubar broke during integration."""


class TimeGridMismatch(ValueError):
    """PDE sample times do not land on the comparison-system time grid."""


class TooManySteps(ValueError):
    """tau_end / dt asks for more RK4 steps than STEP_LIMIT."""


# The most RK4 steps one integration takes. The pair, its time grid and the
# float lists peak at 88 bytes a step, and a step takes 4.6 us (2-vCPU
# x86-64), so the limit holds an integration near 90 MB and 5 s. It is 22
# times rectangle-iv's 45,000 steps (tau_end 45 at dt 1e-3), the longest
# integration the package itself asks for.
STEP_LIMIT = 1_000_000


@dataclass(frozen=True)
class RectangleParams:
    """Normalized coefficients of the comparison ODE pair."""

    kappa: float           # effective coupling (after any signal-floor gain)
    quad: float            # effective quadratic coefficient
    m: float
    alpha: float
    gamma: float
    a: float               # time scale of the tau = a t map
    kappa0: float          # raw coupling chi0 nu u*^(m+gamma-1) / a
    contraction: bool      # kappa (2 + beta v* M0^2) < 1
    mode: str              # "plain" or "signal-floor"


def normalize(
    params: ModelParams,
    eq: Equilibrium,
    m0: float,
    mode: str = "plain",
) -> RectangleParams:
    """Build comparison-system coefficients from the PDE parameters.

    `mode` selects the plain reduction or the signal-floor variant that
    divides the coupling by (1 + v_lb)^beta using the eventual signal
    floor v_lower_ab of the logistic dynamics. That is the floor only for
    beta >= 1 and chi0 <= bar chi, so outside them the variant raises
    HypothesisViolated.
    """
    if params.minimal:
        raise MinimalModelUnsupported(
            "the comparison system requires a, b > 0; the mass-conserving "
            "model has no logistic relaxation to normalize by"
        )
    if mode not in ("plain", "signal-floor"):
        raise ValueError(f"unknown mode {mode!r}")
    require_m0(m0)
    try:
        kappa0 = (
            params.chi0
            * params.nu
            * eq.u_star ** (params.m + params.gamma - 1.0)
            / params.a
        )
    except OverflowError:
        raise OverflowError(
            f"kappa0 = chi0 nu u*^(m+gamma-1) / a overflows a float at chi0 = "
            f"{params.chi0!r}, nu = {params.nu!r}, u* = {eq.u_star!r}, m = {params.m!r}, "
            f"gamma = {params.gamma!r}, a = {params.a!r}"
        ) from None
    quad0 = params.beta * eq.v_star * m0**2
    if mode == "signal-floor":
        cap = bar_chi(params)  # refuses beta < 1
        if params.chi0 > cap:
            raise HypothesisViolated(
                f"the signal floor needs chi0 <= bar chi = {cap!r}, got chi0 = {params.chi0!r}"
            )
        floor = v_lower_ab(params)
        kappa = kappa0 / (1.0 + floor) ** params.beta
        quad = quad0 / (1.0 + floor)
    else:
        kappa = kappa0
        quad = quad0
    return RectangleParams(
        kappa=kappa,
        quad=quad,
        m=params.m,
        alpha=params.alpha,
        gamma=params.gamma,
        a=params.a,
        kappa0=kappa0,
        contraction=kappa * (2.0 + quad0) < 1.0,
        mode=mode,
    )


def _pair_rates(rp: RectangleParams):
    """The pair's right-hand side with rp's coefficients bound once: a
    function (ubar, ulow) -> (ubar', ulow') of Python floats or numpy
    scalars, the one written form of the right-hand side. The products
    quad kappa and -kappa and the power ubar^m, each of which the form
    takes twice, are taken once; each rounds as in the form, so every
    float is the form's."""
    kappa, quad_kappa, neg_kappa = rp.kappa, rp.quad * rp.kappa, -rp.kappa
    m, alpha, gamma = rp.m, rp.alpha, rp.gamma

    def rates(ubar, ulow):
        gap = ubar**gamma - ulow**gamma
        ubar_m = ubar**m
        dbar = kappa * ubar_m * gap + quad_kappa * ubar_m * gap**2 + ubar * (1.0 - ubar**alpha)
        dlow = neg_kappa * ulow**m * gap + ulow * (1.0 - ulow**alpha)
        return dbar, dlow

    return rates


ORDER_TOL = 1e-9


@dataclass
class RectangleTrajectory:
    rp: RectangleParams
    tau: np.ndarray
    ubar: np.ndarray
    ulow: np.ndarray

    def log_gap(self) -> np.ndarray:
        """ln(ubar) - ln(ulow), the contraction functional."""
        return np.log(self.ubar) - np.log(self.ulow)

    @property
    def dt(self) -> float:
        return float(self.tau[1] - self.tau[0])


def integrate_rectangle(
    rp: RectangleParams,
    ubar0: float,
    ulow0: float,
    tau_end: float,
    dt: float = 1e-3,
) -> RectangleTrajectory:
    """Classical fourth-order Runge-Kutta on a fixed normalized-time grid.

    Raises OrderViolation when ulow <= 1 <= ubar (or positivity) fails
    beyond rounding tolerance, including on the initial pair. Before
    anything is allocated, raises ValueError unless tau_end, dt and
    tau_end / dt are positive and finite and tau_end lies within 1e-9 dt of
    a positive multiple of dt (the lattice of the fixed-step PDE runs), and
    TooManySteps when the step count tau_end / dt exceeds STEP_LIMIT.

    A step that returns its pair unchanged ends the loop, and the pair
    fills the remaining entries: the rates do not depend on tau, so every
    later step would return it too.
    """
    # NaN fails every comparison; tau_end / dt is finite only if tau_end is.
    if not (tau_end > 0.0 and math.inf > dt > 0.0 and math.isfinite(tau_end / dt)):
        raise ValueError(
            f"tau_end, dt and tau_end / dt must be positive and finite, got {tau_end}, {dt}"
        )
    n_steps, last_dt = _fixed_steps(0.0, tau_end, dt)
    if last_dt != dt or n_steps < 1:
        raise ValueError(f"tau_end = {tau_end} is not a positive multiple of dt = {dt}")
    if n_steps > STEP_LIMIT:
        raise TooManySteps(
            f"tau_end / dt = {tau_end} / {dt} asks for {n_steps} steps, "
            f"more than the limit {STEP_LIMIT}"
        )
    if not (0.0 < ulow0 <= 1.0 + ORDER_TOL and ubar0 >= 1.0 - ORDER_TOL):
        raise OrderViolation(
            f"initial pair must satisfy 0 < ulow <= 1 <= ubar, "
            f"got ({ubar0}, {ulow0})"
        )
    tau = np.linspace(0.0, n_steps * dt, n_steps + 1)
    # The pair advances as two Python floats: each operation rounds as its
    # elementwise form on a length-2 numpy array does, at a fraction of the
    # cost. Where numpy gives inf or NaN, float `**` raises OverflowError or,
    # for a negative stage value, turns complex; both mean a non-finite state.
    half, sixth = 0.5 * dt, dt / 6.0
    rates = _pair_rates(rp)
    isfinite, lo_cap, b_floor = math.isfinite, 1.0 + ORDER_TOL, 1.0 - ORDER_TOL
    b, lo = float(ubar0), float(ulow0)
    ubar, ulow = [b], [lo]
    for i in range(n_steps):
        try:
            k1b, k1l = rates(b, lo)
            k2b, k2l = rates(b + half * k1b, lo + half * k1l)
            k3b, k3l = rates(b + half * k2b, lo + half * k2l)
            k4b, k4l = rates(b + dt * k3b, lo + dt * k3l)
            b = b + sixth * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
            lo = lo + sixth * (k1l + 2.0 * k2l + 2.0 * k3l + k4l)
        except OverflowError:
            b = math.inf
        if (isinstance(b, complex) or isinstance(lo, complex)
                or not (isfinite(b) and isfinite(lo))):
            raise OrderViolation(f"non-finite state at tau = {tau[i + 1]}")
        if lo <= 0.0 or lo > lo_cap or b < b_floor:
            raise OrderViolation(
                f"ordering ulow <= 1 <= ubar broke at tau = {tau[i + 1]}: "
                f"({b}, {lo})"
            )
        ubar.append(b)
        ulow.append(lo)
        if b == ubar[-2] and lo == ulow[-2]:
            rest = n_steps - 1 - i
            ubar.extend([b] * rest)
            ulow.extend([lo] * rest)
            break
    return RectangleTrajectory(rp=rp, tau=tau, ubar=np.array(ubar), ulow=np.array(ulow))


@dataclass(frozen=True)
class SandwichReport:
    """Envelope containment of a PDE run inside the comparison bounds."""

    n_times: int
    max_upper_excess: float    # max over time of (max u / u*) - ubar
    max_lower_excess: float    # max over time of ulow - (min u / u*)
    slack: float

    @property
    def ok(self) -> bool:
        return self.max_upper_excess <= self.slack and (
            self.max_lower_excess <= self.slack
        )


def verify_sandwich(
    rect: RectangleTrajectory,
    traj: Trajectory,
    eq: Equilibrium,
    slack: float,
) -> SandwichReport:
    """Check ulow(a t) - slack <= u/u* <= ubar(a t) + slack at every sample.

    PDE sample times are mapped by tau = a t and must land on the ODE grid
    to within 1e-9 relative; otherwise TimeGridMismatch.
    """
    taus = rect.rp.a * traj.times
    idx = np.rint(taus / rect.dt).astype(int)
    if np.any(idx < 0) or np.any(idx >= len(rect.tau)):
        raise TimeGridMismatch(
            "PDE samples extend beyond the comparison-system time grid"
        )
    misfit = np.abs(idx * rect.dt - taus)
    if np.any(misfit > 1e-9 * np.maximum(1.0, np.abs(taus))):
        raise TimeGridMismatch(
            f"PDE sample times miss the ODE grid by up to {misfit.max():.3e}"
        )
    upper = traj.u_max / eq.u_star - rect.ubar[idx]
    lower = rect.ulow[idx] - traj.u_min / eq.u_star
    return SandwichReport(
        n_times=len(taus),
        max_upper_excess=float(upper.max()),
        max_lower_excess=float(lower.max()),
        slack=slack,
    )


def contraction_tail(rect: RectangleTrajectory) -> tuple[float, float, bool]:
    """Final distance of (ubar, ulow) from (1, 1) and log-gap monotonicity."""
    final = max(abs(rect.ubar[-1] - 1.0), abs(rect.ulow[-1] - 1.0))
    gap = rect.log_gap()
    increase = float(np.max(gap[1:] - gap[:-1])) if len(gap) > 1 else 0.0
    monotone = increase <= ORDER_TOL
    return float(final), increase, monotone
