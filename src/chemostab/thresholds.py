"""Explicit sensitivity thresholds and their ordering checks.

Every closed-form threshold of the model lives here: the saturation
constants Theta_beta, the power-difference constant C_{alpha,gamma}, the
boundedness thresholds chi_beta and chi_{a,b,beta} (the latter through the
user-supplied elliptic-regularity constant C*_{N,p}), the four global
stability thresholds chi**_1..chi**_4, and the minimal-model thresholds.
`verify_orderings` samples hypothesis-respecting parameter tuples and
confirms numerically that every applicable stability threshold sits below
the critical sensitivity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    Equilibrium,
    GridDomain,
    ModelParams,
    SpectrumTable,
    neumann_eigenvalues,
)


class HypothesisViolated(ValueError):
    """Inputs fall outside the validity region of the requested constant."""


class BetaBelowOne(ValueError):
    """chi_beta requires beta >= 1."""


class MissingCZConstant(ValueError):
    """No elliptic-regularity constant C*_{N,p} was supplied."""


class MissingKStar(ValueError):
    """The equality case of chi_{a,b,beta} needs a K* value."""


class GammaNotOne(ValueError):
    """The signal-energy threshold of the minimal model requires gamma = 1."""


def theta(beta: float) -> float:
    """Theta_beta = beta^beta (1+beta)^-(1+beta), the sharp bound for
    s / (1+s)^(1+beta) over s > 0. Theta_0 = 1 (the limit value)."""
    if beta < 0.0:
        raise HypothesisViolated(f"theta needs beta >= 0, got {beta}")
    return beta**beta * (1.0 + beta) ** (-(1.0 + beta))


def tilde_beta(beta: float) -> float:
    """[1 and (2 beta - 1)]_+ : clamp 2 beta - 1 into [0, 1]."""
    return max(0.0, min(1.0, 2.0 * beta - 1.0))


def power_diff_constant(alpha: float, gamma: float) -> float:
    """Constant C_{alpha,gamma} of the power-difference inequality.

    Valid when 2 gamma <= alpha + 1. Branches:
      (alpha+1)^2 / (4 alpha)   for 0 < alpha < 1
      1                         for alpha >= 1 and 0 < gamma <= 1
      gamma^2 / (2 gamma - 1)   for alpha >= 1 and gamma > 1
    """
    if alpha <= 0.0 or gamma <= 0.0:
        raise HypothesisViolated(f"need alpha, gamma > 0, got {alpha}, {gamma}")
    if 2.0 * gamma > alpha + 1.0:
        raise HypothesisViolated(
            f"power-difference constant needs 2 gamma <= alpha + 1, "
            f"got gamma = {gamma}, alpha = {alpha}"
        )
    if alpha < 1.0:
        return (alpha + 1.0) ** 2 / (4.0 * alpha)
    if gamma <= 1.0:
        return 1.0
    return gamma**2 / (2.0 * gamma - 1.0)


def chi_beta_threshold(beta: float, gamma: float, dimension: int) -> float:
    """Boundedness threshold 2 (2 beta - 1) / max{2, gamma N} for beta >= 1."""
    if beta < 1.0:
        raise BetaBelowOne(f"chi_beta needs beta >= 1, got {beta}")
    return 2.0 * (2.0 * beta - 1.0) / max(2.0, gamma * dimension)


@dataclass(frozen=True)
class CStarSource:
    """Elliptic-regularity constant C*_{N,p}, supplied by the user.

    The constant is never computed here; the default stub returns 1 for
    every p and is flagged nonrigorous so downstream reports say so.
    """

    func: Callable[[float], float]
    nonrigorous: bool
    description: str

    def __call__(self, p: float) -> float:
        value = float(self.func(p))
        if value <= 0.0:
            raise MissingCZConstant(f"C*_{{N,p}} must be positive, got {value} at p={p}")
        return value


def default_c_star_stub() -> CStarSource:
    return CStarSource(
        func=lambda p: 1.0,
        nonrigorous=True,
        description="stub C*_{N,p} = 1 (nonrigorous placeholder)",
    )


def c_star_from_table(pairs: Sequence[tuple[float, float]]) -> CStarSource:
    """Interpolate a user table of (p, C*_{N,p}) values linearly in p."""
    if not pairs:
        raise MissingCZConstant("empty C*_{N,p} table")
    table = sorted((float(p), float(c)) for p, c in pairs)
    ps = np.array([p for p, _ in table])
    cs = np.array([c for _, c in table])
    if np.any(cs <= 0.0):
        raise MissingCZConstant("C*_{N,p} table has non-positive entries")

    def lookup(p: float) -> float:
        if p < ps[0] - 1e-12 or p > ps[-1] + 1e-12:
            raise MissingCZConstant(
                f"p = {p} outside the supplied C*_{{N,p}} table range "
                f"[{ps[0]}, {ps[-1]}]"
            )
        return float(np.interp(p, ps, cs))

    return CStarSource(func=lookup, nonrigorous=False, description="user table")


def m_star(
    dimension: int, p: float, mu: float, nu: float, c_star_np: CStarSource | None
) -> float:
    """nu^p [ (8^p / p) C*_{N,p} (2^p + mu^-p) + 2^(2p) / ((p-1) p^p) ]."""
    if p <= 1.0:
        raise HypothesisViolated(f"m_star needs p > 1, got {p}")
    if c_star_np is None:
        raise MissingCZConstant("m_star needs the C*_{N,p} constant")
    c = float(c_star_np(p))
    return nu**p * (
        (8.0**p / p) * c * (2.0**p + mu ** (-p))
        + 2.0 ** (2.0 * p) / ((p - 1.0) * p**p)
    )


@dataclass(frozen=True)
class KStarResult:
    """Limit approximation of K* along a shrinking epsilon ladder."""

    value: float
    q_star: float
    converged: bool
    ladder: tuple[float, ...]


def k_star(
    dimension: int,
    alpha: float,
    gamma: float,
    mu: float,
    nu: float,
    c_star_np: CStarSource | None,
    epsilons: Sequence[float] = (1e-2, 1e-3, 1e-4),
) -> KStarResult:
    """Approximate K* = liminf over q -> q*+ of M*(N, (q+alpha)/gamma)^(gamma/(q+alpha)).

    Evaluates the bracketed expression at q = q* + eps on the epsilon
    ladder; the result carries a convergence flag (relative difference of
    the last two rungs within 1e-3) rather than raising on slow decay.
    """
    if c_star_np is None:
        raise MissingCZConstant("k_star needs the C*_{N,p} constant")
    q_star = max(1.0, dimension * alpha / 2.0)
    values = []
    for eps in epsilons:
        q = q_star + eps
        p = (q + alpha) / gamma
        if p <= 1.0:
            raise HypothesisViolated(
                f"K* evaluation needs (q + alpha) / gamma > 1, got p = {p}"
            )
        values.append(m_star(dimension, p, mu, nu, c_star_np) ** (gamma / (q + alpha)))
    converged = abs(values[-1] - values[-2]) <= 1e-3 * abs(values[-2])
    return KStarResult(
        value=values[-1], q_star=q_star, converged=converged, ladder=tuple(values)
    )


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= 1e-12 * max(1.0, abs(x), abs(y))


@dataclass(frozen=True)
class ChiAbBeta:
    """Boundedness threshold chi_{a,b,beta} = max of the two case entries."""

    value: float                # may be math.inf
    case: str                   # which entry attains the max
    entry_i_iii: float
    entry_ii_iv: float
    branch_i_iii: str
    branch_ii_iv: str


def chi_ab_beta(
    params: ModelParams, dimension: int, k_star_value: float | None = None
) -> ChiAbBeta:
    """Piecewise boundedness threshold, +infinity represented explicitly.

    Both case entries read +infinity when (N alpha - 2)_+ = 0. The
    equality cases alpha = m + gamma - 1 and alpha = 2m + gamma - 2 need
    the K* constant and raise MissingKStar without it.
    """
    b, beta, m, alpha, gamma, nu = (
        params.b, params.beta, params.m, params.alpha, params.gamma, params.nu,
    )
    n_alpha = max(dimension * alpha - 2.0, 0.0)

    # Entry shared by the strict/equality super-linear source cases.
    if _close(alpha, m + gamma - 1.0):
        if n_alpha == 0.0:
            entry1, branch1 = math.inf, "alpha = m + gamma - 1, (N alpha - 2)_+ = 0"
        else:
            if k_star_value is None:
                raise MissingKStar("alpha = m + gamma - 1 needs a K* value")
            entry1 = (n_alpha + 2.0 * m) * b / (
                n_alpha * (nu + beta * theta(beta) * k_star_value)
            )
            branch1 = "alpha = m + gamma - 1"
    elif alpha > m + gamma - 1.0:
        entry1, branch1 = math.inf, "alpha > m + gamma - 1"
    else:
        entry1, branch1 = 0.0, "alpha < m + gamma - 1"

    near_eq2 = _close(alpha, 2.0 * m + gamma - 2.0)
    if beta < 0.5 or (alpha < 2.0 * m + gamma - 2.0 and not near_eq2):
        entry2, branch2 = 0.0, "beta < 1/2 or alpha < 2m + gamma - 2"
    elif near_eq2:
        if n_alpha == 0.0:
            entry2, branch2 = math.inf, "alpha = 2m + gamma - 2, (N alpha - 2)_+ = 0"
        else:
            if k_star_value is None:
                raise MissingKStar("alpha = 2m + gamma - 2 needs a K* value")
            entry2 = math.sqrt(
                8.0 * b / (n_alpha * theta(2.0 * beta - 1.0) * k_star_value)
            )
            branch2 = "alpha = 2m + gamma - 2"
    else:
        entry2, branch2 = math.inf, "alpha > 2m + gamma - 2"

    value = max(entry1, entry2)
    if entry1 == entry2:
        case = "both"
    else:
        case = "(i,iii)" if entry1 > entry2 else "(ii,iv)"
    return ChiAbBeta(
        value=value,
        case=case,
        entry_i_iii=entry1,
        entry_ii_iv=entry2,
        branch_i_iii=branch1,
        branch_ii_iv=branch2,
    )


def bar_chi(params: ModelParams) -> float:
    """a / (2 mu Theta_{beta-1}) when m = 1, b / (mu Theta_{beta-1}) when m > 1."""
    if params.beta < 1.0:
        raise HypothesisViolated(f"bar chi needs beta >= 1, got {params.beta}")
    t = theta(params.beta - 1.0)
    if params.m == 1.0:
        return params.a / (2.0 * params.mu * t)
    return params.b / (params.mu * t)


def v_lower_ab(params: ModelParams) -> float:
    """Eventual signal floor used by the improved thresholds."""
    ratio = params.a / (2.0 * params.b)
    if params.m == 1.0:
        return (params.nu / params.mu) * ratio ** (params.gamma / params.alpha)
    if ratio >= 1.0:
        density_floor = 1.0
    else:
        # Exponent blows up as m -> 1+; powering a ratio < 1 can only
        # underflow, which is the correct limit, never overflow.
        expo = max(1.0 / (params.m - 1.0), 1.0 / params.alpha)
        density_floor = ratio**expo
    return (params.nu / params.mu) * density_floor**params.gamma


@dataclass(frozen=True)
class ThresholdEntry:
    """One threshold with its parameter-level applicability gate."""

    name: str
    value: float | None        # None when not evaluable; never NaN
    applicable: bool
    hypothesis: str


def chi_double_star(
    params: ModelParams, eq: Equilibrium, m0: float = 0.0
) -> tuple[ThresholdEntry, ThresholdEntry, ThresholdEntry, ThresholdEntry]:
    """The four explicit global-stability thresholds with applicability flags.

    `m0` is the Neumann gradient-estimate constant of the domain (user
    value or empirical estimate); it only enters entries 3 and 4, and only
    when beta > 0.
    """
    if params.minimal:
        raise HypothesisViolated("chi**_1..4 require a, b > 0")
    a, b, m, alpha, gamma, beta = (
        params.a, params.b, params.m, params.alpha, params.gamma, params.beta,
    )
    mu, nu = params.mu, params.nu
    u, v = eq.u_star, eq.v_star

    two_gamma_ok = alpha + 1.0 >= 2.0 * gamma
    c_ag = power_diff_constant(alpha, gamma) if two_gamma_ok else None
    u_power = u ** (2.0 * gamma - alpha + 2.0 * m - 2.0)

    hyp1 = "m >= 1 and alpha + 1 >= 2 gamma"
    if c_ag is None:
        value1 = None
    else:
        value1 = math.sqrt(
            b * 16.0 * (1.0 + tilde_beta(beta) * v) * mu
            / ((2.0 * m - 1.0) * nu**2 * c_ag * u_power)
        )
    entry1 = ThresholdEntry("chi**_1", value1, two_gamma_ok, hyp1)

    hyp2 = "m >= 1, beta >= 1, alpha + 1 >= 2 gamma"
    if c_ag is None or beta < 1.0:
        value2 = None
    else:
        improved = math.sqrt(
            b * 16.0 * (1.0 + v_lower_ab(params)) ** (2.0 * beta) * mu
            / ((2.0 * m - 1.0) * nu**2 * c_ag * u_power)
        )
        value2 = min(bar_chi(params), improved)
    entry2 = ThresholdEntry("chi**_2", value2, two_gamma_ok and beta >= 1.0, hyp2)

    sign_beta = 0.0 if beta == 0.0 else 1.0
    hyp3 = "m >= 1, gamma >= 1, alpha + 1 >= m + gamma + sign(beta) gamma"
    value3 = (a / (nu * u ** (m + gamma - 1.0))) / (2.0 + beta * v * m0**2)
    ok3 = gamma >= 1.0 and alpha + 1.0 >= m + gamma + sign_beta * gamma
    entry3 = ThresholdEntry("chi**_3", value3, ok3, hyp3)

    hyp4 = "m >= 1, beta >= 1, gamma >= 1, alpha + 1 >= m + 2 gamma"
    if beta < 1.0:
        value4 = None
    else:
        value4 = min(bar_chi(params), (1.0 + v_lower_ab(params)) ** beta * value3)
    ok4 = beta >= 1.0 and gamma >= 1.0 and alpha + 1.0 >= m + 2.0 * gamma
    entry4 = ThresholdEntry("chi**_4", value4, ok4, hyp4)

    return entry1, entry2, entry3, entry4


def gamma_cap_minimal(u_star: float, gamma: float, ubar0: float) -> float:
    """Gamma_gamma(u*): u*^(gamma-1) ubar0 for gamma <= 1, else gamma ubar0^gamma."""
    if gamma <= 1.0:
        return u_star ** (gamma - 1.0) * ubar0
    return gamma * ubar0**gamma


@dataclass(frozen=True)
class MinimalThresholds:
    """Global-stability thresholds for the mass-conserving model (m = 1)."""

    chi_ss1_min: float
    chi_ss2_min: float | None   # only defined when gamma = 1
    chi_beta: float
    gamma_cap: float
    ubar0: float
    vlower0: float
    inputs_source: str          # "empirical" or "user"


def minimal_thresholds(
    u_star: float,
    gamma: float,
    beta: float,
    mu: float,
    nu: float,
    lambda_star: float,
    ubar0: float,
    vlower0: float,
    dimension: int,
    inputs_source: str = "user",
    require_akl: bool = False,
) -> MinimalThresholds:
    """Minimal-model thresholds from the (empirical) bounds ubar0, vlower0.

    chi**_1 = min{chi_beta/2, sqrt(chi_beta), 2 sqrt(mu lambda_*) (1+vlower0)^beta / (nu Gamma)}
    chi**_2 = min{chi_beta/2, sqrt(chi_beta), mu (1+vlower0)^beta / (nu ubar0)}  (gamma = 1)

    Set `require_akl` to insist on the second threshold; it raises
    GammaNotOne when gamma != 1.
    """
    if ubar0 <= 0.0 or vlower0 <= 0.0:
        raise HypothesisViolated("ubar0 and vlower0 must be positive")
    if require_akl and gamma != 1.0:
        raise GammaNotOne(f"the signal-energy threshold needs gamma = 1, got {gamma}")
    cb = chi_beta_threshold(beta, gamma, dimension)
    cap = gamma_cap_minimal(u_star, gamma, ubar0)
    amplification = (1.0 + vlower0) ** beta
    chi1 = min(cb / 2.0, math.sqrt(cb),
               2.0 * math.sqrt(mu * lambda_star) * amplification / (nu * cap))
    chi2 = None
    if gamma == 1.0:
        chi2 = min(cb / 2.0, math.sqrt(cb), mu * amplification / (nu * ubar0))
    return MinimalThresholds(
        chi_ss1_min=chi1,
        chi_ss2_min=chi2,
        chi_beta=cb,
        gamma_cap=cap,
        ubar0=ubar0,
        vlower0=vlower0,
        inputs_source=inputs_source,
    )


def estimate_m0(
    grid: GridDomain,
    mu: float,
    nu: float,
    sample_count: int,
    rng: np.random.Generator | None = None,
    n_modes: int = 8,
) -> float:
    """Empirical lower bound for the Neumann gradient-estimate constant.

    For w solving (mu I - lap_h) w = nu f with smooth random f of unit
    oscillation, the constant satisfies |grad w|_inf <= M0 (nu/sqrt(mu)) osc(f),
    so each sample yields the certificate |grad_h w|_inf sqrt(mu) / nu and
    the estimate is the running maximum. It can only under-shoot the true
    constant.
    """
    from .helmholtz import get_operator, max_face_gradient

    if sample_count < 1:
        raise ValueError(f"sample_count must be >= 1, got {sample_count}")
    rng = rng if rng is not None else np.random.default_rng(0)
    op = get_operator(grid, mu)
    best = 0.0
    for _ in range(sample_count):
        f = np.zeros(grid.shape)
        for axis in range(grid.dimension):
            x = grid.centers(axis)
            shape = [1] * grid.dimension
            shape[axis] = -1
            for j in range(1, n_modes + 1):
                coeff = rng.normal(0.0, 1.0 / j**2)
                wave = np.cos(j * math.pi * x / grid.lengths[axis])
                f = f + coeff * wave.reshape(shape)
        osc = float(f.max() - f.min())
        if osc <= 0.0:
            continue
        f = f / osc
        w = op.solve(nu * f)
        best = max(best, max_face_gradient(w, grid) * math.sqrt(mu) / nu)
    return best


@dataclass(frozen=True)
class OrderingViolation:
    part: str
    sample: dict[str, float]
    lhs_name: str
    lhs: float
    rhs_name: str
    rhs: float


@dataclass(frozen=True)
class OrderingReport:
    checked: dict[str, int]
    skipped: dict[str, int]
    violations: tuple[OrderingViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


_ORDERING_PARTS = ("1", "2", "3", "4", "minimal-1", "minimal-2")


def _violates(lhs: float, rhs: float) -> bool:
    """lhs <= rhs expected; allow 1e-12 relative rounding headroom."""
    return lhs > rhs * (1.0 + 1e-12) + 1e-300


def verify_orderings(
    trials: int,
    rng: np.random.Generator,
    parts: Sequence[str] = _ORDERING_PARTS,
    spectrum_modes: int = 200,
) -> OrderingReport:
    """Sample hypothesis-respecting tuples and check threshold orderings.

    Non-minimal parts 1-4 check the matching chi**_i <= chi*; the minimal
    parts additionally check chi**_min <= chi_beta <= 2 chi*. Samples that
    fail a hypothesis gate are re-drawn, never silently checked.
    """
    from .stability import critical_sensitivity

    checked = {p: 0 for p in parts}
    skipped = {p: 0 for p in parts}
    violations: list[OrderingViolation] = []

    for part in parts:
        for _ in range(trials):
            minimal = part.startswith("minimal")
            length = float(rng.uniform(0.5, 2.0 * math.pi))
            mu = float(10.0 ** rng.uniform(-1.0, 1.0))
            nu = float(10.0 ** rng.uniform(-1.0, 1.0))
            if minimal:
                m = 1.0
                beta = float(rng.uniform(1.0, 5.0))
                gamma = 1.0 if part == "minimal-2" else float(10.0 ** rng.uniform(-1.0, 0.5))
                a = b = 0.0
                alpha = 1.0  # unused by the minimal thresholds
                u_star = float(10.0 ** rng.uniform(-1.0, 1.0))
            else:
                a = float(10.0 ** rng.uniform(-1.0, 1.0))
                b = float(10.0 ** rng.uniform(-1.0, 1.0))
                m = float(rng.uniform(1.0, 3.0))
                if part in ("1", "2"):
                    gamma = float(10.0 ** rng.uniform(-1.0, 0.5))
                    alpha = float(max(2.0 * gamma - 1.0, 0.0) + rng.uniform(0.25, 4.0))
                    beta = float(rng.uniform(1.0, 5.0)) if part == "2" else float(
                        rng.uniform(0.0, 5.0)
                    )
                elif part == "3":
                    gamma = float(rng.uniform(1.0, 3.0))
                    alpha = float(m + 2.0 * gamma - 1.0 + rng.uniform(0.0, 4.0))
                    beta = float(rng.uniform(0.0, 5.0))
                else:
                    gamma = float(rng.uniform(1.0, 2.5))
                    alpha = float(m + 2.0 * gamma - 1.0 + rng.uniform(0.0, 4.0))
                    beta = float(rng.uniform(1.0, 5.0))
                u_star = None

            params = ModelParams(
                chi0=0.0, beta=beta, m=m, alpha=alpha, gamma=gamma,
                a=a, b=b, mu=mu, nu=nu,
            )
            if minimal:
                eq = Equilibrium(u_star, (nu / mu) * u_star**gamma)
            else:
                from .core import equilibrium as _equilibrium

                eq = _equilibrium(params)

            domain = GridDomain.interval(length, 8)
            spectrum = neumann_eigenvalues(domain, spectrum_modes)
            chi_star, _ = critical_sensitivity(params, eq, spectrum)
            sample = {
                "beta": beta, "m": m, "alpha": alpha, "gamma": gamma,
                "a": a, "b": b, "mu": mu, "nu": nu, "length": length,
                "u_star": eq.u_star,
            }

            if minimal:
                ubar0 = eq.u_star * float(rng.uniform(1.0, 3.0))
                vlower0 = eq.v_star * float(rng.uniform(0.1, 1.0))
                sample.update(ubar0=ubar0, vlower0=vlower0)
                mins = minimal_thresholds(
                    eq.u_star, gamma, beta, mu, nu, spectrum.lambda_star,
                    ubar0, vlower0, dimension=1,
                )
                lhs = mins.chi_ss2_min if part == "minimal-2" else mins.chi_ss1_min
                lhs_name = "chi**_2_min" if part == "minimal-2" else "chi**_1_min"
                checked[part] += 1
                for rhs_name, rhs in (
                    ("chi*", chi_star),
                    ("chi_beta", mins.chi_beta),
                ):
                    if _violates(lhs, rhs):
                        violations.append(
                            OrderingViolation(part, sample, lhs_name, lhs, rhs_name, rhs)
                        )
                if _violates(mins.chi_beta, 2.0 * chi_star):
                    violations.append(
                        OrderingViolation(
                            part, sample, "chi_beta", mins.chi_beta, "2 chi*",
                            2.0 * chi_star,
                        )
                    )
                continue

            m0 = float(rng.uniform(0.0, 3.0))
            entries = chi_double_star(params, eq, m0=m0)
            entry = entries[int(part) - 1]
            if not entry.applicable or entry.value is None:
                skipped[part] += 1
                continue
            sample["m0"] = m0
            checked[part] += 1
            if _violates(entry.value, chi_star):
                violations.append(
                    OrderingViolation(
                        part, sample, entry.name, entry.value, "chi*", chi_star
                    )
                )

    return OrderingReport(
        checked=checked, skipped=skipped, violations=tuple(violations)
    )


@dataclass(frozen=True)
class AuxConstants:
    """Auxiliary constants shared by the threshold report."""

    theta_beta: float
    c_alpha_gamma: float | None
    tilde_beta: float
    v_lower_ab: float | None
    bar_chi: float | None
    m0: float
    m0_source: str              # "user" or "empirical"
    lambda_star: float
    c_star: CStarSource | None
    k_star: KStarResult | None


def build_aux_constants(
    params: ModelParams,
    spectrum: SpectrumTable,
    dimension: int,
    m0: float,
    m0_source: str,
    c_star: CStarSource | None,
) -> AuxConstants:
    try:
        c_ag = power_diff_constant(params.alpha, params.gamma)
    except HypothesisViolated:
        c_ag = None
    ks = None
    if c_star is not None:
        try:
            ks = k_star(
                dimension, params.alpha, params.gamma, params.mu, params.nu, c_star
            )
        except HypothesisViolated:
            ks = None
    v_lo = None if params.minimal else v_lower_ab(params)
    bc = None
    if not params.minimal and params.beta >= 1.0:
        bc = bar_chi(params)
    return AuxConstants(
        theta_beta=theta(params.beta),
        c_alpha_gamma=c_ag,
        tilde_beta=tilde_beta(params.beta),
        v_lower_ab=v_lo,
        bar_chi=bc,
        m0=m0,
        m0_source=m0_source,
        lambda_star=spectrum.lambda_star,
        c_star=c_star,
        k_star=ks,
    )


@dataclass(frozen=True)
class ThresholdReport:
    """Everything the thresholds CLI emits for one parameter point."""

    chi_star: float
    argmin_mode: int
    chi_beta: ThresholdEntry
    chi_ab: ChiAbBeta | None
    chi_ab_note: str | None
    chi_ss: tuple[ThresholdEntry, ThresholdEntry, ThresholdEntry, ThresholdEntry] | None
    minimal: MinimalThresholds | None
    aux: AuxConstants


def threshold_report(
    params: ModelParams,
    eq: Equilibrium,
    spectrum: SpectrumTable,
    dimension: int,
    m0: float = 0.0,
    m0_source: str = "user",
    c_star: CStarSource | None = None,
    ubar0: float | None = None,
    vlower0: float | None = None,
    minimal_inputs_source: str = "user",
) -> ThresholdReport:
    """Assemble the full threshold report for one parameter point."""
    from .stability import critical_sensitivity

    aux = build_aux_constants(params, spectrum, dimension, m0, m0_source, c_star)
    chi_star_value, argmin_mode = critical_sensitivity(params, eq, spectrum)

    if params.beta >= 1.0:
        cb = ThresholdEntry(
            "chi_beta",
            chi_beta_threshold(params.beta, params.gamma, dimension),
            True,
            "beta >= 1",
        )
    else:
        cb = ThresholdEntry("chi_beta", None, False, "beta >= 1")

    chi_ab = None
    chi_ab_note = None
    try:
        chi_ab = chi_ab_beta(
            params, dimension,
            k_star_value=aux.k_star.value if aux.k_star is not None else None,
        )
    except MissingKStar as exc:
        chi_ab_note = str(exc)

    chi_ss = None
    minimal = None
    if params.minimal:
        if ubar0 is not None and vlower0 is not None:
            minimal = minimal_thresholds(
                eq.u_star, params.gamma, params.beta, params.mu, params.nu,
                spectrum.lambda_star, ubar0, vlower0, dimension,
                inputs_source=minimal_inputs_source,
            )
    else:
        chi_ss = chi_double_star(params, eq, m0=m0)

    return ThresholdReport(
        chi_star=chi_star_value,
        argmin_mode=argmin_mode,
        chi_beta=cb,
        chi_ab=chi_ab,
        chi_ab_note=chi_ab_note,
        chi_ss=chi_ss,
        minimal=minimal,
        aux=aux,
    )
