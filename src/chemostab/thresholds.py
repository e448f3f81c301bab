"""Explicit sensitivity thresholds and their ordering checks.

Every closed-form threshold of the model lives here: the saturation
constants Theta_beta, the power-difference constant C_{alpha,gamma}, the
boundedness thresholds chi_beta and chi_{a,b,beta} (the latter through the
user-supplied elliptic-regularity constant C*_{N,p}), the four global
stability thresholds chi**_1..chi**_4, and the minimal-model thresholds.
`verify_orderings` samples hypothesis-respecting parameter tuples and
confirms numerically that every applicable stability threshold sits below
the critical sensitivity.

The formulas are elementwise: given arrays of coefficients they evaluate a
whole batch of samples at once, which is how `verify_orderings` uses them,
and given floats they return the floats and records the scalar API has
always returned.
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
    _logistic_density,
    _signal_level,
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


def _where(cond, then, *args, otherwise=None):
    """Elementwise `then(*args)` where `cond` holds and `otherwise(*args)`
    (NaN when None) elsewhere.

    Each side sees only its own entries, so a formula is never evaluated
    outside its gate: no overflow, division by zero or negative base comes
    from entries it does not apply to. A scalar `cond` takes a plain
    branch, so float inputs give exactly the floats of straight-line code.
    """
    if not isinstance(cond, np.ndarray) or cond.ndim == 0:
        if cond:
            return then(*args)
        return math.nan if otherwise is None else otherwise(*args)
    cond, *args = np.broadcast_arrays(cond, *args)
    out = np.full(cond.shape, math.nan)
    for side, func in ((cond, then), (~cond, otherwise)):
        if func is not None:
            # Integer indices gather and scatter several times faster than
            # a boolean mask with scattered entries.
            at = np.nonzero(side)
            out[at] = func(*(x[at] for x in args))
    return out


def _plain(x):
    """A float for scalar input, the array otherwise."""
    return x if isinstance(x, np.ndarray) and x.ndim else float(x)


def _any(mask) -> bool:
    """True if any entry of a boolean array (or a single bool) holds."""
    return bool(mask.any()) if isinstance(mask, np.ndarray) else bool(mask)


def theta(beta):
    """Theta_beta = beta^beta (1+beta)^-(1+beta), the sharp bound for
    s / (1+s)^(1+beta) over s > 0. Theta_0 = 1 (the limit value)."""
    if _any(beta < 0.0):
        raise HypothesisViolated(f"theta needs beta >= 0, got {beta}")
    return beta**beta * (1.0 + beta) ** (-(1.0 + beta))


def tilde_beta(beta):
    """[1 and (2 beta - 1)]_+ : clamp 2 beta - 1 into [0, 1]."""
    return _plain(np.minimum(1.0, np.maximum(0.0, 2.0 * beta - 1.0)))


def power_diff_constant(alpha, gamma):
    """Constant C_{alpha,gamma} of the power-difference inequality.

    Valid when 2 gamma <= alpha + 1. Branches:
      (alpha+1)^2 / (4 alpha)   for 0 < alpha < 1
      1                         for alpha >= 1 and 0 < gamma <= 1
      gamma^2 / (2 gamma - 1)   for alpha >= 1 and gamma > 1
    Raises if any entry of array input lies outside the validity region.
    """
    if _any(alpha <= 0.0) or _any(gamma <= 0.0):
        raise HypothesisViolated(f"need alpha, gamma > 0, got {alpha}, {gamma}")
    if _any(2.0 * gamma > alpha + 1.0):
        raise HypothesisViolated(
            f"power-difference constant needs 2 gamma <= alpha + 1, "
            f"got gamma = {gamma}, alpha = {alpha}"
        )
    steep = _where(gamma > 1.0, lambda g: g**2 / (2.0 * g - 1.0), gamma,
                   otherwise=lambda g: 1.0)
    return _where(
        alpha < 1.0, lambda al, c: (al + 1.0) ** 2 / (4.0 * al), alpha, steep,
        otherwise=lambda al, c: c,
    )


def chi_beta_threshold(beta, gamma, dimension: int):
    """Boundedness threshold 2 (2 beta - 1) / max{2, gamma N} for beta >= 1."""
    if _any(beta < 1.0):
        raise BetaBelowOne(f"chi_beta needs beta >= 1, got {beta}")
    return _plain(2.0 * (2.0 * beta - 1.0) / np.maximum(2.0, gamma * dimension))


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


def m_star(p: float, mu: float, nu: float, c_star_np: CStarSource | None) -> float:
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
        values.append(m_star(p, mu, nu, c_star_np) ** (gamma / (q + alpha)))
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
    return float(_bar_chi(params.a, params.b, params.m, params.mu, params.beta))


def _bar_chi(a, b, m, mu, beta):
    """bar chi from raw coefficients with beta >= 1; elementwise."""
    return _where(
        m == 1.0, lambda a, b, mu, t: a / (2.0 * mu * t), a, b, mu, theta(beta - 1.0),
        otherwise=lambda a, b, mu, t: b / (mu * t),
    )


def v_lower_ab(params: ModelParams) -> float:
    """Eventual signal floor used by the improved thresholds."""
    return float(_v_lower_ab(
        params.a, params.b, params.m, params.alpha, params.gamma, params.mu, params.nu
    ))


def _v_lower_ab(a, b, m, alpha, gamma, mu, nu):
    """v_lower_ab from raw coefficients; elementwise."""
    ratio = a / (2.0 * b)
    power = _where(
        m == 1.0, lambda r, m, al, g: r ** (g / al), ratio, m, alpha, gamma,
        otherwise=lambda r, m, al, g: _density_floor(r, m, al) ** g,
    )
    return (nu / mu) * power


def _density_floor(ratio, m, alpha):
    """Eventual density floor for m > 1: 1 when ratio >= 1, otherwise
    ratio^max{1/(m-1), 1/alpha}. The exponent blows up as m -> 1+;
    powering a ratio < 1 can only underflow, which is the correct limit,
    never overflow."""
    return _where(
        ratio >= 1.0, lambda r, m, al: 1.0, ratio, m, alpha,
        otherwise=lambda r, m, al: r ** np.maximum(1.0 / (m - 1.0), 1.0 / al),
    )


@dataclass(frozen=True)
class ThresholdEntry:
    """One threshold with its parameter-level applicability gate."""

    name: str
    value: float | None        # None when not evaluable; never NaN
    applicable: bool
    hypothesis: str


_CHI_SS_ENTRIES = (
    ("chi**_1", "m >= 1 and alpha + 1 >= 2 gamma"),
    ("chi**_2", "m >= 1, beta >= 1, alpha + 1 >= 2 gamma"),
    ("chi**_3", "m >= 1, gamma >= 1, alpha + 1 >= m + gamma + sign(beta) gamma"),
    ("chi**_4", "m >= 1, beta >= 1, gamma >= 1, alpha + 1 >= m + 2 gamma"),
)


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
    values = _chi_double_star_values(
        params.a, params.b, params.m, params.alpha, params.gamma, params.beta,
        params.mu, params.nu, eq.u_star, eq.v_star, m0,
    )
    return tuple(
        ThresholdEntry(name, None if math.isnan(value) else float(value), bool(ok), hyp)
        for (name, hyp), (value, ok) in zip(_CHI_SS_ENTRIES, values)
    )


def _chi_double_star_values(a, b, m, alpha, gamma, beta, mu, nu, u, v, m0):
    """(value, applicable) of chi**_1..4 from raw coefficients; elementwise.

    A value is NaN where it cannot be evaluated. The constants that need a
    gate (C_{alpha,gamma}, bar chi, v_lower_ab) are evaluated only where
    it holds, and their NaN carries through the thresholds built on them.
    """
    two_gamma_ok = alpha + 1.0 >= 2.0 * gamma
    beta_ok = beta >= 1.0
    c_ag = _where(two_gamma_ok, power_diff_constant, alpha, gamma)
    bar = _where(beta_ok, _bar_chi, a, b, m, mu, beta)
    floor = _where(beta_ok, _v_lower_ab, a, b, m, alpha, gamma, mu, nu)
    u_power = u ** (2.0 * gamma - alpha + 2.0 * m - 2.0)
    denominator = (2.0 * m - 1.0) * nu**2 * c_ag * u_power

    value1 = np.sqrt(b * 16.0 * (1.0 + tilde_beta(beta) * v) * mu / denominator)
    improved = np.sqrt(b * 16.0 * (1.0 + floor) ** (2.0 * beta) * mu / denominator)
    value2 = np.minimum(bar, improved)
    value3 = (a / (nu * u ** (m + gamma - 1.0))) / (2.0 + beta * v * m0**2)
    value4 = np.minimum(bar, (1.0 + floor) ** beta * value3)

    ok3 = (gamma >= 1.0) & (alpha + 1.0 >= m + gamma + np.sign(beta) * gamma)
    ok4 = beta_ok & (gamma >= 1.0) & (alpha + 1.0 >= m + 2.0 * gamma)
    return (
        (value1, two_gamma_ok),
        (value2, two_gamma_ok & beta_ok),
        (value3, ok3),
        (value4, ok4),
    )


def gamma_cap_minimal(u_star, gamma, ubar0):
    """Gamma_gamma(u*): u*^(gamma-1) ubar0 for gamma <= 1, else gamma ubar0^gamma."""
    return _where(
        gamma <= 1.0, lambda u, g, ub: u ** (g - 1.0) * ub, u_star, gamma, ubar0,
        otherwise=lambda u, g, ub: g * ub**g,
    )


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
    chi1, chi2, cb, cap = _minimal_values(
        u_star, gamma, beta, mu, nu, lambda_star, ubar0, vlower0, dimension
    )
    return MinimalThresholds(
        chi_ss1_min=float(chi1),
        chi_ss2_min=None if math.isnan(chi2) else float(chi2),
        chi_beta=float(cb),
        gamma_cap=float(cap),
        ubar0=ubar0,
        vlower0=vlower0,
        inputs_source=inputs_source,
    )


def _minimal_values(
    u_star, gamma, beta, mu, nu, lambda_star, ubar0, vlower0, dimension
):
    """chi**_1_min, chi**_2_min (NaN unless gamma = 1), chi_beta and
    Gamma_gamma(u*); elementwise."""
    cb = chi_beta_threshold(beta, gamma, dimension)
    cap = gamma_cap_minimal(u_star, gamma, ubar0)
    amplification = (1.0 + vlower0) ** beta
    floor = np.minimum(cb / 2.0, np.sqrt(cb))
    chi1 = np.minimum(floor, 2.0 * np.sqrt(mu * lambda_star) * amplification / (nu * cap))
    chi2 = _where(
        gamma == 1.0, lambda f, mu, amp, nu, ub: np.minimum(f, mu * amp / (nu * ub)),
        floor, mu, amplification, nu, ubar0,
    )
    return chi1, chi2, cb, cap


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


def _violates(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """lhs <= rhs expected, elementwise; allow 1e-12 relative rounding headroom."""
    return lhs > rhs * (1.0 + 1e-12) + 1e-300


# Tuples drawn and checked per block; a block's chi* scan holds a few
# (ORDERING_BLOCK, spectrum_modes) arrays, a few MiB each at 200 modes.
ORDERING_BLOCK = 1 << 12


def verify_orderings(
    trials: int,
    rng: np.random.Generator,
    parts: Sequence[str] = _ORDERING_PARTS,
    spectrum_modes: int = 200,
) -> OrderingReport:
    """Sample hypothesis-respecting tuples and check threshold orderings.

    Non-minimal parts 1-4 check the matching chi**_i <= chi*; the minimal
    parts additionally check chi**_min <= chi_beta <= 2 chi*. A sample
    whose chi**_i fails its applicability gate is counted in `skipped` and
    not checked; nothing is re-drawn, so checked + skipped = trials per
    part. chi* is exact on the first `spectrum_modes` Neumann eigenvalues
    of an interval of random length.

    Each part draws its tuples in blocks of ORDERING_BLOCK, one rng call
    per variable, and checks a block with array operations.
    """
    unknown = [part for part in parts if part not in _ORDERING_PARTS]
    if unknown:
        raise ValueError(
            f"unknown ordering parts {unknown}; choose from {', '.join(_ORDERING_PARTS)}"
        )
    unit = neumann_eigenvalues(GridDomain.interval(math.pi, 8), spectrum_modes).as_array()
    checked = {p: 0 for p in parts}
    skipped = {p: 0 for p in parts}
    violations: list[OrderingViolation] = []

    for part in parts:
        for start in range(0, trials, ORDERING_BLOCK):
            size = min(ORDERING_BLOCK, trials - start)
            sample = _draw_ordering_block(part, size, rng)
            checks, gated = _ordering_checks(part, sample, unit)
            count = int(np.count_nonzero(gated))
            checked[part] += count
            skipped[part] += size - count
            failed = [gated & _violates(lhs, rhs) for _, lhs, _, rhs in checks]
            for i in np.flatnonzero(np.any(failed, axis=0)):
                row = {name: float(column[i]) for name, column in sample.items()}
                violations.extend(
                    OrderingViolation(
                        part, row, lhs_name, float(lhs[i]), rhs_name, float(rhs[i])
                    )
                    for (lhs_name, lhs, rhs_name, rhs), flags in zip(checks, failed)
                    if flags[i]
                )

    return OrderingReport(
        checked=checked, skipped=skipped, violations=tuple(violations)
    )


def _draw_ordering_block(
    part: str, size: int, rng: np.random.Generator
) -> dict[str, np.ndarray]:
    """`size` hypothesis-respecting tuples for one part, one column per
    variable: the coefficients, the interval length, the equilibrium, and
    the bounds ubar0, vlower0 (minimal parts) or the gradient-estimate
    constant m0 (parts 1-4)."""

    def log_uniform(low: float, high: float) -> np.ndarray:
        return 10.0 ** rng.uniform(low, high, size)

    length = rng.uniform(0.5, 2.0 * math.pi, size)
    mu = log_uniform(-1.0, 1.0)
    nu = log_uniform(-1.0, 1.0)
    if part.startswith("minimal"):
        ones, zeros = np.ones(size), np.zeros(size)
        m, a, b = ones, zeros, zeros
        alpha = ones  # unused by the minimal thresholds
        beta = rng.uniform(1.0, 5.0, size)
        gamma = ones if part == "minimal-2" else log_uniform(-1.0, 0.5)
        u_star = log_uniform(-1.0, 1.0)
    else:
        a = log_uniform(-1.0, 1.0)
        b = log_uniform(-1.0, 1.0)
        m = rng.uniform(1.0, 3.0, size)
        if part in ("1", "2"):
            gamma = log_uniform(-1.0, 0.5)
            alpha = np.maximum(2.0 * gamma - 1.0, 0.0) + rng.uniform(0.25, 4.0, size)
            beta = rng.uniform(1.0 if part == "2" else 0.0, 5.0, size)
        else:
            gamma = rng.uniform(1.0, 3.0 if part == "3" else 2.5, size)
            alpha = m + 2.0 * gamma - 1.0 + rng.uniform(0.0, 4.0, size)
            beta = rng.uniform(0.0 if part == "3" else 1.0, 5.0, size)
        u_star = _logistic_density(a, b, alpha)
    v_star = _signal_level(u_star, gamma, mu, nu)
    sample = {
        "beta": beta, "m": m, "alpha": alpha, "gamma": gamma, "a": a, "b": b,
        "mu": mu, "nu": nu, "length": length, "u_star": u_star, "v_star": v_star,
    }
    if part.startswith("minimal"):
        sample["ubar0"] = u_star * rng.uniform(1.0, 3.0, size)
        sample["vlower0"] = v_star * rng.uniform(0.1, 1.0, size)
    else:
        sample["m0"] = rng.uniform(0.0, 3.0, size)
    return sample


def _ordering_checks(part: str, sample: dict[str, np.ndarray], unit: np.ndarray):
    """The orderings one part checks on a drawn block.

    `unit` is the Neumann spectrum of [0, pi]; an interval of length L has
    it scaled by (pi/L)^2. Returns the (lhs_name, lhs, rhs_name, rhs)
    array checks and the mask of rows whose applicability gate holds.
    """
    from .stability import _candidates, _certified_minimum, _gain

    s = sample
    lam = unit[1:] * ((math.pi / s["length"]) ** 2)[:, None]
    gain = _gain(s["nu"], s["gamma"], s["m"], s["beta"], s["u_star"], s["v_star"])
    chi_star, _ = _certified_minimum(_candidates(
        lam, (s["a"] * s["alpha"])[:, None], s["mu"][:, None], gain[:, None]
    ))
    if part.startswith("minimal"):
        chi1, chi2, cb, _ = _minimal_values(
            s["u_star"], s["gamma"], s["beta"], s["mu"], s["nu"], lam[:, 0],
            s["ubar0"], s["vlower0"], dimension=1,
        )
        if part == "minimal-2":
            lhs_name, lhs = "chi**_2_min", chi2
        else:
            lhs_name, lhs = "chi**_1_min", chi1
        checks = [
            (lhs_name, lhs, "chi*", chi_star),
            (lhs_name, lhs, "chi_beta", cb),
            ("chi_beta", cb, "2 chi*", 2.0 * chi_star),
        ]
        return checks, np.ones(chi_star.shape, dtype=bool)
    value, applicable = _chi_double_star_values(
        s["a"], s["b"], s["m"], s["alpha"], s["gamma"], s["beta"], s["mu"], s["nu"],
        s["u_star"], s["v_star"], s["m0"],
    )[int(part) - 1]
    return [(f"chi**_{part}", value, "chi*", chi_star)], applicable & ~np.isnan(value)


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
