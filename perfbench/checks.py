"""Output checks computed apart from the program.

Every check returns a list of failure strings; an empty list means the
output passed. Each failure string starts with a short code, so that the
benchmark can tell the known fixed-step fault from any other failure.
Nothing here calls into `chemostab`: the stencil, the mass, the growth
ratios and the critical sensitivity are all recomputed from raw arrays and
closed forms.
"""

from __future__ import annotations

import math

import numpy as np

ELLIPTIC_RTOL = 1e-10
MASS_DRIFT_MAX = 1e-8
AMPLIFICATION_MIN = 10.0
CRITICAL_BAND = 1e-12

# Under the "fixed" policy the integrator accumulates time by repeated
# addition and can end with a micro-step, one step more than t_end / dt.
FIXED_STEP_FAULT = "fixed_step_count"


def mirror_laplacian(w: np.ndarray, spacing: tuple[float, ...]) -> np.ndarray:
    """Cell-centred Laplacian with mirror ghost cells (zero-flux faces).

    Face differences are taken first, so that neighbouring values cancel
    exactly and the stencil adds no rounding beyond the field's own.
    """
    lap = np.zeros_like(w, dtype=float)
    for axis, h in enumerate(spacing):
        faces = np.diff(w, axis=axis)
        pad = [(0, 0)] * w.ndim
        pad[axis] = (1, 1)
        lap += np.diff(np.pad(faces, pad), axis=axis) / h**2
    return lap


def signal_residual(u: np.ndarray, v: np.ndarray, params, spacing) -> float:
    """max |(mu - lap_h) v - nu u^gamma| relative to max |nu u^gamma|."""
    rhs = params.nu * u**params.gamma
    residual = params.mu * v - mirror_laplacian(v, spacing) - rhs
    return float(np.abs(residual).max()) / (float(np.abs(rhs).max()) or 1.0)


def check_signal(u: np.ndarray, v: np.ndarray, params, spacing) -> list[str]:
    rel = signal_residual(u, v, params, spacing)
    if not rel <= ELLIPTIC_RTOL:
        return [f"signal_residual: {rel:.3e} > {ELLIPTIC_RTOL:.0e}"]
    return []


def check_positive(u_min_samples: np.ndarray, u_final: np.ndarray, clip_count: int) -> list[str]:
    failures = []
    low = min(float(np.min(u_min_samples)), float(u_final.min()))
    if not low > 0.0:
        failures.append(f"positivity: min u = {low:.3e}")
    if clip_count != 0:
        failures.append(f"clipping: clip_count = {clip_count}")
    return failures


def check_mass(u_init: np.ndarray, u_final: np.ndarray, mass_samples: np.ndarray,
               cell_volume: float) -> list[str]:
    """Relative mass drift of a source-free run, against the initial mass
    summed here, over the recorded samples and the final state."""
    m0 = float(u_init.sum()) * cell_volume
    seen = np.append(np.asarray(mass_samples, dtype=float), float(u_final.sum()) * cell_volume)
    drift = float(np.max(np.abs(seen - m0))) / m0
    if not drift <= MASS_DRIFT_MAX:
        return [f"mass_drift: {drift:.3e} > {MASS_DRIFT_MAX:.0e}"]
    return []


def check_fixed_steps(cfg, steps_taken: int) -> list[str]:
    if cfg.dt_policy != "fixed":
        return []
    expected = round(cfg.t_end / cfg.dt)
    if steps_taken != expected:
        return [f"{FIXED_STEP_FAULT}: {steps_taken} steps, expected {expected}"]
    return []


def sup_deviation(u: np.ndarray, level: float) -> float:
    return float(np.abs(u - level).max())


def check_amplification(u_init: np.ndarray, u_final: np.ndarray, level: float) -> list[str]:
    """The deviation from a linearly unstable level must grow at least 10x."""
    ratio = sup_deviation(u_final, level) / sup_deviation(u_init, level)
    if not ratio >= AMPLIFICATION_MIN:
        return [f"amplification: {ratio:.3g} < {AMPLIFICATION_MIN:g}"]
    return []


def check_approach(u_init: np.ndarray, u_final: np.ndarray, level: float) -> list[str]:
    """A linearly stable run must end closer to the level than it started."""
    before, after = sup_deviation(u_init, level), sup_deviation(u_final, level)
    if not after < before:
        return [f"approach: |u - u*| went from {before:.3e} to {after:.3e}"]
    return []


def check_sandwich(times: np.ndarray, u_max: np.ndarray, u_min: np.ndarray, u_star: float,
                   a: float, tau: np.ndarray, ubar: np.ndarray, ulow: np.ndarray,
                   slack: float) -> list[str]:
    """ulow(a t) - slack <= u / u* <= ubar(a t) + slack at every PDE sample,
    with the envelope interpolated linearly at tau = a t."""
    taus = a * np.asarray(times, dtype=float)
    if not taus.max() <= tau[-1] * (1.0 + 1e-9):
        return [f"sandwich: PDE samples reach tau = {taus.max():.6g} past the envelope's {tau[-1]:.6g}"]
    upper = float(np.max(u_max / u_star - np.interp(taus, tau, ubar)))
    lower = float(np.max(np.interp(taus, tau, ulow) - u_min / u_star))
    if not max(upper, lower) <= slack:
        return [f"sandwich: excess {max(upper, lower):.3e} > slack {slack:.3e}"]
    return []


def check_contraction(ubar: np.ndarray, ulow: np.ndarray, tol: float = 1e-9) -> list[str]:
    """The comparison pair keeps 0 < ulow <= 1 <= ubar and its log-gap never grows."""
    failures = []
    if not (np.all(ulow > 0.0) and np.all(ulow <= 1.0 + tol) and np.all(ubar >= 1.0 - tol)):
        failures.append("contraction: ordering 0 < ulow <= 1 <= ubar broke")
    growth = float(np.max(np.diff(np.log(ubar) - np.log(ulow)))) if len(ubar) > 1 else 0.0
    if not growth <= tol:
        failures.append(f"contraction: log-gap grew by {growth:.3e}")
    return failures


def chi_star_closed_form(params, u_star: float, eigenvalues: np.ndarray) -> float:
    """min over nonzero modes of (1+v*)^beta (lam + a alpha)(mu + lam)
    / (nu gamma u*^(m+gamma-1) lam), with v* = (nu/mu) u*^gamma."""
    lam = np.asarray(eigenvalues, dtype=float)
    lam = lam[lam > 0.0]
    v_star = (params.nu / params.mu) * u_star**params.gamma
    gain = (params.nu * params.gamma * u_star ** (params.m + params.gamma - 1.0)
            / (1.0 + v_star) ** params.beta)
    return float(np.min((lam + params.a * params.alpha) * (params.mu + lam) / (gain * lam)))


def interval_eigenvalues(length: float, n_max: int) -> np.ndarray:
    """(n pi / L)^2 for n = 0..n_max: n^2 on [0, pi]."""
    return (np.arange(n_max + 1) * math.pi / length) ** 2


def expected_verdict(chi0: float, chi_star: float) -> str:
    if abs(chi0 - chi_star) <= CRITICAL_BAND * max(1.0, abs(chi_star)):
        return "critical"
    return "stable" if chi0 < chi_star else "unstable"


def check_chi_star(measured: float, expected: float, label: str) -> list[str]:
    if not abs(measured - expected) <= CRITICAL_BAND * max(1.0, abs(expected)):
        return [f"chi_star: {label} reports {measured!r}, closed form gives {expected!r}"]
    return []


def check_sweep_rows(rows: list[dict], chi_star: float) -> list[str]:
    failures = []
    for row in rows:
        failures += check_chi_star(row["chi_star"], chi_star, f"sweep chi0={row['chi0']}")
        want = expected_verdict(row["chi0"], chi_star)
        if row["verdict"] != want:
            failures.append(f"verdict: chi0={row['chi0']} gave {row['verdict']}, expected {want}")
    return failures


def check_verdict_pass(verdict: dict) -> list[str]:
    if verdict.get("pass") is not True:
        return [f"verdict: scenario {verdict.get('scenario')} did not pass"]
    return []


def check_power_fuzz(violations: int) -> list[str]:
    if violations != 0:
        return [f"power_diff: {violations} violations"]
    return []


def check_ordering_fuzz(report, trials: int) -> list[str]:
    failures = []
    if report.violations:
        failures.append(f"orderings: {len(report.violations)} violations")
    for part, checked in report.checked.items():
        skipped = report.skipped.get(part, 0)
        if checked + skipped != trials:
            failures.append(
                f"orderings: part {part} checked {checked} + skipped {skipped} != {trials}"
            )
    return failures
