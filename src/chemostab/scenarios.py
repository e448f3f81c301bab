"""Canned experiments with machine-checkable verdicts.

Each scenario pins a parameter set whose closed-form thresholds are known
exactly, runs the relevant computation (PDE integration, comparison ODE,
or pure threshold evaluation), and returns a verdict mapping with the
claim label, the hypothesis gates that were checked, measured quantities,
expected bounds, and a pass flag. Presets violating their own a-priori
gates raise HypothesisNotMet; measured shortfalls only set pass = false.
No scenario draws random numbers, so repeated runs are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    Equilibrium,
    GridDomain,
    InitSpec,
    ModelParams,
    equilibrium,
    init_state,
    neumann_eigenvalues,
)
from .diagnostics import (
    HypothesisNotMet,
    fit_decay_rate,
    persistence_metrics,
    signal_energy,
)
from .integrator import StepConfig, Trajectory, run
from .rectangle import (
    RectangleTrajectory,
    contraction_tail,
    integrate_rectangle,
    normalize,
    verify_sandwich,
)
from .stability import classify_equilibrium, sigma_n
from .thresholds import (
    chi_beta_threshold,
    chi_double_star,
    minimal_thresholds,
    theta,
    threshold_report,
    v_lower_ab,
)


@dataclass
class ScenarioResult:
    name: str
    verdict: dict
    trajectory: Trajectory | None = None
    rectangle: RectangleTrajectory | None = None


def _verdict(name, theorem, hypotheses, measured, expected, ok) -> dict:
    return {
        "scenario": name,
        "theorem": theorem,
        "hypotheses_checked": hypotheses,
        "measured": measured,
        "expected": expected,
        "pass": bool(ok),
    }


def _require(hypotheses: dict[str, bool], name: str) -> None:
    blocked = [key for key, ok in hypotheses.items() if not ok]
    if blocked:
        raise HypothesisNotMet(f"scenario {name}: gate(s) failed: {', '.join(blocked)}")


def _max_tolerated_increase(values: np.ndarray, tol_scale: float = 1e-8) -> float:
    """Largest increase between consecutive samples net of the tolerance
    1e-8 (1 + current value); <= 0 means monotone within tolerance."""
    values = np.asarray(values, dtype=float)
    if len(values) < 2:
        return 0.0
    diffs = np.diff(values)
    allowance = tol_scale * (1.0 + np.abs(values[:-1]))
    return float(np.max(diffs - allowance))


def _mass_drift(traj: Trajectory) -> float:
    return float(np.max(np.abs(traj.mass - traj.mass[0])) / traj.mass[0])


# Parameter set whose thresholds are exact in floating point:
# u* = v* = 1, chi* = 4 at the first mode, chi**_1 = 4, chi**_3 = 1/2.
_PINNED = dict(beta=0.0, m=1.0, alpha=1.0, gamma=1.0, a=1.0, b=1.0, mu=1.0, nu=1.0)


def _interval(cells: int = 64) -> GridDomain:
    return GridDomain.interval(math.pi, cells)


def scenario_persistence() -> ScenarioResult:
    params = ModelParams(chi0=1.0, beta=1.0, m=1.0, alpha=1.0, gamma=1.0,
                         a=2.0, b=1.0, mu=1.0, nu=1.0)
    grid = _interval()
    eq = equilibrium(params)
    hypotheses = {
        "positive_sensitivity": params.chi0 > 0.0,
        "beta_at_least_one": params.beta >= 1.0,
        "chi0_below_persistence_gate": params.chi0
        < params.a / (params.mu * theta(params.beta - 1.0)),
    }
    _require(hypotheses, "persistence")
    init = init_state(grid, InitSpec.perturbation(eq.u_star, 0.5, 1), params)
    cfg = StepConfig(t_end=20.0, dt=1e-2, dt_policy="cfl", output_stride=10)
    traj = run(params, grid, init, cfg, eq=eq)
    report = persistence_metrics(traj, params)
    measured = {
        "tail_inf_u": report.tail_inf_u,
        "tail_inf_v": report.tail_inf_v,
        "generic_v_bound": report.generic_v_bound,
    }
    expected = {
        "u_floor": report.u_bound,
        "v_floor": report.v_bound,
        "slack": 0.05,
    }
    ok = report.all_met
    return ScenarioResult(
        "persistence",
        _verdict(
            "persistence",
            "eventual density floor under weakly saturated sensitivity",
            hypotheses, measured, expected, ok,
        ),
        trajectory=traj,
    )


def scenario_negative_sensitivity() -> ScenarioResult:
    params = ModelParams(chi0=-1.0, beta=1.0, m=1.0, alpha=1.0, gamma=1.0,
                         a=1.0, b=1.0, mu=1.0, nu=1.0)
    grid = _interval()
    eq = equilibrium(params)
    hypotheses = {"non_positive_sensitivity": params.chi0 <= 0.0,
                  "logistic_source": not params.minimal}
    _require(hypotheses, "negative-sensitivity")
    init = init_state(grid, InitSpec.perturbation(eq.u_star, 0.3, 1), params)
    cfg = StepConfig(t_end=50.0, dt=1e-2, output_stride=50)
    traj = run(params, grid, init, cfg, eq=eq)
    spectrum = neumann_eigenvalues(grid, 200)
    verdict = classify_equilibrium(params, eq, spectrum).verdict
    # The maximum principle pins the peak only while it exceeds u*; below
    # u* the source is free to push it back up, so check max(peak, u*).
    peak_excess = _max_tolerated_increase(
        np.maximum(traj.u_max, eq.u_star), 1e-10
    )
    measured = {
        "final_error": float(traj.err_inf[-1]),
        "peak_monotonicity_excess": peak_excess,
        "stability_verdict": verdict,
    }
    expected = {
        "final_error_max": 1e-6,
        "peak_monotonicity_excess_max": 0.0,
        "stability_verdict": "stable",
    }
    ok = (
        measured["final_error"] <= expected["final_error_max"]
        and peak_excess <= 0.0
        and verdict == "stable"
    )
    return ScenarioResult(
        "negative-sensitivity",
        _verdict(
            "negative-sensitivity",
            "monotone spatial maximum under repulsive sensitivity",
            hypotheses, measured, expected, ok,
        ),
        trajectory=traj,
    )


def _dichotomy_common(chi0: float):
    params = ModelParams(chi0=chi0, **_PINNED)
    grid = _interval()
    eq = equilibrium(params)
    spectrum = neumann_eigenvalues(grid, 200)
    report = classify_equilibrium(params, eq, spectrum)
    return params, grid, eq, report


def scenario_stable_dichotomy() -> ScenarioResult:
    params, grid, eq, report = _dichotomy_common(chi0=3.2)
    hypotheses = {"chi0_below_chi_star": params.chi0 < report.chi_star}
    _require(hypotheses, "stable-dichotomy")
    rate_predicted = -sigma_n(params, eq, neumann_eigenvalues(grid, 1).as_array()[1])
    init = init_state(grid, InitSpec.perturbation(eq.u_star, 0.01, 1), params)
    cfg = StepConfig(t_end=25.0, dt=5e-3, output_stride=20)
    traj = run(params, grid, init, cfg, eq=eq)
    fit = fit_decay_rate(traj.times, traj.err_inf)
    rate_error = abs(fit.rate - rate_predicted) / rate_predicted
    measured = {
        "fitted_decay_rate": fit.rate,
        "fit_r_squared": fit.r_squared,
        "relative_rate_error": rate_error,
        "stability_verdict": report.verdict,
        "chi_star": report.chi_star,
    }
    expected = {
        "decay_rate": float(rate_predicted),
        "relative_rate_error_max": 0.20,
        "stability_verdict": "stable",
        "chi_star": 4.0,
    }
    ok = rate_error <= 0.20 and report.verdict == "stable"
    return ScenarioResult(
        "stable-dichotomy",
        _verdict(
            "stable-dichotomy",
            "exponential mode decay below the critical sensitivity",
            hypotheses, measured, expected, ok,
        ),
        trajectory=traj,
    )


def scenario_unstable_dichotomy() -> ScenarioResult:
    params, grid, eq, report = _dichotomy_common(chi0=4.8)
    hypotheses = {"chi0_above_chi_star": params.chi0 > report.chi_star}
    _require(hypotheses, "unstable-dichotomy")
    init = init_state(grid, InitSpec.perturbation(eq.u_star, 0.01, 1), params)
    cfg = StepConfig(t_end=12.0, dt=5e-3, dt_policy="cfl", output_stride=20)
    traj = run(params, grid, init, cfg, eq=eq)
    growth = float(np.max(traj.err_inf) / traj.err_inf[0])
    measured = {
        "amplification": growth,
        "stability_verdict": report.verdict,
        "chi_star": report.chi_star,
        "fastest_rate": report.sigma_max,
    }
    expected = {
        "amplification_min": 10.0,
        "stability_verdict": "unstable",
        "chi_star": 4.0,
    }
    ok = growth >= 10.0 and report.verdict == "unstable"
    return ScenarioResult(
        "unstable-dichotomy",
        _verdict(
            "unstable-dichotomy",
            "perturbation amplification above the critical sensitivity",
            hypotheses, measured, expected, ok,
        ),
        trajectory=traj,
    )


def scenario_lyapunov_i() -> ScenarioResult:
    params = ModelParams(chi0=1.0, **_PINNED)
    grid = _interval()
    eq = equilibrium(params)
    entries = chi_double_star(params, eq, m0=0.0)
    chi_ss1 = entries[0]
    hypotheses = {
        "power_balance": chi_ss1.applicable,
        "chi0_below_chi_ss1": chi_ss1.value is not None and params.chi0 < chi_ss1.value,
    }
    _require(hypotheses, "lyapunov-i")
    init = init_state(grid, InitSpec.perturbation(eq.u_star, 0.3, 1), params)
    cfg = StepConfig(t_end=20.0, dt=2e-3, output_stride=50)
    traj = run(params, grid, init, cfg, eq=eq)
    excess = _max_tolerated_increase(traj.lyapunov)
    budget_factor = params.b * (1.0 - (params.chi0 / chi_ss1.value) ** 2)
    budget_lhs = budget_factor * float(np.trapezoid(traj.dissipation, traj.times))
    budget_rhs = float(traj.lyapunov[0])
    measured = {
        "energy_initial": budget_rhs,
        "energy_final": float(traj.lyapunov[-1]),
        "monotonicity_excess": excess,
        "dissipation_budget": budget_lhs,
    }
    expected = {
        "chi_ss1": chi_ss1.value,
        "monotonicity_excess_max": 0.0,
        "dissipation_budget_max": 1.10 * budget_rhs,
    }
    ok = excess <= 0.0 and budget_lhs <= 1.10 * budget_rhs
    return ScenarioResult(
        "lyapunov-i",
        _verdict(
            "lyapunov-i",
            "energy descent and dissipation budget below the first smallness threshold",
            hypotheses, measured, expected, ok,
        ),
        trajectory=traj,
    )


def scenario_lyapunov_ii() -> ScenarioResult:
    params = ModelParams(chi0=0.3, beta=1.0, m=1.0, alpha=1.0, gamma=1.0,
                         a=1.0, b=1.0, mu=1.0, nu=1.0)
    grid = _interval()
    eq = equilibrium(params)
    entries = chi_double_star(params, eq, m0=0.0)
    chi_ss2 = entries[1]
    hypotheses = {
        "beta_at_least_one": params.beta >= 1.0,
        "power_balance": chi_ss2.applicable,
        "chi0_below_chi_ss2": chi_ss2.value is not None and params.chi0 < chi_ss2.value,
    }
    _require(hypotheses, "lyapunov-ii")
    init = init_state(grid, InitSpec.perturbation(eq.u_star, 0.3, 1), params)
    cfg = StepConfig(t_end=30.0, dt=2e-3, output_stride=50)
    traj = run(params, grid, init, cfg, eq=eq)
    half = len(traj.lyapunov) // 2
    tail_excess = _max_tolerated_increase(traj.lyapunov[half:])
    measured = {
        "tail_monotonicity_excess": tail_excess,
        "final_error": float(traj.err_inf[-1]),
        "energy_final": float(traj.lyapunov[-1]),
    }
    expected = {
        "chi_ss2": chi_ss2.value,
        "tail_monotonicity_excess_max": 0.0,
        "final_error_max": 1e-6,
    }
    ok = tail_excess <= 0.0 and measured["final_error"] <= 1e-6
    return ScenarioResult(
        "lyapunov-ii",
        _verdict(
            "lyapunov-ii",
            "eventual energy descent below the saturation-improved threshold",
            hypotheses, measured, expected, ok,
        ),
        trajectory=traj,
    )


def _rectangle_scenario(
    name: str,
    theorem: str,
    params: ModelParams,
    m0: float,
    mode: str,
    chi_gate_name: str,
    chi_gate_value: float,
    extra_hypotheses: dict[str, bool],
    check_v_floor: float | None = None,
) -> ScenarioResult:
    grid = _interval()
    eq = equilibrium(params)
    hypotheses = {
        chi_gate_name: params.chi0 < chi_gate_value,
        **extra_hypotheses,
    }
    _require(hypotheses, name)
    rp = normalize(params, eq, m0=m0, mode=mode)
    amplitude = 0.25
    init = init_state(grid, InitSpec.perturbation(eq.u_star, amplitude, 1), params)
    t_end = 45.0
    cfg = StepConfig(t_end=t_end, dt=1e-3, output_stride=100)
    traj = run(params, grid, init, cfg, eq=eq)
    rect = integrate_rectangle(
        rp, ubar0=1.0 + amplitude, ulow0=1.0 - amplitude,
        tau_end=params.a * t_end, dt=1e-3,
    )
    h = max(grid.spacing)
    slack = 5.0 * h**2 + 1e-8
    sandwich = verify_sandwich(rect, traj, eq, slack)
    final_gap, gap_increase, gap_monotone = contraction_tail(rect)
    measured = {
        "sandwich_upper_excess": sandwich.max_upper_excess,
        "sandwich_lower_excess": sandwich.max_lower_excess,
        "envelope_final_gap": final_gap,
        "log_gap_max_increase": gap_increase,
        "contraction": rp.contraction,
    }
    expected = {
        "sandwich_slack": slack,
        "envelope_final_gap_max": 1e-6,
        "log_gap_monotone": True,
        "contraction": True,
        chi_gate_name: chi_gate_value,
    }
    ok = (
        sandwich.ok
        and final_gap <= 1e-6
        and gap_monotone
        and rp.contraction
    )
    if check_v_floor is not None:
        v_min_run = float(np.min(traj.v_min))
        measured["signal_minimum"] = v_min_run
        expected["signal_floor"] = check_v_floor
        ok = ok and v_min_run >= check_v_floor
    return ScenarioResult(
        name,
        _verdict(name, theorem, hypotheses, measured, expected, ok),
        trajectory=traj,
        rectangle=rect,
    )


def scenario_rectangle_iii() -> ScenarioResult:
    params = ModelParams(chi0=0.3, **_PINNED)
    eq = equilibrium(params)
    chi_ss3 = chi_double_star(params, eq, m0=0.0)[2]
    return _rectangle_scenario(
        "rectangle-iii",
        "envelope contraction of the extremal comparison pair",
        params,
        m0=0.0,
        mode="plain",
        chi_gate_name="chi0_below_chi_ss3",
        chi_gate_value=chi_ss3.value,
        extra_hypotheses={"power_balance": chi_ss3.applicable},
    )


def scenario_rectangle_iv() -> ScenarioResult:
    params = ModelParams(chi0=0.35, beta=1.0, m=1.0, alpha=2.0, gamma=1.0,
                         a=1.0, b=1.0, mu=1.0, nu=1.0)
    eq = equilibrium(params)
    m0 = 1.0  # illustrative gradient-estimate constant, fixed for determinism
    entries = chi_double_star(params, eq, m0=m0)
    chi_ss4 = entries[3]
    return _rectangle_scenario(
        "rectangle-iv",
        "envelope contraction with signal-floor gain on the sensitivity",
        params,
        m0=m0,
        mode="signal-floor",
        chi_gate_name="chi0_below_chi_ss4",
        chi_gate_value=chi_ss4.value,
        extra_hypotheses={
            "beta_at_least_one": params.beta >= 1.0,
            "power_balance": chi_ss4.applicable,
        },
        check_v_floor=v_lower_ab(params),
    )


def _minimal_common(chi0: float, store_snapshots: bool = False):
    params = ModelParams(chi0=chi0, beta=1.0, m=1.0, alpha=1.0, gamma=1.0,
                         a=0.0, b=0.0, mu=1.0, nu=1.0)
    grid = _interval()
    init = init_state(grid, InitSpec.perturbation(1.0, 0.3, 1), params)
    cfg = StepConfig(t_end=20.0, dt=2e-3, output_stride=50,
                     store_snapshots=store_snapshots)
    traj = run(params, grid, init, cfg)
    eq = traj.eq
    spectrum = neumann_eigenvalues(grid, 200)
    chi_b = chi_beta_threshold(params.beta, params.gamma, grid.dimension)
    mins = minimal_thresholds(
        eq.u_star, params.gamma, params.beta, params.mu, params.nu,
        spectrum.lambda_star,
        ubar0=float(np.max(traj.u_max)),
        vlower0=float(np.min(traj.v_min)),
        dimension=grid.dimension,
        inputs_source="empirical",
    )
    return params, traj, eq, chi_b, mins


def scenario_minimal_entropy() -> ScenarioResult:
    params, traj, eq, chi_b, mins = _minimal_common(chi0=0.3)
    hypotheses = {
        "beta_at_least_one": params.beta >= 1.0,
        "chi0_below_half_chi_beta": params.chi0 < chi_b / 2.0,
        "chi0_below_sqrt_chi_beta": params.chi0 < math.sqrt(chi_b),
        "chi0_below_chi_ss1_min_empirical": params.chi0 < mins.chi_ss1_min,
    }
    _require(hypotheses, "minimal-entropy")
    excess = _max_tolerated_increase(traj.lyapunov)
    measured = {
        "entropy_monotonicity_excess": excess,
        "final_error": float(traj.err_inf[-1]),
        "mass_drift": _mass_drift(traj),
        "chi_ss1_min": mins.chi_ss1_min,
    }
    expected = {
        "entropy_monotonicity_excess_max": 0.0,
        "final_error_max": 1e-6,
        "mass_drift_max": 1e-8,
    }
    ok = (
        excess <= 0.0
        and measured["final_error"] <= 1e-6
        and measured["mass_drift"] <= 1e-8
    )
    return ScenarioResult(
        "minimal-entropy",
        _verdict(
            "minimal-entropy",
            "entropy descent for the mass-conserving model",
            hypotheses, measured, expected, ok,
        ),
        trajectory=traj,
    )


def scenario_minimal_akl() -> ScenarioResult:
    params, traj, eq, chi_b, mins = _minimal_common(chi0=0.3, store_snapshots=True)
    hypotheses = {
        "gamma_is_one": params.gamma == 1.0,
        "beta_at_least_one": params.beta >= 1.0,
        "chi0_below_chi_ss2_min_empirical": mins.chi_ss2_min is not None
        and params.chi0 < mins.chi_ss2_min,
    }
    _require(hypotheses, "minimal-akl")
    grid = traj.grid
    energies = np.asarray(
        [signal_energy(state.v, eq.v_star, grid, params.mu)
         for state in traj.snapshots]
    )
    excess = _max_tolerated_increase(energies)
    measured = {
        "signal_energy_initial": float(energies[0]),
        "signal_energy_final": float(energies[-1]),
        "signal_energy_monotonicity_excess": excess,
        "chi_ss2_min": mins.chi_ss2_min,
    }
    expected = {
        "signal_energy_monotonicity_excess_max": 0.0,
    }
    ok = excess <= 0.0
    return ScenarioResult(
        "minimal-akl",
        _verdict(
            "minimal-akl",
            "signal-energy descent for the mass-conserving model",
            hypotheses, measured, expected, ok,
        ),
        trajectory=traj,
    )


def scenario_thresholds_only() -> ScenarioResult:
    params = ModelParams(chi0=1.0, **_PINNED)
    grid = _interval()
    eq = equilibrium(params)
    spectrum = neumann_eigenvalues(grid, 1000)
    report = threshold_report(params, eq, spectrum, grid.dimension, m0=0.0)
    tol = 1e-14
    checks = {
        "chi_star": (report.chi_star, 4.0),
        "chi_ss1": (report.chi_ss[0].value, 4.0),
        "chi_ss3": (report.chi_ss[2].value, 0.5),
        "theta_beta_one": (theta(1.0), 0.25),
        "c_alpha_gamma": (report.aux.c_alpha_gamma, 1.0),
    }
    measured = {key: pair[0] for key, pair in checks.items()}
    measured["argmin_mode"] = report.argmin_mode
    expected = {key: pair[1] for key, pair in checks.items()}
    expected["argmin_mode"] = 1
    expected["tolerance"] = tol
    ok = report.argmin_mode == 1 and all(
        value is not None and abs(value - target) <= tol
        for value, target in checks.values()
    )
    return ScenarioResult(
        "thresholds-only",
        _verdict(
            "thresholds-only",
            "closed-form threshold evaluation at an exactly representable point",
            {"logistic_source": not params.minimal}, measured, expected, ok,
        ),
    )


def scenario_sweep() -> ScenarioResult:
    grid = _interval()
    spectrum = neumann_eigenvalues(grid, 1000)
    chi_values = (0.5, 2.0, 3.9, 4.0, 4.1, 6.0)
    expected_verdicts = ["stable", "stable", "stable", "critical",
                         "unstable", "unstable"]
    rows = []
    verdicts = []
    for chi0 in chi_values:
        params = ModelParams(chi0=chi0, **_PINNED)
        eq = equilibrium(params)
        report = classify_equilibrium(params, eq, spectrum)
        verdicts.append(report.verdict)
        rows.append(
            {
                "chi0": chi0,
                "verdict": report.verdict,
                "chi_star": report.chi_star,
                "sigma_max": report.sigma_max,
            }
        )
    measured = {"verdicts": verdicts, "rows": rows}
    expected = {"verdicts": expected_verdicts}
    ok = verdicts == expected_verdicts
    return ScenarioResult(
        "sweep",
        _verdict(
            "sweep",
            "stability verdicts across a sensitivity sweep",
            {"logistic_source": True}, measured, expected, ok,
        ),
    )


SCENARIOS: dict[str, Callable[[], ScenarioResult]] = {
    "persistence": scenario_persistence,
    "negative-sensitivity": scenario_negative_sensitivity,
    "stable-dichotomy": scenario_stable_dichotomy,
    "unstable-dichotomy": scenario_unstable_dichotomy,
    "lyapunov-i": scenario_lyapunov_i,
    "lyapunov-ii": scenario_lyapunov_ii,
    "rectangle-iii": scenario_rectangle_iii,
    "rectangle-iv": scenario_rectangle_iv,
    "minimal-entropy": scenario_minimal_entropy,
    "minimal-akl": scenario_minimal_akl,
    "thresholds-only": scenario_thresholds_only,
    "sweep": scenario_sweep,
}


def run_scenario(name: str) -> ScenarioResult:
    if name not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise ValueError(f"unknown scenario {name!r}; choose one of: {known}")
    return SCENARIOS[name]()
