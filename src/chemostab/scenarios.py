"""Canned experiments with machine-checkable verdicts.

Each scenario pins a parameter set whose closed-form thresholds are known
exactly, runs the relevant computation (PDE integration, comparison ODE,
or pure threshold evaluation), and returns a verdict mapping with the
claim label, the hypothesis gates that were checked, measured quantities,
expected bounds, and a pass flag. Presets violating their own a-priori
gates raise HypothesisNotMet; measured shortfalls only set pass = false.
No scenario draws random numbers, so repeated runs are byte-identical.

`pass` checks every `_max`/`_min` entry of `expected` (see `_meets`) and the
other entries a scenario names as equalities, so each checked bound is
written once, in the verdict that reports it. The few checks that do not fit
its naming, such as the rectangle's sandwich, are written out where a
scenario computes `ok`, from the values it reports.
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
    contraction_tail,
    integrate_rectangle,
    normalize,
    verify_sandwich,
)
from .stability import classify_equilibrium, sigma_n
from .thresholds import (
    chi_double_star,
    theta,
    threshold_report,
    v_lower_ab,
)


@dataclass
class ScenarioResult:
    name: str
    verdict: dict
    trajectory: Trajectory | None = None


def _result(name, theorem, hypotheses, measured, expected, ok=True, equal=(),
            trajectory=None) -> ScenarioResult:
    """The verdict; it passes when `ok`, every `_max`/`_min` bound of
    `expected` and the `equal` entries of `expected` hold for `measured`."""
    bounds = [key for key in expected if key.endswith(("_max", "_min"))]
    verdict = {
        "scenario": name,
        "theorem": theorem,
        "hypotheses_checked": hypotheses,
        "measured": measured,
        "expected": expected,
        "pass": bool(ok) and _meets(measured, expected, *bounds, *equal),
    }
    return ScenarioResult(name, verdict, trajectory)


def _meets(measured: dict, expected: dict, *keys: str) -> bool:
    """Whether the named entries of `expected` hold for `measured`:
    `<stem>_max` bounds measured[stem] from above, `<stem>_min` from below,
    and any other key must equal measured[key]. NaN meets no bound."""

    def holds(key: str) -> bool:
        if key.endswith("_max"):
            return measured[key[:-4]] <= expected[key]
        if key.endswith("_min"):
            return measured[key[:-4]] >= expected[key]
        return measured[key] == expected[key]

    return all(holds(key) for key in keys)


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
    diffs = values[1:] - values[:-1]
    allowance = tol_scale * (1.0 + np.abs(values[:-1]))
    return float(np.max(diffs - allowance))


# Parameter set whose thresholds are exact in floating point:
# u* = v* = 1, chi* = 4 at the first mode, chi**_1 = 4, chi**_3 = 1/2.
_PINNED = dict(beta=0.0, m=1.0, alpha=1.0, gamma=1.0, a=1.0, b=1.0, mu=1.0, nu=1.0)


def _interval() -> GridDomain:
    return GridDomain.interval(math.pi, 64)


def _perturbed_run(params: ModelParams, eq: Equilibrium | None, amplitude: float,
                   **cfg) -> Trajectory:
    """Run from the mode-1 perturbation of `amplitude` on the 64-cell interval,
    about u* of `eq`, or about 1 with `eq` None (the minimal model, whose run
    takes its equilibrium from the initial mass), with StepConfig(**cfg)."""
    grid = _interval()
    level = 1.0 if eq is None else eq.u_star
    init = init_state(grid, InitSpec.perturbation(level, amplitude, 1), params)
    return run(params, grid, init, StepConfig(**cfg), eq=eq)


def scenario_persistence() -> ScenarioResult:
    params = ModelParams(chi0=1.0, beta=1.0, m=1.0, alpha=1.0, gamma=1.0,
                         a=2.0, b=1.0, mu=1.0, nu=1.0)
    eq = equilibrium(params)
    hypotheses = {
        "positive_sensitivity": params.chi0 > 0.0,
        "beta_at_least_one": params.beta >= 1.0,
        "chi0_below_persistence_gate": params.chi0
        < params.a / (params.mu * theta(params.beta - 1.0)),
    }
    _require(hypotheses, "persistence")
    traj = _perturbed_run(params, eq, 0.5, t_end=20.0, dt=1e-2, dt_policy="cfl",
                          output_stride=10)
    slack = 0.05
    report = persistence_metrics(traj, params, slack=slack)
    measured = {
        "tail_inf_u": report.tail_inf_u,
        "tail_inf_v": report.tail_inf_v,
        "generic_v_bound": report.generic_v_bound,
    }
    expected = {
        "u_floor": report.u_bound,
        "v_floor": report.v_bound,
        "slack": slack,
    }
    return _result(
        "persistence", "eventual density floor under weakly saturated sensitivity",
        hypotheses, measured, expected, report.all_met, trajectory=traj,
    )


def scenario_negative_sensitivity() -> ScenarioResult:
    params = ModelParams(chi0=-1.0, beta=1.0, m=1.0, alpha=1.0, gamma=1.0,
                         a=1.0, b=1.0, mu=1.0, nu=1.0)
    eq = equilibrium(params)
    hypotheses = {"non_positive_sensitivity": params.chi0 <= 0.0,
                  "logistic_source": not params.minimal}
    _require(hypotheses, "negative-sensitivity")
    traj = _perturbed_run(params, eq, 0.3, t_end=50.0, dt=1e-2, output_stride=50)
    spectrum = neumann_eigenvalues(traj.grid, 200)
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
    return _result(
        "negative-sensitivity", "monotone spatial maximum under repulsive sensitivity",
        hypotheses, measured, expected, equal=("stability_verdict",), trajectory=traj,
    )


def _dichotomy_common(chi0: float):
    params = ModelParams(chi0=chi0, **_PINNED)
    eq = equilibrium(params)
    spectrum = neumann_eigenvalues(_interval(), 200)
    report = classify_equilibrium(params, eq, spectrum)
    return params, eq, spectrum, report


def scenario_stable_dichotomy() -> ScenarioResult:
    params, eq, spectrum, report = _dichotomy_common(chi0=3.2)
    hypotheses = {"chi0_below_chi_star": params.chi0 < report.chi_star}
    _require(hypotheses, "stable-dichotomy")
    rate_predicted = -sigma_n(params, eq, spectrum.lambda_star)
    traj = _perturbed_run(params, eq, 0.01, t_end=25.0, dt=5e-3, output_stride=20)
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
    return _result(
        "stable-dichotomy", "exponential mode decay below the critical sensitivity",
        hypotheses, measured, expected, equal=("stability_verdict",), trajectory=traj,
    )


def scenario_unstable_dichotomy() -> ScenarioResult:
    params, eq, _, report = _dichotomy_common(chi0=4.8)
    hypotheses = {"chi0_above_chi_star": params.chi0 > report.chi_star}
    _require(hypotheses, "unstable-dichotomy")
    traj = _perturbed_run(params, eq, 0.01, t_end=12.0, dt=5e-3, dt_policy="cfl",
                          output_stride=20)
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
    return _result(
        "unstable-dichotomy", "perturbation amplification above the critical sensitivity",
        hypotheses, measured, expected, equal=("stability_verdict",), trajectory=traj,
    )


def scenario_lyapunov_i() -> ScenarioResult:
    params = ModelParams(chi0=1.0, **_PINNED)
    eq = equilibrium(params)
    chi_ss1 = chi_double_star(params, eq, m0=0.0)[0]
    hypotheses = {
        "power_balance": chi_ss1.applicable,
        "chi0_below_chi_ss1": chi_ss1.value is not None and params.chi0 < chi_ss1.value,
    }
    _require(hypotheses, "lyapunov-i")
    traj = _perturbed_run(params, eq, 0.3, t_end=20.0, dt=2e-3, output_stride=50)
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
    return _result(
        "lyapunov-i",
        "energy descent and dissipation budget below the first smallness threshold",
        hypotheses, measured, expected, trajectory=traj,
    )


def scenario_lyapunov_ii() -> ScenarioResult:
    params = ModelParams(chi0=0.3, beta=1.0, m=1.0, alpha=1.0, gamma=1.0,
                         a=1.0, b=1.0, mu=1.0, nu=1.0)
    eq = equilibrium(params)
    chi_ss2 = chi_double_star(params, eq, m0=0.0)[1]
    hypotheses = {
        "beta_at_least_one": params.beta >= 1.0,
        "power_balance": chi_ss2.applicable,
        "chi0_below_chi_ss2": chi_ss2.value is not None and params.chi0 < chi_ss2.value,
    }
    _require(hypotheses, "lyapunov-ii")
    traj = _perturbed_run(params, eq, 0.3, t_end=30.0, dt=2e-3, output_stride=50)
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
    return _result(
        "lyapunov-ii", "eventual energy descent below the saturation-improved threshold",
        hypotheses, measured, expected, trajectory=traj,
    )


def _rectangle_scenario(
    name: str,
    theorem: str,
    params: ModelParams,
    m0: float,
    mode: str,
    index: int,
    extra_hypotheses: dict[str, bool],
    check_v_floor: float | None = None,
) -> ScenarioResult:
    """Sandwich and envelope contraction below chi**_{index + 1}, the entry
    `index` of `chi_double_star`."""
    eq = equilibrium(params)
    chi_ss = chi_double_star(params, eq, m0=m0)[index]
    gate = f"chi0_below_chi_ss{index + 1}"
    hypotheses = {
        gate: params.chi0 < chi_ss.value,
        **extra_hypotheses,
        "power_balance": chi_ss.applicable,
    }
    _require(hypotheses, name)
    rp = normalize(params, eq, m0=m0, mode=mode)
    amplitude, t_end = 0.25, 45.0
    traj = _perturbed_run(params, eq, amplitude, t_end=t_end, dt=1e-3, output_stride=100)
    rect = integrate_rectangle(
        rp, ubar0=1.0 + amplitude, ulow0=1.0 - amplitude,
        tau_end=params.a * t_end, dt=1e-3,
    )
    h = max(traj.grid.spacing)
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
        gate: chi_ss.value,
    }
    ok = sandwich.ok and gap_monotone
    if check_v_floor is not None:
        v_min_run = float(np.min(traj.v_min))
        measured["signal_minimum"] = v_min_run
        expected["signal_floor"] = check_v_floor
        ok = ok and v_min_run >= check_v_floor
    return _result(name, theorem, hypotheses, measured, expected, ok,
                   equal=("contraction",), trajectory=traj)


def scenario_rectangle_iii() -> ScenarioResult:
    return _rectangle_scenario(
        "rectangle-iii", "envelope contraction of the extremal comparison pair",
        ModelParams(chi0=0.3, **_PINNED), m0=0.0, mode="plain", index=2,
        extra_hypotheses={},
    )


def scenario_rectangle_iv() -> ScenarioResult:
    params = ModelParams(chi0=0.35, beta=1.0, m=1.0, alpha=2.0, gamma=1.0,
                         a=1.0, b=1.0, mu=1.0, nu=1.0)
    return _rectangle_scenario(
        "rectangle-iv", "envelope contraction with signal-floor gain on the sensitivity",
        # m0 is an illustrative gradient-estimate constant, fixed for determinism.
        params, m0=1.0, mode="signal-floor", index=3,
        extra_hypotheses={"beta_at_least_one": params.beta >= 1.0},
        check_v_floor=v_lower_ab(params),
    )


def _minimal_common(chi0: float, store_snapshots: bool = False):
    params = ModelParams(chi0=chi0, beta=1.0, m=1.0, alpha=1.0, gamma=1.0,
                         a=0.0, b=0.0, mu=1.0, nu=1.0)
    traj = _perturbed_run(params, None, 0.3, t_end=20.0, dt=2e-3, output_stride=50,
                          store_snapshots=store_snapshots)
    eq, grid = traj.eq, traj.grid
    report = threshold_report(params, eq, neumann_eigenvalues(grid, 200), grid.dimension,
                              calibration=traj)
    chi_b, mins = report.chi_beta.value, report.minimal
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
        "mass_drift": traj.mass_drift,
        "chi_ss1_min": mins.chi_ss1_min,
    }
    expected = {
        "entropy_monotonicity_excess_max": 0.0,
        "final_error_max": 1e-6,
        "mass_drift_max": 1e-8,
    }
    return _result(
        "minimal-entropy", "entropy descent for the mass-conserving model",
        hypotheses, measured, expected, trajectory=traj,
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
    expected = {"signal_energy_monotonicity_excess_max": 0.0}
    return _result(
        "minimal-akl", "signal-energy descent for the mass-conserving model",
        hypotheses, measured, expected, trajectory=traj,
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
    ok = all(value is not None and abs(value - target) <= tol
             for value, target in checks.values())
    return _result(
        "thresholds-only", "closed-form threshold evaluation at an exactly representable point",
        {"logistic_source": not params.minimal}, measured, expected, ok,
        equal=("argmin_mode",),
    )


def scenario_sweep() -> ScenarioResult:
    grid = _interval()
    spectrum = neumann_eigenvalues(grid, 1000)
    rows = []
    for chi0 in (0.5, 2.0, 3.9, 4.0, 4.1, 6.0):
        params = ModelParams(chi0=chi0, **_PINNED)
        report = classify_equilibrium(params, equilibrium(params), spectrum)
        rows.append({"chi0": chi0, "verdict": report.verdict,
                     "chi_star": report.chi_star, "sigma_max": report.sigma_max})
    measured = {"verdicts": [row["verdict"] for row in rows], "rows": rows}
    expected = {"verdicts": ["stable", "stable", "stable", "critical",
                             "unstable", "unstable"]}
    return _result(
        "sweep", "stability verdicts across a sensitivity sweep",
        {"logistic_source": True}, measured, expected, equal=("verdicts",),
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
