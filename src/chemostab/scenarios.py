"""Theorem checks, and the table of points the 12 packaged scenarios run them at.

A check `check_<theorem>(name, params, grid, init, cfg)` tests one result at
the point its arguments give: the coefficients, the grid, the start (an
InitSpec) and the run's StepConfig; `name` labels the verdict. It gates the
hypotheses on its arguments first. A point outside them, or of the other
model (a minimal point, a = b = 0, given to a check of the logistic model, or
the reverse), raises HypothesisNotMet naming each failed gate, before any
work the gates protect: the equilibrium, a threshold, a run. The verdict's
`hypotheses_checked` lists the theorem's gates; the model gate is listed
where a verdict names it (`negative-sensitivity`, `thresholds-only`,
`sweep`). A check then runs through the module-level `run` and `init_state`,
measures, and returns a verdict with the claim, the gates, the measured
values, the expected bounds and a pass flag; a measured shortfall only sets
pass = false. No check draws random numbers, so repeated runs are
byte-identical.

`PRESETS` is the table of scenarios, each a check and its point. Every
preset PDE run starts from the mode-1 perturbation about u* on the 64-cell
interval [0, pi]. `thresholds-only` and `sweep` run nothing, and their
targets are the exact values of the pinned point. `SCENARIOS` maps each name
to a zero-argument callable that runs its preset.

`pass` checks every `_max`/`_min` entry of `expected` (see `_meets`) and the
other entries a check names as equalities, so each checked bound is written
once, in the verdict that reports it. The few checks that do not fit its
naming, such as the rectangle's sandwich, are written out where a check
computes `ok`, from the values it reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .core import (
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
    persistence_floor,
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
    chi_beta_threshold,
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


def _require(hypotheses: dict[str, bool], name: str) -> dict[str, bool]:
    """`hypotheses`, if every gate holds; else HypothesisNotMet naming each
    gate that fails."""
    blocked = [key for key, ok in hypotheses.items() if not ok]
    if blocked:
        raise HypothesisNotMet(f"scenario {name}: gate(s) failed: {', '.join(blocked)}")
    return hypotheses


def _logistic(params: ModelParams, name: str) -> dict[str, bool]:
    return _require({"logistic_source": not params.minimal}, name)


def _minimal(params: ModelParams, name: str) -> None:
    """Refuse a logistic point; a minimal check does not report this gate."""
    _require({"minimal_model": params.minimal}, name)


def _max_tolerated_increase(values: np.ndarray, tol_scale: float = 1e-8) -> float:
    """Largest increase between consecutive samples net of the tolerance
    1e-8 (1 + current value); <= 0 means monotone within tolerance."""
    values = np.asarray(values, dtype=float)
    if len(values) < 2:
        return 0.0
    diffs = values[1:] - values[:-1]
    allowance = tol_scale * (1.0 + np.abs(values[:-1]))
    return float(np.max(diffs - allowance))


def check_persistence(name, params, grid, init, cfg) -> ScenarioResult:
    _logistic(params, name)
    hypotheses = _require({
        "positive_sensitivity": params.chi0 > 0.0,
        "beta_at_least_one": params.beta >= 1.0,
        "chi0_below_persistence_gate": persistence_floor(params)[0] is not None,
    }, name)
    traj = run(params, grid, init_state(grid, init, params), cfg, eq=equilibrium(params))
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
    return _result(name, "eventual density floor under weakly saturated sensitivity",
                   hypotheses, measured, expected, report.all_met, trajectory=traj)


def check_negative_sensitivity(name, params, grid, init, cfg) -> ScenarioResult:
    hypotheses = _require({"non_positive_sensitivity": params.chi0 <= 0.0,
                           "logistic_source": not params.minimal}, name)
    eq = equilibrium(params)
    traj = run(params, grid, init_state(grid, init, params), cfg, eq=eq)
    verdict = classify_equilibrium(params, eq, neumann_eigenvalues(grid, 200)).verdict
    # The maximum principle pins the peak only while it exceeds u*; below
    # u* the source is free to push it back up, so check max(peak, u*).
    peak_excess = _max_tolerated_increase(np.maximum(traj.u_max, eq.u_star), 1e-10)
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
    return _result(name, "monotone spatial maximum under repulsive sensitivity",
                   hypotheses, measured, expected, equal=("stability_verdict",), trajectory=traj)


def check_stable_dichotomy(name, params, grid, init, cfg) -> ScenarioResult:
    _logistic(params, name)
    eq = equilibrium(params)
    spectrum = neumann_eigenvalues(grid, 200)
    report = classify_equilibrium(params, eq, spectrum)
    hypotheses = _require({"chi0_below_chi_star": params.chi0 < report.chi_star}, name)
    rate_predicted = -sigma_n(params, eq, spectrum.lambda_star)
    traj = run(params, grid, init_state(grid, init, params), cfg, eq=eq)
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
        "chi_star": report.chi_star,
    }
    return _result(name, "exponential mode decay below the critical sensitivity",
                   hypotheses, measured, expected, equal=("stability_verdict",), trajectory=traj)


def check_unstable_dichotomy(name, params, grid, init, cfg) -> ScenarioResult:
    _logistic(params, name)
    eq = equilibrium(params)
    report = classify_equilibrium(params, eq, neumann_eigenvalues(grid, 200))
    hypotheses = _require({"chi0_above_chi_star": params.chi0 > report.chi_star}, name)
    traj = run(params, grid, init_state(grid, init, params), cfg, eq=eq)
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
        "chi_star": report.chi_star,
    }
    return _result(name, "perturbation amplification above the critical sensitivity",
                   hypotheses, measured, expected, equal=("stability_verdict",), trajectory=traj)


def check_lyapunov_i(name, params, grid, init, cfg) -> ScenarioResult:
    _logistic(params, name)
    eq = equilibrium(params)
    chi_ss1 = chi_double_star(params, eq, m0=0.0)[0]
    hypotheses = _require({
        "power_balance": chi_ss1.applicable,
        "chi0_below_chi_ss1": chi_ss1.value is not None and params.chi0 < chi_ss1.value,
    }, name)
    traj = run(params, grid, init_state(grid, init, params), cfg, eq=eq)
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
    return _result(name,
                   "energy descent and dissipation budget below the first smallness threshold",
                   hypotheses, measured, expected, trajectory=traj)


def check_lyapunov_ii(name, params, grid, init, cfg) -> ScenarioResult:
    _logistic(params, name)
    eq = equilibrium(params)
    chi_ss2 = chi_double_star(params, eq, m0=0.0)[1]
    hypotheses = _require({
        "beta_at_least_one": params.beta >= 1.0,
        "power_balance": chi_ss2.applicable,
        "chi0_below_chi_ss2": chi_ss2.value is not None and params.chi0 < chi_ss2.value,
    }, name)
    traj = run(params, grid, init_state(grid, init, params), cfg, eq=eq)
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
    return _result(name, "eventual energy descent below the saturation-improved threshold",
                   hypotheses, measured, expected, trajectory=traj)


def check_rectangle(name, params, grid, init, cfg, m0: float, mode: str) -> ScenarioResult:
    """Sandwich and envelope contraction of the comparison pair of `normalize`
    with gradient constant `m0`: below chi**_3 in mode "plain"; below
    chi**_4 in mode "signal-floor", which also needs beta >= 1 and checks the
    run's signal against its eventual floor. The envelope starts at
    1 +- amplitude, so `init` must be a perturbation about u*; any other
    start raises ValueError before the run."""
    _logistic(params, name)
    floor = mode == "signal-floor"
    eq = equilibrium(params)
    index = 3 if floor else 2
    chi_ss = chi_double_star(params, eq, m0=m0)[index]
    gate = f"chi0_below_chi_ss{index + 1}"
    hypotheses = _require({
        gate: chi_ss.value is not None and params.chi0 < chi_ss.value,
        **({"beta_at_least_one": params.beta >= 1.0} if floor else {}),
        "power_balance": chi_ss.applicable,
    }, name)
    if init.kind != "perturbation" or init.u_star != eq.u_star:
        raise ValueError(f"scenario {name}: the envelope starts at 1 +- amplitude, so the "
                         f"run must start from a perturbation about u* = {eq.u_star}")
    rp = normalize(params, eq, m0=m0, mode=mode)
    traj = run(params, grid, init_state(grid, init, params), cfg, eq=eq)
    rect = integrate_rectangle(
        rp, ubar0=1.0 + init.amplitude, ulow0=1.0 - init.amplitude,
        tau_end=params.a * cfg.t_end, dt=cfg.dt,
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
    if floor:
        v_floor = v_lower_ab(params)
        v_min_run = float(np.min(traj.v_min))
        measured["signal_minimum"] = v_min_run
        expected["signal_floor"] = v_floor
        ok = ok and v_min_run >= v_floor
    theorem = ("envelope contraction with signal-floor gain on the sensitivity" if floor
               else "envelope contraction of the extremal comparison pair")
    return _result(name, theorem, hypotheses, measured, expected, ok,
                   equal=("contraction",), trajectory=traj)


def check_minimal_entropy(name, params, grid, init, cfg) -> ScenarioResult:
    _minimal(params, name)
    beta_ok = params.beta >= 1.0
    chi_b = chi_beta_threshold(params.beta, params.gamma, grid.dimension) if beta_ok else math.nan
    # The gate on the calibrated chi**_1 waits for the run; these come first.
    gates = _require({
        "beta_at_least_one": beta_ok,
        "chi0_below_half_chi_beta": params.chi0 < chi_b / 2.0,
        "chi0_below_sqrt_chi_beta": params.chi0 < math.sqrt(chi_b),
    }, name)
    traj = run(params, grid, init_state(grid, init, params), cfg)
    mins = threshold_report(params, traj.eq, neumann_eigenvalues(grid, 200), grid.dimension,
                            calibration=traj).minimal
    hypotheses = _require({
        **gates, "chi0_below_chi_ss1_min_empirical": params.chi0 < mins.chi_ss1_min,
    }, name)
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
    return _result(name, "entropy descent for the mass-conserving model",
                   hypotheses, measured, expected, trajectory=traj)


def check_minimal_akl(name, params, grid, init, cfg) -> ScenarioResult:
    """The signal energy is read off the run's snapshots, so the run stores
    them whatever `cfg` says."""
    _minimal(params, name)
    gates = _require({
        "gamma_is_one": params.gamma == 1.0,
        "beta_at_least_one": params.beta >= 1.0,
    }, name)
    traj = run(params, grid, init_state(grid, init, params), replace(cfg, store_snapshots=True))
    eq = traj.eq
    mins = threshold_report(params, eq, neumann_eigenvalues(grid, 200), grid.dimension,
                            calibration=traj).minimal
    hypotheses = _require({
        **gates, "chi0_below_chi_ss2_min_empirical": mins.chi_ss2_min is not None
        and params.chi0 < mins.chi_ss2_min,
    }, name)
    energies = np.asarray([signal_energy(state.v, eq.v_star, grid, params.mu)
                           for state in traj.snapshots])
    excess = _max_tolerated_increase(energies)
    measured = {
        "signal_energy_initial": float(energies[0]),
        "signal_energy_final": float(energies[-1]),
        "signal_energy_monotonicity_excess": excess,
        "chi_ss2_min": mins.chi_ss2_min,
    }
    expected = {"signal_energy_monotonicity_excess_max": 0.0}
    return _result(name, "signal-energy descent for the mass-conserving model",
                   hypotheses, measured, expected, trajectory=traj)


def check_thresholds(name, params, grid, init, cfg) -> ScenarioResult:
    """The closed-form thresholds against the exact values they take at the
    pinned point of `PRESETS`; it runs nothing and reads no `init` or `cfg`."""
    hypotheses = _logistic(params, name)
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
    return _result(name, "closed-form threshold evaluation at an exactly representable point",
                   hypotheses, measured, expected, ok, equal=("argmin_mode",))


def check_sweep(name, params, grid, init, cfg) -> ScenarioResult:
    """The dichotomy verdict of `params` at each chi0 of a fixed list about
    chi* = 4, the pinned point's; it runs nothing and reads no `init` or `cfg`."""
    hypotheses = _logistic(params, name)
    spectrum = neumann_eigenvalues(grid, 1000)
    rows = []
    for chi0 in (0.5, 2.0, 3.9, 4.0, 4.1, 6.0):
        point = replace(params, chi0=chi0)
        report = classify_equilibrium(point, equilibrium(point), spectrum)
        rows.append({"chi0": chi0, "verdict": report.verdict,
                     "chi_star": report.chi_star, "sigma_max": report.sigma_max})
    measured = {"verdicts": [row["verdict"] for row in rows], "rows": rows}
    expected = {"verdicts": ["stable", "stable", "stable", "critical",
                             "unstable", "unstable"]}
    return _result(name, "stability verdicts across a sensitivity sweep",
                   hypotheses, measured, expected, equal=("verdicts",))


class Preset(NamedTuple):
    """A check and its point; `init` and `cfg` are None where it runs nothing."""

    check: Callable[..., ScenarioResult]
    params: ModelParams
    grid: GridDomain
    init: InitSpec | None
    cfg: StepConfig | None


# The pinned point: u* = v* = 1, chi* = 4 at the first mode of [0, pi],
# chi**_1 = 4 and chi**_3 = 1/2, all exact in floating point.
_POINT = ModelParams(chi0=1.0, beta=0.0, m=1.0, alpha=1.0, gamma=1.0,
                     a=1.0, b=1.0, mu=1.0, nu=1.0)
_GRID = GridDomain.interval(math.pi, 64)
_MINIMAL_RUN = StepConfig(t_end=20.0, dt=2e-3, output_stride=50)

PRESETS: dict[str, Preset] = {
    "persistence": Preset(
        check_persistence, replace(_POINT, chi0=1.0, beta=1.0, a=2.0), _GRID,
        InitSpec.perturbation(2.0, 0.5),
        StepConfig(t_end=20.0, dt=1e-2, dt_policy="cfl", output_stride=10)),
    "negative-sensitivity": Preset(
        check_negative_sensitivity, replace(_POINT, chi0=-1.0, beta=1.0), _GRID,
        InitSpec.perturbation(1.0, 0.3), StepConfig(t_end=50.0, dt=1e-2, output_stride=50)),
    "stable-dichotomy": Preset(
        check_stable_dichotomy, replace(_POINT, chi0=3.2), _GRID,
        InitSpec.perturbation(1.0, 0.01), StepConfig(t_end=25.0, dt=5e-3, output_stride=20)),
    "unstable-dichotomy": Preset(
        check_unstable_dichotomy, replace(_POINT, chi0=4.8), _GRID,
        InitSpec.perturbation(1.0, 0.01),
        StepConfig(t_end=12.0, dt=5e-3, dt_policy="cfl", output_stride=20)),
    "lyapunov-i": Preset(
        check_lyapunov_i, _POINT, _GRID,
        InitSpec.perturbation(1.0, 0.3), StepConfig(t_end=20.0, dt=2e-3, output_stride=50)),
    "lyapunov-ii": Preset(
        check_lyapunov_ii, replace(_POINT, chi0=0.3, beta=1.0), _GRID,
        InitSpec.perturbation(1.0, 0.3), StepConfig(t_end=30.0, dt=2e-3, output_stride=50)),
    "rectangle-iii": Preset(
        partial(check_rectangle, m0=0.0, mode="plain"), replace(_POINT, chi0=0.3), _GRID,
        InitSpec.perturbation(1.0, 0.25), StepConfig(t_end=45.0, dt=1e-3, output_stride=100)),
    # m0 is an illustrative gradient-estimate constant, fixed for determinism.
    "rectangle-iv": Preset(
        partial(check_rectangle, m0=1.0, mode="signal-floor"),
        replace(_POINT, chi0=0.35, beta=1.0, alpha=2.0), _GRID,
        InitSpec.perturbation(1.0, 0.25), StepConfig(t_end=45.0, dt=1e-3, output_stride=100)),
    "minimal-entropy": Preset(
        check_minimal_entropy, replace(_POINT, chi0=0.3, beta=1.0, a=0.0, b=0.0), _GRID,
        InitSpec.perturbation(1.0, 0.3), _MINIMAL_RUN),
    "minimal-akl": Preset(
        check_minimal_akl, replace(_POINT, chi0=0.3, beta=1.0, a=0.0, b=0.0), _GRID,
        InitSpec.perturbation(1.0, 0.3), _MINIMAL_RUN),
    "thresholds-only": Preset(check_thresholds, _POINT, _GRID, None, None),
    "sweep": Preset(check_sweep, _POINT, _GRID, None, None),
}

SCENARIOS: dict[str, Callable[[], ScenarioResult]] = {
    name: partial(p.check, name, p.params, p.grid, p.init, p.cfg)
    for name, p in PRESETS.items()
}


def run_scenario(name: str) -> ScenarioResult:
    if name not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise ValueError(f"unknown scenario {name!r}; choose one of: {known}")
    return SCENARIOS[name]()
