"""Numerical laboratory for a parabolic-elliptic chemotaxis system.

The model couples a cell density u with an elliptically slaved signal v:

    u_t = lap u - chi0 div( u^m (1+v)^(-beta) grad v ) + a u - b u^(1+alpha)
      0 = lap v - mu v + nu u^gamma

on an interval or rectangle with no-flux boundaries. The package provides
the finite-volume integrator, the exact linear stability threshold, the
closed-form global-stability and boundedness thresholds, the extremal
comparison ODE pair, and canned experiments that check the predicted
behavior against simulation.
"""

from .core import (
    Equilibrium,
    FieldState,
    GridDomain,
    InitSpec,
    ModelParams,
    equilibrium,
    init_state,
    neumann_eigenvalues,
    validate_params,
)
from .diagnostics import (
    dissipation_D,
    fit_decay_rate,
    lyapunov_F,
    persistence_metrics,
    signal_energy,
)
from .helmholtz import chemical_field, get_operator
from .integrator import (
    BlowupDetected,
    StepConfig,
    Trajectory,
    discrete_spectrum_check,
    run,
    stable_dt,
    step,
)
from .rectangle import (
    RectangleParams,
    integrate_rectangle,
    normalize,
    verify_sandwich,
)
from .scenarios import SCENARIOS, run_scenario
from .stability import (
    StabilityReport,
    classify_equilibrium,
    critical_sensitivity,
    sigma_n,
    sigma_zero,
)
from .thresholds import (
    chi_ab_beta,
    chi_beta_threshold,
    chi_double_star,
    gradient_constant,
    k_star,
    m_star,
    minimal_thresholds,
    power_diff_constant,
    theta,
    threshold_report,
    verify_orderings,
)

__version__ = "0.1.0"

__all__ = [
    "Equilibrium",
    "FieldState",
    "GridDomain",
    "InitSpec",
    "ModelParams",
    "equilibrium",
    "init_state",
    "neumann_eigenvalues",
    "validate_params",
    "dissipation_D",
    "fit_decay_rate",
    "lyapunov_F",
    "persistence_metrics",
    "signal_energy",
    "chemical_field",
    "get_operator",
    "BlowupDetected",
    "StepConfig",
    "Trajectory",
    "run",
    "stable_dt",
    "step",
    "RectangleParams",
    "integrate_rectangle",
    "normalize",
    "verify_sandwich",
    "SCENARIOS",
    "run_scenario",
    "StabilityReport",
    "classify_equilibrium",
    "critical_sensitivity",
    "discrete_spectrum_check",
    "sigma_n",
    "sigma_zero",
    "chi_ab_beta",
    "chi_beta_threshold",
    "chi_double_star",
    "gradient_constant",
    "k_star",
    "m_star",
    "minimal_thresholds",
    "power_diff_constant",
    "theta",
    "threshold_report",
    "verify_orderings",
    "__version__",
]
