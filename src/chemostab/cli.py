"""Command-line front end.

    chemostab simulate  --config FILE [--csv PATH]
    chemostab stability --config FILE [--n-max N] [--discrete-check] [--modes K]
    chemostab thresholds --config FILE [--m0 X | --discrete-m0]
                         [--c-star-table FILE] [--stub-c-star] [--n-max N]
    chemostab rectangle --config FILE [--m0 X] [--mode plain|signal-floor]
                        [--tau-end T] [--ode-dt DT] [--ubar0 X] [--ulow0 X]
                        [--csv PATH]
    chemostab scenario  NAME [--csv PATH]
    chemostab sweep     --config FILE [--n-max N]
    chemostab fuzz      [--trials N] [--ordering-trials N] [--seed S]

`fuzz` draws its trials in blocks, one generator call per variable, and
checks each block with array operations, so memory stays bounded at any
trial count. A negative trial count or seed is an error (exit 2), and so is
`scenario --csv` for a scenario with no trajectory (thresholds-only, sweep).

Exit codes: 0 success, 1 failed verdict or detected violation, 2 error.
All reports are JSON on stdout; infinities are encoded as the strings
"inf" / "-inf". An error (exit 2) is one JSON document on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .config import (
    ConfigError,
    grid_from_config,
    init_from_config,
    params_from_config,
    read_config,
    required,
    step_config_from_config,
)
from .core import (
    Equilibrium,
    FieldState,
    GridDomain,
    ModelParams,
    equilibrium,
    init_state,
    initial_density,
    neumann_eigenvalues,
    reference_equilibrium,
)
from .diagnostics import check_power_diff_inequality
from .integrator import BlowupDetected, discrete_spectrum_check, run
from .rectangle import integrate_rectangle, normalize
from .scenarios import SCENARIOS, run_scenario
from .stability import SWEEP_CELL_LIMIT, classify_equilibrium
from .thresholds import (
    MissingCZConstant,
    c_star_from_table,
    default_c_star_stub,
    gradient_constant,
    require_m0,
    threshold_report,
    verify_orderings,
)


class GridTooLarge(ValueError):
    """Requested grid exceeds the cell budget for time integration."""


SIMULATE_CELL_LIMIT = 1 << 20


def jsonable(obj):
    """Recursively convert reports to JSON-safe structures.

    Floats map infinities to the strings "inf" / "-inf"; dataclasses map to
    dicts of their repr fields (CStarSource's callable is none); arrays map
    to lists.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, (np.floating, np.integer)):
        return jsonable(obj.item())
    if isinstance(obj, np.ndarray):
        return [jsonable(x) for x in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if f.repr
        }
    if isinstance(obj, dict):
        return {str(key): jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    return str(obj)


def _emit(payload) -> None:
    print(json.dumps(jsonable(payload), indent=2))


def _setup(cfg, params: ModelParams, simulate: bool = False
           ) -> tuple[GridDomain, Equilibrium, FieldState | None]:
    """The grid, the reference equilibrium and, with `simulate`, the t = 0
    state, the initial density built at most once: without init.u_star the
    minimal model's u* is that density's mean. Only a grid to simulate is
    held to SIMULATE_CELL_LIMIT."""
    grid = grid_from_config(cfg)
    if simulate and grid.total_cells > SIMULATE_CELL_LIMIT:
        raise GridTooLarge(f"{grid.total_cells} cells exceeds the limit {SIMULATE_CELL_LIMIT}")
    u_star = cfg.get("init.u_star") if params.minimal else None
    state = u0 = None
    if params.minimal and u_star is None:
        # Without a run, init.u_star alone gives u*, so the error names both.
        if not simulate and "init.kind" not in cfg:
            raise ConfigError("the minimal model's u* needs 'init.u_star' or an initial "
                              "density: the config sets neither 'init.u_star' nor 'init.kind'")
        spec = init_from_config(cfg)
        state = init_state(grid, spec, params) if simulate else None
        u0 = state.u if simulate else initial_density(grid, spec)
    eq = reference_equilibrium(params, grid, u0=u0, u_star=u_star)
    if simulate and state is None:
        state = init_state(grid, init_from_config(cfg, base_u_star=eq.u_star), params)
    return grid, eq, state


def cmd_simulate(args) -> int:
    cfg = read_config(args.config)
    params = params_from_config(cfg)
    grid, eq, state = _setup(cfg, params, simulate=True)
    step_cfg = step_config_from_config(cfg)
    try:
        traj = run(params, grid, state, step_cfg, eq=eq)
    except BlowupDetected as exc:
        _emit({
            "status": "blowup",
            "time": exc.time,
            "max_density": exc.max_u,
            "cap": exc.cap,
            "cell": list(exc.cell),
        })
        return 1
    if args.csv:
        traj.write_csv(args.csv)
    _emit({
        "status": "completed",
        "final_time": float(traj.times[-1]),
        "steps": traj.steps_taken,
        "steps_integrated": traj.steps_integrated,
        "samples": len(traj),
        "u_min": float(traj.u_min[-1]),
        "u_max": float(traj.u_max[-1]),
        "err_inf": float(traj.err_inf[-1]),
        "mass_drift": traj.mass_drift,
        "positivity_clips": traj.clip_count,
        "csv": args.csv,
    })
    return 0


def cmd_stability(args) -> int:
    cfg = read_config(args.config)
    params = params_from_config(cfg)
    grid, eq, _ = _setup(cfg, params)
    spectrum = neumann_eigenvalues(grid, args.n_max)
    report = classify_equilibrium(params, eq, spectrum)
    payload = {"equilibrium": eq, **jsonable(report)}
    if args.discrete_check:
        check = discrete_spectrum_check(params, eq, grid, args.modes)
        payload["discrete_check"] = check
    _emit(payload)
    return 0


def _load_c_star(path: str | None):
    if path is None:
        return None
    pairs = []
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        row = line.split("#", 1)[0].strip()
        if not row:
            continue
        try:
            p_str, c_str = row.split(",")
            pairs.append((float(p_str), float(c_str)))
        except ValueError:
            message = f"expected a 'p,C*' row of two numbers, got {row!r}"
            raise MissingCZConstant(f"{path}, line {number}: {message}") from None
    return c_star_from_table(pairs)


def cmd_thresholds(args) -> int:
    cfg = read_config(args.config)
    params = params_from_config(cfg)
    # Calibration run: empirical envelope bounds for the minimal model. An
    # initial density with no horizon, or a horizon with no initial density,
    # is a run half configured, refused before any work rather than reported
    # as no bounds.
    calibrate = params.minimal and "init.kind" in cfg
    if params.minimal and calibrate != ("run.t_end" in cfg):
        given, missing = ("init.kind", "run.t_end") if calibrate else ("run.t_end", "init.kind")
        raise ConfigError(f"the minimal model's calibration run needs {missing}: "
                          f"the config sets {given} but not '{missing}'")
    grid, eq, state = _setup(cfg, params, simulate=calibrate)
    spectrum = neumann_eigenvalues(grid, args.n_max)

    if args.discrete_m0:
        m0, m0_source = gradient_constant(grid, params.mu), "discrete"
    else:
        m0, m0_source = args.m0, "user"
    # Checked before the calibration run, which a bad m0 would only waste.
    require_m0(m0)

    c_star = _load_c_star(args.c_star_table)
    if c_star is None and args.stub_c_star:
        c_star = default_c_star_stub()

    calibration = (run(params, grid, state, step_config_from_config(cfg), eq=eq)
                   if calibrate else None)
    report = threshold_report(
        params, eq, spectrum, grid.dimension,
        m0=m0, m0_source=m0_source, c_star=c_star, calibration=calibration,
    )
    _emit(report)
    return 0


def cmd_rectangle(args) -> int:
    cfg = read_config(args.config)
    params = params_from_config(cfg)
    # a = b = 0 pins no equilibrium, and normalize rejects that model first.
    eq = None if params.minimal else equilibrium(params)
    rp = normalize(params, eq, m0=args.m0, mode=args.mode)
    rect = integrate_rectangle(
        rp, ubar0=args.ubar0, ulow0=args.ulow0,
        tau_end=args.tau_end, dt=args.ode_dt,
    )
    if args.csv:
        with open(args.csv, "w", newline="\n") as handle:
            handle.write("tau,ubar,ulow\n")
            for tau, ubar, ulow in zip(rect.tau, rect.ubar, rect.ulow):
                handle.write(f"{tau:.17g},{ubar:.17g},{ulow:.17g}\n")
    _emit({
        "kappa": rp.kappa,
        "kappa0": rp.kappa0,
        "quad": rp.quad,
        "mode": rp.mode,
        "contraction": rp.contraction,
        "final_ubar": float(rect.ubar[-1]),
        "final_ulow": float(rect.ulow[-1]),
        "final_gap": float(rect.ubar[-1] - rect.ulow[-1]),
        "csv": args.csv,
    })
    return 0


def cmd_scenario(args) -> int:
    result = run_scenario(args.name)
    if args.csv:
        if result.trajectory is None:
            raise ValueError(f"scenario {args.name!r} runs no PDE: it has no trajectory "
                             f"to write to --csv")
        result.trajectory.write_csv(args.csv)
    _emit(result.verdict)
    return 0 if result.verdict["pass"] else 1


def cmd_sweep(args) -> int:
    cfg = read_config(args.config)
    parameter = required(cfg, "sweep.parameter")
    values = required(cfg, "sweep.values")
    grid = grid_from_config(cfg)  # a missing domain key is named before a coefficient
    spectrum = neumann_eigenvalues(grid, args.n_max)
    first = params_from_config({**cfg, parameter: values[0]})
    # The minimal model's u* depends on no coefficient: it is taken once.
    u_star = _setup(cfg, first)[1].u_star if first.minimal else None
    rows = []
    for value in values:
        params = params_from_config({**cfg, parameter: value})
        eq = equilibrium(params, u_star=u_star)
        report = classify_equilibrium(params, eq, spectrum)
        rows.append({
            parameter: value,
            "chi_star": report.chi_star,
            "verdict": report.verdict,
            "sigma_max": report.sigma_max,
            "argmin_mode": report.argmin_mode,
        })
    _emit({"parameter": parameter, "rows": rows})
    return 0


def cmd_fuzz(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    power_violations = check_power_diff_inequality(args.trials, rng)
    ordering = verify_orderings(args.ordering_trials, rng)
    _emit({
        "power_diff_trials": args.trials,
        "power_diff_violations": power_violations,
        "ordering_trials_per_part": args.ordering_trials,
        "ordering_checked": ordering.checked,
        "ordering_skipped": ordering.skipped,
        "ordering_violations": list(ordering.violations),
    })
    ok = power_violations == 0 and ordering.ok
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chemostab",
        description="Chemotaxis stability laboratory: simulation, spectra, "
                    "thresholds, and theorem-scale experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="integrate the PDE system")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--csv", default=None, help="trajectory CSV output path")
    p_sim.set_defaults(func=cmd_simulate)

    p_stab = sub.add_parser("stability", help="classify the uniform steady state")
    p_stab.add_argument("--config", required=True)
    p_stab.add_argument("--n-max", type=int, default=1000)
    p_stab.add_argument("--discrete-check", action="store_true",
                        help="check the scheme's linearization on every DCT basis field "
                             f"(at most {SWEEP_CELL_LIMIT} cells); adds discrete_check "
                             "with grid_eigenvalues, predicted and residuals of the first "
                             "--modes + 1 modes, max_spectrum_residual over all n, n_modes")
    p_stab.add_argument("--modes", type=int, default=5,
                        help="modes compared in the discrete check")
    p_stab.set_defaults(func=cmd_stability)

    p_thr = sub.add_parser("thresholds", help="evaluate all closed-form thresholds")
    p_thr.add_argument("--config", required=True)
    p_thr.add_argument("--n-max", type=int, default=1000)
    m0_choice = p_thr.add_mutually_exclusive_group()
    m0_choice.add_argument("--m0", type=float, default=0.0,
                           help="gradient-estimate constant of the domain")
    m0_choice.add_argument("--discrete-m0", action="store_true",
                           help="use the grid's exact discrete constant "
                                f"(an O(n^2) sweep, at most {SWEEP_CELL_LIMIT} cells)")
    p_thr.add_argument("--c-star-table", default=None,
                       help="CSV of p,C* rows for the regularity constant")
    p_thr.add_argument("--stub-c-star", action="store_true",
                       help="use the nonrigorous C* = 1 placeholder")
    p_thr.set_defaults(func=cmd_thresholds)

    p_rect = sub.add_parser("rectangle", help="integrate the comparison ODE pair")
    p_rect.add_argument("--config", required=True)
    p_rect.add_argument("--m0", type=float, default=0.0)
    p_rect.add_argument("--mode", choices=("plain", "signal-floor"), default="plain")
    p_rect.add_argument("--tau-end", type=float, default=40.0)
    p_rect.add_argument("--ode-dt", type=float, default=1e-3)
    p_rect.add_argument("--ubar0", type=float, default=1.25)
    p_rect.add_argument("--ulow0", type=float, default=0.75)
    p_rect.add_argument("--csv", default=None)
    p_rect.set_defaults(func=cmd_rectangle)

    p_scen = sub.add_parser("scenario", help="run a canned experiment")
    p_scen.add_argument("name", choices=sorted(SCENARIOS))
    p_scen.add_argument("--csv", default=None)
    p_scen.set_defaults(func=cmd_scenario)

    p_sweep = sub.add_parser("sweep", help="classify along a parameter sweep")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--n-max", type=int, default=1000)
    p_sweep.set_defaults(func=cmd_sweep)

    p_fuzz = sub.add_parser("fuzz", help="randomized inequality checks")
    p_fuzz.add_argument("--trials", type=int, default=100000)
    p_fuzz.add_argument("--ordering-trials", type=int, default=1000)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.set_defaults(func=cmd_fuzz)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # No numpy warning prints ahead of an error's JSON on stderr.
        with np.errstate(all="ignore"):
            return args.func(args)
    # ArithmeticError: a closed form whose float power overflows (u* =
    # (a/b)^(1/alpha), Theta_beta, M*) is an error of its inputs too.
    except (ConfigError, ValueError, RuntimeError, OSError, ArithmeticError) as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
