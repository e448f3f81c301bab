"""Command-line front end.

    chemostab simulate  --config FILE [--csv PATH]
    chemostab stability --config FILE [--n-max N] [--discrete-check] [--modes K]
    chemostab thresholds --config FILE [--m0 X | --estimate-m0 N]
                         [--c-star-table FILE] [--n-max N] [--seed S]
    chemostab rectangle --config FILE [--m0 X] [--mode plain|signal-floor]
                        [--tau-end T] [--ode-dt DT] [--ubar0 X] [--ulow0 X]
                        [--csv PATH]
    chemostab scenario  NAME [--csv PATH]
    chemostab sweep     --config FILE [--n-max N]
    chemostab fuzz      [--trials N] [--ordering-trials N] [--seed S]

`fuzz` draws its trials in blocks, one generator call per variable, and
checks each block with array operations: about 0.1 us per power-difference
trial and 3-5 us per ordering tuple (2-vCPU Xeon), and memory stays bounded
at any trial count. The block draws use the generator differently from the
former one-trial-at-a-time loops, so a given --seed draws different samples
than before; the violation and skip counts are unchanged.

Exit codes: 0 success, 1 failed verdict or detected violation, 2 error.
All reports are JSON on stdout; infinities are encoded as the strings
"inf" / "-inf".
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
    get_float,
    get_str,
    grid_from_config,
    init_from_config,
    load_config,
    params_from_config,
    step_config_from_config,
)
from .core import (
    PARAM_FIELDS,
    Equilibrium,
    GridDomain,
    ModelParams,
    equilibrium,
    init_state,
    neumann_eigenvalues,
)
from .diagnostics import check_power_diff_inequality
from .integrator import BlowupDetected, run
from .rectangle import integrate_rectangle, normalize
from .scenarios import SCENARIOS, run_scenario
from .stability import classify_equilibrium, discrete_spectrum_check
from .thresholds import (
    c_star_from_table,
    default_c_star_stub,
    estimate_m0,
    threshold_report,
    verify_orderings,
)


class GridTooLarge(ValueError):
    """Requested grid exceeds the cell budget for time integration."""


SIMULATE_CELL_LIMIT = 1 << 20


def jsonable(obj):
    """Recursively convert reports to JSON-safe structures.

    Floats map infinities to the strings "inf" / "-inf"; dataclasses map to
    field dicts; arrays map to lists; callables map to their repr.
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
        }
    if isinstance(obj, dict):
        return {str(key): jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    if callable(obj):
        return repr(obj)
    return str(obj)


def _emit(payload) -> None:
    print(json.dumps(jsonable(payload), indent=2))


def _grid_checked(cfg) -> GridDomain:
    grid = grid_from_config(cfg)
    if grid.total_cells > SIMULATE_CELL_LIMIT:
        raise GridTooLarge(
            f"{grid.total_cells} cells exceeds the limit {SIMULATE_CELL_LIMIT}"
        )
    return grid


def _minimal_u_star(cfg, grid: GridDomain, params: ModelParams) -> float:
    """Mass level fixing the minimal model's equilibrium."""
    if "init.u_star" in cfg:
        return get_float(cfg, "init.u_star")
    spec = init_from_config(cfg)
    state = init_state(grid, spec, params)
    return float(state.u.sum()) * grid.cell_volume / grid.volume


def _equilibrium_for(cfg, grid: GridDomain, params: ModelParams) -> Equilibrium:
    if params.minimal:
        return equilibrium(params, u_star=_minimal_u_star(cfg, grid, params))
    return equilibrium(params)


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    params = params_from_config(cfg)
    grid = _grid_checked(cfg)
    eq = _equilibrium_for(cfg, grid, params)
    spec = init_from_config(cfg, base_u_star=eq.u_star)
    state = init_state(grid, spec, params)
    step_cfg = step_config_from_config(cfg)
    try:
        traj = run(params, grid, state, step_cfg, eq=eq)
    except BlowupDetected as exc:
        _emit({
            "status": "blowup",
            "time": exc.time,
            "max_density": exc.max_u,
            "cap": exc.cap,
        })
        return 1
    if args.csv:
        traj.write_csv(args.csv)
    _emit({
        "status": "completed",
        "final_time": float(traj.times[-1]),
        "steps": traj.steps_taken,
        "samples": len(traj),
        "u_min": float(traj.u_min[-1]),
        "u_max": float(traj.u_max[-1]),
        "err_inf": float(traj.err_inf[-1]),
        "mass_drift": float(np.max(np.abs(traj.mass - traj.mass[0])) / traj.mass[0]),
        "positivity_clips": traj.clip_count,
        "csv": args.csv,
    })
    return 0


def cmd_stability(args) -> int:
    cfg = load_config(args.config)
    params = params_from_config(cfg)
    grid = grid_from_config(cfg)
    eq = _equilibrium_for(cfg, grid, params)
    spectrum = neumann_eigenvalues(grid, args.n_max)
    report = classify_equilibrium(params, eq, spectrum)
    payload = {
        "equilibrium": eq,
        "chi_star": report.chi_star,
        "argmin_mode": report.argmin_mode,
        "verdict": report.verdict,
        "sigma_zero": report.sigma_zero,
        "sigma_max": report.sigma_max,
        "fastest_mode": report.fastest_mode,
    }
    if args.discrete_check:
        check = discrete_spectrum_check(params, eq, grid, args.modes)
        payload["discrete_check"] = check
    _emit(payload)
    return 0


def _load_c_star(path: str | None):
    if path is None:
        return None
    pairs = []
    for line in Path(path).read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        p_str, c_str = line.split(",")
        pairs.append((float(p_str), float(c_str)))
    return c_star_from_table(pairs)


def cmd_thresholds(args) -> int:
    cfg = load_config(args.config)
    params = params_from_config(cfg)
    # Calibration run: empirical envelope bounds for the minimal model.
    calibrate = params.minimal and "init.kind" in cfg and "run.t_end" in cfg
    grid = _grid_checked(cfg) if calibrate else grid_from_config(cfg)
    eq = _equilibrium_for(cfg, grid, params)
    spectrum = neumann_eigenvalues(grid, args.n_max)

    if args.estimate_m0:
        rng = np.random.default_rng(args.seed)
        m0 = estimate_m0(grid, params.mu, params.nu, args.estimate_m0, rng)
        m0_source = "empirical"
    else:
        m0 = args.m0
        m0_source = "user"

    c_star = _load_c_star(args.c_star_table)
    if c_star is None and args.stub_c_star:
        c_star = default_c_star_stub()

    ubar0 = vlower0 = None
    minimal_source = "user"
    if calibrate:
        spec = init_from_config(cfg, base_u_star=eq.u_star)
        state = init_state(grid, spec, params)
        traj = run(params, grid, state, step_config_from_config(cfg), eq=eq)
        ubar0 = float(np.max(traj.u_max))
        vlower0 = float(np.min(traj.v_min))
        minimal_source = "empirical"

    report = threshold_report(
        params, eq, spectrum, grid.dimension,
        m0=m0, m0_source=m0_source, c_star=c_star,
        ubar0=ubar0, vlower0=vlower0, minimal_inputs_source=minimal_source,
    )
    _emit(report)
    return 0


def cmd_rectangle(args) -> int:
    cfg = load_config(args.config)
    params = params_from_config(cfg)
    eq = equilibrium(params)
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
    if args.csv and result.trajectory is not None:
        result.trajectory.write_csv(args.csv)
    _emit(result.verdict)
    return 0 if result.verdict["pass"] else 1


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    base = {key: value for key, value in cfg.items()}
    parameter = get_str(cfg, "sweep.parameter")
    if parameter not in PARAM_FIELDS:
        raise ConfigError(f"sweep.parameter must be a model coefficient, got {parameter!r}")
    values = [float(part.strip()) for part in get_str(cfg, "sweep.values").split(",")]
    grid = grid_from_config(cfg)
    spectrum = neumann_eigenvalues(grid, args.n_max)
    rows = []
    for value in values:
        base[parameter] = repr(value)
        params = params_from_config(base)
        eq = _equilibrium_for(base, grid, params)
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
    p_stab.add_argument("--discrete-check", action="store_true")
    p_stab.add_argument("--modes", type=int, default=5,
                        help="modes compared in the discrete check")
    p_stab.set_defaults(func=cmd_stability)

    p_thr = sub.add_parser("thresholds", help="evaluate all closed-form thresholds")
    p_thr.add_argument("--config", required=True)
    p_thr.add_argument("--n-max", type=int, default=1000)
    p_thr.add_argument("--m0", type=float, default=0.0,
                       help="gradient-estimate constant of the domain")
    p_thr.add_argument("--estimate-m0", type=int, default=0, metavar="SAMPLES",
                       help="estimate m0 empirically from random fields")
    p_thr.add_argument("--c-star-table", default=None,
                       help="CSV of p,C* rows for the regularity constant")
    p_thr.add_argument("--stub-c-star", action="store_true",
                       help="use the nonrigorous C* = 1 placeholder")
    p_thr.add_argument("--seed", type=int, default=0)
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
        return args.func(args)
    except (ConfigError, ValueError, RuntimeError, OSError) as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
