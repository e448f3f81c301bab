"""Seeded inputs and one round of each benchmark workload.

A round is a fixed list of operations, so every round of a workload does
the same work on the same inputs and fails the same operations. Rounds are
a few seconds long, so that a run repeats them several times. A round
calls `pause()` before each of its operations, where the worker times the
reference computation. The program is called only through its public
module attributes, looked up at call time, so that the traced run's
wrappers take effect.

Workloads (the README gives the reasons for each):
  verdicts         the short scenarios of SCENARIOS, and rectangle-iii's
                   comparison at a 12-unit horizon in two timed halves
  grid-2d          init_state + run on a 128 x 128 rectangle, logistic and minimal
  aggregation-cfl  run on 1024 cells above chi*, dt chosen by the CFL policy,
                   in legs of about half a second each
  fuzz             the two inequality fuzzers at the CLI's default sizes,
                   each in FUZZ_CALLS calls
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from chemostab import core, diagnostics, integrator, rectangle, scenarios, thresholds
from chemostab.core import GridDomain, InitSpec, ModelParams
from chemostab.integrator import StepConfig

import checks

# The scenarios' pinned point: u* = v* = 1 and chi* = 4 at the first mode,
# on [0, pi] and on [0, pi]^2 alike.
PINNED = dict(beta=0.0, m=1.0, alpha=1.0, gamma=1.0, a=1.0, b=1.0, mu=1.0, nu=1.0)
MINIMAL = {**PINNED, "a": 0.0, "b": 0.0}

GRID_2D_CELLS = 128
GRID_2D_MODES = 4           # cosine modes 0..4 per axis
GRID_2D_AMPLITUDE = 0.3     # sum of |coefficients|, so u >= 0.7
GRID_2D_CHI0 = {"logistic": 2.0, "minimal": 1.0}   # below chi* = 4 and 2
GRID_2D_CFG = StepConfig(t_end=0.03, dt=5e-3, output_stride=3)

AGGREGATION_CELLS = 1024
AGGREGATION_CHI0 = 4.8
AGGREGATION_EPS = 0.01      # amplitude of mode 1; modes 2..8 get up to a quarter
AGGREGATION_CFG = StepConfig(t_end=12.0, dt=5e-3, dt_policy="cfl", output_stride=20)
# The run is timed in legs, one run() call each from the last one's final
# state, ending at these times: the steps crowd towards t_end as the
# perturbation grows, and each leg takes about a fifth of the run's time.
AGGREGATION_LEG_ENDS = (9.0, 10.0, 11.0, 11.5, 12.0)

# Scenarios of SCENARIOS short enough to repeat many times in one run.
VERDICT_SCENARIOS = ("persistence", "negative-sensitivity", "stable-dichotomy",
                     "unstable-dichotomy", "thresholds-only", "sweep")
# rectangle-iii's parameters and initial pair, at a 12-unit horizon instead
# of 45: long enough for the fixed-step fault (it appears from about 11.7
# units at dt = 1e-3), a quarter of the scenario's cost.
RECTANGLE_CELLS = 64
RECTANGLE_CHI0 = 0.3
RECTANGLE_AMPLITUDE = 0.25
RECTANGLE_CFG = StepConfig(t_end=12.0, dt=1e-3, output_stride=100)

POWER_TRIALS = 100_000
ORDERING_TRIALS = 1000      # per part, six parts
FUZZ_CALLS = 5              # calls per fuzzer and round, of about 0.2 s each

WORKLOADS = ("verdicts", "grid-2d", "aggregation-cfl", "fuzz")


@dataclass
class RunCall:
    """One call of integrator.run with everything a check needs."""

    params: ModelParams
    grid: GridDomain
    init: object
    cfg: StepConfig
    traj: object


@dataclass
class Operation:
    name: str
    seconds: float
    failures: list[str]
    work: int = 0          # PDE steps, or fuzz trials


def operation(name: str, start: float, failures: list[str], work: int = 0) -> Operation:
    """An operation that began at perf_counter() = `start` and ends now."""
    return Operation(name, perf_counter() - start, failures, work)


@dataclass
class Round:
    operations: list[Operation]
    # Reference times: refs[i] just before operation i, refs[-1] after the
    # last one. Set by the worker.
    refs: list[float] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(op.seconds for op in self.operations)


@dataclass
class PdeCase:
    label: str
    params: ModelParams
    grid: GridDomain
    u0: np.ndarray
    cfg: StepConfig
    expect: str | None   # "approach" or "amplify" relative to u = 1, or None


def spacing(grid: GridDomain) -> tuple[float, ...]:
    return tuple(L / n for L, n in zip(grid.lengths, grid.cells))


def cell_volume(grid: GridDomain) -> float:
    return math.prod(spacing(grid))


@contextmanager
def recorded_runs(module):
    """Record every call of `module.run` for the duration of the block."""
    calls: list[RunCall] = []
    inner = module.run

    def recorder(params, grid, init, cfg, eq=None):
        traj = inner(params, grid, init, cfg, eq=eq)
        calls.append(RunCall(params, grid, init, cfg, traj))
        return traj

    module.run = recorder
    try:
        yield calls
    finally:
        module.run = inner


def trajectory_failures(call: RunCall) -> list[str]:
    traj, final, grid = call.traj, call.traj.final_state, call.grid
    failures = checks.check_signal(final.u, final.v, call.params, spacing(grid))
    failures += checks.check_positive(traj.u_min, final.u, traj.clip_count)
    if call.params.a == 0.0 and call.params.b == 0.0:
        failures += checks.check_mass(call.init.u, final.u, traj.mass, cell_volume(grid))
    failures += checks.check_fixed_steps(call.cfg, traj.steps_taken)
    return failures


# --- verdicts --------------------------------------------------------------

def pinned_chi_star() -> float:
    """chi* of the pinned point on [0, pi], from the analytic eigenvalues n^2."""
    return checks.chi_star_closed_form(
        ModelParams(chi0=1.0, **PINNED), 1.0, checks.interval_eigenvalues(math.pi, 1000)
    )


def scenario_failures(name: str, result, calls: list[RunCall]) -> list[str]:
    failures = checks.check_verdict_pass(result.verdict)
    for call in calls:
        failures += trajectory_failures(call)
    measured = result.verdict["measured"]
    if name == "sweep":
        failures += checks.check_sweep_rows(measured["rows"], pinned_chi_star())
    elif name == "thresholds-only":
        failures += checks.check_chi_star(measured["chi_star"], pinned_chi_star(), name)
    return failures


def scenario_operation(name: str) -> Operation:
    with recorded_runs(scenarios) as calls:
        t = perf_counter()
        try:
            result, error = scenarios.run_scenario(name), None
        except Exception as exc:  # a failed operation; the round goes on
            result, error = None, f"raised: {type(exc).__name__}: {exc}"
        op = operation(name, t, [], sum(c.traj.steps_taken for c in calls))
    op.failures = [error] if error else scenario_failures(name, result, calls)
    return op


def rectangle_operations(pause) -> list[Operation]:
    """rectangle-iii's comparison, timed in two halves: the PDE run, then the
    comparison ODE with the sandwich and contraction checks on its output."""
    params = ModelParams(chi0=RECTANGLE_CHI0, **PINNED)
    grid = GridDomain.interval(math.pi, RECTANGLE_CELLS)
    cfg = RECTANGLE_CFG
    pause()
    t = perf_counter()
    try:
        eq = core.equilibrium(params)
        init = core.init_state(grid, InitSpec.perturbation(eq.u_star, RECTANGLE_AMPLITUDE, 1),
                               params)
        traj = integrator.run(params, grid, init, cfg, eq=eq)
        pde = operation("rectangle-pde", t, [], traj.steps_taken)
        call = RunCall(params, grid, init, cfg, traj)
        pde.failures = trajectory_failures(call)
    except Exception as exc:  # a failed operation; the round goes on
        failed = operation("rectangle-pde", t, [f"raised: {type(exc).__name__}: {exc}"])
        pause()
        return [failed, operation("rectangle-envelope", perf_counter(),
                                  ["no PDE trajectory to compare"])]

    pause()
    t = perf_counter()
    try:
        rp = rectangle.normalize(params, eq, m0=0.0, mode="plain")
        rect = rectangle.integrate_rectangle(
            rp, ubar0=1.0 + RECTANGLE_AMPLITUDE, ulow0=1.0 - RECTANGLE_AMPLITUDE,
            tau_end=params.a * cfg.t_end, dt=cfg.dt)
        slack = 5.0 * (math.pi / RECTANGLE_CELLS) ** 2 + 1e-8
        report = rectangle.verify_sandwich(rect, traj, eq, slack)
        rectangle.contraction_tail(rect)
        envelope = operation("rectangle-envelope", t, [])
        failures = checks.check_sandwich(traj.times, traj.u_max, traj.u_min, eq.u_star,
                                         params.a, rect.tau, rect.ubar, rect.ulow, slack)
        failures += checks.check_contraction(rect.ubar, rect.ulow)
        if not report.ok:
            failures.append(f"verdict: verify_sandwich reports excess "
                            f"{max(report.max_upper_excess, report.max_lower_excess):.3e}")
        envelope.failures = failures
    except Exception as exc:  # a failed operation; the round goes on
        envelope = operation("rectangle-envelope", t, [f"raised: {type(exc).__name__}: {exc}"])
    return [pde, envelope]


def verdicts_round(_inputs, pause) -> Round:
    operations = []
    for name in VERDICT_SCENARIOS:
        pause()
        operations.append(scenario_operation(name))
    return Round(operations + rectangle_operations(pause))


# --- PDE workloads -----------------------------------------------------------

def random_cosine_field(grid: GridDomain, rng: np.random.Generator, modes: int,
                        amplitude: float) -> np.ndarray:
    """1 + sum c_jk cos(j pi x / Lx) cos(k pi y / Ly) over j, k <= modes,
    (j, k) != (0, 0), with random c scaled to sum |c| = amplitude."""
    x, y = grid.meshgrid()
    lx, ly = grid.lengths
    coeff = rng.uniform(-1.0, 1.0, (modes + 1, modes + 1))
    coeff[0, 0] = 0.0
    coeff *= amplitude / np.abs(coeff).sum()
    u = np.ones(grid.shape)
    for j in range(modes + 1):
        for k in range(modes + 1):
            u += coeff[j, k] * np.cos(j * math.pi * x / lx) * np.cos(k * math.pi * y / ly)
    return u


def grid_2d_inputs(seed: int) -> list[PdeCase]:
    rng = np.random.default_rng(seed)
    grid = GridDomain.rectangle(math.pi, math.pi, GRID_2D_CELLS, GRID_2D_CELLS)
    return [
        PdeCase(label, ModelParams(chi0=GRID_2D_CHI0[label], **coeffs), grid,
                random_cosine_field(grid, rng, GRID_2D_MODES, GRID_2D_AMPLITUDE),
                GRID_2D_CFG, expect)
        for label, coeffs, expect in (("logistic", PINNED, "approach"),
                                      ("minimal", MINIMAL, None))
    ]


def aggregation_inputs(seed: int) -> list[PdeCase]:
    rng = np.random.default_rng(seed)
    grid = GridDomain.interval(math.pi, AGGREGATION_CELLS)
    x = grid.centers()
    higher = rng.uniform(-0.25, 0.25, 7)
    u0 = 1.0 + AGGREGATION_EPS * (
        np.cos(x) + sum(c * np.cos(k * x) for k, c in enumerate(higher, start=2))
    )
    params = ModelParams(chi0=AGGREGATION_CHI0, **PINNED)
    return [PdeCase("aggregation", params, grid, u0, AGGREGATION_CFG, "amplify")]


def aggregation_round(cases: list[PdeCase], pause) -> Round:
    (case,) = cases
    operations = []
    state = None
    for leg, t_end in enumerate(AGGREGATION_LEG_ENDS, start=1):
        pause()
        t = perf_counter()
        name = f"leg-{leg}"
        if leg > 1 and state is None:
            operations.append(operation(name, t, ["no state from the previous leg"]))
            continue
        cfg = replace(case.cfg, t_end=t_end)
        try:
            init = state if state is not None else core.init_state(
                case.grid, InitSpec.from_array(case.u0), case.params)
            traj = integrator.run(case.params, case.grid, init, cfg)
        except Exception as exc:  # a failed operation; the round goes on
            state = None
            operations.append(operation(name, t, [f"raised: {type(exc).__name__}: {exc}"]))
            continue
        op = operation(name, t, [], traj.steps_taken)
        state = traj.final_state
        op.failures = trajectory_failures(RunCall(case.params, case.grid, init, cfg, traj))
        if t_end == case.cfg.t_end and case.expect == "amplify":
            op.failures += checks.check_amplification(case.u0, state.u, 1.0)
        operations.append(op)
    return Round(operations)


def pde_round(cases: list[PdeCase], pause) -> Round:
    outcomes = []
    for case in cases:
        pause()
        t = perf_counter()
        try:
            init = core.init_state(case.grid, InitSpec.from_array(case.u0), case.params)
            traj = integrator.run(case.params, case.grid, init, case.cfg)
            call = RunCall(case.params, case.grid, init, case.cfg, traj)
            error = None
        except Exception as exc:  # a failed operation; the round goes on
            call, error = None, f"raised: {type(exc).__name__}: {exc}"
        outcomes.append((case, operation(case.label, t, []), call, error))

    operations = []
    for case, op, call, error in outcomes:
        operations.append(op)
        if error:
            op.failures = [error]
            continue
        op.work = call.traj.steps_taken
        op.failures = trajectory_failures(call)
        if case.expect == "approach":
            op.failures += checks.check_approach(case.u0, call.traj.final_state.u, 1.0)
    return Round(operations)


# --- fuzz ------------------------------------------------------------------

def fuzz_operation(name: str, fuzz, check, trials) -> Operation:
    """One fuzzer call; `trials(result)` is the number of trials it made."""
    t = perf_counter()
    try:
        result = fuzz()
    except Exception as exc:  # a failed operation; the round goes on
        return operation(name, t, [f"raised: {type(exc).__name__}: {exc}"])
    op = operation(name, t, [], trials(result))
    op.failures = check(result)
    return op


def fuzz_round(seed: int, pause) -> Round:
    """Both fuzzers, each in FUZZ_CALLS calls, drawing from one generator
    made afresh from the seed each round."""
    rng = np.random.default_rng(seed)
    power, ordering = POWER_TRIALS // FUZZ_CALLS, ORDERING_TRIALS // FUZZ_CALLS
    operations = []
    for j in range(1, FUZZ_CALLS + 1):
        pause()
        operations.append(fuzz_operation(
            f"power-diff-{j}", lambda: diagnostics.check_power_diff_inequality(power, rng),
            checks.check_power_fuzz, lambda _violations: power))
    for j in range(1, FUZZ_CALLS + 1):
        pause()
        operations.append(fuzz_operation(
            f"orderings-{j}", lambda: thresholds.verify_orderings(ordering, rng),
            lambda report: checks.check_ordering_fuzz(report, ordering),
            lambda report: ordering * len(report.checked)))
    return Round(operations)


def make_inputs(workload: str, seed: int):
    if workload == "verdicts":
        return None  # no scenario reads a seed, and the rectangle case is pinned
    if workload == "grid-2d":
        return grid_2d_inputs(seed)
    if workload == "aggregation-cfl":
        return aggregation_inputs(seed)
    if workload == "fuzz":
        return seed
    raise ValueError(f"unknown workload {workload!r}; choose one of {', '.join(WORKLOADS)}")


def run_round(workload: str, inputs, pause=lambda: None) -> Round:
    if workload == "verdicts":
        return verdicts_round(inputs, pause)
    if workload == "fuzz":
        return fuzz_round(inputs, pause)
    if workload == "aggregation-cfl":
        return aggregation_round(inputs, pause)
    return pde_round(inputs, pause)
