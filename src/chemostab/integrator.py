"""IMEX time stepping for the population equation.

Each step treats diffusion implicitly (backward Euler, unconditionally
stable), the chemotactic flux explicitly in conservative upwind form, and
the logistic source explicitly. The signal field is re-solved from the
updated density after every step, keeping the elliptic coupling
quasi-static.

The upwind flux with a CFL-limited step preserves positivity; any cell
that still lands below the configured floor is clipped and counted, and a
nonzero count is treated as a scheme defect by the acceptance suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import Equilibrium, FieldState, GridDomain, ModelParams, equilibrium
from .diagnostics import dissipation_D, lyapunov_F
from .helmholtz import chemical_field, face_slices, get_operator

class BlowupDetected(RuntimeError):
    """Density exceeded the blow-up cap; the scheme does not resolve blow-up."""

    def __init__(self, time: float, max_u: float, cap: float):
        super().__init__(f"max u = {max_u:.3e} exceeded cap {cap:.3e} at t = {time:.6g}")
        self.time = time
        self.max_u = max_u
        self.cap = cap


class DegenerateState(RuntimeError):
    """State contains non-finite values; no stable step size exists."""


@dataclass(frozen=True)
class StepConfig:
    """Time-stepping policy and run controls.

    `dt` is the fixed step under the "fixed" policy and the hard cap under
    the "cfl" policy, where each step also respects the advective and
    reaction limits scaled by `sigma_cfl`.
    """

    t_end: float
    dt: float = 1e-3
    dt_policy: str = "fixed"
    sigma_cfl: float = 0.9
    output_stride: int = 10
    blowup_cap: float = 1e6
    positivity_floor: float = 0.0
    store_snapshots: bool = False

    def __post_init__(self) -> None:
        if self.t_end <= 0.0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.dt_policy not in ("fixed", "cfl"):
            raise ValueError(f"dt_policy must be 'fixed' or 'cfl', got {self.dt_policy}")
        if not 0.0 < self.sigma_cfl <= 1.0:
            raise ValueError(f"sigma_cfl must be in (0, 1], got {self.sigma_cfl}")
        if self.output_stride < 1:
            raise ValueError(f"output_stride must be >= 1, got {self.output_stride}")
        if self.blowup_cap <= 0.0:
            raise ValueError(f"blowup_cap must be positive, got {self.blowup_cap}")
        if self.positivity_floor < 0.0:
            raise ValueError(f"positivity_floor must be >= 0, got {self.positivity_floor}")


# The per-sample series of a Trajectory; the CSV names `times` "t".
SERIES = ("times", "u_min", "u_max", "v_min", "v_max", "mass", "err_inf",
          "lyapunov", "dissipation")
TRAJECTORY_CSV_HEADER = ",".join(("t",) + SERIES[1:])


@dataclass
class Trajectory:
    """Per-sample summaries of one run plus the final state.

    `dissipation` is the instantaneous integral (u - u*)(u^alpha - u*^alpha);
    time-integrated budgets are computed downstream by trapezoid rule.
    """

    params: ModelParams
    grid: GridDomain
    eq: Equilibrium
    # One field per name in SERIES, in its order.
    times: np.ndarray = field(default_factory=lambda: np.empty(0))
    u_min: np.ndarray = field(default_factory=lambda: np.empty(0))
    u_max: np.ndarray = field(default_factory=lambda: np.empty(0))
    v_min: np.ndarray = field(default_factory=lambda: np.empty(0))
    v_max: np.ndarray = field(default_factory=lambda: np.empty(0))
    mass: np.ndarray = field(default_factory=lambda: np.empty(0))
    err_inf: np.ndarray = field(default_factory=lambda: np.empty(0))
    lyapunov: np.ndarray = field(default_factory=lambda: np.empty(0))
    dissipation: np.ndarray = field(default_factory=lambda: np.empty(0))
    clip_count: int = 0
    steps_taken: int = 0
    final_state: FieldState | None = None
    snapshots: list[FieldState] | None = None

    def __len__(self) -> int:
        return len(self.times)

    def write_csv(self, path: str) -> None:
        columns = [getattr(self, name) for name in SERIES]
        with open(path, "w", newline="\n") as fh:
            fh.write(TRAJECTORY_CSV_HEADER + "\n")
            for row in zip(*columns):
                fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


def face_drift(v: np.ndarray, params: ModelParams, grid: GridDomain) -> list[np.ndarray]:
    """Chemotactic drift chi0 (1 + v_face)^(-beta) grad(v) on interior faces,
    one array per axis; v_face is the mean of the two cells, grad(v) their
    difference over h. Boundary faces are zero-flux and omitted."""
    drifts = []
    for axis, h in enumerate(grid.spacing):
        lo, hi = face_slices(grid.dimension, axis)
        v_lo, v_hi = v[lo], v[hi]
        drift = params.chi0 * (1.0 + 0.5 * (v_lo + v_hi)) ** (-params.beta)
        drifts.append(drift * (v_hi - v_lo) / h)
    return drifts


def chemotactic_face_flux(
    u: np.ndarray, v: np.ndarray, params: ModelParams, grid: GridDomain
) -> list[np.ndarray]:
    """Upwinded chemotactic flux on interior faces, one array per axis.

    The transported density u^m is taken from the donor cell selected by
    the sign of the face drift.
    """
    fluxes = []
    for axis, drift in enumerate(face_drift(v, params, grid)):
        lo, hi = face_slices(grid.dimension, axis)
        donor = np.where(drift > 0.0, u[lo], u[hi])
        fluxes.append(donor**params.m * drift)
    return fluxes


def flux_divergence(fluxes: list[np.ndarray], grid: GridDomain) -> np.ndarray:
    """Divergence of the face flux with zero boundary faces.

    Each face flux, over h, is added to the cell on its low side and
    subtracted from the cell on its high side.
    """
    div = np.zeros(grid.shape)
    for axis, (flux, h) in enumerate(zip(fluxes, grid.spacing)):
        lo, hi = face_slices(grid.dimension, axis)
        scaled = flux / h
        div[lo] += scaled
        div[hi] -= scaled
    return div


def stable_dt(state: FieldState, params: ModelParams, grid: GridDomain,
              cfg: StepConfig) -> float:
    """Largest step respecting the advective CFL and reaction limits.

    Diffusion is implicit and imposes no limit. Returns sigma_cfl times
    the binding limit, capped at cfg.dt.
    """
    if not (np.all(np.isfinite(state.u)) and np.all(np.isfinite(state.v))):
        raise DegenerateState("state contains non-finite values")
    u_max = float(state.u.max())
    limit = math.inf
    fluxes_scale = max(u_max, 0.0) ** (params.m - 1.0)
    for h, drift in zip(grid.spacing, face_drift(state.v, params, grid)):
        speed = float(np.abs(drift).max()) * fluxes_scale
        if not math.isfinite(speed):
            raise DegenerateState("chemotactic drift is non-finite")
        if speed > 0.0:
            limit = min(limit, h / speed)
    if params.a > 0.0 or params.b > 0.0:
        reaction = params.a + params.b * (1.0 + params.alpha) * u_max**params.alpha
        if reaction > 0.0:
            limit = min(limit, 1.0 / reaction)
    return min(cfg.dt, cfg.sigma_cfl * limit)


def step(
    state: FieldState,
    params: ModelParams,
    grid: GridDomain,
    dt: float,
    cfg: StepConfig,
) -> tuple[FieldState, int]:
    """One IMEX step; returns the new state and the positivity clip count."""
    u, v = state.u, state.v
    div = flux_divergence(chemotactic_face_flux(u, v, params, grid), grid)
    explicit = u + dt * (-div + params.a * u - params.b * u ** (1.0 + params.alpha))
    # Backward-Euler diffusion reuses the screened-Poisson solver with mu = 1/dt:
    # (I - dt lap_h) u = explicit  <=>  ((1/dt) I - lap_h) u = explicit / dt.
    u_new = get_operator(grid, 1.0 / dt).solve(explicit / dt)

    below = u_new < cfg.positivity_floor
    clipped = int(np.count_nonzero(below))
    if clipped:
        u_new = np.where(below, cfg.positivity_floor, u_new)

    max_u = float(u_new.max())
    if not math.isfinite(max_u) or max_u > cfg.blowup_cap:
        raise BlowupDetected(state.time + dt, max_u, cfg.blowup_cap)

    v_new = chemical_field(params, u_new, grid)
    return FieldState(time=state.time + dt, u=u_new, v=v_new), clipped


def _record(traj: Trajectory, state: FieldState, rows: list[tuple[float, ...]]) -> None:
    """Append one sample, its values in SERIES order, to rows."""
    u, v = state.u, state.v
    u_star, vol = traj.eq.u_star, traj.grid.cell_volume
    u_min = float(u.min())
    rows.append((
        state.time,
        u_min,
        float(u.max()),
        float(v.min()),
        float(v.max()),
        float(u.sum()) * vol,
        float(np.abs(u - u_star).max()),
        lyapunov_F(u, u_star, traj.params.m, vol) if u_min > 0.0 else math.nan,
        dissipation_D(u, u_star, traj.params.alpha, vol),
    ))
    if traj.snapshots is not None:
        traj.snapshots.append(state)


def run(
    params: ModelParams,
    grid: GridDomain,
    init: FieldState,
    cfg: StepConfig,
    eq: Equilibrium | None = None,
) -> Trajectory:
    """Integrate to t_end, sampling summaries every output_stride steps.

    Under the fixed policy step k ends at init.time + k dt, so a run takes
    exactly round((t_end - init.time) / dt) steps, plus one final partial
    step when t_end is not on that lattice.

    In the minimal model the reference equilibrium defaults to the initial
    mass average, the constant state that mass conservation selects.
    """
    if eq is None:
        u_star = None
        if params.minimal:
            u_star = float(init.u.sum()) * grid.cell_volume / grid.volume
        eq = equilibrium(params, u_star=u_star)

    traj = Trajectory(params=params, grid=grid, eq=eq)
    if cfg.store_snapshots:
        traj.snapshots = []
    rows: list[tuple[float, ...]] = []

    state = init
    _record(traj, state, rows)
    fixed = cfg.dt_policy == "fixed"
    total, last_dt = _fixed_steps(init.time, cfg) if fixed else (0, 0.0)
    steps = 0
    t_last = state.time
    while (steps < total) if fixed else (state.time < cfg.t_end - 1e-14 * cfg.t_end):
        if fixed:
            dt = cfg.dt if steps + 1 < total else last_dt
        else:
            dt = stable_dt(state, params, grid, cfg)
            remaining = cfg.t_end - state.time
            # Absorb float-accumulation residue into the final step rather than
            # trailing a micro-step (which would also cost an operator build).
            if remaining <= dt * (1.0 + 1e-9):
                dt = remaining
        try:
            state, clipped = step(state, params, grid, dt, cfg)
        except BlowupDetected:
            traj.final_state = state
            _finalize(traj, rows)
            raise
        traj.clip_count += clipped
        steps += 1
        if fixed:
            # Time comes from the step counter, never from a running sum of dt.
            state = replace(state, time=min(init.time + steps * cfg.dt, cfg.t_end))
        if steps % cfg.output_stride == 0:
            _record(traj, state, rows)
            t_last = state.time
    if state.time > t_last:
        _record(traj, state, rows)

    traj.steps_taken = steps
    traj.final_state = state
    _finalize(traj, rows)
    return traj


def _fixed_steps(t0: float, cfg: StepConfig) -> tuple[int, float]:
    """Step count and last step size of a fixed-policy run from t0 to t_end.

    A span within 1e-9 dt of a multiple of dt takes exactly that many steps
    of dt; any other span adds one final partial step that ends at t_end.
    """
    span = (cfg.t_end - t0) / cfg.dt
    full = math.floor(span + 1e-9)
    if span - full <= 1e-9:
        return full, cfg.dt
    return full + 1, cfg.t_end - (t0 + full * cfg.dt)


def _finalize(traj: Trajectory, rows: list[tuple[float, ...]]) -> None:
    columns = np.array(rows, dtype=float).T.copy()
    for name, column in zip(SERIES, columns):
        setattr(traj, name, column)
