"""IMEX time stepping for the population equation.

Each step treats diffusion implicitly (backward Euler, unconditionally
stable), the chemotactic flux explicitly in conservative upwind form, and
the logistic source explicitly. The signal field is re-solved from the
updated density after every step, keeping the elliptic coupling
quasi-static.

The flux kernels (`face_drift`, `chemotactic_face_flux`, `flux_divergence`)
build their results in place, in the order of their written forms: every
float is the written form's, up to the sign of a zero in the divergence
(see `flux_divergence`). At 64 cells a step costs numpy dispatch and
Python bookkeeping rather than arithmetic, so each pass saved shows, and
so does each Python float operand that numpy must convert. So a run's
constants are worked out once, by the records that hold them: the face
geometry per grid (`GridDomain.faces`), the coefficients as read-only 0-d
float64 arrays per parameter record (`ModelParams.scalars`), and dt as
one 0-d array per dt, made by `run` where it builds that dt's diffusion
operator and passed to `step` as its dt. A cfl run takes its steps from a
fixed ladder, cfg.dt 2^(-k/16) (see `stable_dt`), so it builds a
diffusion operator and a 0-d dt only where its step moves to another rung
(or takes up the remaining time), not on every step whose bound moves. On
float64 fields a 0-d operand gives the floats of the Python float, so
`step` takes either as its dt. The kernels,
`chemical_field` and `HelmholtzOperator.solve` use a float64 ndarray, as
every field of a run is, as it is, and convert any other input with
np.asarray as before. `step` and the kernels stay module-level functions
that `run` calls on every step that it integrates.

For the same reason the extrema that a step needs are read by index, not
by a ufunc reduction: min and max of u for the clip and blow-up checks and
the cfl bound, max |drift| for that bound, and min and max of v for a
sample (`core.array_min`, `core.array_max`, `core.max_abs`). Each is
bitwise the reduction it replaces, NaN and signed zeros included, since a
NaN or a zero found by index is handed to the reduction itself.

A run that settles stops integrating. The persistence and convergence
theorems say that bounded positive solutions settle at (u*, v*), and on
the scenario grids the discrete map settles too: `step` returns its input
bit for bit long before t_end. At each sample step k >= 2, `run` compares
the new u with that step's input, bit for bit. If they are equal, v_k is
v_{k-1} too, since both are the run's chemical_field of the same u; so is
the drift, a function of v, and under cfl so is the step bound, a
function of the u extrema and the drift. Every later step of the same dt
would return the same u, v, extrema and clip count, so `run` skips it:
it advances the step count, the time by the same float operations and
the clip count, and takes each sample as the fixed point's row at its
own time. A step of another dt (the fixed policy's final partial step,
or the cfl step that takes up the remaining time) is integrated as usual.
k >= 2 because init.v need not be the run's signal of init.u. Comparing
only at samples keeps the test off the other steps, where at 64 cells it
would cost about 8% of a step.

`discrete_spectrum_check` ties the dispersion relation of `stability` to
the scheme: it applies the linearisation at (u*, v*) of the code that
steps (`face_drift`, `chemotactic_face_flux`, `flux_divergence` and the
logistic source) to the grid's DCT basis fields, and checks that each is
an eigenvector with the rate sigma of its own grid eigenvalue.

The step bound of `stable_dt` does not guarantee positivity. It is taken
axis by axis from the largest face drift, while positivity of the explicit
stage needs a bound for each cell: its outgoing face rates plus its sink
rate. At sigma_cfl = 1 the explicit stage of random repulsive 1D states
does go negative. Until the bound is per cell, the guard is the clip
count: any cell that lands below the configured floor is clipped and
counted, and a nonzero count is treated as a scheme defect by the
acceptance suite.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from functools import reduce
from typing import Literal, get_args

import numpy as np

from .core import (FLOAT64, Equilibrium, FieldState, GridDomain, ModelParams,
                   array_max, array_min, max_abs, read_only_scalar, reference_equilibrium)
from .diagnostics import dissipation_D, lyapunov_F
from .helmholtz import (HelmholtzOperator, _dct_eigenvalues, chemical_field, get_operator,
                        laplacian, solve_block)
from .stability import SWEEP_COLUMNS, _sweep_cells, sigma_n

# The kernels' constants as 0-d arrays (see `core.AxisFaces`).
_ZERO, _HALF, _ONE = read_only_scalar(0.0), read_only_scalar(0.5), read_only_scalar(1.0)

class BlowupDetected(RuntimeError):
    """Density exceeded the blow-up cap; the scheme does not resolve blow-up.

    `cell` is the grid index of the first cell, in C order, at max u; a NaN
    counts as the maximum, as np.argmax takes it.
    """

    def __init__(self, time: float, max_u: float, cap: float, cell: tuple[int, ...]):
        super().__init__(
            f"max u = {max_u:.3e} exceeded cap {cap:.3e} at t = {time:.6g} in cell {cell}"
        )
        self.time = time
        self.max_u = max_u
        self.cap = cap
        self.cell = cell


class DegenerateState(RuntimeError):
    """No usable step size exists: the state contains non-finite values, or
    a cfl step is too small to advance the time (below half an ulp of t)."""


# The step-size policies: StepConfig.dt_policy's type, and through it the
# allowed values of the config key run.dt_policy.
DtPolicy = Literal["fixed", "cfl"]

# Rungs per octave of the cfl step ladder (see `stable_dt`): a step is at
# most 2^(1/16), about 4.4%, below its bound.
LADDER_RUNGS = 16


@dataclass(frozen=True)
class StepConfig:
    """Time-stepping policy and run controls.

    `dt` is the fixed step under the "fixed" policy and the hard cap under
    the "cfl" policy, where each step also respects the advective and
    reaction limits scaled by `sigma_cfl`: it is the largest rung
    dt 2^(-k/16), k >= 0, of a fixed ladder at or below that bound (see
    `stable_dt`). `t_end`, `dt` and `positivity_floor` must be finite, and
    so must the step count t_end / dt under "fixed"; `blowup_cap` may be
    infinite (no cap) but not NaN.
    """

    t_end: float
    dt: float = 1e-3
    dt_policy: DtPolicy = "fixed"
    sigma_cfl: float = 0.9
    output_stride: int = 10
    blowup_cap: float = 1e6
    positivity_floor: float = 0.0
    store_snapshots: bool = False

    def __post_init__(self) -> None:
        # NaN fails every comparison, so finiteness is tested by name.
        if not math.isfinite(self.t_end) or self.t_end <= 0.0:
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if not math.isfinite(self.dt) or self.dt <= 0.0:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.dt_policy not in get_args(DtPolicy):
            raise ValueError(f"dt_policy must be 'fixed' or 'cfl', got {self.dt_policy}")
        # Under "fixed" a run takes about t_end / dt steps; under "cfl" dt is
        # only a cap.
        if self.dt_policy == "fixed" and not math.isfinite(self.t_end / self.dt):
            raise ValueError(
                f"t_end / dt must be finite under the fixed policy, got "
                f"t_end = {self.t_end}, dt = {self.dt}"
            )
        if not 0.0 < self.sigma_cfl <= 1.0:
            raise ValueError(f"sigma_cfl must be in (0, 1], got {self.sigma_cfl}")
        # A stride is a whole step count: 1.5 would sample every third step.
        try:
            stride = operator.index(self.output_stride)
        except TypeError:
            raise ValueError(
                f"output_stride must be an integer, got {self.output_stride!r}"
            ) from None
        if stride < 1:
            raise ValueError(f"output_stride must be >= 1, got {stride}")
        object.__setattr__(self, "output_stride", stride)
        # An infinite cap is no cap; a NaN cap would silently be none too.
        if not self.blowup_cap > 0.0:
            raise ValueError(f"blowup_cap must be positive, got {self.blowup_cap}")
        if not math.isfinite(self.positivity_floor) or self.positivity_floor < 0.0:
            raise ValueError(
                f"positivity_floor must be >= 0 and finite, got {self.positivity_floor}"
            )


# The per-sample series of a Trajectory; the CSV names `times` "t".
SERIES = ("times", "u_min", "u_max", "v_min", "v_max", "mass", "err_inf",
          "lyapunov", "dissipation")
TRAJECTORY_CSV_HEADER = ",".join(("t",) + SERIES[1:])


@dataclass
class Trajectory:
    """Per-sample summaries of one run plus the final state.

    `dissipation` is the instantaneous integral (u - u*)(u^alpha - u*^alpha);
    time-integrated budgets are computed downstream by trapezoid rule.
    `steps_taken` is the run's step count, and `steps_integrated` the steps
    among them that called `step`: `run` skips the steps that would return
    a fixed point unchanged. Snapshots taken while skipping share the fixed
    point's u and v arrays, and so does the final state if the last step
    is skipped.
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
    steps_integrated: int = 0
    final_state: FieldState | None = None
    snapshots: list[FieldState] | None = None

    def __len__(self) -> int:
        return len(self.times)

    @property
    def mass_drift(self) -> float:
        """max_k |mass_k - mass_0| / mass_0, the relative mass drift of the
        run; the minimal model conserves mass, so there it should be ~0."""
        return float(np.max(np.abs(self.mass - self.mass[0])) / self.mass[0])

    def write_csv(self, path: str) -> None:
        """One row per sample; raises ValueError if the series differ in length."""
        columns = [getattr(self, name) for name in SERIES]
        lengths = {name: len(column) for name, column in zip(SERIES, columns)}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"trajectory series differ in length: {lengths}")
        with open(path, "w", newline="\n") as fh:
            fh.write(TRAJECTORY_CSV_HEADER + "\n")
            for row in zip(*columns):
                fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


def face_drift(v: np.ndarray, params: ModelParams, grid: GridDomain) -> list[np.ndarray]:
    """Chemotactic drift chi0 (1 + v_face)^(-beta) grad(v) on interior faces,
    one array per axis; v_face is the mean of the two cells, grad(v) their
    difference over h. Boundary faces are zero-flux and omitted.

    Each drift is built in place on its first temporary, in the order of
    the written form (chi0 (1 + 0.5 (v_lo + v_hi))^(-beta)) (v_hi - v_lo) / h,
    so every float is that of the written form.
    """
    # In-place arithmetic needs a float64 buffer. The run's own fields pass
    # as they are; anything else (a list, integers, float32) is converted.
    if v.__class__ is not np.ndarray or v.dtype is not FLOAT64:
        v = np.asarray(v, dtype=float)
    scalars = params.scalars
    drifts = []
    for lo, hi, h, _, _ in grid.faces:
        v_lo, v_hi = v[lo], v[hi]
        if params.beta == 0.0:
            # The saturation factor is exactly 1 and is skipped.
            drift = v_hi - v_lo
            drift *= scalars.chi0
        else:
            drift = v_lo + v_hi
            drift *= _HALF
            drift += _ONE
            drift **= scalars.neg_beta
            drift *= scalars.chi0
            drift *= v_hi - v_lo
        drift /= h
        drifts.append(drift)
    return drifts


def chemotactic_face_flux(
    u: np.ndarray, drifts: list[np.ndarray], params: ModelParams, grid: GridDomain,
) -> list[np.ndarray]:
    """Upwinded chemotactic flux on interior faces, one array per axis.

    `drifts` is face_drift(v, params, grid). On each axis the transported
    density u^m is taken from the donor cell selected by the sign of the
    face drift, and the flux u_donor^m drift is built in place on the donor
    array; with m = 1 the power is skipped. Axes of u after the grid's are
    carried along, so one call takes the flux of a stack of densities.
    """
    if u.__class__ is not np.ndarray or u.dtype is not FLOAT64:
        u = np.asarray(u, dtype=float)
    fluxes = []
    for (lo, hi, _, _, _), drift in zip(grid.faces, drifts):
        flux = np.where(drift > _ZERO, u[lo], u[hi])
        # With m = 1, donor**m is donor itself and is skipped.
        if params.m != 1.0:
            flux **= params.scalars.m
        flux *= drift
        fluxes.append(flux)
    return fluxes


def flux_divergence(fluxes: list[np.ndarray], grid: GridDomain) -> np.ndarray:
    """Divergence of the face flux with zero boundary faces.

    Each axis's flux, over h, goes into the interior of a zero-padded array
    over all its faces (`AxisFaces.padded`), so every cell has a face on
    either side. The first axis's divergence is then one difference, high
    face minus low face; each later axis adds its high face and subtracts
    its low face in place. That rounds as adding each face flux to the cell
    on its low side and subtracting it from the cell on its high side,
    starting from zero, so every float is that form's, except that a zero
    can change sign (a padded difference -0.0 - 0.0 is -0.0 where that
    form's 0.0 + -0.0 is 0.0). Axes after the grid's are carried along, so
    one call takes the divergence of a stack of fluxes.

    A first-axis flux that is not a float64 ndarray (a list, say) is
    converted with np.asarray, as the other kernels convert their input,
    for its shape; np.divide converts the later axes' as it reads them.
    """
    flux = fluxes[0]
    if flux.__class__ is not np.ndarray or flux.dtype is not FLOAT64:
        flux = np.asarray(flux, dtype=float)
    lo, hi, h, padded, interior = grid.faces[0]
    stack = flux.shape[grid.dimension:]
    faces = np.zeros(padded + stack)
    np.divide(flux, h, faces[interior])
    div = np.subtract(faces[hi], faces[lo])
    for axis in range(1, grid.dimension):
        lo, hi, h, padded, interior = grid.faces[axis]
        faces = np.zeros(padded + stack)
        np.divide(fluxes[axis], h, faces[interior])
        div += faces[hi]
        div -= faces[lo]
    return div


def _dct_fields(grid: GridDomain, modes: tuple[np.ndarray, ...]) -> np.ndarray:
    """The DCT-II basis fields of the given modes, stacked on a trailing
    axis. Along an axis of n cells mode k is cos(pi (2i + 1) k / (2n)) in
    cell i; the phase (2i + 1) k is reduced mod 4n in integers first, so
    the argument of cos rounds once, whatever k. A rectangle's field is
    the product of its two axes' fields.
    """
    fields = 1.0
    for axis, (n, k) in enumerate(zip(grid.cells, modes)):
        phase = (2 * np.arange(n)[:, None] + 1) * k % (4 * n)
        shape = [1] * grid.dimension + [len(k)]
        shape[axis] = n
        fields = fields * np.cos(np.pi * phase / (2 * n)).reshape(shape)
    return fields


def _equilibrium_jacobian(
    params: ModelParams, eq: Equilibrium, grid: GridDomain, fields: np.ndarray
) -> np.ndarray:
    """J w for each field w of a stack (*grid.shape, k): J is the Jacobian
    at (u*, v*) of the right-hand side that `step` takes,

        G(u) = lap_h u - div_h(flux(u, v(u))) + a u - b u^(1+alpha),
        v(u) = (mu I - lap_h)^{-1} nu u^gamma,

    applied, never formed. The signal's response goes through one stacked,
    certified `HelmholtzOperator.solve`, the flux's through the stepping
    code's face_drift, chemotactic_face_flux and flux_divergence.
    """
    # The signal response (mu I - lap_h)^{-1} nu gamma u*^(gamma-1) w.
    gain = params.nu * params.gamma * eq.u_star ** (params.gamma - 1.0)
    response = get_operator(grid, params.mu).solve(gain * fields)
    # At the constant v* the derivative of (1 + v_face)^(-beta) (v_hi - v_lo) / h
    # is (1 + v*)^(-beta) (dv_hi - dv_lo) / h, since the factor's own derivative
    # multiplies v_hi - v_lo = 0. So face_drift with that factor folded into
    # chi0 and beta = 0 gives the drift's derivative exactly.
    frozen = replace(params, chi0=params.chi0 * (1.0 + eq.v_star) ** (-params.beta), beta=0.0)
    drifts = face_drift(response, frozen, grid)
    # The drift at (u*, v*) is 0, so the donor choice and the derivative of
    # the donor density drop out: the flux's derivative is u*^m times the
    # drift's, which is the flux of the constant u*.
    flux = chemotactic_face_flux(np.full((*grid.shape, 1), eq.u_star), drifts, params, grid)
    reaction = params.a - params.b * (1.0 + params.alpha) * eq.u_star**params.alpha
    return laplacian(fields, grid) - flux_divergence(flux, grid) + reaction * fields


@dataclass(frozen=True)
class DiscreteSpectrumReport:
    """Agreement between the discrete linearization and the dispersion relation."""

    grid_eigenvalues: tuple[float, ...]      # lambda_h of the reported modes, ascending
    predicted: tuple[float, ...]             # sigma on those eigenvalues
    residuals: tuple[float, ...]             # |J q_k - sigma q_k|_inf of those modes
    max_spectrum_residual: float             # the same, over all n modes
    n_modes: int


def discrete_spectrum_check(
    params: ModelParams,
    eq: Equilibrium,
    grid: GridDomain,
    n_modes: int,
) -> DiscreteSpectrumReport:
    """Verify that the scheme's linearization reproduces sigma on the grid
    eigenvalues, mode by mode.

    lap_h is diagonal in the grid's DCT-II basis, and at (u*, v*) J (see
    `_equilibrium_jacobian`) is a rational function of lap_h. So each basis
    field q_k, its entries of modulus at most 1, is an eigenvector of J with
    eigenvalue sigma(lambda_h,k). The check applies J through the stepping
    code to every q_k, SWEEP_COLUMNS at a time, and reports
    |J q_k - sigma(lambda_h,k) q_k|_inf for the first n_modes + 1 modes in
    ascending lambda_h, and its maximum over all n modes.

    That maximum bounds the whole spectrum: J is symmetric and
    |q_k|_2^2 >= n / 2^d on a d-dimensional grid, so J differs from
    Q diag(sigma) Q^T, Q the normalised basis, by at most sqrt(2^d n) times
    the maximum in the 2-norm, and by Weyl's inequality so does each sorted
    eigenvalue of J from the sorted sigma(lambda_h,k).

    The sweep costs O(n^2), so above SWEEP_CELL_LIMIT cells it raises
    SweepTooLarge before any solve. A solve that misses the residual
    contract raises SolverFailure.
    """
    n = grid.total_cells
    if n_modes < 1 or n_modes >= n:
        raise ValueError(f"n_modes must be in [1, {n - 1}], got {n_modes}")
    _sweep_cells(grid)
    # lambda_h of every mode, ascending, and its DCT-II index on each axis; on
    # a rectangle lambda_x + lambda_y, sorted stably over the index pairs.
    lam = reduce(np.add.outer, [_dct_eigenvalues(m, h) for m, h in zip(grid.cells, grid.spacing)])
    order = np.argsort(lam, axis=None, kind="stable")
    lam, modes = lam.ravel()[order], np.unravel_index(order, grid.shape)
    predicted = np.asarray(sigma_n(params, eq, lam))
    residuals = np.empty(n)
    grid_axes = tuple(range(grid.dimension))
    for start in range(0, n, SWEEP_COLUMNS):
        block = slice(start, start + SWEEP_COLUMNS)
        fields = _dct_fields(grid, tuple(k[block] for k in modes))
        misfit = _equilibrium_jacobian(params, eq, grid, fields) - predicted[block] * fields
        residuals[block] = np.abs(misfit).max(axis=grid_axes)

    keep = n_modes + 1
    return DiscreteSpectrumReport(
        grid_eigenvalues=tuple(float(x) for x in lam[:keep]),
        predicted=tuple(float(x) for x in predicted[:keep]),
        residuals=tuple(float(x) for x in residuals[:keep]),
        max_spectrum_residual=float(residuals.max()),
        n_modes=n_modes,
    )


def _rung(cap: float, k: int) -> float:
    """Rung k of the step ladder under cap: cap 2^(-k / LADDER_RUNGS)."""
    return cap * 2.0 ** (-k / LADDER_RUNGS)


def _ladder_step(cap: float, bound: float) -> float:
    """The largest rung of the step ladder under cap at or below bound:
    cap itself when bound >= cap, else _rung(cap, k) for some k >= 1."""
    if bound >= cap:
        return cap
    if bound == 0.0:
        # An underflowed limit; `run` refuses the step, as it cannot advance the time.
        return bound
    # The difference of logs does not overflow where cap / bound would.
    # Where log2's rounding puts k one rung off, as it often does for a
    # bound on or next to a rung, the rungs themselves move it back.
    k = math.ceil(LADDER_RUNGS * (math.log2(cap) - math.log2(bound)))
    if _rung(cap, k) > bound:
        k += 1
    elif _rung(cap, k - 1) <= bound:
        k -= 1
    return _rung(cap, k)


def stable_dt(u_min: float, u_max: float, drifts: list[np.ndarray], params: ModelParams,
              grid: GridDomain, cfg: StepConfig) -> float:
    """Largest step respecting the advective CFL and reaction limits.

    Diffusion is implicit and imposes no limit. The bound is sigma_cfl
    times the binding limit. At or above cfg.dt it returns cfg.dt; below,
    the largest rung cfg.dt 2^(-k / LADDER_RUNGS), k >= 1, of the step
    ladder at or below the bound, which is within a factor 2^(-1/16) of
    it. Each rung is one float, built by one expression, so the dt of a
    run changes only where its bound crosses a rung, and `run` builds a
    diffusion operator per change of rung, not per step. Any limit that a
    later term adds enters the bound before the ladder.

    The bound is taken at the extrema u_min, u_max of the density, as
    `core.array_min(u)` and `core.array_max(u)` give them, and at the face
    drifts face_drift(v, params, grid), whose largest speed is
    `core.max_abs` of each drift. Each is read by index and is bitwise the
    ufunc reduction's. `run` finds the initial state's extrema once, and
    after that carries the extrema that each `step` returns.

    Raises DegenerateState for a non-finite state, read off the values the
    bound takes anyway: NaN or +inf in u shows in u_max, -inf in u_min.
    NaN or an infinity in v makes the drift speed non-finite, since every
    cell touches an interior face and even chi0 = 0 times an infinite
    difference is NaN; so does a drift that overflows. A finite u_max whose
    power u_max^(m - 1) or u_max^alpha overflows a float raises it too.
    """
    if not (math.isfinite(u_max) and math.isfinite(u_min)):
        raise DegenerateState("density contains non-finite values")
    limit = math.inf
    try:
        fluxes_scale = max(u_max, 0.0) ** (params.m - 1.0)
        for h, drift in zip(grid.spacing, drifts):
            speed = max_abs(drift) * fluxes_scale
            if not math.isfinite(speed):
                raise DegenerateState("chemotactic drift is non-finite")
            if speed > 0.0:
                limit = min(limit, h / speed)
        if params.a > 0.0 or params.b > 0.0:
            reaction = params.a + params.b * (1.0 + params.alpha) * u_max**params.alpha
            if reaction > 0.0:
                limit = min(limit, 1.0 / reaction)
    except OverflowError:
        raise DegenerateState(f"the step bound overflows at max(u) = {u_max!r}") from None
    return _ladder_step(cfg.dt, cfg.sigma_cfl * limit)


def step(
    u: np.ndarray,
    drifts: list[np.ndarray],
    time: float,
    params: ModelParams,
    grid: GridDomain,
    dt: float | np.ndarray,
    cfg: StepConfig,
    diffusion: HelmholtzOperator,
    signal: HelmholtzOperator,
) -> tuple[np.ndarray, np.ndarray, int, float, float]:
    """One IMEX step from the density u at `time`; `drifts` is
    face_drift(v, params, grid) of its signal field v.

    Returns the new fields u, v, the positivity clip count, and the
    extrema min(u) and max(u) of the new density, which are finite, read by
    index with `core.array_min` and `core.array_max` (bitwise the ufunc
    reductions). Raises BlowupDetected, at the Python float time + dt and
    naming the cell of max(u), when max(u) is not finite or above the cap.

    `dt` is the step size as the explicit stage's operand: a Python float,
    or a read-only 0-d float64 array, which `run` makes once per dt, with
    the diffusion operator. Both give the same floats. `diffusion` and
    `signal` are get_operator(grid, 1 / dt) and get_operator(grid,
    params.mu); they certify the step's two solves at once or in the block
    they were built with (see `run`).
    """
    div = flux_divergence(chemotactic_face_flux(u, drifts, params, grid), grid)
    # The explicit stage u + dt (a u - div - b u^(1+alpha)), over dt, built in
    # place on div's buffer. Each operation rounds as in the written form
    # (u + dt * (-div + a u - b u^(1+alpha))) / dt, since x + (-y) is x - y
    # and + and * commute in IEEE arithmetic, so every bit is the same. A
    # factor a or b of exactly 1 is skipped.
    scalars = params.scalars
    stage = np.subtract(u if params.a == 1.0 else scalars.a * u, div, out=div)
    sink = u ** scalars.sink_exponent
    if params.b != 1.0:
        sink *= scalars.b
    stage -= sink
    stage *= dt
    stage += u
    # Backward-Euler diffusion reuses the screened-Poisson solver with mu = 1/dt:
    # (I - dt lap_h) u = explicit  <=>  ((1/dt) I - lap_h) u = explicit / dt.
    stage /= dt
    u_new = diffusion.solve(stage)

    # The minimum decides whether any cell needs clipping. A NaN cell makes
    # the minimum NaN, so nothing is clipped, and BlowupDetected follows.
    clipped = 0
    u_min = array_min(u_new)
    if u_min < cfg.positivity_floor:
        below = u_new < cfg.positivity_floor
        clipped = int(np.count_nonzero(below))
        u_new = np.where(below, cfg.positivity_floor, u_new)
        u_min = array_min(u_new)

    u_max = array_max(u_new)
    if not math.isfinite(u_max) or u_max > cfg.blowup_cap:
        # The cell is located only here, on the way out.
        cell = tuple(int(i) for i in np.unravel_index(np.argmax(u_new), u_new.shape))
        raise BlowupDetected(time + float(dt), u_max, cfg.blowup_cap, cell)

    v_new = chemical_field(params, u_new, signal)
    return u_new, v_new, clipped, u_min, u_max


def _record(traj: Trajectory, state: FieldState, u_min: float, u_max: float,
            rows: list[tuple[float, ...]]) -> None:
    """Append one sample, its values in SERIES order, to rows; u_min and
    u_max are the extrema of state.u, which `run` already holds."""
    u, v = state.u, state.v
    u_star, vol = traj.eq.u_star, traj.grid.cell_volume
    rows.append((
        state.time,
        u_min,
        u_max,
        array_min(v),
        array_max(v),
        float(u.sum()) * vol,
        # max |u - u*| from the extrema: x -> fl(x - u*) is monotone under
        # round-to-nearest, so the largest |fl(u_i - u*)| is at u_max or
        # u_min, bit for bit; NaN in u makes both extrema NaN.
        max(abs(u_max - u_star), abs(u_min - u_star)),
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
    step when t_end is not on that lattice. A t_end at or before init.time
    raises ValueError before any solve. Under the cfl policy a step too
    small to advance the time (dt below half an ulp of t) raises
    DegenerateState before it is built or taken.

    `eq` defaults to `reference_equilibrium` of the initial density.

    The loop steps the bare fields u, v and works out once what does not
    change from step to step. A FieldState is built only for a state that
    leaves the run: a sample, a snapshot or the final state. The signal
    operator is built once, the diffusion operator and the 0-d dt that
    `step` takes again only when dt changes. One face drift per step serves
    the flux and the cfl bound. Samples and the bound take the u extrema
    that the previous step's clip and blow-up checks found, and the initial
    state's, found once. The floats, counts and errors are those of a loop
    that builds a FieldState, both operators and the drift on every step
    and reduces u afresh.

    Both operators are built with the block of `with solve_block(grid)`,
    which certifies the solves of successive steps together on small grids
    (see `helmholtz`): when it is full and when the loop leaves the `with`.
    Samples and states leave the run only in the returned Trajectory, and a
    failing solve raises what certifying it at once would have raised, in
    place of any later error. The floats are the same either way.

    From the first sample step k >= 2 whose u is bitwise that step's
    input, every step of that step's dt is skipped (see the module
    docstring): its sample is the fixed point's row at its own time, and
    its clips are the fixed point's. `steps_taken` counts every step,
    `steps_integrated` the steps that called `step`. The floats, counts and
    errors are still those of the loop that integrates every step.
    """
    if cfg.t_end <= init.time:
        raise ValueError(f"t_end = {cfg.t_end} must be after the initial time {init.time}")
    if eq is None:
        eq = reference_equilibrium(params, grid, u0=init.u)

    traj = Trajectory(params=params, grid=grid, eq=eq)
    if cfg.store_snapshots:
        traj.snapshots = []
    rows: list[tuple[float, ...]] = []

    state = init
    u, v, time = init.u, init.v, init.time
    # The initial state's extrema; each step returns the next ones.
    u_min, u_max = array_min(u), array_max(u)
    _record(traj, state, u_min, u_max, rows)
    # The per-step constants, bound once.
    t0, t_end, cfg_dt, stride = init.time, cfg.t_end, cfg.dt, cfg.output_stride
    fixed = cfg.dt_policy == "fixed"
    total, last_dt = _fixed_steps(t0, t_end, cfg_dt) if fixed else (0, 0.0)
    t_stop = t_end - 1e-14 * t_end
    diffusion = diffusion_dt = None
    steps = clips = integrated = 0
    t_last = time
    # The dt of a step that returned its input, while u is that fixed point;
    # every step of that dt is then skipped. None while u is not.
    settled_dt = None
    with solve_block(grid) as block:
        signal = get_operator(grid, params.mu, block)
        while (steps < total) if fixed else (time < t_stop):
            if settled_dt is None:
                # One drift per step serves the flux and, under cfl, the step
                # bound. At a fixed point both are those of the settled step.
                drifts = face_drift(v, params, grid)
                if not fixed:
                    bound = stable_dt(u_min, u_max, drifts, params, grid, cfg)
            if fixed:
                dt = cfg_dt if steps + 1 < total else last_dt
            else:
                dt = bound
                remaining = t_end - time
                # Absorb float-accumulation residue into the final step rather
                # than trailing a micro-step (which would also cost an operator
                # build).
                if remaining <= dt * (1.0 + 1e-9):
                    dt = remaining
                # A step below half an ulp of the time would leave the clock
                # where it is, and the run would never end.
                t_next = time + dt
                if t_next == time:
                    raise DegenerateState(
                        f"step dt = {dt!r} does not advance the time t = {time!r}"
                    )
            if dt != settled_dt:
                settled_dt = None
                if dt != diffusion_dt:
                    diffusion, diffusion_dt = get_operator(grid, 1.0 / dt, block), dt
                    dt_operand = read_only_scalar(dt)
                u_in = u
                u, v, clipped, u_min, u_max = step(u, drifts, time, params, grid, dt_operand,
                                                   cfg, diffusion, signal)
                integrated += 1
            clips += clipped
            steps += 1
            # Under fixed, time comes from the step counter, never from a
            # running sum of dt.
            time = min(t0 + steps * cfg_dt, t_end) if fixed else t_next
            if steps % stride == 0:
                state = FieldState(time=time, u=u, v=v)
                if settled_dt is None:
                    _record(traj, state, u_min, u_max, rows)
                    # From step 2 on, v is the run's own chemical_field of u,
                    # so a step that returned u bit for bit is a fixed point.
                    if steps >= 2 and u.tobytes() == u_in.tobytes():
                        settled_dt = dt
                else:
                    rows.append((time,) + rows[-1][1:])
                    if traj.snapshots is not None:
                        traj.snapshots.append(state)
                t_last = time
    if steps % stride:
        state = FieldState(time=time, u=u, v=v)
        if time > t_last:
            _record(traj, state, u_min, u_max, rows)

    traj.clip_count = clips
    traj.steps_taken = steps
    traj.steps_integrated = integrated
    traj.final_state = state
    columns = np.array(rows, dtype=float).T.copy()
    for name, column in zip(SERIES, columns):
        setattr(traj, name, column)
    return traj


def _fixed_steps(t0: float, t_end: float, dt: float) -> tuple[int, float]:
    """Step count and last step size of a run of fixed steps dt from t0 to t_end.

    A span within 1e-9 dt of a multiple of dt takes exactly that many steps
    of dt; any other span adds one final partial step that ends at t_end.
    """
    span = (t_end - t0) / dt
    full = math.floor(span + 1e-9)
    if span - full <= 1e-9:
        return full, dt
    return full + 1, t_end - (t0 + full * dt)
