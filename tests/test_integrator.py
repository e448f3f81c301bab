"""Time stepping: conservation, reaction accuracy, caps, and sampling."""

import dataclasses
import math
import re
from contextlib import contextmanager, nullcontext
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from chemostab import (
    BlowupDetected,
    Equilibrium,
    FieldState,
    GridDomain,
    InitSpec,
    StepConfig,
    Trajectory,
    equilibrium,
    init_state,
    lyapunov_F,
    run,
    stable_dt,
    step,
)
import chemostab
from chemostab.core import ModelParams, mass_average, read_only_scalar
from chemostab.helmholtz import (
    RESIDUAL_RTOL,
    NonFiniteInput,
    SolveBlock,
    SolverFailure,
    get_operator,
    laplacian,
    solve_block,
)
from chemostab.integrator import (
    SERIES,
    TRAJECTORY_CSV_HEADER,
    DegenerateState,
    _fixed_steps,
    _ladder_step,
    _record,
    chemotactic_face_flux,
    face_drift,
    flux_divergence,
)
from conftest import (
    face_cells,
    make_params,
    oracle_face_drift,
    oracle_face_flux,
    oracle_flux_divergence,
)


def step_at(u, v, time, p, grid, dt, cfg):
    """`step` from the fields u, v, with the drift of v and both operators
    built afresh."""
    return step(u, face_drift(v, p, grid), time, p, grid, dt, cfg,
                get_operator(grid, 1.0 / dt), get_operator(grid, p.mu))


def record(traj, state, rows):
    """`_record` with the extrema of state.u reduced afresh."""
    _record(traj, state, float(state.u.min()), float(state.u.max()), rows)


def bound_at(state, p, grid, cfg):
    """stable_dt at a state: its u extrema and its drift computed afresh."""
    return stable_dt(float(state.u.min()), float(state.u.max()), face_drift(state.v, p, grid),
                     p, grid, cfg)


def ladder(cap):
    """The rungs cap 2^(-k/16) of the cfl step ladder, k = 0, 1, ..., as a
    plain list down to 2^-64 cap."""
    return [cap * 2.0 ** (-k / 16) for k in range(64 * 16 + 1)]


def largest_rung(cap, bound):
    """The largest rung of the ladder under cap at or below bound."""
    return next(rung for rung in ladder(cap) if rung <= bound)


def logistic_exact(u0: float, t: float) -> float:
    """u' = u (1 - u), closed form."""
    return u0 / (u0 + (1.0 - u0) * math.exp(-t))


class TestStepConfig:
    def test_defaults(self):
        cfg = StepConfig(t_end=1.0)
        assert cfg.dt == 1e-3
        assert cfg.dt_policy == "fixed"
        assert cfg.output_stride == 10

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(t_end=0.0),
            dict(t_end=1.0, dt=0.0),
            dict(t_end=1.0, dt_policy="adaptive"),
            dict(t_end=1.0, sigma_cfl=0.0),
            dict(t_end=1.0, sigma_cfl=1.5),
            dict(t_end=1.0, output_stride=0),
            dict(t_end=1.0, blowup_cap=0.0),
            dict(t_end=1.0, positivity_floor=-1.0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            StepConfig(**kwargs)

    @pytest.mark.parametrize("stride", [1.5, 2.0, "3"])
    def test_stride_must_be_an_integer(self, stride):
        # 1.5 used to sample every third step.
        with pytest.raises(ValueError, match="output_stride must be an integer"):
            StepConfig(t_end=1.0, output_stride=stride)

    def test_numpy_integer_stride_is_an_int(self):
        cfg = StepConfig(t_end=1.0, output_stride=np.int64(4))
        assert type(cfg.output_stride) is int and cfg.output_stride == 4

    @pytest.mark.parametrize(
        "name, value",
        [
            ("t_end", math.nan), ("t_end", math.inf),
            ("dt", math.nan), ("dt", math.inf),
            ("positivity_floor", math.nan), ("positivity_floor", math.inf),
            ("blowup_cap", math.nan),
        ],
    )
    def test_non_finite_values_rejected(self, name, value):
        # Each once got through: a NaN t_end or dt made run die with an
        # untyped error, an infinite dt took no step, a NaN cap or floor
        # turned blow-up detection or clipping off.
        with pytest.raises(ValueError, match=name):
            StepConfig(**{"t_end": 1.0, name: value})

    @pytest.mark.parametrize("t_end, dt", [(1.0, 5e-324), (1e300, 1e-300)])
    def test_fixed_step_count_must_be_finite(self, t_end, dt):
        # t_end / dt overflows: run used to die with OverflowError before the
        # first step. Under cfl, dt is only a cap, so the same values stand.
        with pytest.raises(ValueError, match="t_end / dt"):
            StepConfig(t_end=t_end, dt=dt)
        assert StepConfig(t_end=t_end, dt=dt, dt_policy="cfl").dt == dt

    def test_infinite_blowup_cap_means_no_cap(self):
        assert StepConfig(t_end=1.0, blowup_cap=math.inf).blowup_cap == math.inf


class TestFlux:
    def test_zero_for_flat_signal(self, interval_pi, rng):
        p = make_params(chi0=2.0)
        u = rng.uniform(0.5, 2.0, size=64)
        v = np.full(64, 0.7)
        fluxes = chemotactic_face_flux(u, face_drift(v, p, interval_pi), p, interval_pi)
        assert np.all(fluxes[0] == 0.0)

    def test_divergence_telescopes(self, interval_pi, rng):
        # Interior fluxes cancel in the cell sum: exact discrete conservation.
        p = make_params(chi0=1.3, beta=1.0)
        u = rng.uniform(0.5, 2.0, size=64)
        v = rng.uniform(0.1, 1.0, size=64)
        fluxes = chemotactic_face_flux(u, face_drift(v, p, interval_pi), p, interval_pi)
        div = flux_divergence(fluxes, interval_pi)
        assert abs(div.sum()) < 1e-12 * np.abs(div).sum()

    @pytest.mark.parametrize(
        "grid",
        [GridDomain.interval(math.pi, 64), GridDomain.rectangle(1.0, 2.5, 12, 20)],
        ids=["1d", "2d"],
    )
    def test_divergence_matches_padded_difference(self, grid, rng):
        fluxes = []
        for axis in range(grid.dimension):
            shape = list(grid.shape)
            shape[axis] -= 1
            fluxes.append(rng.normal(0.0, 1.0, size=shape))
        expected = np.zeros(grid.shape)
        for axis, flux in enumerate(fluxes):
            pad = [(0, 0)] * grid.dimension
            pad[axis] = (1, 1)
            expected += np.diff(np.pad(flux, pad), axis=axis) / grid.spacing[axis]
        div = flux_divergence(fluxes, grid)
        assert np.abs(div - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_upwind_takes_donor_cell(self):
        g = GridDomain.interval(1.0, 8)
        p = make_params(chi0=1.0, beta=0.0, m=2.0)
        u = np.arange(1.0, 9.0)
        v = np.linspace(0.0, 1.0, 8)  # increasing, so drift > 0 everywhere
        (flux,) = chemotactic_face_flux(u, face_drift(v, p, g), p, g)
        drift = (v[1:] - v[:-1]) / g.spacing[0] * (1.0 + 0.5 * (v[1:] + v[:-1])) ** 0
        assert flux == pytest.approx(u[:-1] ** 2 * drift, rel=1e-13)

    @pytest.mark.parametrize(
        "grid, beta, m",
        [(grid, beta, m)
         for beta, m in [(1.5, 2.0), (0.5, 1.0), (0.0, 1.0)]
         for grid in (GridDomain.interval(math.pi, 64), GridDomain.rectangle(1.0, 2.5, 12, 20))],
        ids=["1d", "2d", "1d-beta0.5-m1", "2d-beta0.5-m1", "1d-beta0-m1", "2d-beta0-m1"],
    )
    def test_flux_and_stable_dt_are_built_from_face_drift(self, grid, beta, m, rng):
        p = make_params(chi0=1.7, beta=beta, m=m, a=0.0, b=0.0)
        u = rng.uniform(0.5, 2.0, size=grid.shape)
        v = rng.uniform(0.1, 1.0, size=grid.shape)
        drifts = face_drift(v, p, grid)
        fluxes = chemotactic_face_flux(u, drifts, p, grid)
        for axis, (flux, drift) in enumerate(zip(fluxes, drifts)):
            lo, hi = face_cells(grid.dimension, axis)
            v_lo, v_hi, h = v[lo], v[hi], grid.spacing[axis]
            # The full expression, every factor evaluated even when it is 1:
            # skipping a unit factor must not move a bit.
            expected = p.chi0 * (1 + 0.5 * (v_lo + v_hi)) ** (-p.beta) * (v_hi - v_lo) / h
            assert drift.tobytes() == expected.tobytes()
            donor = np.where(drift > 0.0, u[lo], u[hi])
            assert flux.tobytes() == (donor**p.m * drift).tobytes()
        # No reaction limit (a = b = 0) and a loose cap: the advective limit
        # binds, and the step is the ladder's rung at or just below it.
        cfg = StepConfig(t_end=1.0, dt=10.0, dt_policy="cfl")
        scale = float(u.max()) ** (p.m - 1.0)
        limit = min(h / (float(np.abs(drift).max()) * scale)
                    for h, drift in zip(grid.spacing, drifts))
        assert (bound_at(FieldState(0.0, u, v), p, grid, cfg)
                == largest_rung(cfg.dt, cfg.sigma_cfl * limit))


# The kernels' grids: 1D, a non-square 2D grid, and both with a trailing
# stack axis, the shape the discrete stability check passes.
KERNEL_GRIDS = {
    "1d": (GridDomain.interval(math.pi, 64), ()),
    "2d": (GridDomain.rectangle(1.0, 2.5, 12, 20), ()),
    "1d-stack": (GridDomain.interval(math.pi, 64), (3,)),
    "2d-stack": (GridDomain.rectangle(1.0, 2.5, 12, 20), (3,)),
}


class TestKernelsMatchOracles:
    """face_drift, chemotactic_face_flux and flux_divergence read the grid's
    face geometry and build in place; every bit must be that of the written
    forms with per-call slices in conftest."""

    @pytest.mark.parametrize("name", KERNEL_GRIDS)
    @pytest.mark.parametrize("chi0, beta, m", [(1.7, 0.0, 1.0), (-2.3, 0.0, 1.0),
                                               (1.7, 1.5, 2.0), (-0.8, 0.5, 1.0),
                                               (3.1, 1.0, 1.5)])
    def test_bitwise_the_oracles(self, name, chi0, beta, m, rng):
        grid, stack = KERNEL_GRIDS[name]
        p = make_params(chi0=chi0, beta=beta, m=m)
        u = rng.uniform(0.5, 2.0, size=grid.shape + stack)
        v = rng.uniform(0.1, 1.0, size=grid.shape + stack)
        drifts = face_drift(v, p, grid)
        expected_drifts = oracle_face_drift(v, p, grid)
        assert [d.tobytes() for d in drifts] == [d.tobytes() for d in expected_drifts]
        fluxes = chemotactic_face_flux(u, drifts, p, grid)
        expected_fluxes = oracle_face_flux(u, drifts, p, grid)
        assert [f.tobytes() for f in fluxes] == [f.tobytes() for f in expected_fluxes]
        div = flux_divergence(fluxes, grid)
        assert div.shape == grid.shape + stack
        assert div.tobytes() == oracle_flux_divergence(fluxes, grid).tobytes()

    @pytest.mark.parametrize("name", KERNEL_GRIDS)
    @pytest.mark.parametrize("beta, m", [(0.0, 1.0), (1.5, 2.0)])
    def test_integer_fields_as_the_written_forms_take_them(self, name, beta, m, rng):
        grid, stack = KERNEL_GRIDS[name]
        p = make_params(chi0=-1.3, beta=beta, m=m)
        u = rng.integers(1, 5, size=grid.shape + stack)
        v = rng.integers(0, 3, size=grid.shape + stack)
        drifts = face_drift(v, p, grid)
        assert [d.tobytes() for d in drifts] == [
            d.tobytes() for d in oracle_face_drift(v, p, grid)]
        fluxes = chemotactic_face_flux(u, drifts, p, grid)
        assert [f.tobytes() for f in fluxes] == [
            f.tobytes() for f in oracle_face_flux(u, drifts, p, grid)]

    @pytest.mark.parametrize("name", ["1d", "2d"])
    def test_flat_signal_under_repulsion(self, name, monkeypatch, rng):
        # chi0 < 0 and a flat v: every drift and flux is -0.0. The padded
        # difference then gives -0.0 in the first cell along the first axis,
        # where the accumulate form gives 0.0 + -0.0 = 0.0; the values are
        # equal, and the step's u and v are bitwise the same.
        grid, _ = KERNEL_GRIDS[name]
        p = make_params(chi0=-1.5)
        u = rng.uniform(0.5, 2.0, size=grid.shape)
        v = np.full(grid.shape, 0.7)
        fluxes = chemotactic_face_flux(u, face_drift(v, p, grid), p, grid)
        assert all(np.signbit(f).all() and not f.any() for f in fluxes)
        div = flux_divergence(fluxes, grid)
        expected = oracle_flux_divergence(fluxes, grid)
        assert np.array_equal(div, expected) and not div.any()
        signs = np.signbit(div) != np.signbit(expected)
        assert signs[(0,) * grid.dimension]

        cfg = StepConfig(t_end=1.0, dt=1e-2)
        got = step_at(u, v, 0.0, p, grid, 1e-2, cfg)
        monkeypatch.setattr(chemostab.integrator, "chemotactic_face_flux", oracle_face_flux)
        monkeypatch.setattr(chemostab.integrator, "flux_divergence", oracle_flux_divergence)
        want = step_at(u, v, 0.0, p, grid, 1e-2, cfg)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        assert got[2:] == want[2:]


def branched_face_flux(u, drifts, params, grid):
    """chemotactic_face_flux as once written with a one-axis branch and a
    per-axis helper: the reference for the bits of the single loop."""
    def upwind(faces, drift):
        flux = np.where(drift > 0.0, u[faces.low], u[faces.high])
        if params.m != 1.0:
            flux **= params.scalars.m
        flux *= drift
        return flux

    u = np.asarray(u, dtype=float)
    if grid.dimension == 1:
        return [upwind(grid.faces[0], drifts[0])]
    return [upwind(faces, drift) for faces, drift in zip(grid.faces, drifts)]


class TestFluxLoop:
    @pytest.mark.parametrize("m", [1.0, 1.5])
    @pytest.mark.parametrize("name", KERNEL_GRIDS)
    def test_bitwise_the_branched_kernel(self, name, m, rng):
        # Drifts of both signs and exact zeros, where the donor is the high
        # cell; densities with zero cells.
        grid, stack = KERNEL_GRIDS[name]
        p = make_params(chi0=-1.9, beta=0.5, m=m)
        u = rng.uniform(0.0, 2.0, size=grid.shape + stack)
        u[rng.uniform(size=u.shape) < 0.2] = 0.0
        v = rng.uniform(0.1, 1.0, size=grid.shape + stack)
        v[rng.uniform(size=v.shape) < 0.3] = 0.5
        drifts = face_drift(v, p, grid)
        assert all((d == 0.0).any() and (d > 0.0).any() and (d < 0.0).any() for d in drifts)
        fluxes = chemotactic_face_flux(u, drifts, p, grid)
        assert len(fluxes) == grid.dimension
        assert [f.tobytes() for f in fluxes] == [
            f.tobytes() for f in branched_face_flux(u, drifts, p, grid)]
        assert [f.shape for f in fluxes] == [d.shape for d in drifts]


def input_forms(field, rng):
    """The forms a caller may pass in place of a float64 field, each with
    the float64 C-contiguous copy of its values: a list, an int array, a
    float32 array, a strided view and, for a 2D field, a Fortran-ordered
    copy. A kernel uses a float64 ndarray as it is and converts the rest."""
    ints = rng.integers(1, 5, size=field.shape)
    low = field.astype(np.float32)
    wide = np.empty(field.shape[:-1] + (2 * field.shape[-1],))
    wide[..., ::2] = field
    forms = {
        "list": field.tolist(),
        "int": ints,
        "float32": low,
        "strided": wide[..., ::2],
    }
    if field.ndim == 2:
        forms["fortran"] = np.asfortranarray(field)
    return {name: (form, np.array(form, dtype=float, order="C")) for name, form in forms.items()}


class TestKernelInputs:
    """face_drift and chemotactic_face_flux skip `np.asarray` for a
    float64 ndarray, the fields of a run, and convert every other input;
    chemical_field leaves the conversion to u**gamma, nu * u and solve.
    Each must give bitwise what its float64 C-contiguous copy gives; so
    must flux_divergence on each axis's flux, and HelmholtzOperator.solve."""

    GRIDS = {"1d": GridDomain.interval(math.pi, 64),
             "2d": GridDomain.rectangle(1.0, 2.5, 12, 20)}

    @pytest.mark.parametrize("name", GRIDS)
    def test_kernels_give_the_float64_copy_bits(self, name, rng):
        grid = self.GRIDS[name]
        p = make_params(chi0=-1.3, beta=1.5, m=2.0, gamma=1.5, nu=2.0)
        u = rng.uniform(0.5, 2.0, size=grid.shape)
        v = rng.uniform(0.1, 1.0, size=grid.shape)
        drifts = face_drift(v, p, grid)
        signal = get_operator(grid, p.mu)
        for label, (form, copy) in input_forms(v, rng).items():
            got = face_drift(form, p, grid)
            assert [d.tobytes() for d in got] == [
                d.tobytes() for d in face_drift(copy, p, grid)], label
        for label, (form, copy) in input_forms(u, rng).items():
            got = chemotactic_face_flux(form, drifts, p, grid)
            assert [f.tobytes() for f in got] == [
                f.tobytes() for f in chemotactic_face_flux(copy, drifts, p, grid)], label
            got = chemostab.chemical_field(p, form, signal)
            assert got.tobytes() == chemostab.chemical_field(p, copy, signal).tobytes(), label
        fluxes = chemotactic_face_flux(u, drifts, p, grid)
        for axis in range(grid.dimension):
            for label, (form, copy) in input_forms(fluxes[axis], rng).items():
                got, want = list(fluxes), list(fluxes)
                got[axis], want[axis] = form, copy
                assert flux_divergence(got, grid).tobytes() == flux_divergence(
                    want, grid).tobytes(), (axis, label)

    @pytest.mark.parametrize("name", GRIDS)
    def test_solve_gives_the_float64_copy_bits(self, name, rng):
        grid = self.GRIDS[name]
        op = get_operator(grid, 2.0)
        rhs = rng.uniform(0.5, 2.0, size=grid.shape)
        for label, (form, copy) in input_forms(rhs, rng).items():
            assert op.solve(form).tobytes() == op.solve(copy).tobytes(), label

    def test_the_0d_coefficients_follow_replace(self, rng):
        # The discrete stability check folds (1 + v*)^(-beta) into chi0 with
        # dataclasses.replace; the new record must not take the old one's
        # 0-d coefficients, which the first call has made.
        grid = self.GRIDS["1d"]
        p = make_params(chi0=1.7, beta=1.5, m=2.0)
        v = rng.uniform(0.1, 1.0, size=grid.shape)
        u = rng.uniform(0.5, 2.0, size=grid.shape)
        face_drift(v, p, grid)
        for q in (dataclasses.replace(p, chi0=-0.4, beta=0.0),
                  dataclasses.replace(p, beta=0.5, m=1.5)):
            drifts = face_drift(v, q, grid)
            assert [d.tobytes() for d in drifts] == [
                d.tobytes() for d in oracle_face_drift(v, q, grid)]
            assert [f.tobytes() for f in chemotactic_face_flux(u, drifts, q, grid)] == [
                f.tobytes() for f in oracle_face_flux(u, drifts, q, grid)]


class TestMassAndReaction:
    def test_minimal_model_conserves_mass_per_step(self, interval_pi, rng):
        p = make_params(chi0=1.5, beta=1.0, a=0.0, b=0.0)
        u = rng.uniform(0.5, 2.0, size=64)
        state = init_state(interval_pi, InitSpec.from_array(u), p)
        cfg = StepConfig(t_end=1.0, dt=1e-3)
        u_new, _, clipped, _, _ = step_at(state.u, state.v, state.time, p, interval_pi, 1e-3, cfg)
        assert clipped == 0
        assert u_new.sum() == pytest.approx(u.sum(), rel=1e-13)

    def test_constant_run_tracks_logistic(self, interval_pi):
        p = make_params(chi0=0.0)
        state = init_state(interval_pi, InitSpec.constant(0.5), p)
        cfg = StepConfig(t_end=1.0, dt=1e-4, output_stride=1000)
        traj = run(p, interval_pi, state, cfg)
        final = traj.final_state.u
        # Spatial uniformity is preserved exactly by the implicit solve.
        assert final.max() - final.min() < 1e-12
        assert final[0] == pytest.approx(logistic_exact(0.5, 1.0), abs=2e-5)

    def test_reaction_error_first_order_in_dt(self, interval_pi):
        p = make_params(chi0=0.0)
        errors = []
        for dt in (2e-3, 1e-3):
            state = init_state(interval_pi, InitSpec.constant(0.5), p)
            cfg = StepConfig(t_end=1.0, dt=dt, output_stride=10000)
            traj = run(p, interval_pi, state, cfg)
            errors.append(abs(traj.final_state.u[0] - logistic_exact(0.5, 1.0)))
        assert 1.7 < errors[0] / errors[1] < 2.3


class TestRunControls:
    def test_step_count_and_final_time(self, interval_pi):
        p = make_params()
        state = init_state(interval_pi, InitSpec.constant(1.0), p)
        cfg = StepConfig(t_end=2.0, dt=5e-3, output_stride=10)
        traj = run(p, interval_pi, state, cfg)
        # Float residue is absorbed into the last step, never a micro-step.
        assert traj.steps_taken == 400
        assert traj.times[-1] == pytest.approx(2.0, abs=1e-12)
        assert traj.times[0] == 0.0
        assert len(traj) == 41

    def test_fixed_policy_takes_exactly_t_end_over_dt_steps(self, interval_pi):
        # A running sum of 1e-3 misses 12 by more than 1e-9 dt; the step
        # counter does not, so no trailing micro-step is taken.
        p = make_params(chi0=0.3)
        state = init_state(interval_pi, InitSpec.perturbation(1.0, 0.25), p)
        cfg = StepConfig(t_end=12.0, dt=1e-3, output_stride=500)
        traj = run(p, interval_pi, state, cfg)
        assert traj.steps_taken == 12_000
        k = np.arange(len(traj))
        assert np.array_equal(traj.times, k * cfg.output_stride * cfg.dt)
        assert traj.final_state.time == traj.times[-1]

    def test_fixed_policy_ends_with_one_partial_step(self, interval_pi):
        p = make_params()
        state = init_state(interval_pi, InitSpec.constant(1.0), p)
        cfg = StepConfig(t_end=0.105, dt=1e-2, output_stride=4)
        traj = run(p, interval_pi, state, cfg)
        assert traj.steps_taken == 11
        assert list(traj.times) == [0.0, 4e-2, 8e-2, 0.105]

    @pytest.mark.parametrize("policy", ["fixed", "cfl"])
    @pytest.mark.parametrize("start", [1.0, 5.0])
    def test_a_start_at_or_after_t_end_raises_before_any_solve(self, interval_pi, policy,
                                                               start, monkeypatch):
        # Such a run once took 0 steps and returned a final state after t_end.
        p = make_params()
        init = dataclasses.replace(init_state(interval_pi, InitSpec.constant(1.0), p),
                                   time=start)
        solves = []
        solve = chemostab.helmholtz.HelmholtzOperator.solve
        monkeypatch.setattr(chemostab.helmholtz.HelmholtzOperator, "solve",
                            lambda op, r: solves.append(1) or solve(op, r))
        with pytest.raises(ValueError, match=f"t_end = 1.0 .* initial time {start}"):
            run(p, interval_pi, init, StepConfig(t_end=1.0, dt=1e-2, dt_policy=policy))
        assert solves == []

    @pytest.mark.parametrize("policy", ["fixed", "cfl"])
    def test_a_nan_start_time_is_refused(self, interval_pi, policy):
        # A NaN start once ran 0 steps (cfl) or failed converting the step count (fixed).
        p = make_params()
        state = init_state(interval_pi, InitSpec.constant(1.0), p)
        with pytest.raises(ValueError, match="time must be finite and >= 0, got nan"):
            run(p, interval_pi, dataclasses.replace(state, time=math.nan),
                StepConfig(t_end=1.0, dt=1e-2, dt_policy=policy))

    def test_equilibrium_is_fixed_point(self, interval_pi):
        p = make_params(chi0=2.0)
        state = init_state(interval_pi, InitSpec.constant(1.0), p)
        traj = run(p, interval_pi, state, StepConfig(t_end=1.0, dt=1e-2))
        assert float(traj.err_inf.max()) < 1e-12

    def test_blowup_cap_raises_with_location(self, interval_pi):
        # Logistic growth from 0.9 toward 1 crosses a cap at 0.95 for sure.
        p = make_params(chi0=0.0)
        state = init_state(interval_pi, InitSpec.constant(0.9), p)
        cfg = StepConfig(t_end=5.0, dt=1e-3, blowup_cap=0.95)
        with pytest.raises(BlowupDetected) as info:
            run(p, interval_pi, state, cfg)
        assert info.value.max_u >= 0.95
        assert info.value.cap == 0.95
        assert 0.0 < info.value.time < 5.0

    @pytest.mark.parametrize("grid, peak", [
        (GridDomain.interval(math.pi, 64), (17,)),
        (GridDomain.rectangle(math.pi, 2.0, 12, 20), (5, 7)),
    ], ids=["1d", "2d"])
    def test_blowup_names_the_cell_at_max_u(self, grid, peak):
        p = make_params(chi0=0.0)
        u = np.ones(grid.shape)
        u[peak] = 3.0
        v = chemostab.chemical_field(p, u, get_operator(grid, p.mu))
        with pytest.raises(BlowupDetected, match=re.escape(f"in cell {peak}")) as info:
            step_at(u, v, 0.0, p, grid, 1e-3, StepConfig(t_end=1.0, dt=1e-3, blowup_cap=2.0))
        assert info.value.cell == peak
        assert all(type(i) is int for i in info.value.cell)

    @pytest.mark.parametrize("grid, nan_cell", [
        (GridDomain.interval(math.pi, 64), (40,)),
        (GridDomain.rectangle(math.pi, 2.0, 12, 20), (3, 4)),
    ], ids=["1d", "2d"])
    def test_blowup_cell_counts_nan_as_the_max(self, grid, nan_cell):
        # The first NaN is the cell, even after a larger finite value, as
        # np.argmax takes it.
        p = make_params(chi0=0.0)
        u = np.ones(grid.shape)
        solved = np.ones(grid.shape)
        solved[(0,) * grid.dimension] = 50.0
        solved[nan_cell] = math.nan
        solved.flat[-1] = math.nan
        diffusion = SimpleNamespace(solve=lambda rhs: solved.copy())
        cfg = StepConfig(t_end=1.0, dt=1e-3)
        with pytest.raises(BlowupDetected) as info:
            step(u, face_drift(u, p, grid), 0.0, p, grid, 1e-3, cfg, diffusion,
                 get_operator(grid, p.mu))
        assert info.value.cell == nan_cell
        assert math.isnan(info.value.max_u)

    def test_positivity_floor_counts_clips(self, interval_pi):
        p = make_params(chi0=0.0, a=0.0, b=0.0)
        state = init_state(interval_pi, InitSpec.constant(0.5), p)
        cfg = StepConfig(t_end=3e-3, dt=1e-3, positivity_floor=0.6)
        traj = run(p, interval_pi, state, cfg, eq=equilibrium(p, u_star=0.5))
        # The first step lifts every cell to the floor; later steps may
        # re-clip solver rounding jitter at the floor value.
        assert traj.clip_count >= 64
        assert traj.final_state.u == pytest.approx(np.full(64, 0.6), abs=1e-12)
        assert float(traj.final_state.u.min()) >= 0.6

    def test_snapshots_stored_on_request(self, interval_pi):
        p = make_params()
        state = init_state(interval_pi, InitSpec.constant(1.0), p)
        cfg = StepConfig(t_end=0.1, dt=1e-2, output_stride=5, store_snapshots=True)
        traj = run(p, interval_pi, state, cfg)
        assert traj.snapshots is not None
        assert len(traj.snapshots) == len(traj)
        assert traj.snapshots[-1].time == pytest.approx(0.1)

    def test_minimal_run_defaults_eq_to_mass_average(self, interval_pi):
        p = make_params(chi0=0.5, a=0.0, b=0.0)
        spec = InitSpec.perturbation(u_star=2.0, amplitude=0.2)
        state = init_state(interval_pi, spec, p)
        traj = run(p, interval_pi, state, StepConfig(t_end=0.05, dt=1e-2))
        assert traj.eq.u_star == pytest.approx(2.0, abs=1e-13)


class TestDiffusionSolve:
    def test_2d_step_meets_the_residual_contract(self, rng):
        # (I/dt - lap_h) u_new = explicit / dt, checked with the stencil.
        grid = GridDomain.rectangle(math.pi, 2.0, 24, 16)
        p = make_params(chi0=1.5)
        u = rng.uniform(0.5, 1.5, size=grid.shape)
        state = init_state(grid, InitSpec.from_array(u), p)
        dt = 5e-3
        u_new, _, clipped, _, _ = step_at(state.u, state.v, state.time, p, grid, dt,
                                          StepConfig(t_end=1.0, dt=dt))
        assert clipped == 0
        div = flux_divergence(chemotactic_face_flux(u, face_drift(state.v, p, grid), p, grid), grid)
        rhs = (u + dt * (-div + p.a * u - p.b * u ** (1.0 + p.alpha))) / dt
        lap_u = laplacian(u_new, grid)
        residual = np.abs(u_new / dt - lap_u - rhs).max()
        assert residual <= RESIDUAL_RTOL * np.abs(rhs).max()

    def test_non_finite_explicit_stage_raises_non_finite_input(self, interval_pi):
        p = make_params()
        state = init_state(interval_pi, InitSpec.constant(1.0), p)
        u = state.u.copy()
        u[10] = 1e200  # b u^(1 + alpha) overflows, so the explicit stage holds -inf
        cfg = StepConfig(t_end=1.0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteInput):
            step_at(u, state.v, 0.0, p, interval_pi, 1e-3, cfg)


class TestStableDt:
    def test_no_drift_no_reaction_returns_cap(self, interval_pi):
        p = make_params(chi0=1.0, a=0.0, b=0.0)
        state = init_state(interval_pi, InitSpec.constant(1.0), p)
        cfg = StepConfig(t_end=1.0, dt=0.05, dt_policy="cfl")
        assert bound_at(state, p, interval_pi, cfg) == 0.05

    def test_reaction_limit(self, interval_pi):
        # a + b (1 + alpha) u^alpha = 3 at u = 1, so the bound is 0.9 / 3,
        # and the largest rung at or below it is 2^(-28/16) = 0.297.
        p = make_params(chi0=0.0)
        state = init_state(interval_pi, InitSpec.constant(1.0), p)
        cfg = StepConfig(t_end=1.0, dt=1.0, dt_policy="cfl")
        assert (bound_at(state, p, interval_pi, cfg)
                == largest_rung(cfg.dt, cfg.sigma_cfl * (1.0 / 3.0)) == 2.0 ** (-28 / 16))

    @pytest.mark.parametrize(
        "grid",
        [GridDomain.interval(math.pi, 64), GridDomain.rectangle(1.0, 2.5, 12, 20)],
        ids=["1d", "2d"],
    )
    @given(seed=st.integers(0, 2**32 - 1), chi0=st.floats(0.0, 20.0),
           beta=st.sampled_from([0.0, 0.5, 1.5]), m=st.sampled_from([1.0, 1.5, 2.0]),
           reaction=st.booleans(), cap=st.floats(1e-6, 10.0), sigma=st.floats(0.01, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_the_step_is_a_rung_just_below_the_bound(self, grid, seed, chi0, beta, m,
                                                     reaction, cap, sigma):
        p = make_params(chi0=chi0, beta=beta, m=m, **({} if reaction else dict(a=0.0, b=0.0)))
        rng = np.random.default_rng(seed)
        u = rng.uniform(0.1, 3.0, grid.shape)
        v = rng.uniform(0.0, 2.0, grid.shape)
        cfg = StepConfig(t_end=1.0, dt=cap, dt_policy="cfl", sigma_cfl=sigma)
        dt = bound_at(FieldState(0.0, u, v), p, grid, cfg)
        # The bound written out: sigma_cfl times the least of the advective
        # limit on each axis and the reaction limit.
        u_max = float(u.max())
        limits = [h / (float(np.abs(drift).max()) * u_max ** (m - 1.0))
                  for h, drift in zip(grid.spacing, face_drift(v, p, grid))
                  if np.abs(drift).max() > 0.0]
        if reaction:
            limits.append(1.0 / (p.a + p.b * (1.0 + p.alpha) * u_max**p.alpha))
        bound = sigma * min(limits, default=math.inf)
        assert dt in ladder(cap)
        assert dt <= bound
        assert dt == cap or dt > bound * 2.0 ** (-1 / 16)
        assert dt == largest_rung(cap, bound)

    @pytest.mark.parametrize("cap", [1.0, 10.0, 0.0145, 5e-3, 1e-3, 7e-7])
    def test_a_bound_on_or_next_to_a_rung(self, cap):
        # log2's rounding puts k one rung off on many of these bounds, each
        # way, and the rungs move it back: a bound on a rung takes that
        # rung, and one an ulp below it the next one down.
        rungs = ladder(cap)
        for k, rung in enumerate(rungs[:-1]):
            assert _ladder_step(cap, rung) == rung
            assert _ladder_step(cap, math.nextafter(rung, 0.0)) == rungs[k + 1]
            assert _ladder_step(cap, math.nextafter(rung, math.inf)) == (cap if k == 0 else rung)

    def test_a_bound_that_underflows_is_zero(self, interval_pi):
        # sigma_cfl times a subnormal advective limit rounds to 0, which has
        # no log; the step is 0, as it was before the ladder, and `run`
        # refuses it because it cannot advance the time.
        p = make_params(chi0=1.0, a=0.0, b=0.0, m=1.0)
        cfg = StepConfig(t_end=1.0, dt=1e-3, dt_policy="cfl", sigma_cfl=1e-20)
        drift = np.full(63, 1e308)
        assert stable_dt(1.0, 1.0, [drift], p, interval_pi, cfg) == 0.0

    @pytest.mark.parametrize("via", ["stable_dt", "run"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("name", ["u", "v"])
    @pytest.mark.parametrize("chi0, beta, m",
                             [(0.0, 0.0, 1.0), (0.0, 1.5, 2.0), (2.0, 1.5, 1.0), (2.0, 0.0, 2.0)])
    @pytest.mark.parametrize(
        "grid",
        [GridDomain.interval(math.pi, 64), GridDomain.rectangle(1.0, 2.5, 12, 20)],
        ids=["1d", "2d"],
    )
    def test_any_non_finite_cell_is_degenerate(self, grid, chi0, beta, m, name, value, via):
        # stable_dt reads finiteness off the values of its bound: the extrema
        # of u, and the drift speed for v. Each cell is tried, corners and
        # edges included, with chi0 = 0 (no drift) and a saturating beta.
        # A cfl run reduces its initial state's extrema once, and must stop
        # there too.
        p = make_params(chi0=chi0, beta=beta, m=m)
        state = init_state(grid, InitSpec.constant(1.0), p)
        cfg = StepConfig(t_end=1.0, dt=1e-3, dt_policy="cfl")
        for cell in range(grid.total_cells):
            fields = {"u": state.u.copy(), "v": state.v.copy()}
            fields[name].flat[cell] = value
            bad = FieldState(0.0, fields["u"], fields["v"])
            with np.errstate(invalid="ignore", over="ignore", divide="ignore"), \
                    pytest.raises(DegenerateState):
                if via == "run":
                    run(p, grid, bad, cfg)
                else:
                    bound_at(bad, p, grid, cfg)

    def test_degenerate_state_rejected(self, interval_pi):
        p = make_params()
        bad = init_state(interval_pi, InitSpec.constant(1.0), p)
        u = bad.u.copy()
        u[0] = math.inf
        cfg = StepConfig(t_end=1.0, dt=1e-3, dt_policy="cfl")
        with pytest.raises(DegenerateState):
            bound_at(FieldState(0.0, u, bad.v), p, interval_pi, cfg)

    @pytest.mark.parametrize("m, alpha", [(1.0, 2.0), (3.0, 1.0)],
                             ids=["u_max^alpha", "u_max^(m-1)"])
    def test_a_power_that_overflows_is_degenerate(self, interval_pi, m, alpha):
        # One cell at 1e200 is finite, but its square is not a float, and a
        # Python float power raises OverflowError rather than give inf. A
        # cfl run takes the bound before its first step, so it must stop
        # there whatever its blow-up cap.
        p = make_params(m=m, alpha=alpha)
        u = np.ones(64)
        u[10] = 1e200
        state = init_state(interval_pi, InitSpec.from_array(u), p)
        cfg = StepConfig(t_end=1.0, dt=1e-2, dt_policy="cfl")
        with pytest.raises(DegenerateState, match=r"overflows at max\(u\) = 1e\+200"):
            bound_at(state, p, interval_pi, cfg)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DegenerateState, match="overflows"):
            run(p, interval_pi, state, cfg)

    def test_cfl_run_reaches_t_end(self, interval_pi):
        p = make_params(chi0=3.0)
        spec = InitSpec.perturbation(u_star=1.0, amplitude=0.3)
        state = init_state(interval_pi, spec, p)
        cfg = StepConfig(t_end=0.5, dt=1e-2, dt_policy="cfl")
        traj = run(p, interval_pi, state, cfg)
        assert traj.times[-1] == pytest.approx(0.5, abs=1e-12)


class TestExplicitStageInPlace:
    """`step` builds its explicit stage in place; every bit must be that of
    the written form (u + dt (-div + a u - b u^(1+alpha))) / dt."""

    @pytest.mark.parametrize("a, b, alpha", [(1.0, 1.0, 1.0), (2.0, 0.5, 1.5),
                                             (0.0, 0.0, 1.0), (1.0, 3.0, 2.0)])
    @pytest.mark.parametrize("nu", [1.0, 2.0])
    @pytest.mark.parametrize("grid", [GridDomain.interval(math.pi, 64),
                                      GridDomain.rectangle(math.pi, 2.0, 16, 12)],
                             ids=["1d", "2d"])
    # A large step too: at dt = 1e-3 the last bits of the source term are
    # lost in u + dt (...), at dt = 0.2 they show in the stage.
    @pytest.mark.parametrize("dt", [1e-3, 0.2])
    def test_stage_and_state_bitwise_the_written_form(self, grid, a, b, alpha, nu, dt,
                                                      monkeypatch, rng):
        p = make_params(chi0=2.5, beta=0.5, a=a, b=b, alpha=alpha, nu=nu)
        u = rng.uniform(0.0, 2.0, size=grid.shape)
        u[rng.uniform(size=grid.shape) < 0.25] = 0.0  # zero cells: signed zeros
        v = chemostab.chemical_field(p, u, get_operator(grid, p.mu))
        state = FieldState(time=0.0, u=u, v=v)
        u_bytes = u.tobytes()

        div = flux_divergence(chemotactic_face_flux(u, face_drift(state.v, p, grid), p, grid), grid)
        stage = (u + dt * (-div + p.a * u - p.b * u ** (1.0 + p.alpha))) / dt
        u_new = get_operator(grid, 1.0 / dt).solve(stage)
        below = u_new < 0.0
        u_new = np.where(below, 0.0, u_new)
        v_new = get_operator(grid, p.mu).solve(p.nu * u_new ** p.gamma)

        rhs = []
        solve = chemostab.helmholtz.HelmholtzOperator.solve

        def recording_solve(op, r):
            rhs.append(np.array(r, copy=True))
            return solve(op, r)

        monkeypatch.setattr(chemostab.helmholtz.HelmholtzOperator, "solve", recording_solve)
        got_u, got_v, clipped, u_min, u_max = step_at(state.u, state.v, state.time, p, grid,
                                                      dt, StepConfig(t_end=1.0, dt=dt))
        assert clipped == np.count_nonzero(below)
        assert rhs[0].tobytes() == stage.tobytes()
        assert got_u.tobytes() == u_new.tobytes()
        assert got_v.tobytes() == v_new.tobytes()
        # The extrema that the clip and blow-up checks reduced, after the clip.
        assert (u_min, u_max) == (float(u_new.min()), float(u_new.max()))
        # The in-place stage leaves the state it started from untouched.
        assert state.u.tobytes() == u_bytes
        # The configured dt plays no part in the stage: a step of another dt
        # (a cfl step, a final partial step) gives the same floats.
        other = step_at(state.u, state.v, state.time, p, grid, dt, StepConfig(t_end=1.0, dt=1.0))
        assert other[0].tobytes() == got_u.tobytes() and other[1].tobytes() == got_v.tobytes()


class TestStepDtOperand:
    """`step` takes its dt as a Python float or as the read-only 0-d array
    that `run` makes once per dt; both must give the same bits, counts and
    errors."""

    GRIDS = {"1d": GridDomain.interval(math.pi, 64),
             "2d": GridDomain.rectangle(math.pi, 2.0, 16, 12)}

    @staticmethod
    def outcome(u, v, time, p, grid, dt, cfg):
        try:
            u_new, v_new, clipped, u_min, u_max = step_at(u, v, time, p, grid, dt, cfg)
        except BlowupDetected as exc:
            return ("blowup", str(exc), type(exc.time), exc.time, exc.max_u, exc.cell)
        return (u_new.tobytes(), v_new.tobytes(), clipped, u_min, u_max)

    @pytest.mark.parametrize("cap", [1e6, 1.3], ids=["step", "blowup"])
    @pytest.mark.parametrize("dt", [1e-3, 0.07])
    @pytest.mark.parametrize("name", GRIDS)
    def test_float_and_0d_dt_step_alike(self, name, dt, cap, rng):
        grid = self.GRIDS[name]
        p = make_params(chi0=2.5, beta=0.5, m=1.5, a=2.0, b=0.5)
        u = rng.uniform(0.2, 2.0, size=grid.shape)
        v = chemostab.chemical_field(p, u, get_operator(grid, p.mu))
        # A floor above some cells, so the clip count is not zero; the cap
        # of 1.3 lies below max(u) after either step.
        cfg = StepConfig(t_end=1.0, dt=1e-2, positivity_floor=1.2, blowup_cap=cap)
        got = self.outcome(u, v, 0.37, p, grid, read_only_scalar(dt), cfg)
        assert got == self.outcome(u, v, 0.37, p, grid, dt, cfg)
        if cap == 1.3:
            assert got[0] == "blowup" and got[2] is float and got[3] == 0.37 + dt
        else:
            assert got[2] > 0


class TestDriftOncePerStep:
    GRIDS = {
        "1d": (GridDomain.interval(math.pi, 64), 1),
        "2d": (GridDomain.rectangle(math.pi, 2.0, 16, 12), (1, 1)),
    }

    @staticmethod
    def separate_bound_and_step(state, p, grid, cfg):
        """Every state of a `cfl` run made the way it was before the drift
        was shared: stable_dt on the state's own reductions and drift, then
        step, which computes the drift again."""
        states = [state]
        while state.time < cfg.t_end - 1e-14 * cfg.t_end:
            dt = bound_at(state, p, grid, cfg)
            remaining = cfg.t_end - state.time
            if remaining <= dt * (1.0 + 1e-9):
                dt = remaining
            u, v, _, _, _ = step_at(state.u, state.v, state.time, p, grid, dt, cfg)
            state = FieldState(state.time + dt, u, v)
            states.append(state)
        return states

    @pytest.mark.parametrize("name", ["1d", "2d"])
    def test_cfl_run_computes_one_drift_per_step(self, name, monkeypatch):
        grid, mode = self.GRIDS[name]
        p = make_params(chi0=3.0, beta=0.5, m=1.5)
        init = init_state(grid, InitSpec.perturbation(1.0, 0.3, mode), p)
        cfg = StepConfig(t_end=0.3, dt=2e-2, dt_policy="cfl", output_stride=3,
                         store_snapshots=True)
        expected = self.separate_bound_and_step(init, p, grid, cfg)

        calls = []
        drift = chemostab.integrator.face_drift

        def counting_face_drift(*args, **kwargs):
            calls.append(args)
            return drift(*args, **kwargs)

        monkeypatch.setattr(chemostab.integrator, "face_drift", counting_face_drift)
        traj = run(p, grid, init, cfg)
        steps = len(expected) - 1
        assert traj.steps_taken == steps
        assert len(calls) == steps
        # The advective limit binds, so the step size does vary.
        assert len({b.time - a.time for a, b in zip(expected, expected[1:])}) > 2

        sampled = list(range(0, steps + 1, cfg.output_stride))
        if sampled[-1] != steps:
            sampled.append(steps)
        assert len(traj.snapshots) == len(sampled)
        for got, k in zip(traj.snapshots, sampled):
            assert got.time == expected[k].time
            assert got.u.tobytes() == expected[k].u.tobytes()
            assert got.v.tobytes() == expected[k].v.tobytes()
        assert traj.u_max.tobytes() == np.array([expected[k].u.max() for k in sampled]).tobytes()
        assert traj.final_state.u.tobytes() == expected[-1].u.tobytes()

    @pytest.mark.parametrize("name", ["1d", "2d"])
    def test_fixed_run_computes_one_drift_per_step(self, name, monkeypatch):
        grid, mode = self.GRIDS[name]
        p = make_params(chi0=3.0, beta=0.5, m=1.5)
        init = init_state(grid, InitSpec.perturbation(1.0, 0.3, mode), p)
        # 30 steps of dt and a final partial one.
        cfg = StepConfig(t_end=0.305, dt=1e-2, output_stride=3, store_snapshots=True)
        expected = run_outcome(lambda: reference_run(p, grid, init, cfg))

        calls = []
        drift = chemostab.integrator.face_drift

        def counting_face_drift(*args, **kwargs):
            calls.append(args)
            return drift(*args, **kwargs)

        monkeypatch.setattr(chemostab.integrator, "face_drift", counting_face_drift)
        assert run_outcome(lambda: run(p, grid, init, cfg)) == expected
        assert len(calls) == expected[2] == 31


def reference_run(p, grid, init, cfg):
    """`run` written as a plain loop over the public `step` and `stable_dt`:
    a FieldState every step, and the u extrema and the drift of every step
    bound computed afresh."""
    u_star = mass_average(init.u, grid) if p.minimal else None
    traj = Trajectory(p, grid, equilibrium(p, u_star=u_star),
                      snapshots=[] if cfg.store_snapshots else None)
    rows = []
    record(traj, init, rows)
    fixed = cfg.dt_policy == "fixed"
    total, last_dt = _fixed_steps(init.time, cfg.t_end, cfg.dt) if fixed else (0, 0.0)
    state, steps, t_last = init, 0, init.time
    while (steps < total) if fixed else (state.time < cfg.t_end - 1e-14 * cfg.t_end):
        if fixed:
            dt = cfg.dt if steps + 1 < total else last_dt
        else:
            dt = bound_at(state, p, grid, cfg)
            if cfg.t_end - state.time <= dt * (1.0 + 1e-9):
                dt = cfg.t_end - state.time
        u, v, clipped, _, _ = step_at(state.u, state.v, state.time, p, grid, dt, cfg)
        steps += 1
        time = min(init.time + steps * cfg.dt, cfg.t_end) if fixed else state.time + dt
        state = FieldState(time, u, v)
        traj.clip_count += clipped
        if steps % cfg.output_stride == 0:
            record(traj, state, rows)
            t_last = state.time
    if state.time > t_last:
        record(traj, state, rows)
    traj.steps_taken, traj.final_state = steps, state
    for name, column in zip(SERIES, np.array(rows, dtype=float).T):
        setattr(traj, name, column)
    return traj


def counting_builds(monkeypatch):
    """The mu of every operator that `run` builds from now on, and the dt of
    every step that it takes."""
    builds, dts = [], []
    build, inner = chemostab.integrator.get_operator, chemostab.integrator.step

    def counting_get_operator(grid, mu, block=None):
        builds.append(mu)
        return build(grid, mu, block)

    def recording_step(u, drifts, time, params, grid, dt, *args, **kwargs):
        dts.append(dt)
        return inner(u, drifts, time, params, grid, dt, *args, **kwargs)

    monkeypatch.setattr(chemostab.integrator, "get_operator", counting_get_operator)
    monkeypatch.setattr(chemostab.integrator, "step", recording_step)
    return builds, dts


def run_outcome(call):
    """Everything a run shows, as bytes where it holds floats: its series,
    clip count, step count, snapshots and final state, or the type, message
    and time of what it raised."""
    try:
        with np.errstate(all="ignore"):
            traj = call()
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "time", None)
    states = (traj.snapshots or []) + [traj.final_state]
    return ([getattr(traj, name).tobytes() for name in SERIES], traj.clip_count,
            traj.steps_taken, [(s.time, s.u.tobytes(), s.v.tobytes()) for s in states])


class TestRunMatchesReferenceLoop:
    """`run` steps bare arrays and carries the u extrema from step to step;
    every float, count and error must be those of `reference_run`."""

    GRIDS = {
        "1d": GridDomain.interval(math.pi, 64),
        "2d": GridDomain.rectangle(math.pi, 2.0, 16, 12),
    }

    @staticmethod
    def rough_init(grid, p, seed, amplitude, mean=1.0):
        """mean + amplitude (0.7 cos(pi x / L) + 0.3 noise): the first mode
        gives the signal a gradient, the noise gives every cell its own value."""
        x = grid.centers() if grid.dimension == 1 else grid.meshgrid()[0]
        noise = np.random.default_rng(seed).uniform(-1.0, 1.0, grid.shape)
        u0 = mean + amplitude * (0.7 * np.cos(math.pi * x / grid.lengths[0]) + 0.3 * noise)
        return init_state(grid, InitSpec.from_array(u0), p)

    @pytest.mark.parametrize("m", [1.0, 1.5])
    @pytest.mark.parametrize("beta", [0.0, 1.0])
    @pytest.mark.parametrize("policy", ["fixed", "cfl"])
    @pytest.mark.parametrize("name", ["1d", "2d"])
    @given(seed=st.integers(0, 2**32 - 1), chi0=st.floats(0.5, 16.0),
           amplitude=st.floats(0.05, 0.9), floor=st.sampled_from([0.0, 0.95]),
           minimal=st.booleans())
    @settings(max_examples=6, deadline=None)
    def test_run_is_bitwise_the_reference_loop(self, name, policy, beta, m, seed, chi0,
                                               amplitude, floor, minimal):
        grid = self.GRIDS[name]
        reaction = dict(a=0.0, b=0.0) if minimal else {}
        p = make_params(chi0=chi0, beta=beta, m=m, **reaction)
        init = self.rough_init(grid, p, seed, amplitude)
        # 30 steps under fixed. The cfl cap is loose, so that the advective
        # or the reaction limit binds and dt changes from step to step.
        cfg = StepConfig(t_end=0.3, dt=1e-2 if policy == "fixed" else 5e-2, dt_policy=policy,
                         output_stride=4, positivity_floor=floor, store_snapshots=True)
        expected = run_outcome(lambda: reference_run(p, grid, init, cfg))
        assert run_outcome(lambda: run(p, grid, init, cfg)) == expected

    @pytest.mark.parametrize("policy", ["fixed", "cfl"])
    @pytest.mark.parametrize("name", ["1d", "2d"])
    def test_clipped_steps_match(self, name, policy):
        # A floor above most of the density clips on every step, so under
        # cfl each bound takes the minimum reduced again after a clip.
        grid = self.GRIDS[name]
        p = make_params(chi0=12.0, beta=1.0, m=1.5)
        init = self.rough_init(grid, p, 7, 0.6)
        cfg = StepConfig(t_end=0.3, dt=1e-2 if policy == "fixed" else 5e-2, dt_policy=policy,
                         output_stride=4, positivity_floor=1.1, store_snapshots=True)
        expected = run_outcome(lambda: reference_run(p, grid, init, cfg))
        clip_count, steps = expected[1], expected[2]
        assert clip_count > steps >= 6
        assert run_outcome(lambda: run(p, grid, init, cfg)) == expected

    @pytest.mark.parametrize("policy", ["fixed", "cfl"])
    @pytest.mark.parametrize("name", ["1d", "2d"])
    def test_blowup_matches(self, name, policy):
        # Logistic growth from about 0.9 crosses the cap at 0.95 mid-run.
        grid = self.GRIDS[name]
        p = make_params(chi0=1.0, beta=1.0, m=1.5)
        init = self.rough_init(grid, p, 3, 0.02, mean=0.9)
        cfg = StepConfig(t_end=2.0, dt=1e-2, dt_policy=policy, blowup_cap=0.95)
        expected = run_outcome(lambda: reference_run(p, grid, init, cfg))
        assert expected[0] is BlowupDetected
        assert 0.1 < expected[2] < 1.0
        assert run_outcome(lambda: run(p, grid, init, cfg)) == expected

    @pytest.mark.parametrize("t_end, steps", [(0.3, 30), (0.305, 31)], ids=["whole", "partial"])
    def test_a_fixed_run_builds_two_operators_or_three(self, t_end, steps, monkeypatch):
        # The signal operator, one diffusion operator for dt, and one more
        # for a final partial step.
        grid = self.GRIDS["1d"]
        p = make_params(chi0=3.0, beta=0.5, m=1.5, mu=2.0)
        init = self.rough_init(grid, p, 5, 0.5)
        cfg = StepConfig(t_end=t_end, dt=1e-2, output_stride=4, store_snapshots=True)
        expected = run_outcome(lambda: reference_run(p, grid, init, cfg))
        builds, dts = counting_builds(monkeypatch)
        assert run_outcome(lambda: run(p, grid, init, cfg)) == expected
        assert len(dts) == steps
        partial = [1.0 / dts[-1]] if steps == 31 else []
        assert builds == [p.mu, 1.0 / cfg.dt] + partial

    # With no binding cap, a fast logistic source makes the reaction limit
    # bind: the bound follows max u and moves on every step, and dt follows
    # it down the ladder. With a cap just below that limit, the cap binds on
    # most steps.
    @pytest.mark.parametrize("cap", [1.0, 0.0145], ids=["varying", "capped"])
    def test_a_run_costs_no_extra_builds(self, cap, monkeypatch):
        # A cfl run builds the signal operator once and a diffusion operator
        # for each step whose dt differs from the previous step's.
        grid = self.GRIDS["1d"]
        p = make_params(chi0=3.0, beta=0.5, m=1.5, a=20.0, b=20.0)
        init = self.rough_init(grid, p, 5, 0.5)
        cfg = StepConfig(t_end=1.2, dt=cap, dt_policy="cfl", output_stride=10)
        expected = run_outcome(lambda: reference_run(p, grid, init, cfg))
        builds, dts = counting_builds(monkeypatch)
        assert run_outcome(lambda: run(p, grid, init, cfg)) == expected
        changed = [dt for k, dt in enumerate(dts) if k == 0 or dt != dts[k - 1]]
        assert builds == [p.mu] + [1.0 / dt for dt in changed]
        if cap == 1.0:
            # Every step but the last, which takes up the remaining time, is
            # a rung below the cap, so dt changes only where the rung
            # changes, and fewer times than there are steps.
            below_cap = ladder(cap)[1:]
            assert all(dt in below_cap for dt in dts[:-1])
            assert len(dts) > len(changed) > 1 and len(dts) > 64
        else:
            assert len(dts) > 10 * len(changed) > 10

    def test_a_cfl_run_reduces_the_density_once_per_step(self, monkeypatch):
        # The clip check's minimum and the blow-up check's maximum serve the
        # next step bound; only the initial state is reduced for it. The
        # extrema are read by `array_min` and `array_max`; their calls on
        # grid-shaped arrays from within `_record` are v's, once per sample.
        grid = self.GRIDS["1d"]
        p = make_params(chi0=3.0, beta=0.5, m=1.5)
        init = self.rough_init(grid, p, 11, 0.3)
        cfg = StepConfig(t_end=0.3, dt=1e-2, dt_policy="cfl", output_stride=1000)
        reductions, sampled, sampling = [], [], []

        def counting(name):
            helper = getattr(chemostab.integrator, name)

            def wrapper(array):
                if array.shape == grid.shape:
                    (sampled if sampling else reductions).append(name)
                return helper(array)
            return wrapper

        record = chemostab.integrator._record

        def sampling_record(*args):
            sampling.append(True)
            try:
                return record(*args)
            finally:
                sampling.pop()

        for name in ("array_min", "array_max"):
            monkeypatch.setattr(chemostab.integrator, name, counting(name))
        monkeypatch.setattr(chemostab.integrator, "_record", sampling_record)
        traj = run(p, grid, init, cfg)
        assert traj.steps_taken > 10
        assert reductions.count("array_min") == reductions.count("array_max") == traj.steps_taken + 1
        assert sampled.count("array_min") == sampled.count("array_max") == len(traj)

    @pytest.mark.parametrize("policy", ["fixed", "cfl"])
    def test_a_run_makes_one_0d_dt_per_diffusion_operator(self, policy, monkeypatch):
        # `run` makes each dt's 0-d array where it builds that dt's diffusion
        # operator, and `step` makes none: under cfl not one per step.
        grid = self.GRIDS["1d"]
        p = make_params(chi0=3.0, beta=0.5, m=1.5)
        init = self.rough_init(grid, p, 11, 0.3)
        cfg = StepConfig(t_end=0.305, dt=1e-2, dt_policy=policy, output_stride=7)
        expected = run_outcome(lambda: reference_run(p, grid, init, cfg))
        made = []
        make = chemostab.integrator.read_only_scalar

        def counting(value):
            made.append(value)
            return make(value)

        monkeypatch.setattr(chemostab.integrator, "read_only_scalar", counting)
        builds, dts = counting_builds(monkeypatch)
        got = run(p, grid, init, cfg)
        assert run_outcome(lambda: got) == expected
        # The signal operator comes first; every later build is a diffusion's.
        assert builds[0] == p.mu
        assert builds[1:] == [1.0 / dt for dt in made]
        # `run` passes each 0-d dt on to `step`, and 0-d arrays do not hash.
        assert len({float(dt) for dt in dts}) == len(made) >= 2

    # A fast logistic source (a = b = 20) takes rough data to a state that
    # `step` returns bit for bit after about 150 steps. The fixed run ends
    # with a partial step, and the cfl run's last step takes up the
    # remaining time, so neither last step has the fixed point's dt.
    SETTLING = {
        "fixed": dict(t_end=5.005, dt=1e-2),
        "cfl": dict(t_end=5.0, dt=5e-2, dt_policy="cfl"),
    }

    @pytest.mark.parametrize("offset", [-1, 0, 1], ids=["sample-before", "sample-at",
                                                       "sample-after"])
    @pytest.mark.parametrize("policy", ["fixed", "cfl"])
    @pytest.mark.parametrize("name", ["1d", "2d"])
    def test_a_run_skips_the_steps_at_a_fixed_point(self, name, policy, offset, monkeypatch):
        grid = self.GRIDS[name]
        p = make_params(chi0=3.0, beta=0.5, m=1.5, a=20.0, b=20.0)
        init = self.rough_init(grid, p, 5, 0.3)
        states = reference_run(p, grid, init, StepConfig(
            output_stride=1, store_snapshots=True, **self.SETTLING[policy])).snapshots
        settled = next(k for k in range(2, len(states))
                       if states[k].u.tobytes() == states[k - 1].u.tobytes())
        # The last sample before the fixed point's first step, that step
        # itself, or the step after it.
        stride = settled + offset
        cfg = StepConfig(output_stride=stride, store_snapshots=True, **self.SETTLING[policy])
        expected = run_outcome(lambda: reference_run(p, grid, init, cfg))
        _, dts = counting_builds(monkeypatch)
        got = run(p, grid, init, cfg)
        assert run_outcome(lambda: got) == expected
        # `step` runs up to the first sample at or after the fixed point, and
        # once more for the last step.
        detected = -(-settled // stride) * stride
        assert len(dts) == got.steps_integrated == detected + 1 < got.steps_taken - stride
        assert dts[-1] != dts[-2]
        # Samples taken while skipping share the fixed point's arrays.
        first = got.snapshots[detected // stride]
        skipped = got.snapshots[detected // stride + 1:-1]
        assert skipped and all(s.u is first.u and s.v is first.v for s in skipped)

    @pytest.mark.parametrize("policy", ["fixed", "cfl"])
    @pytest.mark.parametrize("name", ["1d", "2d"])
    def test_a_clipping_fixed_point_counts_every_step(self, name, policy, monkeypatch):
        # The logistic source pulls u = 2 towards u* = 1 and a floor of 2
        # clips every cell back up, on every step.
        grid = self.GRIDS[name]
        p = make_params(chi0=3.0, beta=0.5, m=1.5)
        init = init_state(grid, InitSpec.constant(2.0), p)
        cfg = StepConfig(t_end=1.005, dt=1e-2 if policy == "fixed" else 5e-2, dt_policy=policy,
                         output_stride=7, positivity_floor=2.0, store_snapshots=True)
        expected = run_outcome(lambda: reference_run(p, grid, init, cfg))
        _, dts = counting_builds(monkeypatch)
        got = run(p, grid, init, cfg)
        assert run_outcome(lambda: got) == expected
        assert got.clip_count == grid.total_cells * got.steps_taken
        # Seven steps to the first sample, and the last step.
        assert len(dts) == got.steps_integrated == 8 < got.steps_taken

    @pytest.mark.parametrize("policy, integrated", [("fixed", 2), ("cfl", 3)])
    def test_a_returned_initial_state_is_no_fixed_point(self, policy, integrated):
        # init.v is not the run's signal of init.u: its gradient drives a
        # flux in step 1 that a floor of 2 clips away, so step 1 returns
        # init.u bit for bit. Step 2 sees the flat signal of u_1, and under
        # cfl its dt is larger, so only from step 2 on is a step that
        # returns its input a fixed point.
        grid = self.GRIDS["1d"]
        p = make_params(chi0=0.5)
        init = FieldState(0.0, np.full(grid.shape, 2.0), 1.0 + np.cos(grid.centers()))
        cfg = StepConfig(t_end=1.0, dt=0.5 if policy == "cfl" else 5e-2, dt_policy=policy,
                         output_stride=1, positivity_floor=2.0, store_snapshots=True)
        reference = reference_run(p, grid, init, cfg)
        states = reference.snapshots
        assert states[1].u.tobytes() == init.u.tobytes()
        if policy == "cfl":
            assert states[2].time - states[1].time > states[1].time - states[0].time
        expected = run_outcome(lambda: reference)
        got = run(p, grid, init, cfg)
        assert run_outcome(lambda: got) == expected
        assert got.steps_integrated == integrated


class TestStepsAtAFixedPoint:
    @pytest.mark.parametrize("policy, calls", [("fixed", 10), ("cfl", 11)])
    def test_the_constant_equilibrium_steps_until_the_first_sample(self, policy, calls,
                                                                   monkeypatch):
        # u* = 1 is a fixed point of `step` by the first sample, at step 10,
        # and every later step of dt is skipped. Under cfl dt is the cap, and
        # the 100th step takes up the remaining time, which the running sum
        # of dt leaves a little short of dt, so `step` runs once more.
        grid = GridDomain.interval(math.pi, 64)
        p = make_params()
        init = init_state(grid, InitSpec.constant(1.0), p)
        cfg = StepConfig(t_end=0.5, dt=5e-3, dt_policy=policy, output_stride=10)
        expected = run_outcome(lambda: reference_run(p, grid, init, cfg))
        # counting_builds wraps integrator.step, so this also checks that
        # `run` looks the name up on every step.
        _, dts = counting_builds(monkeypatch)
        got = run(p, grid, init, cfg)
        assert run_outcome(lambda: got) == expected
        assert (got.steps_taken, got.steps_integrated, len(dts)) == (100, calls, calls)


def sample_guard(monkeypatch, limit):
    """Stop `run` with AssertionError at its (limit + 1)-th FieldState, which
    it builds at every sample whether it integrates or replays a fixed
    point: a run that would never end fails instead of hanging."""
    made = []
    inner = chemostab.integrator.FieldState

    def counting(*args, **kwargs):
        made.append(None)
        if len(made) > limit:
            raise AssertionError(f"run built more than {limit} samples")
        return inner(*args, **kwargs)

    monkeypatch.setattr(chemostab.integrator, "FieldState", counting)
    return made


class TestStalledClock:
    """A cfl step below half an ulp of the time leaves the clock where it
    is; `run` refuses it with DegenerateState instead of never ending."""

    @staticmethod
    def spike(chi0):
        """u = 1 with 1e5 in cell 32 of 64, moved to t = 10, and its config."""
        p = ModelParams(chi0=chi0, beta=0.0, m=3.0, alpha=1.0, gamma=1.0, a=1.0, b=1.0,
                        mu=1.0, nu=1.0)
        grid = GridDomain.interval(math.pi, 64)
        u0 = np.ones(64)
        u0[32] = 1e5
        s = init_state(grid, InitSpec.from_array(u0), p)
        cfg = StepConfig(t_end=10.001, dt=1e-3, dt_policy="cfl")
        return p, grid, FieldState(10.0, s.u, s.v), cfg

    def test_a_step_below_half_an_ulp_raises_before_it_is_taken(self, monkeypatch):
        p, grid, init, cfg = self.spike(10.0)
        # The bound is about 1.84e-16, below half an ulp of 10 (8.9e-16), so
        # t + dt is t: without the check every step would leave t at 10.
        dt = bound_at(init, p, grid, cfg)
        assert 10.0 + dt == 10.0 and 0.0 < dt < math.ulp(10.0) / 2
        made = sample_guard(monkeypatch, 200)
        _, dts = counting_builds(monkeypatch)
        with pytest.raises(DegenerateState, match=re.escape(f"dt = {dt!r}") + ".*t = 10.0"):
            run(p, grid, init, cfg)
        assert dts == [] and len(made) == 0

    def test_a_step_of_one_ulp_still_runs(self, monkeypatch):
        # chi0 = 1 gives a bound ten times larger, which moves the clock one
        # ulp per step: slow, but not stalled, so it is not refused. The
        # guard stops it after 20 samples.
        p, grid, init, cfg = self.spike(1.0)
        assert bound_at(init, p, grid, cfg) > math.ulp(10.0) / 2
        sample_guard(monkeypatch, 20)
        with pytest.raises(AssertionError, match="more than 20 samples"):
            run(p, grid, init, cfg)

    def test_a_settled_run_raises_where_the_ulp_doubles(self, monkeypatch):
        # dt = 1e-10 is 0.86 ulp below 2^20 and 0.43 ulp above it. From u = 1
        # the run settles at its first sample, step 5, and replays the fixed
        # point; step 31 would leave t at 2^20.
        p = make_params(chi0=1.0)
        grid = GridDomain.interval(math.pi, 64)
        s = init_state(grid, InitSpec.constant(1.0), p)
        init = FieldState(2.0**20 - 30 * 2.0**-33, s.u, s.v)
        cfg = StepConfig(t_end=2.0**20 + 1e-3, dt=1e-10, dt_policy="cfl", output_stride=5)
        made = sample_guard(monkeypatch, 200)
        _, dts = counting_builds(monkeypatch)
        with pytest.raises(DegenerateState, match=r"dt = 1e-10 .* t = 1048576\.0"):
            run(p, grid, init, cfg)
        assert len(dts) == 5 and len(made) == 6


@contextmanager
def corrupted_solve(grid, index, fault):
    """The index-th direct solve (from 0) returns fault(w) instead of w;
    yields the list of the numbers of the solves made so far."""
    made = []
    if grid.dimension == 1:
        owner, name = chemostab.helmholtz, "dpttrs"
    else:
        owner, name = scipy.fft, "idctn"
    inner = getattr(owner, name)

    def solve(*args, **kwargs):
        out = inner(*args, **kwargs)
        w = out[0] if grid.dimension == 1 else out
        if len(made) == index:
            w = fault(w)
        made.append(len(made))
        return (w, out[1]) if grid.dimension == 1 else w

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(owner, name, solve)
        yield made


def scaled(w):
    return w * (1.0 + 1e-6)


def with_nan(w):
    w = w.copy()
    w.flat[w.size // 2] = math.nan
    return w


def outcome(call):
    """None, or the type and message of what call() raised."""
    try:
        with np.errstate(all="ignore"):
            call()
    except Exception as exc:
        return type(exc), str(exc)
    return None


def raising_record(exc):
    """`_record` that raises exc at the first sample after the initial state."""
    def record_or_raise(traj, state, *args):
        if state.time > 0.0:
            raise exc
        return _record(traj, state, *args)

    return record_or_raise


def per_solve(call):
    """call() with every solve of a run certified at once."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chemostab.integrator, "solve_block", lambda grid: nullcontext())
        return call()


class TestSolvesCertifiedInBlocks:
    """On small grids `run` certifies its solves in blocks. Floats, samples
    and every exception must be those of certifying each solve at once."""

    # Grid, mode of the initial perturbation and output stride; the stride
    # is long enough that blocks fill between samples.
    GRIDS = {
        "1d": (GridDomain.interval(math.pi, 64), 1, 100),
        "8x12": (GridDomain.rectangle(math.pi, 2.0, 8, 12), (1, 1), 60),
        "12x20": (GridDomain.rectangle(math.pi, 2.0, 12, 20), (1, 1), 25),
    }
    # 330 steps under fixed: the last one is not on the sample lattice.
    POLICIES = {
        "fixed": dict(t_end=0.33, dt=1e-3),
        "cfl": dict(t_end=0.33, dt=1e-3, dt_policy="cfl"),
    }

    def case(self, name, policy, **overrides):
        grid, mode, stride = self.GRIDS[name]
        p = make_params(chi0=3.0, beta=0.5, m=1.5)
        init = init_state(grid, InitSpec.perturbation(1.0, 0.3, mode), p)
        cfg = StepConfig(output_stride=stride, store_snapshots=True,
                         **{**self.POLICIES[policy], **overrides})
        return p, grid, init, cfg

    @pytest.mark.parametrize("policy", ["fixed", "cfl"])
    @pytest.mark.parametrize("name", ["1d", "8x12", "12x20"])
    def test_trajectory_is_bitwise_that_of_per_solve_certificates(self, name, policy):
        p, grid, init, cfg = self.case(name, policy)
        assert isinstance(solve_block(grid), SolveBlock)
        got = run(p, grid, init, cfg)
        expected = per_solve(lambda: run(p, grid, init, cfg))
        # More solves than one block holds, so blocks fill and flush.
        assert 2 * got.steps_taken > 2 * solve_block(grid).capacity
        assert got.steps_taken == expected.steps_taken
        assert got.clip_count == expected.clip_count
        for series in chemostab.integrator.SERIES:
            assert getattr(got, series).tobytes() == getattr(expected, series).tobytes()
        assert len(got.snapshots) == len(expected.snapshots)
        for a, b in zip(got.snapshots + [got.final_state],
                        expected.snapshots + [expected.final_state]):
            assert a.time == b.time
            assert a.u.tobytes() == b.u.tobytes()
            assert a.v.tobytes() == b.v.tobytes()

    @pytest.mark.parametrize("fault", [scaled, with_nan], ids=["wrong", "nan"])
    @pytest.mark.parametrize("where", ["block-first", "block-middle", "block-last",
                                       "next-block-first", "before-sample",
                                       "after-sample", "run-last"])
    @pytest.mark.parametrize("policy", ["fixed", "cfl"])
    @pytest.mark.parametrize("name", ["1d", "8x12", "12x20"])
    def test_a_failing_solve_raises_as_if_certified_at_once(self, name, policy, where, fault):
        p, grid, init, cfg = self.case(name, policy)
        capacity = solve_block(grid).capacity
        solves = 2 * run(p, grid, init, cfg).steps_taken
        index = {
            "block-first": 0, "block-middle": capacity // 2, "block-last": capacity - 1,
            "next-block-first": capacity,
            # The signal solve of the step that is sampled, and the next one.
            "before-sample": 2 * cfg.output_stride - 1, "after-sample": 2 * cfg.output_stride,
            "run-last": solves - 1,
        }[where]
        assert index < solves
        with corrupted_solve(grid, index, fault):
            got = outcome(lambda: run(p, grid, init, cfg))
        with corrupted_solve(grid, index, fault):
            expected = outcome(lambda: per_solve(lambda: run(p, grid, init, cfg)))
        assert expected[0] is SolverFailure
        assert got == expected

    @pytest.mark.parametrize("fault", [scaled, with_nan], ids=["wrong", "nan"])
    @pytest.mark.parametrize("back", [1, 2, 3], ids=["diffusion", "signal", "earlier"])
    @pytest.mark.parametrize("policy", ["fixed", "cfl"])
    @pytest.mark.parametrize("name", ["1d", "8x12"])
    def test_a_failing_solve_before_a_blowup_raises_first(self, name, policy, back, fault):
        # Logistic growth from 0.9 crosses the cap at 0.95 after about 150
        # steps; the step that crosses it makes its diffusion solve only.
        grid = self.GRIDS[name][0]
        p = make_params(chi0=0.0)
        init = init_state(grid, InitSpec.constant(0.9), p)
        cfg = StepConfig(t_end=5.0, dt=5e-3, dt_policy=policy, blowup_cap=0.95,
                         output_stride=1000)
        with corrupted_solve(grid, -1, None) as made:  # counts, corrupts nothing
            assert outcome(lambda: run(p, grid, init, cfg))[0] is BlowupDetected
        assert len(made) > solve_block(grid).capacity
        index = len(made) - back
        with corrupted_solve(grid, index, fault):
            got = outcome(lambda: run(p, grid, init, cfg))
        with corrupted_solve(grid, index, fault):
            expected = outcome(lambda: per_solve(lambda: run(p, grid, init, cfg)))
        assert expected[0] is SolverFailure
        assert got == expected

    @pytest.mark.parametrize("policy", ["fixed", "cfl"])
    def test_stable_dt_error_after_a_failing_solve_raises_the_solver_failure(self, policy):
        # A NaN signal field makes the next cfl step's bound raise
        # DegenerateState; under fixed, the next step blows up.
        p, grid, init, cfg = self.case("1d", policy)
        with corrupted_solve(grid, 3, with_nan):
            got = outcome(lambda: run(p, grid, init, cfg))
        with corrupted_solve(grid, 3, with_nan):
            expected = outcome(lambda: per_solve(lambda: run(p, grid, init, cfg)))
        assert expected[0] is SolverFailure
        assert got == expected

    @staticmethod
    def recording_blocks(monkeypatch):
        """The blocks that `run` opens from now on."""
        blocks = []

        def recording_block(grid):
            blocks.append(solve_block(grid))
            return blocks[-1]

        monkeypatch.setattr(chemostab.integrator, "solve_block", recording_block)
        return blocks

    @staticmethod
    def counting_passes(monkeypatch):
        """The number of solves in each certify pass from now on."""
        passes = []
        certify = chemostab.helmholtz.certify

        def counting_certify(grid, mu, rhs, solutions):
            passes.append(rhs.shape[-1] if rhs.ndim > grid.dimension else 1)
            return certify(grid, mu, rhs, solutions)

        monkeypatch.setattr(chemostab.helmholtz, "certify", counting_certify)
        return passes

    @pytest.mark.parametrize("fault", [None, "blowup", "solve", "record"])
    @pytest.mark.parametrize("policy", ["fixed", "cfl"])
    def test_the_block_is_empty_when_run_returns_or_raises(self, policy, fault, monkeypatch):
        p, grid, init, cfg = self.case("1d", policy)
        if fault == "blowup":
            # Logistic growth from 0.9 crosses the cap after about 150 steps.
            p = make_params(chi0=0.0)
            init = init_state(grid, InitSpec.constant(0.9), p)
            cfg = dataclasses.replace(cfg, t_end=5.0, dt=5e-3, blowup_cap=0.95)
        if fault == "record":
            monkeypatch.setattr(chemostab.integrator, "_record",
                                raising_record(RuntimeError("record failed")))
        blocks = self.recording_blocks(monkeypatch)
        passes = self.counting_passes(monkeypatch)
        with corrupted_solve(grid, 5 if fault == "solve" else -1, scaled) as made:
            got = outcome(lambda: run(p, grid, init, cfg))
        assert (got is None) == (fault is None)
        assert fault is None or got[0] is {"blowup": BlowupDetected, "solve": SolverFailure,
                                           "record": RuntimeError}[fault]
        assert len(blocks) == 1
        assert blocks[0].count == 0
        # Every solve made was certified, the pending ones on the way out;
        # a failing pass stops at its failure.
        if fault != "solve":
            assert sum(passes) == len(made) > 0

    def test_a_keyboard_interrupt_leaves_without_a_check(self, monkeypatch):
        # A corrupted solve waits in the block when the interrupt comes: a
        # check on the way out would replace the interrupt with its failure.
        p, grid, init, cfg = self.case("1d", "fixed")
        cfg = dataclasses.replace(cfg, output_stride=10)
        interrupt = KeyboardInterrupt()
        monkeypatch.setattr(chemostab.integrator, "_record", raising_record(interrupt))
        blocks = self.recording_blocks(monkeypatch)
        passes = self.counting_passes(monkeypatch)
        with corrupted_solve(grid, 3, scaled) as made:
            with pytest.raises(KeyboardInterrupt) as raised:
                run(p, grid, init, cfg)
        assert raised.value is interrupt
        assert raised.value.__context__ is None
        assert passes == []
        assert blocks[0].count == len(made) == 2 * cfg.output_stride < blocks[0].capacity

    @pytest.mark.parametrize("policy", ["fixed", "cfl"])
    def test_a_failing_record_after_a_failing_solve_raises_the_solver_failure(
            self, policy, monkeypatch):
        p, grid, init, cfg = self.case("1d", policy)
        cfg = dataclasses.replace(cfg, output_stride=10)
        failure = RuntimeError("record failed")
        with corrupted_solve(grid, 3, scaled):
            expected = outcome(lambda: per_solve(lambda: run(p, grid, init, cfg)))
        assert expected[0] is SolverFailure
        monkeypatch.setattr(chemostab.integrator, "_record", raising_record(failure))
        with corrupted_solve(grid, 3, scaled):
            with pytest.raises(SolverFailure) as raised:
                run(p, grid, init, cfg)
        assert (type(raised.value), str(raised.value)) == expected
        # Chained to the error it replaced, as an error raised in an
        # `except` clause is.
        assert raised.value.__context__ is failure

    def test_a_64_cell_run_makes_far_fewer_passes_than_solves(self, monkeypatch):
        grid = GridDomain.interval(math.pi, 64)
        p = make_params(chi0=0.3)
        init = init_state(grid, InitSpec.perturbation(1.0, 0.25, 1), p)
        cfg = StepConfig(t_end=1.0, dt=1e-3, output_stride=100)
        passes = self.counting_passes(monkeypatch)
        traj = run(p, grid, init, cfg)
        assert sum(passes) == 2 * traj.steps_taken == 2000
        # Samples do not flush: full blocks, then the rest when the run ends.
        capacity = solve_block(grid).capacity
        assert len(passes) == math.ceil(2000 / capacity) == 16

    def test_direct_calls_certify_at_once(self, interval_pi):
        p = make_params()
        state = init_state(interval_pi, InitSpec.constant(1.0), p)
        cfg = StepConfig(t_end=1.0)
        with corrupted_solve(interval_pi, 0, scaled):
            assert outcome(lambda: step_at(state.u, state.v, state.time, p, interval_pi,
                                           1e-3, cfg))[0] is SolverFailure
        with corrupted_solve(interval_pi, 1, scaled) as made:
            assert outcome(lambda: step_at(state.u, state.v, state.time, p, interval_pi,
                                           1e-3, cfg))[0] is SolverFailure
        assert len(made) == 2


class TestTrajectoryOutput:
    def test_csv_header_and_shape(self, interval_pi, tmp_path):
        p = make_params()
        state = init_state(interval_pi, InitSpec.constant(1.2), p)
        traj = run(p, interval_pi, state, StepConfig(t_end=0.1, dt=1e-2))
        path = tmp_path / "out.csv"
        traj.write_csv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "t,u_min,u_max,v_min,v_max,mass,err_inf,lyapunov,dissipation"
        assert lines[0] == TRAJECTORY_CSV_HEADER
        assert len(lines) == len(traj) + 1
        assert len(lines[1].split(",")) == 9

    def test_csv_rejects_series_of_different_lengths(self, interval_pi, tmp_path):
        p = make_params()
        traj = Trajectory(p, interval_pi, equilibrium(p),
                          times=np.linspace(0.0, 1.0, 5), u_min=np.ones(5))
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match="'times': 5.*'u_max': 0"):
            traj.write_csv(str(path))
        assert not path.exists()

    def test_summaries_match_final_state(self, interval_pi):
        p = make_params(chi0=2.0, beta=1.0)
        spec = InitSpec.perturbation(u_star=1.0, amplitude=0.2)
        state = init_state(interval_pi, spec, p)
        traj = run(p, interval_pi, state, StepConfig(t_end=0.2, dt=1e-3))
        u = traj.final_state.u
        assert traj.u_min[-1] == pytest.approx(float(u.min()), rel=1e-15)
        assert traj.u_max[-1] == pytest.approx(float(u.max()), rel=1e-15)
        assert traj.err_inf[-1] == pytest.approx(float(np.abs(u - 1.0).max()))
        assert isinstance(traj, Trajectory)

    @given(seed=st.integers(0, 2**32 - 1), where=st.sampled_from(["below", "inside", "above"]),
           scale=st.floats(-8.0, 8.0), nan=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_err_inf_is_bitwise_the_max_over_the_field(self, seed, where, scale, nan):
        # _record takes max |u - u*| from the extrema; the field's own
        # reduction is the reference, byte for byte.
        rng = np.random.default_rng(seed)
        grid = GridDomain.interval(1.0, 16)
        u = 10.0**scale * rng.uniform(0.5, 2.0, size=16)
        if nan:
            u[rng.integers(16)] = math.nan
        lo, hi = np.nanmin(u), np.nanmax(u)
        u_star = float({"below": lo * rng.uniform(1e-3, 1.0),
                        "inside": rng.choice([lo, hi, rng.uniform(lo, hi)]),
                        "above": hi * rng.uniform(1.0, 1e3)}[where])
        traj = Trajectory(make_params(), grid, Equilibrium(u_star, 1.0))
        rows = []
        with np.errstate(invalid="ignore"):
            record(traj, FieldState(0.0, u, np.ones(16)), rows)
            expected = float(np.abs(u - u_star).max())
        recorded = rows[0][SERIES.index("err_inf")]
        assert type(recorded) is float
        assert np.float64(recorded).tobytes() == np.float64(expected).tobytes()

    @pytest.mark.parametrize("m", [1.0, 1.7])
    def test_lyapunov_is_bitwise_lyapunov_F_or_nan(self, m):
        # _record calls lyapunov_F where the u_min it holds is positive, and
        # records NaN elsewhere.
        grid = GridDomain.interval(1.0, 16)
        p = make_params(m=m)
        traj = Trajectory(p, grid, Equilibrium(1.3, 1.0))
        u = np.random.default_rng(3).uniform(0.5, 2.0, size=16)
        rows = []
        record(traj, FieldState(0.0, u, np.ones(16)), rows)
        record(traj, FieldState(0.0, np.where(np.arange(16) == 5, 0.0, u), np.ones(16)), rows)
        recorded = [row[SERIES.index("lyapunov")] for row in rows]
        expected = lyapunov_F(u, 1.3, m, grid.cell_volume)
        assert np.float64(recorded[0]).tobytes() == np.float64(expected).tobytes()
        assert math.isnan(recorded[1])

    def test_mass_drift_is_the_largest_relative_change_of_mass(self, interval_pi):
        p = make_params()
        traj = Trajectory(p, interval_pi, equilibrium(p), mass=np.array([2.0, 2.5, 1.0, 2.0]))
        assert traj.mass_drift == 0.5
        assert type(traj.mass_drift) is float
