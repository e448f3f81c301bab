"""Time stepping: conservation, reaction accuracy, caps, and sampling."""

import math

import numpy as np
import pytest

from chemostab import (
    BlowupDetected,
    FieldState,
    GridDomain,
    InitSpec,
    StepConfig,
    Trajectory,
    equilibrium,
    init_state,
    run,
    stable_dt,
    step,
)
from chemostab.helmholtz import RESIDUAL_RTOL, NonFiniteInput, face_slices, neumann_laplacian
from chemostab.integrator import (
    TRAJECTORY_CSV_HEADER,
    DegenerateState,
    chemotactic_face_flux,
    face_drift,
    flux_divergence,
)
from conftest import make_params


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


class TestFlux:
    def test_zero_for_flat_signal(self, interval_pi, rng):
        p = make_params(chi0=2.0)
        u = rng.uniform(0.5, 2.0, size=64)
        v = np.full(64, 0.7)
        fluxes = chemotactic_face_flux(u, v, p, interval_pi)
        assert np.all(fluxes[0] == 0.0)

    def test_divergence_telescopes(self, interval_pi, rng):
        # Interior fluxes cancel in the cell sum: exact discrete conservation.
        p = make_params(chi0=1.3, beta=1.0)
        u = rng.uniform(0.5, 2.0, size=64)
        v = rng.uniform(0.1, 1.0, size=64)
        div = flux_divergence(chemotactic_face_flux(u, v, p, interval_pi), interval_pi)
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
        (flux,) = chemotactic_face_flux(u, v, p, g)
        drift = (v[1:] - v[:-1]) / g.spacing[0] * (1.0 + 0.5 * (v[1:] + v[:-1])) ** 0
        assert flux == pytest.approx(u[:-1] ** 2 * drift, rel=1e-13)

    @pytest.mark.parametrize(
        "grid",
        [GridDomain.interval(math.pi, 64), GridDomain.rectangle(1.0, 2.5, 12, 20)],
        ids=["1d", "2d"],
    )
    def test_flux_and_stable_dt_are_built_from_face_drift(self, grid, rng):
        p = make_params(chi0=1.7, beta=1.5, m=2.0, a=0.0, b=0.0)
        u = rng.uniform(0.5, 2.0, size=grid.shape)
        v = rng.uniform(0.1, 1.0, size=grid.shape)
        drifts = face_drift(v, p, grid)
        fluxes = chemotactic_face_flux(u, v, p, grid)
        for axis, (flux, drift) in enumerate(zip(fluxes, drifts)):
            lo, hi = face_slices(grid.dimension, axis)
            grad = np.diff(v, axis=axis) / grid.spacing[axis]
            expected = p.chi0 * (1.0 + 0.5 * (v[lo] + v[hi])) ** -p.beta * grad
            assert drift == pytest.approx(expected, rel=1e-13)
            donor = np.where(drift > 0.0, u[lo], u[hi])
            assert np.array_equal(flux, donor**p.m * drift)
        # No reaction limit (a = b = 0) and a loose cap: the advective limit binds.
        cfg = StepConfig(t_end=1.0, dt=10.0, dt_policy="cfl")
        scale = float(u.max()) ** (p.m - 1.0)
        limit = min(h / (float(np.abs(drift).max()) * scale)
                    for h, drift in zip(grid.spacing, drifts))
        assert stable_dt(FieldState(0.0, u, v), p, grid, cfg) == cfg.sigma_cfl * limit


class TestMassAndReaction:
    def test_minimal_model_conserves_mass_per_step(self, interval_pi, rng):
        p = make_params(chi0=1.5, beta=1.0, a=0.0, b=0.0)
        u = rng.uniform(0.5, 2.0, size=64)
        state = init_state(interval_pi, InitSpec.from_array(u), p)
        cfg = StepConfig(t_end=1.0, dt=1e-3)
        new, clipped = step(state, p, interval_pi, 1e-3, cfg)
        assert clipped == 0
        assert new.u.sum() == pytest.approx(u.sum(), rel=1e-13)

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
        # (I/dt - lap_h) u_new = explicit / dt, checked with the sparse stencil.
        grid = GridDomain.rectangle(math.pi, 2.0, 24, 16)
        p = make_params(chi0=1.5)
        u = rng.uniform(0.5, 1.5, size=grid.shape)
        state = init_state(grid, InitSpec.from_array(u), p)
        dt = 5e-3
        new, clipped = step(state, p, grid, dt, StepConfig(t_end=1.0, dt=dt))
        assert clipped == 0
        div = flux_divergence(chemotactic_face_flux(u, state.v, p, grid), grid)
        rhs = (u + dt * (-div + p.a * u - p.b * u ** (1.0 + p.alpha))) / dt
        lap_u = (neumann_laplacian(grid) @ new.u.ravel()).reshape(grid.shape)
        residual = np.abs(new.u / dt - lap_u - rhs).max()
        assert residual <= RESIDUAL_RTOL * np.abs(rhs).max()

    def test_non_finite_explicit_stage_raises_non_finite_input(self, interval_pi):
        p = make_params()
        state = init_state(interval_pi, InitSpec.constant(1.0), p)
        u = state.u.copy()
        u[10] = 1e200  # b u^(1 + alpha) overflows, so the explicit stage holds -inf
        cfg = StepConfig(t_end=1.0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteInput):
            step(FieldState(0.0, u, state.v), p, interval_pi, 1e-3, cfg)


class TestStableDt:
    def test_no_drift_no_reaction_returns_cap(self, interval_pi):
        p = make_params(chi0=1.0, a=0.0, b=0.0)
        state = init_state(interval_pi, InitSpec.constant(1.0), p)
        cfg = StepConfig(t_end=1.0, dt=0.05, dt_policy="cfl")
        assert stable_dt(state, p, interval_pi, cfg) == 0.05

    def test_reaction_limit(self, interval_pi):
        # a + b (1 + alpha) u^alpha = 3 at u = 1, so dt = 0.9 / 3.
        p = make_params(chi0=0.0)
        state = init_state(interval_pi, InitSpec.constant(1.0), p)
        cfg = StepConfig(t_end=1.0, dt=1.0, dt_policy="cfl")
        assert stable_dt(state, p, interval_pi, cfg) == pytest.approx(0.3)

    def test_degenerate_state_rejected(self, interval_pi):
        p = make_params()
        bad = init_state(interval_pi, InitSpec.constant(1.0), p)
        u = bad.u.copy()
        u[0] = math.inf
        cfg = StepConfig(t_end=1.0, dt=1e-3, dt_policy="cfl")
        with pytest.raises(DegenerateState):
            stable_dt(FieldState(0.0, u, bad.v), p, interval_pi, cfg)

    def test_cfl_run_reaches_t_end(self, interval_pi):
        p = make_params(chi0=3.0)
        spec = InitSpec.perturbation(u_star=1.0, amplitude=0.3)
        state = init_state(interval_pi, spec, p)
        cfg = StepConfig(t_end=0.5, dt=1e-2, dt_policy="cfl")
        traj = run(p, interval_pi, state, cfg)
        assert traj.times[-1] == pytest.approx(0.5, abs=1e-12)


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
