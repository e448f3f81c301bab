"""Comparison ODE pair: normalization, integration, and PDE containment."""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from chemostab import (
    GridDomain,
    InitSpec,
    RectangleParams,
    StepConfig,
    Trajectory,
    equilibrium,
    init_state,
    integrate_rectangle,
    normalize,
    run,
    verify_sandwich,
)
from chemostab import rectangle
from chemostab.rectangle import (
    ORDER_TOL,
    MinimalModelUnsupported,
    OrderViolation,
    TimeGridMismatch,
    TooManySteps,
    contraction_tail,
)
from chemostab.thresholds import HypothesisViolated, v_lower_ab
from conftest import make_params, tau_grid_for


def logistic_exact(u0: float, t: float) -> float:
    return u0 / (u0 + (1.0 - u0) * math.exp(-t))


class TestNormalize:
    def test_raw_coupling_oracle(self, reference_eq):
        rp = normalize(make_params(chi0=0.3), reference_eq, m0=0.0)
        assert rp.kappa0 == pytest.approx(0.3, rel=1e-15)
        assert rp.kappa == rp.kappa0
        assert rp.quad == 0.0
        assert rp.contraction  # 0.3 * 2 < 1
        assert rp.a == 1.0

    def test_quadratic_coefficient(self):
        p = make_params(chi0=0.2, beta=1.0)
        rp = normalize(p, equilibrium(p), m0=2.0)
        assert rp.quad == pytest.approx(4.0, rel=1e-15)  # beta v* m0^2
        assert not rp.contraction  # 0.2 * (2 + 4) > 1

    def test_signal_floor_divides_coupling(self):
        # v_lb = sqrt(1/2); kappa and quad shrink by (1+v_lb)^beta and (1+v_lb).
        p = make_params(chi0=0.35, beta=1.0, alpha=2.0)
        rp = normalize(p, equilibrium(p), m0=1.0, mode="signal-floor")
        floor = math.sqrt(0.5)
        assert rp.kappa == pytest.approx(0.35 / (1.0 + floor), rel=1e-14)
        assert rp.quad == pytest.approx(1.0 / (1.0 + floor), rel=1e-14)
        assert rp.kappa0 == pytest.approx(0.35, rel=1e-15)

    def test_minimal_model_rejected(self):
        p = make_params(a=0.0, b=0.0)
        with pytest.raises(MinimalModelUnsupported):
            normalize(p, equilibrium(p, u_star=1.0), m0=0.0)

    def test_input_validation(self, reference_eq):
        with pytest.raises(ValueError, match="mode"):
            normalize(make_params(), reference_eq, m0=0.0, mode="fancy")
        for m0 in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="m0"):
                normalize(make_params(), reference_eq, m0=m0)

    @pytest.mark.parametrize("overrides, message", [
        ({"chi0": 0.3, "beta": 0.5}, "beta >= 1"),
        # bar chi = a / (2 mu Theta_0) = 0.5 at m = 1.
        ({"chi0": 0.6, "beta": 1.0}, "chi0 <= bar chi = 0.5"),
    ], ids=["beta-below-one", "chi0-above-bar-chi"])
    def test_signal_floor_refused_outside_its_hypotheses(self, overrides, message):
        # v_lower_ab is the eventual signal floor only for beta >= 1 and
        # chi0 <= bar chi; the plain mode takes the same parameters.
        p = make_params(**overrides)
        with pytest.raises(HypothesisViolated, match=re.escape(message)):
            normalize(p, equilibrium(p), m0=0.0, mode="signal-floor")
        assert normalize(p, equilibrium(p), m0=0.0).mode == "plain"


def rectangle_rhs(state: np.ndarray, rp) -> np.ndarray:
    """Right-hand side of the (ubar, ulow) pair, as a length-2 array."""
    ubar, ulow = state
    return np.array(rectangle._pair_rates(rp)(ubar, ulow))


class TestRhs:
    def test_equilibrium_is_fixed_point(self, reference_eq):
        rp = normalize(make_params(chi0=0.3), reference_eq, m0=0.0)
        assert np.all(rectangle_rhs(np.array([1.0, 1.0]), rp) == 0.0)

    def test_coupling_widens_gap(self, reference_eq):
        rp = normalize(make_params(chi0=0.3), reference_eq, m0=0.0)
        dbar, dlow = rectangle_rhs(np.array([1.0, 0.5]), rp)
        # At ubar = 1 the logistic term vanishes; coupling pushes up/down.
        assert dbar > 0.0
        assert dlow < 0.3 * 0.5 * 0.5 + 0.5 * (1.0 - 0.5)  # logistic minus pull


class TestIntegration:
    def test_decoupled_pair_matches_logistic(self, reference_eq):
        rp = normalize(make_params(chi0=0.0), reference_eq, m0=0.0)
        traj = integrate_rectangle(rp, ubar0=1.4, ulow0=0.5, tau_end=2.0, dt=1e-3)
        assert traj.ubar[-1] == pytest.approx(logistic_exact(1.4, 2.0), abs=1e-10)
        assert traj.ulow[-1] == pytest.approx(logistic_exact(0.5, 2.0), abs=1e-10)

    def test_time_grid(self, reference_eq):
        rp = normalize(make_params(chi0=0.0), reference_eq, m0=0.0)
        traj = integrate_rectangle(rp, 1.2, 0.8, tau_end=1.0, dt=0.25)
        assert traj.tau == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
        assert traj.dt == 0.25

    def test_ordering_preserved_under_contraction(self, reference_eq):
        rp = normalize(make_params(chi0=0.3), reference_eq, m0=0.0)
        traj = integrate_rectangle(rp, 1.25, 0.75, tau_end=40.0, dt=1e-3)
        assert np.all(traj.ubar >= 1.0 - 1e-9)
        assert np.all(traj.ulow <= 1.0 + 1e-9)
        assert np.all(traj.ulow > 0.0)
        final, increase, monotone = contraction_tail(traj)
        assert final < 1e-6
        assert monotone
        assert increase <= 1e-9

    def test_log_gap_definition(self, reference_eq):
        rp = normalize(make_params(chi0=0.3), reference_eq, m0=0.0)
        traj = integrate_rectangle(rp, 1.25, 0.75, tau_end=0.5, dt=1e-2)
        gap = traj.log_gap()
        assert gap[0] == pytest.approx(math.log(1.25) - math.log(0.75), rel=1e-14)

    def test_initial_ordering_enforced(self, reference_eq):
        rp = normalize(make_params(chi0=0.3), reference_eq, m0=0.0)
        with pytest.raises(OrderViolation):
            integrate_rectangle(rp, ubar0=0.9, ulow0=0.5, tau_end=1.0)
        with pytest.raises(OrderViolation):
            integrate_rectangle(rp, ubar0=1.2, ulow0=1.5, tau_end=1.0)
        with pytest.raises(OrderViolation):
            integrate_rectangle(rp, ubar0=1.2, ulow0=-0.1, tau_end=1.0)

    @pytest.mark.parametrize(
        "tau_end, dt",
        [(math.inf, 1e-3), (math.nan, 1e-3), (0.0, 1e-3), (-1.0, 1e-3),
         (1.0, math.nan), (1.0, math.inf), (1.0, 0.0), (1e300, 1e-300)],
    )
    def test_time_grid_must_be_finite(self, reference_eq, tau_end, dt):
        rp = normalize(make_params(chi0=0.3), reference_eq, m0=0.0)
        with pytest.raises(ValueError, match="finite"):
            integrate_rectangle(rp, 1.25, 0.75, tau_end=tau_end, dt=dt)

    def test_step_count_is_bounded_before_anything_is_allocated(self, reference_eq):
        # 1e18 steps once went to np.linspace and died with a MemoryError.
        rp = normalize(make_params(chi0=0.3), reference_eq, m0=0.0)
        tracemalloc.start()
        try:
            with pytest.raises(TooManySteps, match="1000000000000000000 steps"):
                integrate_rectangle(rp, 1.25, 0.75, tau_end=1e15, dt=1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16
        assert issubclass(TooManySteps, ValueError)

    def test_step_limit_is_inclusive(self, reference_eq, monkeypatch):
        rp = normalize(make_params(chi0=0.3), reference_eq, m0=0.0)
        monkeypatch.setattr(rectangle, "STEP_LIMIT", 100)
        assert len(integrate_rectangle(rp, 1.25, 0.75, tau_end=1.0, dt=1e-2).tau) == 101
        with pytest.raises(TooManySteps):
            integrate_rectangle(rp, 1.25, 0.75, tau_end=1.01, dt=1e-2)

    @pytest.mark.parametrize("tau_end, dt", [(0.0125, 1e-3), (1e-4, 1e-3), (1.005, 1e-2)])
    def test_tau_end_off_the_lattice_raises_before_anything_is_allocated(
            self, reference_eq, tau_end, dt):
        # Rounding tau_end / dt once ended these grids at 0.012, 0.001 and 1.0.
        rp = normalize(make_params(chi0=0.3), reference_eq, m0=0.0)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"tau_end = {tau_end} is not a positive multiple"):
                integrate_rectangle(rp, 1.25, 0.75, tau_end=tau_end, dt=dt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    @pytest.mark.parametrize("tau_end, dt", [(0.0125, 2.5e-3), (1.0 + 1e-12, 1e-2)])
    def test_a_tau_end_on_the_lattice_ends_the_grid(self, reference_eq, tau_end, dt):
        # Within 1e-9 dt of a multiple of dt, as the fixed-step PDE runs count.
        rp = normalize(make_params(chi0=0.3), reference_eq, m0=0.0)
        traj = integrate_rectangle(rp, 1.25, 0.75, tau_end=tau_end, dt=dt)
        assert len(traj.tau) == round(tau_end / dt) + 1
        assert abs(traj.tau[-1] - tau_end) <= 1e-9 * dt

    def test_noncontractive_coupling_breaks_order(self, reference_eq):
        # Far outside the contraction region the upper branch runs away
        # faster than fixed-step RK4 can follow; the guard must trip.
        rp = normalize(make_params(chi0=5.0), reference_eq, m0=0.0)
        assert not rp.contraction
        with pytest.raises(OrderViolation):
            integrate_rectangle(rp, 1.25, 0.75, tau_end=40.0, dt=1e-3)

    def test_parameter_validation(self, reference_eq):
        rp = normalize(make_params(chi0=0.3), reference_eq, m0=0.0)
        with pytest.raises(ValueError):
            integrate_rectangle(rp, 1.2, 0.8, tau_end=0.0)
        with pytest.raises(ValueError):
            integrate_rectangle(rp, 1.2, 0.8, tau_end=1.0, dt=-1e-3)


def ungated_floor_pair(p, m0):
    """The pair of normalize's signal-floor mode, by its arithmetic, also at
    parameters outside that mode's hypotheses (beta >= 1, chi0 <= bar chi),
    where normalize refuses it. There it bounds no PDE, but it is still an
    ODE pair whose broken ordering both loops must report alike."""
    plain = normalize(p, equilibrium(p), m0=m0)
    floor = v_lower_ab(p)
    return dataclasses.replace(plain, kappa=plain.kappa0 / (1.0 + floor) ** p.beta,
                               quad=plain.quad / (1.0 + floor), mode="signal-floor")


def array_rk4(rp, ubar0, ulow0, tau_end, dt):
    """The RK4 loop that integrate_rectangle once ran: (ubar, ulow) as a
    length-2 array through rectangle_rhs. The reference for the float loop."""
    n_steps = max(1, int(round(tau_end / dt)))
    tau = np.linspace(0.0, n_steps * dt, n_steps + 1)
    ubar = np.empty(n_steps + 1)
    ulow = np.empty(n_steps + 1)
    state = np.array([float(ubar0), float(ulow0)])
    ubar[0], ulow[0] = state
    for i in range(n_steps):
        k1 = rectangle_rhs(state, rp)
        k2 = rectangle_rhs(state + 0.5 * dt * k1, rp)
        k3 = rectangle_rhs(state + 0.5 * dt * k2, rp)
        k4 = rectangle_rhs(state + dt * k3, rp)
        state = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(state)):
            raise OrderViolation(f"non-finite state at tau = {tau[i + 1]}")
        if state[1] <= 0.0 or state[1] > 1.0 + ORDER_TOL or state[0] < 1.0 - ORDER_TOL:
            raise OrderViolation(
                f"ordering ulow <= 1 <= ubar broke at tau = {tau[i + 1]}: "
                f"({state[0]}, {state[1]})"
            )
        ubar[i + 1], ulow[i + 1] = state
    return ubar, ulow


class TestFloatLoopMatchesArrayLoop:
    """integrate_rectangle advances two floats; it must round exactly as
    the array loop over rectangle_rhs does."""

    def test_plain_pair_is_byte_identical(self, reference_eq):
        rp = normalize(make_params(chi0=0.3), reference_eq, m0=0.0)
        traj = integrate_rectangle(rp, 1.25, 0.75, tau_end=12.0, dt=1e-3)
        ubar, ulow = array_rk4(rp, 1.25, 0.75, 12.0, 1e-3)
        assert traj.ubar.tobytes() == ubar.tobytes()
        assert traj.ulow.tobytes() == ulow.tobytes()

    def test_signal_floor_pair_is_byte_identical(self):
        p = make_params(chi0=0.05, beta=1.0, m=1.5, alpha=2.0, gamma=1.5)
        rp = normalize(p, equilibrium(p), m0=1.0, mode="signal-floor")
        assert rp.quad > 0.0 and rp.kappa < rp.kappa0
        traj = integrate_rectangle(rp, 1.3, 0.6, tau_end=12.0, dt=1e-3)
        ubar, ulow = array_rk4(rp, 1.3, 0.6, 12.0, 1e-3)
        assert traj.ubar.tobytes() == ubar.tobytes()
        assert traj.ulow.tobytes() == ulow.tobytes()

    def test_a_repeated_pair_fills_the_rest(self, reference_eq, monkeypatch):
        # A weak coupling contracts the pair to a pair that one step maps to
        # itself, bit for bit, at step 733 of 1,200; the array loop, which
        # has no exit, computes every later step.
        rp = normalize(make_params(chi0=0.05), reference_eq, m0=0.0)
        ubar, ulow = array_rk4(rp, 1.25, 0.75, 60.0, 5e-2)
        repeated = (ubar[1:] == ubar[:-1]) & (ulow[1:] == ulow[:-1])
        assert np.argmax(repeated) + 1 == 733
        calls = []
        bind = rectangle._pair_rates

        def counting_bind(rp):
            rates = bind(rp)

            def counting_rates(*args):
                calls.append(args)
                return rates(*args)

            return counting_rates

        monkeypatch.setattr(rectangle, "_pair_rates", counting_bind)
        traj = integrate_rectangle(rp, 1.25, 0.75, tau_end=60.0, dt=5e-2)
        assert len(calls) == 4 * 733
        assert traj.ubar.tobytes() == ubar.tobytes()
        assert traj.ulow.tobytes() == ulow.tobytes()

    @pytest.mark.parametrize(
        "overrides, pair, dt",
        [
            # the ordering breaks with a finite state
            ({"chi0": 5.0}, (1.25, 0.75), 1e-3),
            # a stage value turns negative under fractional powers: NaN in
            # numpy, complex for floats
            ({"chi0": 3.0, "beta": 1.0, "m": 2.5, "gamma": 1.5, "alpha": 0.5},
             (3.0, 0.2), 1e-2),
            # complex powers that overflow
            ({"chi0": 20.0, "beta": 1.0, "m": 3.5, "gamma": 2.5, "alpha": 0.5},
             (50.0, 0.2), 5e-2),
            # float powers that overflow: inf in numpy, OverflowError for floats
            ({"chi0": 5.0}, (1e100, 0.5), 1e-3),
        ],
        ids=["ordering", "negative-stage", "complex-overflow", "float-overflow"],
    )
    def test_broken_order_raises_at_the_same_tau(self, overrides, pair, dt):
        rp = ungated_floor_pair(make_params(**overrides), m0=1.0)
        with np.errstate(all="ignore"), pytest.raises(OrderViolation) as reference:
            array_rk4(rp, *pair, 40.0, dt)
        with pytest.raises(OrderViolation) as excinfo:
            integrate_rectangle(rp, *pair, tau_end=40.0, dt=dt)
        # The message names tau, and the state when it is finite.
        assert str(excinfo.value) == str(reference.value)


class TestSandwich:
    def test_pde_run_stays_inside_envelope(self, interval_pi):
        p = make_params(chi0=0.3)
        eq = equilibrium(p)
        spec = InitSpec.perturbation(u_star=1.0, amplitude=0.2)
        state = init_state(interval_pi, spec, p)
        cfg = StepConfig(t_end=2.0, dt=1e-3, output_stride=100)
        traj = run(p, interval_pi, state, cfg)

        rp = normalize(p, eq, m0=0.0)
        tau_end = tau_grid_for(traj.times, rp.a, 1e-3)
        rect = integrate_rectangle(rp, 1.25, 0.75, tau_end=tau_end, dt=1e-3)
        h = interval_pi.spacing[0]
        report = verify_sandwich(rect, traj, eq, slack=5.0 * h**2 + 1e-8)
        assert report.ok
        assert report.n_times == len(traj)

    def test_violation_is_reported_not_hidden(self, interval_pi):
        # An envelope started inside the PDE range must be flagged.
        p = make_params(chi0=0.3)
        eq = equilibrium(p)
        spec = InitSpec.perturbation(u_star=1.0, amplitude=0.2)
        state = init_state(interval_pi, spec, p)
        traj = run(p, interval_pi, state, StepConfig(t_end=0.5, dt=1e-3, output_stride=100))
        rp = normalize(p, eq, m0=0.0)
        rect = integrate_rectangle(rp, 1.05, 0.95, tau_end=1.0, dt=1e-3)
        report = verify_sandwich(rect, traj, eq, slack=1e-8)
        assert not report.ok
        assert report.max_upper_excess > 0.0

    def _mock_traj(self, times):
        p = make_params(chi0=0.3)
        g = GridDomain.interval(math.pi, 8)
        n = len(times)
        return Trajectory(
            params=p, grid=g, eq=equilibrium(p),
            times=np.asarray(times, dtype=float),
            u_min=np.full(n, 0.9), u_max=np.full(n, 1.1),
        )

    def test_offgrid_times_rejected(self, reference_eq):
        rp = normalize(make_params(chi0=0.3), reference_eq, m0=0.0)
        rect = integrate_rectangle(rp, 1.25, 0.75, tau_end=1.0, dt=1e-3)
        with pytest.raises(TimeGridMismatch):
            verify_sandwich(rect, self._mock_traj([0.0, 0.00053]), reference_eq, 1e-8)

    def test_times_beyond_grid_rejected(self, reference_eq):
        rp = normalize(make_params(chi0=0.3), reference_eq, m0=0.0)
        rect = integrate_rectangle(rp, 1.25, 0.75, tau_end=1.0, dt=1e-3)
        with pytest.raises(TimeGridMismatch):
            verify_sandwich(rect, self._mock_traj([0.0, 2.0]), reference_eq, 1e-8)

    def test_tau_grid_covers_samples(self):
        times = np.array([0.0, 0.5, 1.9996])
        tau_end = tau_grid_for(times, a=1.0, dt=1e-3)
        assert tau_end == pytest.approx(2.0)
        assert tau_end >= times[-1]
        # Exact landings are not inflated by a full extra step.
        assert tau_grid_for(np.array([2.0]), 1.0, 1e-3) == pytest.approx(2.0)

    def test_rescaled_time_mapping(self, interval_pi):
        # a = 2 maps PDE time 0.5 to tau = 1; samples land on the ODE grid.
        p = make_params(chi0=0.15, a=2.0, b=2.0)
        eq = equilibrium(p)
        spec = InitSpec.perturbation(u_star=1.0, amplitude=0.1)
        state = init_state(interval_pi, spec, p)
        traj = run(p, interval_pi, state, StepConfig(t_end=0.5, dt=5e-4, output_stride=100))
        rp = normalize(p, eq, m0=0.0)
        tau_end = tau_grid_for(traj.times, rp.a, 1e-3)
        assert tau_end == pytest.approx(1.0)
        rect = integrate_rectangle(rp, 1.15, 0.85, tau_end=tau_end, dt=1e-3)
        report = verify_sandwich(rect, traj, eq, slack=5.0 * interval_pi.spacing[0] ** 2 + 1e-8)
        assert report.ok


class TestRectangleParamsShape:
    def test_fields(self, reference_eq):
        rp = normalize(make_params(chi0=0.3), reference_eq, m0=0.0)
        assert isinstance(rp, RectangleParams)
        assert rp.mode == "plain"
        assert rp.m == 1.0 and rp.gamma == 1.0 and rp.alpha == 1.0
