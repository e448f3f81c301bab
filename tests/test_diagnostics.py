"""Descent functionals, decay fitting, and persistence reporting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemostab import (
    GridDomain,
    Trajectory,
    dissipation_D,
    equilibrium,
    fit_decay_rate,
    lyapunov_F,
    persistence_metrics,
    signal_energy,
)
from chemostab.diagnostics import (
    NonPositiveDensity,
    WindowEmpty,
    check_power_diff_inequality,
)
from conftest import make_params


class TestLyapunov:
    def test_linear_case_closed_form(self):
        # h(2 u*) = u* (1 - ln 2) per unit volume.
        u = np.full(10, 2.0)
        value = lyapunov_F(u, u_star=1.0, m=1.0, cell_volume=0.1)
        assert value == pytest.approx(1.0 - math.log(2.0), rel=1e-14)

    def test_nonlinear_case_closed_form(self):
        # m = 2: h(s) = (s - u*) + u*^3 (s^-2 - u*^-2) / 2; h(2) = 5/8.
        value = lyapunov_F(np.array([2.0]), u_star=1.0, m=2.0, cell_volume=1.0)
        assert value == pytest.approx(0.625, rel=1e-14)

    def test_zero_at_equilibrium(self):
        assert lyapunov_F(np.full(7, 3.0), 3.0, 1.0) == 0.0
        assert lyapunov_F(np.full(7, 3.0), 3.0, 2.5) == 0.0

    @given(
        u=st.floats(0.05, 20.0),
        u_star=st.floats(0.05, 20.0),
        m=st.floats(1.0, 3.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_nonnegative(self, u, u_star, m):
        value = lyapunov_F(np.array([u]), u_star, m)
        assert value >= -1e-12 * max(1.0, u, u_star)

    def test_positive_density_required(self):
        with pytest.raises(NonPositiveDensity):
            lyapunov_F(np.array([1.0, 0.0]), 1.0, 1.0)


class TestDissipation:
    def test_linear_reaction_is_squared_distance(self):
        # alpha = 1: (u - u*)(u - u*) = delta^2.
        assert dissipation_D(np.array([1.3]), 1.0, 1.0) == pytest.approx(0.09)

    def test_general_exponent(self):
        # (1.3 - 1)(1.69 - 1) = 0.3 * 0.69.
        value = dissipation_D(np.array([1.3]), 1.0, 2.0)
        assert value == pytest.approx(0.3 * 0.69, rel=1e-14)

    @given(u=st.floats(0.01, 50.0), u_star=st.floats(0.01, 50.0), alpha=st.floats(0.1, 4.0))
    @settings(max_examples=200, deadline=None)
    def test_pointwise_nonnegative(self, u, u_star, alpha):
        assert dissipation_D(np.array([u]), u_star, alpha) >= 0.0


class TestSignalEnergy:
    def test_constant_field(self, interval_pi):
        value = signal_energy(np.full(64, 2.0), 1.0, interval_pi, mu=3.0)
        assert value == pytest.approx(3.0 * math.pi, rel=1e-13)

    def test_gradient_term_added(self):
        g = GridDomain.interval(1.0, 10)
        v = 2.0 * g.centers()  # slope 2, face gradients all 2
        value = signal_energy(v, float(v.mean()), g, mu=0.0)
        assert value == pytest.approx(9 * 4.0 * 0.1, rel=1e-12)


class TestDecayFit:
    def test_recovers_synthetic_rate(self):
        t = np.linspace(0.0, 20.0, 401)
        y = 3.0 * np.exp(-0.7 * t) + 1e-12
        fit = fit_decay_rate(t, y)
        assert fit.rate == pytest.approx(0.7, rel=1e-4)
        assert fit.prefactor == pytest.approx(3.0, rel=1e-2)
        assert fit.r_squared > 0.999999

    def test_window_excludes_transient_and_floor(self):
        t = np.linspace(0.0, 30.0, 601)
        y = np.exp(-t) + 1e-9
        fit = fit_decay_rate(t, y)
        lo, hi = fit.window
        assert y[lo] <= 0.1 * y[0] * (1.0 + 1e-12)
        assert y[hi] >= 10.0 * y.min() * (1.0 - 1e-12)

    def test_flat_series_has_no_window(self):
        t = np.linspace(0.0, 1.0, 50)
        with pytest.raises(WindowEmpty):
            fit_decay_rate(t, np.ones(50))

    def test_nonpositive_series_rejected(self):
        t = np.linspace(0.0, 1.0, 50)
        with pytest.raises(WindowEmpty):
            fit_decay_rate(t, np.zeros(50))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            fit_decay_rate(np.zeros(4), np.zeros(5))


class TestPowerDiffFuzz:
    def test_small_run_clean(self, rng):
        assert check_power_diff_inequality(2000, rng) == 0


def _make_traj(params, u_min_tail, v_min_tail, n=40):
    grid = GridDomain.interval(math.pi, 8)
    eq = equilibrium(params) if not params.minimal else equilibrium(params, u_star=1.0)
    times = np.linspace(0.0, 10.0, n)
    u_min = np.concatenate([np.linspace(0.4, u_min_tail, n // 2),
                            np.full(n - n // 2, u_min_tail)])
    v_min = np.concatenate([np.linspace(0.4, v_min_tail, n // 2),
                            np.full(n - n // 2, v_min_tail)])
    return Trajectory(params=params, grid=grid, eq=eq, times=times,
                      u_min=u_min, v_min=v_min)


class TestPersistence:
    def test_linear_case_bound_oracle(self):
        # (a - chi0 mu Theta_0) / b = (2 - 1) / 1 = 1.
        p = make_params(a=2.0, b=1.0, beta=1.0)
        report = persistence_metrics(_make_traj(p, 0.98, 0.97), p)
        assert report.bound_case == "m=1"
        assert report.u_bound == pytest.approx(1.0, rel=1e-14)
        assert report.v_bound == pytest.approx(1.0, rel=1e-14)
        assert report.u_bound_met and report.v_bound_met
        assert report.generic_v_bound == pytest.approx(0.98, rel=1e-12)
        assert report.all_met

    def test_tail_infimum_respects_slack(self):
        p = make_params(a=2.0, b=1.0, beta=1.0)
        report = persistence_metrics(_make_traj(p, 0.90, 0.97), p)
        assert not report.u_bound_met  # 0.90 < 0.95
        assert not report.all_met

    def test_superlinear_case_bound(self):
        # min{1, (a / (b + chi0 mu Theta_0))^max{1/(m-1), 1/alpha}} = 1.
        p = make_params(a=2.0, b=1.0, m=2.0, beta=1.0)
        report = persistence_metrics(_make_traj(p, 0.99, 0.98), p)
        assert report.bound_case == "m>1"
        assert report.u_bound == pytest.approx(1.0, rel=1e-14)

    def test_superlinear_floor_near_one_does_not_overflow(self):
        # ratio = 2 / 1.1 > 1 and the exponent 1/(m - 1) = 1e6: powering the
        # ratio first overflows, yet the floor is min{1, ...} = 1.
        p = make_params(a=2.0, b=1.0, m=1.0 + 1e-6, beta=1.0, chi0=0.1)
        report = persistence_metrics(_make_traj(p, 0.99, 0.98), p)
        assert report.bound_case == "m>1"
        assert report.u_bound == 1.0
        assert type(report.u_bound) is float
        assert report.v_bound == 1.0

    def test_superlinear_floor_below_one(self):
        # ratio = 1 / 2 < 1 with exponent max{1/(m-1), 1/alpha} = 2.
        p = make_params(a=1.0, b=1.0, m=1.5, alpha=1.0, beta=1.0, chi0=1.0)
        report = persistence_metrics(_make_traj(p, 0.99, 0.98), p)
        assert report.bound_case == "m>1"
        assert report.u_bound == 0.25

    def test_low_saturation_has_no_theorem_bound(self):
        p = make_params(a=2.0, b=1.0, beta=0.5)
        report = persistence_metrics(_make_traj(p, 0.9, 0.9), p)
        assert report.u_bound is None
        assert "beta" in report.hypothesis_failure
        assert report.generic_v_met  # the generic signal bound still applies

    def test_oversized_sensitivity_fails_gate(self):
        # chi0 past a / (mu Theta_0) voids the eventual bound.
        p = make_params(a=2.0, b=1.0, beta=1.0, chi0=3.0)
        report = persistence_metrics(_make_traj(p, 0.9, 0.9), p)
        assert report.u_bound is None
        assert "chi0" in report.hypothesis_failure

    def test_negative_sensitivity_fails_gate(self):
        p = make_params(a=2.0, b=1.0, beta=1.0, chi0=-1.0)
        report = persistence_metrics(_make_traj(p, 0.9, 0.9), p)
        assert report.u_bound is None

    @pytest.mark.parametrize("chi0", [0.0, -1.0])
    def test_superlinear_case_needs_positive_sensitivity(self, chi0):
        p = make_params(a=2.0, b=1.0, m=2.0, beta=1.0, chi0=chi0)
        report = persistence_metrics(_make_traj(p, 0.9, 0.9), p)
        assert report.u_bound is None and report.bound_case is None
        assert report.hypothesis_failure == (
            f"chi0 > 0 required for the m > 1 bound, got chi0 = {chi0}")

    def test_minimal_model_has_no_bound(self):
        p = make_params(a=0.0, b=0.0)
        report = persistence_metrics(_make_traj(p, 0.9, 0.9), p)
        assert report.u_bound is None
        assert "a = b = 0" in report.hypothesis_failure

    def test_short_trajectory_rejected(self):
        p = make_params(a=2.0, b=1.0, beta=1.0)
        with pytest.raises(ValueError, match="tail"):
            persistence_metrics(_make_traj(p, 0.9, 0.9, n=3), p)
