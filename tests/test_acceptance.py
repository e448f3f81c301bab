"""End-to-end checks: solver, spectra, envelopes, and thresholds together.

Each test states its tolerance inline. Runs are desk-scale (1D, at most a
few hundred cells) and individually bounded by a wall-clock budget.
"""

import json
import math
import time

import numpy as np
import pytest

from chemostab import (
    Equilibrium,
    GridDomain,
    InitSpec,
    ModelParams,
    StepConfig,
    classify_equilibrium,
    equilibrium,
    fit_decay_rate,
    init_state,
    neumann_eigenvalues,
    persistence_metrics,
    run,
    run_scenario,
    sigma_n,
)
from chemostab.cli import jsonable
from chemostab.diagnostics import check_power_diff_inequality
from chemostab.helmholtz import get_operator
from chemostab.integrator import discrete_spectrum_check
from chemostab.rectangle import (
    contraction_tail,
    integrate_rectangle,
    normalize,
    verify_sandwich,
)
from chemostab.stability import critical_sensitivity
from chemostab.thresholds import chi_double_star, verify_orderings
from conftest import make_params, tau_grid_for

WALL_CLOCK_BUDGET = 60.0  # seconds per individual run


def reference_run(chi0, amplitude, t_end, *, cells=64, a=1.0, b=1.0,
                  dt=1e-3, stride=10):
    params = make_params(chi0=chi0, a=a, b=b)
    grid = GridDomain.interval(math.pi, cells)
    if params.minimal:
        spec = InitSpec.perturbation(1.0, amplitude, mode=1)
        eq = None
    else:
        eq = equilibrium(params)
        spec = InitSpec.perturbation(eq.u_star, amplitude, mode=1)
    state = init_state(grid, spec, params)
    cfg = StepConfig(t_end=t_end, dt=dt, output_stride=stride)
    start = time.monotonic()
    traj = run(params, grid, state, cfg, eq=eq)
    assert time.monotonic() - start < WALL_CLOCK_BUDGET
    return traj, params, grid


class TestSpectralDichotomy:
    """Threshold scan plus decay/growth runs on either side of it."""

    def test_threshold_scan_over_thousand_modes(self, interval_pi):
        params = make_params()
        eq = equilibrium(params)
        table = neumann_eigenvalues(interval_pi, 1000)
        chi_star, mode = critical_sensitivity(params, eq, table)
        assert chi_star == pytest.approx(4.0, rel=1e-12)
        assert mode == 1

    def test_subcritical_perturbation_decays_at_slowest_rate(self, spectrum_pi):
        params = make_params(chi0=3.5)
        eq = equilibrium(params)
        rates = sigma_n(params, eq, spectrum_pi.eigenvalues)
        predicted = min(params.a * params.alpha, float(np.min(-rates[1:])))
        assert predicted == pytest.approx(0.25, rel=1e-12)
        assert classify_equilibrium(params, eq, spectrum_pi).verdict == "stable"

        traj, _, _ = reference_run(3.5, amplitude=0.01, t_end=20.0)
        assert traj.err_inf[-1] < traj.err_inf[0]
        fit = fit_decay_rate(traj.times, traj.err_inf)
        assert fit.rate == pytest.approx(predicted, rel=0.20)
        assert fit.r_squared > 0.999

    def test_supercritical_perturbation_grows_tenfold(self, spectrum_pi):
        params = make_params(chi0=4.5)
        eq = equilibrium(params)
        assert classify_equilibrium(params, eq, spectrum_pi).verdict == "unstable"

        traj, _, _ = reference_run(4.5, amplitude=0.01, t_end=16.0)
        growth = float(np.max(traj.err_inf)) / traj.err_inf[0]
        assert growth >= 10.0


class TestDiscreteSpectrumAgreement:
    """The scheme's mode rates against the dispersion relation on exact modes."""

    @staticmethod
    def _mode_errors(cells):
        params = make_params()
        eq = equilibrium(params)
        grid = GridDomain.interval(math.pi, cells)
        report = discrete_spectrum_check(params, eq, grid, n_modes=5)
        assert report.max_spectrum_residual < 1e-8
        modes = np.arange(1, 6, dtype=float)
        analytic = sigma_n(params, eq, modes**2)
        discrete = np.asarray(report.predicted[1:6])
        return np.abs(discrete - analytic) / np.abs(analytic)

    def test_relative_error_bounded_by_grid_resolution(self):
        errs = self._mode_errors(256)
        h = math.pi / 256
        bounds = 2.0 * (h * np.arange(1, 6)) ** 2
        assert np.all(errs <= bounds)

    def test_error_drops_fourfold_when_grid_doubles(self):
        coarse = self._mode_errors(256)
        fine = self._mode_errors(512)
        ratios = coarse / fine
        assert np.all(ratios > 3.5)
        assert np.all(ratios < 4.5)


class TestRepulsiveSensitivity:
    """Negative chi0 damps perturbations in both model variants."""

    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (0.0, 0.0)],
                             ids=["logistic", "mass-conserving"])
    def test_convergence_to_uniform_state(self, a, b):
        traj, _, _ = reference_run(-1.0, amplitude=0.01, t_end=50.0, a=a, b=b)
        assert traj.err_inf[-1] <= 1e-6
        fit = fit_decay_rate(traj.times, traj.err_inf)
        assert fit.rate > 0.0


class TestMassConservation:
    def test_drift_over_ten_thousand_steps(self):
        traj, _, _ = reference_run(1.0, amplitude=0.1, t_end=10.0, a=0.0, b=0.0)
        assert traj.steps_taken == 10_000
        assert traj.clip_count == 0
        drift = np.abs(traj.mass - traj.mass[0]) / traj.mass[0]
        assert float(drift.max()) <= 1e-8


class TestLyapunovDescent:
    """F decreases along the flow and its dissipation stays within budget."""

    def test_monotone_functional_and_dissipation_budget(self):
        traj, params, _ = reference_run(1.0, amplitude=0.2, t_end=20.0)
        f = traj.lyapunov
        increases = np.diff(f) - 1e-8 * (1.0 + f[:-1])
        assert float(increases.max()) <= 0.0

        eq = equilibrium(params)
        entry1 = chi_double_star(params, eq)[0]
        assert entry1.applicable and entry1.value == pytest.approx(4.0)
        budget = f[0] / (params.b * (1.0 - (params.chi0 / entry1.value) ** 2))
        cumulative = float(np.trapezoid(traj.dissipation, traj.times))
        assert cumulative <= budget * 1.1


class TestEnvelopeSandwich:
    """PDE extrema stay inside the comparison envelope, which contracts."""

    def test_sandwich_contraction_and_log_gap(self):
        traj, params, grid = reference_run(
            0.3, amplitude=0.2, t_end=2.0, stride=100
        )
        eq = equilibrium(params)
        rp = normalize(params, eq, m0=1.0)
        assert rp.contraction

        dt = 1e-3
        tau_end = max(40.0, tau_grid_for(traj.times, rp.a, dt))
        rect = integrate_rectangle(
            rp,
            ubar0=float(traj.u_max[0]) / eq.u_star,
            ulow0=float(traj.u_min[0]) / eq.u_star,
            tau_end=tau_end,
            dt=dt,
        )
        h = grid.spacing[0]
        report = verify_sandwich(rect, traj, eq, slack=5.0 * h**2 + 1e-8)
        assert report.ok
        assert report.n_times == len(traj.times)

        final, increase, monotone = contraction_tail(rect)
        assert final < 1e-6
        assert monotone, f"log gap increased by {increase:.3e}"


class TestPersistenceFloors:
    """Tail infima clear the eventual lower bounds with 5% slack."""

    def test_density_and_signal_stay_above_floors(self):
        params = ModelParams(chi0=1.0, beta=1.0, m=1.0, alpha=1.0, gamma=1.0,
                             a=2.0, b=1.0, mu=1.0, nu=1.0)
        eq = equilibrium(params)
        grid = GridDomain.interval(math.pi, 64)
        spec = InitSpec.perturbation(eq.u_star, 0.2, mode=1)
        state = init_state(grid, spec, params)
        traj = run(params, grid, state, StepConfig(t_end=10.0, dt=1e-3), eq=eq)

        report = persistence_metrics(traj, params, slack=0.05)
        assert report.bound_case == "m=1"
        assert report.u_bound == pytest.approx(1.0)
        assert report.tail_inf_u >= report.u_bound * 0.95
        generic = (params.nu / params.mu) * report.tail_inf_u**params.gamma
        assert report.tail_inf_v >= generic * 0.95
        assert report.all_met


class TestInequalityFuzz:
    def test_power_difference_inequality_hundred_thousand_samples(self):
        rng = np.random.default_rng(2024)
        assert check_power_diff_inequality(100_000, rng) == 0

    def test_threshold_orderings_thousand_tuples_per_part(self):
        rng = np.random.default_rng(2024)
        report = verify_orderings(1000, rng)
        assert report.ok
        assert report.violations == ()
        assert all(count == 1000 for count in report.checked.values())


class TestEllipticSolver:
    def test_manufactured_solution_second_order(self):
        errors = {}
        for cells in (128, 256):
            grid = GridDomain.interval(math.pi, cells)
            x = grid.centers(0)
            op = get_operator(grid, mu=1.0)
            v = op.solve(2.0 * np.cos(x))
            errors[cells] = float(np.abs(v - np.cos(x)).max())
        ratio = errors[128] / errors[256]
        assert 3.5 <= ratio <= 4.5

    def test_comparison_principle_hundred_ordered_pairs(self):
        grid = GridDomain.interval(math.pi, 64)
        op = get_operator(grid, mu=1.0)
        rng = np.random.default_rng(77)
        for _ in range(100):
            low = rng.uniform(0.0, 1.0, grid.total_cells)
            high = low + rng.uniform(0.0, 1.0, grid.total_cells)
            gap = op.solve(high) - op.solve(low)
            assert float(gap.min()) >= -1e-12


class TestClosedFormThresholds:
    """Two thresholds collapse to algebraic expressions in b alone."""

    B_VALUES = (0.25, 0.49, 1.0, 2.25, 4.0, 9.0)

    @pytest.mark.parametrize("b", B_VALUES)
    def test_first_threshold_is_four_root_b(self, b):
        params = make_params(a=b, b=b, m=1.0, gamma=1.0, alpha=2.0, beta=0.0)
        entry = chi_double_star(params, equilibrium(params))[0]
        assert entry.applicable
        assert entry.value == pytest.approx(4.0 * math.sqrt(b), rel=1e-14)

    @pytest.mark.parametrize("b", B_VALUES)
    def test_third_threshold_is_half_b(self, b):
        params = make_params(a=b, b=b, m=1.5, gamma=1.0, alpha=2.0, beta=0.0)
        entry = chi_double_star(params, equilibrium(params))[2]
        assert entry.applicable
        assert entry.value == pytest.approx(b / 2.0, rel=1e-14)


class TestDeterminism:
    """Same scenario run twice: identical verdicts and trajectory bytes."""

    @staticmethod
    def _snapshot(name):
        result = run_scenario(name)
        verdict = json.dumps(jsonable(result.verdict), sort_keys=True)
        series = b""
        if result.trajectory is not None:
            t = result.trajectory
            series = b"".join(
                arr.tobytes()
                for arr in (t.times, t.u_min, t.u_max, t.v_min, t.v_max,
                            t.mass, t.err_inf, t.lyapunov, t.dissipation)
            )
        return verdict, series

    def test_scenario_with_trajectory_repeats_byte_identical(self):
        first = self._snapshot("stable-dichotomy")
        second = self._snapshot("stable-dichotomy")
        assert first == second

    def test_report_only_scenario_repeats_byte_identical(self):
        first = self._snapshot("thresholds-only")
        second = self._snapshot("thresholds-only")
        assert first == second
