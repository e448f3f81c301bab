"""Dispersion relation, critical sensitivity, and the discrete cross-check."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemostab import (
    GridDomain,
    classify_equilibrium,
    critical_sensitivity,
    discrete_spectrum_check,
    equilibrium,
    neumann_eigenvalues,
    sigma_n,
    sigma_zero,
)
from chemostab import integrator, stability
from chemostab.helmholtz import chemical_field, get_operator, laplacian
from chemostab.integrator import StepConfig, face_drift, step
from chemostab.stability import SWEEP_CELL_LIMIT, SpectrumTooShort, SweepTooLarge
from conftest import make_params, scanned_minimum


class TestDispersion:
    def test_uniform_mode_rate(self, reference_eq):
        p = make_params()
        assert sigma_zero(p) == -1.0
        assert sigma_n(p, reference_eq, 0.0) == -1.0

    def test_minimal_uniform_mode_is_neutral(self):
        p = make_params(a=0.0, b=0.0)
        assert sigma_zero(p) == 0.0

    def test_diffusion_only_rate(self, reference_eq):
        # chi0 = 0: sigma(lam) = -lam - a alpha.
        p = make_params(chi0=0.0)
        assert sigma_n(p, reference_eq, 1.0) == -2.0

    def test_critical_mode_is_exactly_neutral(self, reference_eq):
        p = make_params(chi0=4.0)
        assert sigma_n(p, reference_eq, 1.0) == 0.0

    def test_supercritical_rate_oracle(self, reference_eq):
        # sigma_1 = -1 + 4.5/2 - 1 = 1/4.
        p = make_params(chi0=4.5)
        assert sigma_n(p, reference_eq, 1.0) == pytest.approx(0.25, rel=1e-15)

    def test_vectorized_matches_scalar(self, reference_eq):
        p = make_params(chi0=2.5)
        lams = np.array([0.0, 1.0, 4.0, 9.0])
        vec = sigma_n(p, reference_eq, lams)
        assert isinstance(vec, np.ndarray)
        assert vec == pytest.approx([sigma_n(p, reference_eq, l) for l in lams])
        assert isinstance(sigma_n(p, reference_eq, 1.0), float)

    @given(
        chi_lo=st.floats(-5.0, 5.0),
        bump=st.floats(0.1, 5.0),
        lam=st.floats(0.05, 50.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_rate_increases_with_sensitivity(self, chi_lo, bump, lam):
        eq = equilibrium(make_params())
        lo = sigma_n(make_params(chi0=chi_lo), eq, lam)
        hi = sigma_n(make_params(chi0=chi_lo + bump), eq, lam)
        assert hi > lo


class TestCriticalSensitivity:
    def test_reference_threshold_and_mode(self, reference_eq, interval_pi):
        p = make_params()
        chi_star, mode = critical_sensitivity(p, reference_eq, interval_pi)
        assert chi_star == pytest.approx(4.0, rel=1e-14)
        assert mode == 1

    def test_candidate_table_oracle(self, reference_eq, interval_pi):
        p = make_params()
        cands = stability._candidates(neumann_eigenvalues(interval_pi, 50)[1:], 1.0, 1.0, 1.0)
        # (lam+1)(1+lam)/lam at lam = 1, 4, 9.
        assert cands[0] == pytest.approx(4.0, rel=1e-15)
        assert cands[1] == pytest.approx(6.25, rel=1e-15)
        assert cands[2] == pytest.approx(100.0 / 9.0, rel=1e-14)

    def test_threshold_scales_with_saturation(self, interval_pi):
        # Raising beta rescales every candidate by (1 + v*)^beta = 2^beta.
        for beta in (0.0, 0.5, 1.0, 2.0):
            p = make_params(beta=beta)
            eq = equilibrium(p)
            chi_star, mode = critical_sensitivity(p, eq, interval_pi)
            assert chi_star == pytest.approx(4.0 * 2.0**beta, rel=1e-13)
            assert mode == 1

    @pytest.mark.parametrize("n_max", [1, 2, 3, 8])
    def test_short_table_that_reaches_lam0_suffices(self, reference_eq, n_max):
        # lam0 = sqrt(a alpha mu) = 1 is mode 1 of [0, pi], so even the
        # two-entry table proves the infimum.
        table = neumann_eigenvalues(GridDomain.interval(math.pi, 64), n_max)
        assert stability._chi_star(make_params(), reference_eq, table) == (4.0, 1)

    def test_long_interval_needs_only_the_modes_up_to_lam0(self, reference_eq):
        # On [0, 10 pi] the eigenvalues are (n/10)^2, so lam0 = 1 is mode 10.
        # The domain, and tables that reach it, give the scan of a table 20
        # times longer; one that stops at mode 9 raises and names both numbers.
        p = make_params()
        interval = GridDomain.interval(10.0 * math.pi, 64)
        value, mode = scanned_minimum(neumann_eigenvalues(interval, 240), *[np.ones(1)] * 4)
        assert critical_sensitivity(p, reference_eq, interval) == (value[0], mode[0])
        for n_max in (10, 12):
            table = neumann_eigenvalues(interval, n_max)
            assert stability._chi_star(p, reference_eq, table) == (value[0], mode[0])
        assert mode[0] == 10
        table = neumann_eigenvalues(interval, 9)
        with pytest.raises(SpectrumTooShort, match=f"= 1.0 lies above .* {float(table[-1])!r} "):
            stability._chi_star(p, reference_eq, table)

    @pytest.mark.parametrize("ubar, expected", [(0.5, 6.0), (1.0, 4.0), (2.0, 3.0)])
    def test_minimal_model_threshold_family(self, interval_pi, ubar, expected):
        # beta = 1, m = alpha = gamma = mu = nu = 1 and a = b = 0 on [0, pi]:
        # u* = v* = ubar, so the candidate is (1 + lam)(1 + ubar) / ubar and
        # chi*(ubar) = 2 (1 + ubar) / ubar, at mode 1.
        p = make_params(a=0.0, b=0.0, beta=1.0)
        chi_star, mode = critical_sensitivity(p, equilibrium(p, u_star=ubar), interval_pi)
        assert chi_star == pytest.approx(expected, rel=1e-15)
        assert mode == 1

    @given(
        a=st.floats(0.2, 5.0),
        alpha=st.floats(0.25, 3.0),
        mu=st.floats(0.2, 5.0),
        nu=st.floats(0.2, 5.0),
        gamma=st.floats(0.25, 2.0),
        beta=st.floats(0.0, 3.0),
        length=st.floats(1.0, 10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_continuum_lower_bound(self, a, alpha, mu, nu, gamma, beta, length):
        # inf over lam > 0 of the candidate expression is attained at
        # lam = sqrt(a alpha mu); the discrete minimum cannot be lower.
        p = make_params(a=a, b=1.0, alpha=alpha, mu=mu, nu=nu, gamma=gamma, beta=beta)
        eq = equilibrium(p)
        chi_star, _ = critical_sensitivity(p, eq, GridDomain.interval(length, 64))
        gain = nu * gamma * eq.u_star ** (p.m + gamma - 1.0) / (1.0 + eq.v_star) ** beta
        bound = (math.sqrt(a * alpha) + math.sqrt(mu)) ** 2 / gain
        assert chi_star >= bound * (1.0 - 1e-12)

    def test_bound_attained_on_reference_interval(self, reference_eq, interval_pi):
        # lam* = sqrt(a alpha mu) = 1 is itself an eigenvalue of [0, pi].
        p = make_params()
        chi_star, _ = critical_sensitivity(p, reference_eq, interval_pi)
        assert chi_star == pytest.approx(4.0, rel=1e-15)


class TestClassification:
    @pytest.mark.parametrize(
        "chi0,verdict",
        [(3.9, "stable"), (4.1, "unstable"), (4.0, "critical"), (-2.0, "stable")],
    )
    def test_verdicts(self, chi0, verdict, reference_eq, interval_pi):
        report = classify_equilibrium(make_params(chi0=chi0), reference_eq, interval_pi)
        assert report.verdict == verdict
        assert report.chi_star == pytest.approx(4.0, rel=1e-14)

    def test_near_critical_band(self, reference_eq, interval_pi):
        p = make_params(chi0=4.0 * (1.0 + 1e-14))
        report = classify_equilibrium(p, reference_eq, interval_pi)
        assert report.verdict == "critical"

    def test_fastest_mode_oracle(self, reference_eq, interval_pi):
        # chi0 = 6: sigma_1 = 1, sigma_2 = -0.2, so mode 1 leads.
        report = classify_equilibrium(make_params(chi0=6.0), reference_eq, interval_pi)
        assert report.fastest_mode == 1
        assert report.sigma_max == pytest.approx(1.0, rel=1e-14)
        assert report.sigma_zero == -1.0
        assert report.sigma_max == sigma_n(make_params(chi0=6.0), reference_eq,
                                           neumann_eigenvalues(interval_pi, 50)[1:]).max()

    def test_a_peak_of_sigma_past_lam0_is_reached(self, interval_pi):
        # chi0 = 4000 and beta = 1, so g = 1/2: sigma peaks at lambda_p =
        # sqrt(2000) - 1 = 43.7, between modes 6 and 7 of [0, pi], past
        # lam0 = 1. A table to mode 3 would report mode 3's 1790 as the
        # maximum; the domain gives what a thousand modes give.
        p = make_params(chi0=4000.0, beta=1.0)
        eq = equilibrium(p)
        report = classify_equilibrium(p, eq, interval_pi)
        assert (report.sigma_max, report.fastest_mode) == (1910.0, 7)
        rates = sigma_n(p, eq, neumann_eigenvalues(interval_pi, 1000))
        assert (report.sigma_max, report.fastest_mode) == (rates[1:].max(),
                                                           1 + rates[1:].argmax())

    @pytest.mark.parametrize("lengths", [(math.pi,), (math.pi, 2.0)], ids=["1d", "2d"])
    @given(
        chi0=st.floats(-50.0, 300.0),
        a=st.floats(0.2, 5.0),
        alpha=st.floats(0.25, 3.0),
        mu=st.floats(0.2, 5.0),
        nu=st.floats(0.2, 5.0),
        beta=st.floats(0.0, 2.0),
        scale=st.floats(0.5, 3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_the_domain_gives_the_spectrum_maximum(
        self, lengths, chi0, a, alpha, mu, nu, beta, scale
    ):
        # sigma_max and fastest_mode are those of a table ten times longer
        # than the shortest whose last eigenvalue reaches both
        # sqrt(a alpha mu) and the peak of sigma.
        p = make_params(chi0=chi0, a=a, alpha=alpha, mu=mu, nu=nu, beta=beta)
        eq = equilibrium(p)
        cells = (64,) if len(lengths) == 1 else (16, 12)
        grid = GridDomain(len(lengths), tuple(scale * x for x in lengths), cells)
        drive = chi0 * stability._feedback_gain(p, eq)
        peak = math.sqrt(drive * mu) - mu if drive > mu else 0.0
        reach = max(peak, math.sqrt(a * alpha * mu))
        n_max = max(1, int(np.searchsorted(neumann_eigenvalues(grid, 4000), reach)))
        rates = sigma_n(p, eq, neumann_eigenvalues(grid, 10 * n_max))
        report = classify_equilibrium(p, eq, grid)
        assert (report.sigma_max, report.fastest_mode) == (rates[1:].max(),
                                                           1 + rates[1:].argmax())

    @given(chi0=st.floats(-6.0, 12.0))
    @settings(max_examples=150, deadline=None)
    def test_dichotomy_against_modewise_signs(self, chi0):
        p = make_params(chi0=chi0)
        eq = equilibrium(p)
        interval = GridDomain.interval(math.pi, 64)
        report = classify_equilibrium(p, eq, interval)
        rates = sigma_n(p, eq, neumann_eigenvalues(interval, 50)[1:])
        if report.verdict == "stable":
            assert np.all(rates < 0.0)
        elif report.verdict == "unstable":
            assert np.any(rates > 0.0)
        else:
            assert np.abs(rates).min() <= 1e-10


class TestProvingSpectrum:
    @pytest.mark.parametrize("lengths", [
        (math.pi,), (2.0,), (math.pi, 2.0), (7.0, 7.0), (math.pi, math.pi),
    ], ids=["pi", "two", "pi-by-two", "square-7", "square-pi"])
    @given(
        chi0=st.floats(-1e3, 1e3),
        a=st.floats(0.2, 5.0),
        alpha=st.floats(0.25, 3.0),
        mu=st.floats(0.2, 5.0),
        nu=st.floats(0.2, 5.0),
        beta=st.floats(0.0, 2.0),
        m=st.floats(1.0, 3.0),
        gamma=st.floats(0.5, 2.0),
        u_star=st.none() | st.floats(0.1, 10.0),
        scale=st.floats(0.5, 3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_gives_what_a_long_table_gives(self, lengths, chi0, a, alpha, mu, nu, beta, m,
                                           gamma, u_star, scale):
        # The domain gives what a scan of a table of at least 2,000 modes,
        # and twice the length of the one stability proves from, gives: chi*
        # and its mode, and sigma's maximum and its mode. A u_star draws the
        # minimal model.
        if u_star is not None:
            a = 0.0
        p = make_params(chi0=chi0, a=a, b=1.0 if u_star is None else 0.0, alpha=alpha, mu=mu,
                        nu=nu, beta=beta, m=m, gamma=gamma)
        eq = equilibrium(p, u_star=u_star)
        cells = (64,) if len(lengths) == 1 else (16, 12)
        grid = GridDomain(len(lengths), tuple(scale * x for x in lengths), cells)
        reach = max(math.sqrt(a * alpha * mu), stability._sigma_peak(p, eq))
        long = neumann_eigenvalues(grid, max(2000, 2 * len(stability._proving_table(grid, reach))))
        value, mode = scanned_minimum(long, np.ones(1), np.array([a * alpha]), np.array([mu]),
                                      np.array([stability._feedback_gain(p, eq)]))
        scan = (float(value[0]), int(mode[0]))
        rates = sigma_n(p, eq, long)
        report = classify_equilibrium(p, eq, grid)
        assert critical_sensitivity(p, eq, grid) == scan
        assert (report.chi_star, report.argmin_mode) == scan
        assert (report.sigma_max, report.fastest_mode) == (rates[1:].max(),
                                                           1 + rates[1:].argmax())

    def test_refuses_a_reach_beyond_the_cap(self, monkeypatch):
        # beta = 0 at the reference point: g = 1 and lambda_p = sqrt(chi0) - 1.
        # With a cap of 64 modes of [0, pi] the third-last eigenvalue is
        # 62^2 = 3844: a peak there is proved by the cap's table, one past it
        # is refused, naming the peak.
        monkeypatch.setattr(stability, "PROVING_MODES_CAP", 64)
        interval = GridDomain.interval(math.pi, 64)
        assert len(stability._proving_table(interval, 3844.0)) == 65
        p = make_params(chi0=3845.0**2)
        assert classify_equilibrium(p, equilibrium(p), interval).fastest_mode == 62
        p = make_params(chi0=3846.0**2)
        with pytest.raises(SpectrumTooShort, match="lambda = 3845.0, lies beyond the first 64 "):
            classify_equilibrium(p, equilibrium(p), interval)

    @pytest.mark.parametrize("lengths", [(math.pi,), (math.pi, 2.0)], ids=["pi", "pi-by-two"])
    def test_a_reach_past_the_cap_is_refused_before_any_table(self, monkeypatch, lengths):
        # chi0 = 1e300 puts sigma's peak at about 1e150, far past the cap's
        # table: the refusal builds none.
        calls = []

        def counted(grid, n_max):
            calls.append(n_max)
            return neumann_eigenvalues(grid, n_max)

        monkeypatch.setattr(stability, "neumann_eigenvalues", counted)
        cells = (64,) if len(lengths) == 1 else (16, 12)
        p = make_params(chi0=1e300)
        with pytest.raises(SpectrumTooShort, match=f"lambda = 1e\\+150, lies beyond the first "
                                                   f"{stability.PROVING_MODES_CAP} Neumann"):
            classify_equilibrium(p, equilibrium(p), GridDomain(len(lengths), lengths, cells))
        assert calls == []

    @pytest.mark.parametrize("chi0", [0.0, 4000.0, 1e300])
    def test_a_chi_star_table_does_not_depend_on_chi0(self, chi0, interval_pi):
        # chi* is proved from the table about sqrt(a alpha mu) alone: the
        # same for every chi0, even where sigma's peak lies past the cap.
        p = make_params(chi0=chi0)
        eq = equilibrium(p)
        value, mode = scanned_minimum(neumann_eigenvalues(interval_pi, 1000),
                                      *[np.ones(1)] * 4)
        assert critical_sensitivity(p, eq, interval_pi) == critical_sensitivity(
            make_params(chi0=0.0), eq, interval_pi) == (value[0], mode[0])


class TestDiscreteOperator:
    def test_cell_limit_checked_before_any_solve(self, reference_eq, monkeypatch):
        def no_solve(*args):
            raise AssertionError("solve on an over-limit grid")

        monkeypatch.setattr(integrator, "get_operator", no_solve)
        big = GridDomain.interval(math.pi, SWEEP_CELL_LIMIT + 1)
        with pytest.raises(SweepTooLarge):
            discrete_spectrum_check(make_params(), reference_eq, big, n_modes=5)

    def test_rates_match_dispersion_on_grid(self, reference_eq, interval_pi):
        p = make_params(chi0=3.0)
        report = discrete_spectrum_check(p, reference_eq, interval_pi, n_modes=5)
        assert report.max_spectrum_residual < 1e-9
        assert max(report.residuals) <= report.max_spectrum_residual
        assert len(report.residuals) == len(report.predicted) == 6
        assert report.grid_eigenvalues[0] == 0.0
        # Grid eigenvalues approximate n^2 from below at second order.
        assert report.grid_eigenvalues[1] == pytest.approx(1.0, abs=1e-3)

    def test_mode_count_validation(self, reference_eq, interval_pi):
        with pytest.raises(ValueError):
            discrete_spectrum_check(make_params(), reference_eq, interval_pi, 0)
        with pytest.raises(ValueError):
            discrete_spectrum_check(make_params(), reference_eq, interval_pi, 64)


# Saturated (beta > 0), porous-medium (m > 1) parameters with gamma != 1 and
# a full logistic source, so that every factor of the linearisation shows.
GENERAL = dict(chi0=3.0, beta=0.7, m=1.6, alpha=1.3, gamma=0.8, a=1.5, b=0.9, mu=1.2, nu=0.7)
GRIDS = {"1d": GridDomain.interval(math.pi, 64), "2d": GridDomain.rectangle(1.3, 1.0, 12, 10)}


def stepping_rhs(u, params, grid, dt=1.0):
    """The right-hand side G(u) that `step` integrates, read off one step
    from u with v = v(u): backward Euler solves (I - dt lap_h)(u_new - u)
    = dt G(u)."""
    signal = get_operator(grid, params.mu)
    v = chemical_field(params, u, signal)
    u_new = step(u, face_drift(v, params, grid), 0.0, params, grid, dt,
                 StepConfig(t_end=dt, dt=dt), get_operator(grid, 1.0 / dt), signal)[0]
    change = u_new - u
    return (change - dt * laplacian(change, grid)) / dt


def all_grid_eigenvalues(grid):
    """Every eigenvalue of -lap_h, ascending: the sums over the axes of
    (4 / h^2) sin^2(k pi / 2n), k = 0 .. n - 1."""
    axes = [(4.0 / h**2) * np.sin(np.arange(n) * math.pi / (2 * n)) ** 2
            for n, h in zip(grid.cells, grid.spacing)]
    return np.sort(axes[0] if grid.dimension == 1 else np.add.outer(*axes).ravel())


class TestJacobianOfTheSteppingCode:
    """The check's J is the linearisation of the code that steps."""

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_matches_central_difference_of_step(self, name):
        grid = GRIDS[name]
        params = make_params(**GENERAL)
        eq = equilibrium(params)
        w = np.random.default_rng(7).standard_normal(grid.shape)
        eps = 1e-6
        u_star = np.full(grid.shape, eq.u_star)
        central = (stepping_rhs(u_star + eps * w, params, grid)
                   - stepping_rhs(u_star - eps * w, params, grid)) / (2.0 * eps)
        predicted = integrator._equilibrium_jacobian(params, eq, grid, w[..., None])[..., 0]
        assert np.abs(central - predicted).max() <= 1e-6 * np.abs(predicted).max()

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_general_parameters_match_dispersion(self, name):
        params = make_params(**GENERAL)
        eq = equilibrium(params)
        report = discrete_spectrum_check(params, eq, GRIDS[name], n_modes=8)
        assert report.max_spectrum_residual < 1e-9
        # The reported modes are the lowest, in ascending order; on the
        # rectangle that orders the pairs of the two axes' modes.
        lam = all_grid_eigenvalues(GRIDS[name])[:9]
        assert np.allclose(report.grid_eigenvalues, lam, rtol=1e-14, atol=0.0)
        assert np.allclose(report.predicted, sigma_n(params, eq, lam), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_sorted_spectrum_within_weyl_bound(self, name):
        # J formed column by column from unit fields, as the oracle: the
        # eigenvalues of its symmetric part lie within sqrt(2^d n) times the
        # check's residual of the sorted rates, and within 1e-9 of them.
        grid = GRIDS[name]
        n = grid.total_cells
        params = make_params(**GENERAL)
        eq = equilibrium(params)
        report = discrete_spectrum_check(params, eq, grid, n_modes=1)
        jac = integrator._equilibrium_jacobian(
            params, eq, grid, np.eye(n).reshape(*grid.shape, n)).reshape(n, n)
        spectrum = np.linalg.eigvalsh(0.5 * (jac + jac.T))
        rates = np.sort(sigma_n(params, eq, all_grid_eigenvalues(grid)))
        deviation = np.abs(spectrum - rates).max()
        assert deviation <= math.sqrt(2**grid.dimension * n) * report.max_spectrum_residual
        assert deviation < 1e-9

    @pytest.mark.parametrize("grid", [
        GridDomain.interval(math.pi, 1024), GridDomain.rectangle(1.3, 1.0, 40, 24),
    ], ids=["1024", "40x24"])
    def test_residual_at_rounding_level(self, grid):
        # Exact integer phases keep each basis field within rounding of an
        # eigenvector: about 2.5 eps max|sigma| at 1024 cells, where a
        # cos(pi k (i + 1/2) / n) basis reads about 1240 eps max|sigma|.
        params = make_params(**GENERAL)
        eq = equilibrium(params)
        report = discrete_spectrum_check(params, eq, grid, n_modes=5)
        sigma_max = np.abs(sigma_n(params, eq, all_grid_eigenvalues(grid))).max()
        assert report.max_spectrum_residual <= 64 * np.finfo(float).eps * sigma_max

    def test_sweep_applies_j_to_every_mode_a_block_at_a_time(self, monkeypatch):
        grid = GridDomain.rectangle(1.3, 1.0, 40, 24)
        widths, pairs = [], []

        def recorded(params, eq, grid, fields):
            widths.append(fields.shape[-1])
            return jacobian(params, eq, grid, fields)

        def fields_of(grid, modes):
            pairs.extend(zip(*(k.tolist() for k in modes)))
            return dct_fields(grid, modes)

        jacobian, dct_fields = integrator._equilibrium_jacobian, integrator._dct_fields
        monkeypatch.setattr(integrator, "_equilibrium_jacobian", recorded)
        monkeypatch.setattr(integrator, "_dct_fields", fields_of)
        params = make_params(**GENERAL)
        discrete_spectrum_check(params, equilibrium(params), grid, n_modes=5)
        assert sum(widths) == grid.total_cells
        assert max(widths) == stability.SWEEP_COLUMNS
        assert sorted(pairs) == [(i, j) for i in range(40) for j in range(24)]

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_no_eigensolver(self, name, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("eigensolver called")

        monkeypatch.setattr(np.linalg, "eigh", refused)
        monkeypatch.setattr(np.linalg, "eigvalsh", refused)
        params = make_params(**GENERAL)
        report = discrete_spectrum_check(params, equilibrium(params), GRIDS[name], n_modes=5)
        assert report.max_spectrum_residual < 1e-9

    def test_scaled_face_drift_fails_the_check(self, monkeypatch):
        params = make_params(**GENERAL)
        grid = GRIDS["1d"]
        monkeypatch.setattr(integrator, "face_drift",
                            lambda v, p, g: [1.1 * d for d in face_drift(v, p, g)])
        report = discrete_spectrum_check(params, equilibrium(params), grid, n_modes=5)
        assert max(report.residuals) > 1e-9
        assert report.max_spectrum_residual > 1e-9
