"""Closed-form thresholds, auxiliary constants, and their orderings."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpttrs

from chemostab import (
    GridDomain,
    Trajectory,
    chi_ab_beta,
    chi_beta_threshold,
    chi_double_star,
    discrete_spectrum_check,
    equilibrium,
    get_operator,
    gradient_constant,
    k_star,
    m_star,
    minimal_thresholds,
    neumann_eigenvalues,
    power_diff_constant,
    theta,
    threshold_report,
    verify_orderings,
)
from chemostab.helmholtz import SingularOperator, SolverFailure, certify, face_gradients
from chemostab.stability import SWEEP_CELL_LIMIT, SweepTooLarge
from chemostab.thresholds import (
    BetaBelowOne,
    CStarSource,
    HypothesisViolated,
    MissingCZConstant,
    MissingKStar,
    bar_chi,
    c_star_from_table,
    default_c_star_stub,
    gamma_cap_minimal,
    tilde_beta,
    v_lower_ab,
)
from conftest import dense_laplacian, make_params


class TestTheta:
    def test_values(self):
        assert theta(0.0) == 1.0
        assert theta(1.0) == 0.25
        assert theta(2.0) == pytest.approx(4.0 / 27.0, rel=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(HypothesisViolated):
            theta(-0.5)

    @given(beta=st.floats(0.0, 20.0))
    @settings(max_examples=100, deadline=None)
    def test_upper_bound(self, beta):
        assert theta(beta) <= 1.0 / (1.0 + beta) + 1e-15

    def test_is_supremum_of_ratio(self):
        # theta(beta) = sup over s > 0 of s / (1+s)^(1+beta), at s = 1/beta.
        beta = 2.0
        s = np.linspace(1e-3, 50.0, 200001)
        ratio = s / (1.0 + s) ** (1.0 + beta)
        assert float(ratio.max()) <= theta(beta) + 1e-12
        assert float(ratio.max()) == pytest.approx(theta(beta), rel=1e-6)


class TestTildeBeta:
    @pytest.mark.parametrize(
        "beta,expected",
        [(0.0, 0.0), (0.5, 0.0), (0.75, 0.5), (1.0, 1.0), (3.0, 1.0)],
    )
    def test_clamp(self, beta, expected):
        assert tilde_beta(beta) == expected


class TestPowerDiffConstant:
    def test_branch_values(self):
        assert power_diff_constant(0.5, 0.5) == pytest.approx(9.0 / 8.0, rel=1e-15)
        assert power_diff_constant(2.0, 1.0) == 1.0
        assert power_diff_constant(3.0, 2.0) == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_hypothesis_gate(self):
        with pytest.raises(HypothesisViolated):
            power_diff_constant(1.0, 1.2)
        with pytest.raises(HypothesisViolated):
            power_diff_constant(0.0, 0.5)

    def test_inequality_worked_example(self):
        # (4 - 1)^2 = 9 <= 1 * 1 * (4 - 1)(16 - 1) = 45 at alpha=2, gamma=1.
        alpha, gamma, u, u_star = 2.0, 1.0, 4.0, 1.0
        c = power_diff_constant(alpha, gamma)
        lhs = (u**gamma - u_star**gamma) ** 2
        rhs = c * u_star ** (2 * gamma - alpha - 1) * (u - u_star) * (
            u**alpha - u_star**alpha
        )
        assert lhs == 9.0
        assert rhs == 45.0

    @given(
        alpha=st.floats(0.1, 6.0),
        frac=st.floats(0.05, 1.0),
        u=st.floats(1e-2, 1e2),
        u_star=st.floats(1e-2, 1e2),
    )
    # At gamma = (alpha + 1) / 2 the inequality is tight as u -> u*; here
    # u^p - u*^p written as a plain difference loses every digit and the
    # lhs came out 1.5 times the rhs.
    @example(alpha=3.0, frac=1.0, u=100.0, u_star=99.99999999999999)
    @settings(max_examples=300, deadline=None)
    def test_inequality_holds(self, alpha, frac, u, u_star):
        gamma = frac * (alpha + 1.0) / 2.0
        c = power_diff_constant(alpha, gamma)

        def power_diff(p):
            """u^p - u*^p without cancellation."""
            return u_star**p * math.expm1(p * math.log1p((u - u_star) / u_star))

        lhs = power_diff(gamma) ** 2
        rhs = c * u_star ** (2 * gamma - alpha - 1) * (u - u_star) * power_diff(alpha)
        assert lhs <= rhs * (1.0 + 1e-12) + 1e-300


class TestChiBeta:
    def test_values(self):
        assert chi_beta_threshold(1.0, 1.0, 1) == 1.0
        assert chi_beta_threshold(1.0, 2.0, 1) == 1.0
        assert chi_beta_threshold(3.0, 3.0, 2) == pytest.approx(10.0 / 6.0, rel=1e-15)

    def test_beta_gate(self):
        with pytest.raises(BetaBelowOne):
            chi_beta_threshold(0.9, 1.0, 1)


class TestRegularityConstants:
    def test_m_star_oracle(self):
        # 32 * 1 * (4 + 1) + 16 / 4 = 164 at N=1, p=2, mu=nu=1, C*=1.
        assert m_star(2.0, 1.0, 1.0, default_c_star_stub()) == 164.0

    def test_m_star_gates(self):
        with pytest.raises(HypothesisViolated):
            m_star(1.0, 1.0, 1.0, default_c_star_stub())
        with pytest.raises(MissingCZConstant):
            m_star(2.0, 1.0, 1.0, None)

    def test_stub_is_flagged(self):
        stub = default_c_star_stub()
        assert stub.nonrigorous
        assert stub(2.0) == 1.0
        assert stub(17.3) == 1.0

    def test_table_interpolation(self):
        table = c_star_from_table([(3.0, 4.0), (1.5, 2.0)])
        assert not table.nonrigorous
        assert table(1.5) == 2.0
        assert table(2.25) == pytest.approx(3.0)
        with pytest.raises(MissingCZConstant):
            table(4.0)

    def test_table_validation(self):
        with pytest.raises(MissingCZConstant):
            c_star_from_table([])
        with pytest.raises(MissingCZConstant):
            c_star_from_table([(2.0, -1.0)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column", ["p", "c_star"])
    def test_table_rejects_non_finite_entries(self, bad, column):
        rows = [(1.5, 2.0), (10.0, 3.0)]
        rows[1] = (bad, 3.0) if column == "p" else (10.0, bad)
        with pytest.raises(MissingCZConstant, match="non-finite"):
            c_star_from_table(rows)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_source_rejects_a_value_not_finite_and_positive(self, bad):
        source = CStarSource(func=lambda p: bad, nonrigorous=False, description="bad")
        with pytest.raises(MissingCZConstant, match="finite and positive"):
            source(2.0)
        # k_star returned the ladder (nan, nan, nan) for a NaN source.
        with pytest.raises(MissingCZConstant):
            k_star(1, 1.0, 1.0, 1.0, 1.0, source)

    def test_k_star_ladder_converges_to_limit(self):
        # q* = 1, p -> 2+, so the rungs approach M*(2)^(1/2) = sqrt(164).
        result = k_star(1, 1.0, 1.0, 1.0, 1.0, default_c_star_stub())
        assert result.q_star == 1.0
        assert result.converged
        assert len(result.ladder) == 3
        assert all(x < y for x, y in zip(result.ladder, result.ladder[1:]))
        assert result.value == pytest.approx(math.sqrt(164.0), rel=1e-3)

    def test_k_star_q_star_kink(self):
        result = k_star(2, 3.0, 1.0, 1.0, 1.0, default_c_star_stub())
        assert result.q_star == 3.0

    def test_k_star_needs_p_above_one(self):
        # q* = 1, so the first rung's p = (1 + eps + 0.5) / 5 is about 0.302.
        with pytest.raises(HypothesisViolated, match=r"\(q \+ alpha\) / gamma > 1, got p = 0\.302"):
            k_star(1, 0.5, 5.0, 1.0, 1.0, default_c_star_stub())

    def test_k_star_needs_constant(self):
        with pytest.raises(MissingCZConstant):
            k_star(1, 1.0, 1.0, 1.0, 1.0, None)


class TestChiAbBeta:
    def test_subcritical_exponent_unbounded(self):
        # N alpha <= 2 makes both entries infinite or zero; the reference
        # point sits exactly on alpha = m + gamma - 1 with (N alpha - 2)+ = 0.
        res = chi_ab_beta(make_params(), 1)
        assert math.isinf(res.value)
        assert res.entry_ii_iv == 0.0

    def test_strictly_superlinear_source_unbounded(self):
        res = chi_ab_beta(make_params(alpha=3.0, gamma=0.5), 1)
        assert math.isinf(res.value)
        assert "alpha > m + gamma - 1" in res.branch_i_iii

    def test_both_entries_zero(self):
        res = chi_ab_beta(make_params(m=2.0, gamma=2.0, alpha=1.0, beta=0.3), 1)
        assert res.value == 0.0
        assert res.case == "both"

    def test_equality_case_needs_k_star(self):
        p = make_params(m=2.0, gamma=2.0, alpha=3.0, beta=1.0)
        with pytest.raises(MissingKStar):
            chi_ab_beta(p, 1)

    def test_equality_case_oracle(self):
        # (n_alpha + 2m) b / (n_alpha (nu + beta Theta(beta) K*))
        # = 5 / (1 + 0.25 * 10) = 10/7.
        p = make_params(m=2.0, gamma=2.0, alpha=3.0, beta=1.0)
        res = chi_ab_beta(p, 1, k_star_value=10.0)
        assert res.entry_i_iii == pytest.approx(10.0 / 7.0, rel=1e-15)

    def test_second_equality_case_oracle(self):
        # alpha = 2m + gamma - 2 with N alpha > 2:
        # sqrt(8 b / (n_alpha Theta(2 beta - 1) K*)) = sqrt(8).
        p = make_params(m=1.5, gamma=1.0, alpha=2.0, beta=1.0)
        res = chi_ab_beta(p, 2, k_star_value=2.0)
        assert res.entry_ii_iv == pytest.approx(math.sqrt(8.0), rel=1e-15)
        assert math.isinf(res.value)  # the other entry is supercritical

    def test_second_entry_supercritical(self):
        # alpha = 2 > 2m + gamma - 2 = 1 with beta >= 1/2.
        res = chi_ab_beta(make_params(alpha=2.0, beta=1.0), 1)
        assert math.isinf(res.entry_ii_iv)
        assert res.branch_ii_iv == "alpha > 2m + gamma - 2"

    def test_second_equality_case_needs_k_star(self):
        # alpha = 3 = 2m + gamma - 2 with N alpha - 2 = 1 > 0; the first
        # entry is supercritical (alpha > m + gamma - 1 = 2) and needs none.
        p = make_params(m=2.0, gamma=1.0, alpha=3.0, beta=1.0)
        with pytest.raises(MissingKStar, match="alpha = 2m \\+ gamma - 2 needs a K\\* value"):
            chi_ab_beta(p, 1)

    def test_low_beta_skips_second_entry_without_k_star(self):
        p = make_params(m=1.5, gamma=1.0, alpha=2.0, beta=0.3)
        res = chi_ab_beta(p, 2)
        assert res.entry_ii_iv == 0.0


class TestEventualFloors:
    def test_bar_chi_values(self):
        assert bar_chi(make_params(beta=1.0)) == 0.5
        assert bar_chi(make_params(beta=1.0, m=2.0)) == 1.0

    def test_bar_chi_gate(self):
        with pytest.raises(HypothesisViolated):
            bar_chi(make_params(beta=0.5))

    def test_v_lower_linear_diffusion(self):
        assert v_lower_ab(make_params()) == 0.5

    def test_v_lower_saturates_at_one(self):
        p = make_params(m=2.0, a=8.0, b=1.0)
        assert v_lower_ab(p) == 1.0

    def test_v_lower_fractional_exponent(self):
        # ratio = 1/2, exponent max{1/(m-1), 1/alpha} = 2, floor = 1/4.
        p = make_params(m=2.0, alpha=0.5)
        assert v_lower_ab(p) == pytest.approx(0.25, rel=1e-15)

    def test_v_lower_underflows_gracefully_near_m_one(self):
        p = make_params(m=1.0 + 1e-12)
        assert v_lower_ab(p) == 0.0


class TestChiDoubleStar:
    def test_reference_point_values(self, reference_eq):
        e1, e2, e3, e4 = chi_double_star(make_params(), reference_eq)
        assert e1.value == pytest.approx(4.0, rel=1e-15)
        assert e1.applicable
        assert e2.value is None and not e2.applicable  # beta < 1
        assert e3.value == pytest.approx(0.5, rel=1e-15)
        assert e3.applicable
        assert e4.value is None and not e4.applicable

    def test_closed_form_normalizations(self):
        # With a = b, beta = 0, mu = nu = 1 the equilibrium is 1 and the
        # first and third thresholds collapse to 4 sqrt(b) and b/2.
        for b in (0.49, 1.0, 4.0):
            p1 = make_params(a=b, b=b, m=1.0, gamma=1.0, alpha=2.0)
            e1 = chi_double_star(p1, equilibrium(p1))[0]
            assert e1.value == pytest.approx(4.0 * math.sqrt(b), rel=1e-14)
            p3 = make_params(a=b, b=b, m=1.5, gamma=1.0, alpha=2.0)
            e3 = chi_double_star(p3, equilibrium(p3))[2]
            assert e3.value == pytest.approx(b / 2.0, rel=1e-14)

    def test_power_diff_gate_disables_first_two(self):
        p = make_params(alpha=1.0, gamma=1.5)
        e1, e2, _, _ = chi_double_star(p, equilibrium(p))
        assert e1.value is None and not e1.applicable
        assert e2.value is None

    def test_third_gate_tracks_signal_dependence(self):
        # With beta > 0 the third hypothesis hardens by one extra gamma.
        p_flat = make_params(alpha=1.0)
        assert chi_double_star(p_flat, equilibrium(p_flat))[2].applicable
        p_sat = make_params(alpha=1.0, beta=1.0)
        assert not chi_double_star(p_sat, equilibrium(p_sat))[2].applicable
        p_wide = make_params(alpha=2.0, beta=1.0)
        assert chi_double_star(p_wide, equilibrium(p_wide))[2].applicable

    def test_minimal_model_rejected(self, reference_eq):
        with pytest.raises(HypothesisViolated):
            chi_double_star(make_params(a=0.0, b=0.0), reference_eq)

    def test_saturation_trends(self):
        # Stronger saturation relaxes thresholds 2 and 4 and tightens 3.
        values2, values3, values4 = [], [], []
        for beta in (1.0, 2.0, 4.0, 8.0, 16.0):
            p = make_params(beta=beta, alpha=3.0)
            e = chi_double_star(p, equilibrium(p), m0=1.0)
            values2.append(e[1].value)
            values3.append(e[2].value)
            values4.append(e[3].value)
        assert all(x < y for x, y in zip(values2, values2[1:]))
        assert all(x > y for x, y in zip(values3, values3[1:]))
        assert all(x < y for x, y in zip(values4, values4[1:]))

    def test_m0_only_enters_with_saturation(self, reference_eq):
        # beta = 0 removes the quadratic correction, so m0 is inert.
        a = chi_double_star(make_params(), reference_eq, m0=0.0)[2].value
        b = chi_double_star(make_params(), reference_eq, m0=5.0)[2].value
        assert a == b

    @pytest.mark.parametrize("m0", [-1.0, math.nan, math.inf])
    def test_m0_must_be_finite_and_nonnegative(self, reference_eq, m0):
        # -1 would be squared into a valid-looking chi**_3; NaN would give
        # null values flagged applicable.
        with pytest.raises(HypothesisViolated, match="m0"):
            chi_double_star(make_params(beta=1.0), reference_eq, m0=m0)

    def test_report_checks_m0_for_the_minimal_model(self, interval_pi):
        # Nothing reads m0 there, but the report would carry a bare NaN.
        p = make_params(a=0.0, b=0.0)
        with pytest.raises(HypothesisViolated, match="m0"):
            threshold_report(p, equilibrium(p, u_star=1.0), interval_pi, m0=math.nan)


class TestMinimalThresholds:
    def test_cap_branches(self):
        assert gamma_cap_minimal(4.0, 0.5, 3.0) == pytest.approx(1.5, rel=1e-15)
        assert gamma_cap_minimal(4.0, 2.0, 3.0) == pytest.approx(18.0, rel=1e-15)

    def test_reference_minimal_oracles(self):
        res = minimal_thresholds(
            u_star=1.0, gamma=1.0, beta=1.0, mu=1.0, nu=1.0,
            lambda_star=1.0, ubar0=1.3, vlower0=0.7, dimension=1,
        )
        assert res.chi_beta == 1.0
        assert res.gamma_cap == pytest.approx(1.3, rel=1e-15)
        assert res.chi_ss1_min == 0.5  # chi_beta / 2 binds
        assert res.chi_ss2_min == 0.5

    def test_spectral_arm_binds_for_small_gap(self):
        res = minimal_thresholds(
            u_star=1.0, gamma=1.0, beta=1.0, mu=1.0, nu=1.0,
            lambda_star=0.01, ubar0=1.3, vlower0=0.7, dimension=1,
        )
        expected = 2.0 * math.sqrt(0.01) * 1.7 / 1.3
        assert res.chi_ss1_min == pytest.approx(expected, rel=1e-14)

    def test_signal_arm_binds_for_small_mu(self):
        res = minimal_thresholds(
            u_star=1.0, gamma=1.0, beta=1.0, mu=0.1, nu=1.0,
            lambda_star=1.0, ubar0=1.3, vlower0=0.7, dimension=1,
        )
        assert res.chi_ss2_min == pytest.approx(0.1 * 1.7 / 1.3, rel=1e-14)

    def test_second_threshold_needs_gamma_one(self):
        res = minimal_thresholds(
            u_star=1.0, gamma=0.5, beta=1.0, mu=1.0, nu=1.0,
            lambda_star=1.0, ubar0=1.3, vlower0=0.7, dimension=1,
        )
        assert res.chi_ss2_min is None

    def test_positive_inputs_required(self):
        with pytest.raises(HypothesisViolated):
            minimal_thresholds(
                u_star=1.0, gamma=1.0, beta=1.0, mu=1.0, nu=1.0,
                lambda_star=1.0, ubar0=0.0, vlower0=0.7, dimension=1,
            )

    @pytest.mark.parametrize("bounds", [(math.nan, math.nan), (1.3, math.nan),
                                        (math.nan, 0.7), (math.inf, 0.7), (1.3, math.inf)])
    def test_finite_inputs_required(self, bounds):
        # NaN bounds used to give chi**_1,min = NaN and chi**_2,min = None.
        ubar0, vlower0 = bounds
        with pytest.raises(HypothesisViolated, match="finite"):
            minimal_thresholds(
                u_star=1.0, gamma=1.0, beta=1.0, mu=1.0, nu=1.0,
                lambda_star=1.0, ubar0=ubar0, vlower0=vlower0, dimension=1,
            )


def _extremal_row(grid, mu):
    """(axis, face index, row) of the face row of grad_h (mu I - lap_h)^-1
    with the largest l1 norm, from an inverse taken independently of
    gradient_constant."""
    n = grid.total_cells
    inverse = np.linalg.inv(mu * np.eye(n) - dense_laplacian(grid))
    best = None
    for axis, rows in enumerate(face_gradients(inverse.reshape(*grid.shape, n), grid)):
        norms = np.abs(rows).sum(axis=-1)
        face = np.unravel_index(np.argmax(norms), norms.shape)
        if best is None or norms[face] > best[0]:
            best = (norms[face], axis, face, rows[face])
    return best[1:]


M0_GRIDS = (
    GridDomain.interval(math.pi, 64),
    GridDomain.interval(2.3, 16),
    GridDomain.rectangle(1.0, 2.5, 8, 12),
)
RECTANGLE_24X36 = GridDomain.rectangle(math.pi, 1.5 * math.pi, 24, 36)


class TestGradientConstant:
    @pytest.mark.parametrize(
        "grid, expected",
        # mu = 1. On [0, pi] the values converge at O(h^2).
        [(GridDomain.interval(math.pi, 32), 0.457975),
         (GridDomain.interval(math.pi, 64), 0.458426),
         (GridDomain.interval(math.pi, 128), 0.458539),
         (GridDomain.interval(math.pi, 256), 0.458567),
         (RECTANGLE_24X36, 0.490019)],
    )
    def test_values(self, grid, expected):
        assert gradient_constant(grid, 1.0) == pytest.approx(expected, abs=1e-5)

    @given(
        grid=st.sampled_from(M0_GRIDS),
        mu=st.floats(0.1, 10.0),
        nu=st.floats(0.1, 10.0),
        seed=st.integers(0, 2**32 - 1),
        indicator=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_bound_holds(self, grid, mu, nu, seed, indicator):
        # |grad_h w|_inf sqrt(mu) / nu <= M0_h osc(f) for (mu I - lap_h) w = nu f.
        f = np.random.default_rng(seed).uniform(-1.0, 1.0, grid.shape)
        if indicator:
            f = (f > 0.0).astype(float)
        w = get_operator(grid, mu).solve(nu * f)
        steepest = max(float(np.abs(g).max()) for g in face_gradients(w, grid))
        osc = float(f.max() - f.min())
        assert steepest * math.sqrt(mu) / nu <= gradient_constant(grid, mu) * osc * (1.0 + 1e-12)

    @pytest.mark.parametrize("grid", (*M0_GRIDS, RECTANGLE_24X36))
    @pytest.mark.parametrize("mu", [0.1, 1.0, 10.0])
    def test_bound_is_attained(self, grid, mu):
        # The indicator of the extremal row's positive entries has osc 1 and
        # reaches the bound at that row's face.
        axis, face, row = _extremal_row(grid, mu)
        f = (row > 0.0).astype(float).reshape(grid.shape)
        w = get_operator(grid, mu).solve(f)
        reached = abs(face_gradients(w, grid)[axis][face]) * math.sqrt(mu)
        assert reached == pytest.approx(gradient_constant(grid, mu), rel=1e-12)

    def test_every_solve_is_certified(self, monkeypatch):
        grid = GridDomain.rectangle(1.0, 2.5, 8, 12)
        stacks = []

        def spy(grid_, mu, rhs, solutions):
            stacks.append((rhs.shape, solutions.shape))
            certify(grid_, mu, rhs, solutions)

        monkeypatch.setattr("chemostab.helmholtz.certify", spy)
        gradient_constant(grid, 1.0)
        assert stacks == [((8, 12, 96), (8, 12, 96))]

    @pytest.mark.parametrize("grid", [GridDomain.interval(math.pi, 64),
                                      GridDomain.rectangle(1.0, 2.5, 12, 10)],
                             ids=["64", "12x10"])
    @pytest.mark.parametrize("columns", [25, 128])
    def test_blocks_agree_with_the_dense_inverse(self, monkeypatch, grid, columns):
        # 25 columns a block leaves a short last block on both grids; 128
        # takes each in one. Each block is one certified stacked solve.
        mu, n = 1.0, grid.total_cells
        monkeypatch.setattr("chemostab.thresholds.SWEEP_COLUMNS", columns)
        widths = []

        def spy(grid_, mu_, rhs, solutions):
            widths.append(rhs.shape[-1])
            certify(grid_, mu_, rhs, solutions)

        monkeypatch.setattr("chemostab.helmholtz.certify", spy)
        got = gradient_constant(grid, mu)
        assert widths == [min(columns, n - start) for start in range(0, n, columns)]
        inverse = np.linalg.inv(mu * np.eye(n) - dense_laplacian(grid))
        rows = face_gradients(inverse.reshape(*grid.shape, n), grid)
        dense = math.sqrt(mu) * max(0.5 * float(np.abs(r).sum(axis=-1).max()) for r in rows)
        assert got == pytest.approx(dense, rel=1e-12, abs=0.0)

    def test_failed_certificate_raises(self, monkeypatch):
        # A wrong inverse must not pass: the certificate sees the columns.
        def scaled(d, e, b):
            w, info = dpttrs(d, e, b)
            return 1.001 * w, info

        monkeypatch.setattr("chemostab.helmholtz.dpttrs", scaled)
        with pytest.raises(SolverFailure):
            gradient_constant(GridDomain.interval(math.pi, 16), 1.0)

    def test_no_dense_solve(self, reference_eq, monkeypatch):
        # M0 and the discrete stability check solve through the operator only.
        def refused(*args, **kwargs):
            raise AssertionError("dense solve")

        monkeypatch.setattr(np.linalg, "solve", refused)
        for grid in M0_GRIDS:
            assert gradient_constant(grid, 1.0) > 0.0
            report = discrete_spectrum_check(make_params(chi0=3.0), reference_eq, grid, 5)
            assert report.max_spectrum_residual < 1e-9

    def test_dense_cell_limit(self):
        grid = GridDomain.interval(math.pi, SWEEP_CELL_LIMIT + 1)
        with pytest.raises(SweepTooLarge):
            gradient_constant(grid, 1.0)

    @pytest.mark.parametrize("mu", [0.0, -1.0, math.nan, math.inf])
    def test_mu_must_be_positive(self, interval_pi, mu):
        with pytest.raises(SingularOperator):
            gradient_constant(interval_pi, mu)


class TestOrderings:
    def test_small_fuzz_run_is_clean(self, rng):
        report = verify_orderings(40, rng)
        assert report.ok
        assert not report.violations
        for part in ("1", "2", "3", "4"):
            assert report.checked[part] + report.skipped[part] == 40
        assert report.checked["minimal-1"] == 40
        assert report.checked["minimal-2"] == 40

    def test_part_selection(self, rng):
        report = verify_orderings(5, rng, parts=("3",))
        assert set(report.checked) == {"3"}


class TestThresholdReport:
    def test_reference_report(self, reference_eq, interval_pi):
        report = threshold_report(make_params(), reference_eq, interval_pi)
        assert report.chi_star == pytest.approx(4.0, rel=1e-14)
        assert report.argmin_mode == 1
        assert report.chi_beta.value is None and not report.chi_beta.applicable
        assert math.isinf(report.chi_ab.value)
        assert report.chi_ss[0].value == pytest.approx(4.0, rel=1e-15)
        assert report.chi_ss[2].value == pytest.approx(0.5, rel=1e-15)
        assert report.minimal is None
        assert report.aux.theta_beta == 1.0
        assert report.aux.lambda_star == 1.0

    def test_minimal_report(self, interval_pi):
        p = make_params(a=0.0, b=0.0, beta=1.0)
        eq = equilibrium(p, u_star=1.0)
        # The bounds ubar0 = 1.3 and vlower0 = 0.7 come from the calibration run.
        calibration = Trajectory(p, interval_pi, eq, u_max=np.array([1.3]),
                                 v_min=np.array([0.7]))
        report = threshold_report(p, eq, interval_pi, calibration=calibration)
        assert report.chi_ss is None
        assert report.minimal.chi_ss1_min == 0.5
        assert report.minimal.inputs_source == "empirical"
        assert report.chi_beta.value == 1.0

    def test_constants_outside_their_hypotheses_are_none(self, interval_pi):
        # alpha = 0.5, gamma = 5: C_{alpha,gamma} is undefined, and K* needs p > 1.
        p = make_params(alpha=0.5, gamma=5.0)
        report = threshold_report(p, equilibrium(p), interval_pi,
                                  c_star=default_c_star_stub())
        assert report.aux.c_alpha_gamma is None
        assert report.aux.k_star is None
        assert report.aux.c_star is not None

    def test_missing_k_star_becomes_note(self, interval_pi):
        p = make_params(m=2.0, gamma=2.0, alpha=3.0, beta=1.0)
        report = threshold_report(p, equilibrium(p), interval_pi)
        assert report.chi_ab is None
        assert "K*" in report.chi_ab_note

    def test_k_star_fills_in_with_stub(self, interval_pi):
        p = make_params(m=2.0, gamma=2.0, alpha=3.0, beta=1.0)
        report = threshold_report(
            p, equilibrium(p), interval_pi, c_star=default_c_star_stub()
        )
        assert report.chi_ab is not None
        assert report.chi_ab_note is None
        assert report.aux.k_star is not None
        assert report.aux.c_star.nonrigorous
