"""Parameter validation, equilibria, grids, spectra, and initial data."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemostab import (
    Equilibrium,
    FieldState,
    GridDomain,
    InitSpec,
    SpectrumTable,
    equilibrium,
    init_state,
    neumann_eigenvalues,
    validate_params,
)
from chemostab.core import (
    MIsBelowOne,
    MissingFreeParameter,
    MixedLogistic,
    NonPositiveCoefficient,
    NonPositiveInitialData,
)
from conftest import REFERENCE, make_params


class TestModelParams:
    def test_reference_point_constructs(self):
        p = make_params()
        assert p.chi0 == 1.0
        assert not p.minimal

    @pytest.mark.parametrize("name", ["mu", "nu", "alpha", "gamma"])
    def test_positive_coefficients_enforced(self, name):
        with pytest.raises(NonPositiveCoefficient):
            make_params(**{name: 0.0})
        with pytest.raises(NonPositiveCoefficient):
            make_params(**{name: -1.0})

    def test_beta_must_be_nonnegative(self):
        with pytest.raises(NonPositiveCoefficient):
            make_params(beta=-0.1)
        assert make_params(beta=0.0).beta == 0.0

    def test_m_below_one_rejected(self):
        with pytest.raises(MIsBelowOne):
            make_params(m=0.99)
        assert make_params(m=1.0).m == 1.0

    def test_mixed_logistic_rejected(self):
        with pytest.raises(MixedLogistic):
            make_params(a=1.0, b=0.0)
        with pytest.raises(MixedLogistic):
            make_params(a=0.0, b=1.0)

    def test_negative_source_rejected(self):
        with pytest.raises(NonPositiveCoefficient):
            make_params(a=-1.0, b=1.0)

    def test_minimal_flag(self):
        assert make_params(a=0.0, b=0.0).minimal
        assert not make_params().minimal

    def test_chi0_any_sign(self):
        assert make_params(chi0=-3.0).chi0 == -3.0
        with pytest.raises(NonPositiveCoefficient):
            make_params(chi0=math.inf)

    def test_validate_params_lists_missing_keys(self):
        partial = {k: v for k, v in REFERENCE.items() if k not in ("mu", "nu")}
        with pytest.raises(ValueError, match="mu, nu"):
            validate_params(partial)

    def test_validate_params_ignores_extras(self):
        raw = dict(REFERENCE, extra="ignored")
        assert validate_params(raw) == make_params()


class TestEquilibrium:
    def test_logistic_equilibrium_oracle(self):
        # u* = (4/1)^(1/2) = 2, v* = (1/2) * 2 = 1
        p = make_params(a=4.0, b=1.0, alpha=2.0, gamma=1.0, mu=2.0, nu=1.0)
        eq = equilibrium(p)
        assert eq.u_star == pytest.approx(2.0, rel=1e-15)
        assert eq.v_star == pytest.approx(1.0, rel=1e-15)

    def test_reference_equilibrium_is_unit(self):
        eq = equilibrium(make_params())
        assert eq.u_star == 1.0
        assert eq.v_star == 1.0

    def test_logistic_rejects_explicit_u_star(self):
        with pytest.raises(ValueError, match="do not pass"):
            equilibrium(make_params(), u_star=2.0)

    def test_minimal_needs_u_star(self):
        p = make_params(a=0.0, b=0.0)
        with pytest.raises(MissingFreeParameter):
            equilibrium(p)
        with pytest.raises(MissingFreeParameter):
            equilibrium(p, u_star=0.0)

    def test_minimal_equilibrium_oracle(self):
        # v* = (nu/mu) u*^gamma = 1 * 3^2 = 9
        p = make_params(a=0.0, b=0.0, gamma=2.0)
        eq = equilibrium(p, u_star=3.0)
        assert eq.u_star == 3.0
        assert eq.v_star == pytest.approx(9.0, rel=1e-15)

    def test_nonpositive_equilibrium_rejected(self):
        with pytest.raises(ValueError):
            Equilibrium(-1.0, 1.0)
        with pytest.raises(ValueError):
            Equilibrium(1.0, 0.0)

    @given(
        a=st.floats(0.1, 10.0),
        b=st.floats(0.1, 10.0),
        alpha=st.floats(0.25, 4.0),
        gamma=st.floats(0.25, 4.0),
        mu=st.floats(0.1, 10.0),
        nu=st.floats(0.1, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_equilibrium_identities(self, a, b, alpha, gamma, mu, nu):
        p = make_params(a=a, b=b, alpha=alpha, gamma=gamma, mu=mu, nu=nu)
        eq = equilibrium(p)
        source = a * eq.u_star - b * eq.u_star ** (1.0 + alpha)
        assert abs(source) <= 1e-10 * max(1.0, a * eq.u_star)
        assert mu * eq.v_star == pytest.approx(nu * eq.u_star**gamma, rel=1e-12)


class TestGridDomain:
    def test_interval_properties(self):
        g = GridDomain.interval(math.pi, 64)
        assert g.dimension == 1
        assert g.spacing == (math.pi / 64,)
        assert g.volume == pytest.approx(math.pi)
        assert g.cell_volume == pytest.approx(math.pi / 64)
        assert g.shape == (64,)
        assert g.total_cells == 64

    def test_rectangle_properties(self):
        g = GridDomain.rectangle(math.pi, 2.0, 16, 8)
        assert g.dimension == 2
        assert g.shape == (16, 8)
        assert g.total_cells == 128
        assert g.cell_volume == pytest.approx((math.pi / 16) * 0.25)

    def test_centers_are_cell_midpoints(self):
        g = GridDomain.interval(1.0, 10)
        x = g.centers()
        assert x[0] == pytest.approx(0.05)
        assert x[-1] == pytest.approx(0.95)
        assert len(x) == 10

    def test_meshgrid_shapes(self):
        g = GridDomain.rectangle(1.0, 2.0, 8, 16)
        xx, yy = g.meshgrid()
        assert xx.shape == (8, 16)
        assert yy.shape == (8, 16)

    def test_too_few_cells_rejected(self):
        with pytest.raises(ValueError, match="at least 8"):
            GridDomain.interval(1.0, 4)

    def test_bad_dimension_rejected(self):
        with pytest.raises(ValueError):
            GridDomain(3, (1.0, 1.0, 1.0), (8, 8, 8))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            GridDomain(2, (1.0,), (8, 8))

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ValueError):
            GridDomain.interval(0.0, 8)


class TestSpectrum:
    def test_interval_pi_eigenvalues(self):
        table = neumann_eigenvalues(GridDomain.interval(math.pi, 64), 3)
        assert table.eigenvalues == (0.0, 1.0, 4.0, 9.0)
        assert table.lambda_star == 1.0
        assert len(table) == 4

    def test_interval_2pi_eigenvalues(self):
        table = neumann_eigenvalues(GridDomain.interval(2.0 * math.pi, 64), 2)
        assert table.as_array() == pytest.approx([0.0, 0.25, 1.0], rel=1e-14)

    def test_square_eigenvalues_merge_sorted(self):
        g = GridDomain.rectangle(math.pi, math.pi, 8, 8)
        table = neumann_eigenvalues(g, 4)
        # (j^2 + k^2): 0, 1, 1, 2, 4
        assert table.as_array() == pytest.approx([0.0, 1.0, 1.0, 2.0, 4.0], rel=1e-13)

    def test_rectangle_anisotropic(self):
        g = GridDomain.rectangle(math.pi, 2.0 * math.pi, 8, 8)
        table = neumann_eigenvalues(g, 4)
        # (j^2 + (k/2)^2): 0, 1/4, 1 (j=1 and k=2), 5/4
        assert table.as_array() == pytest.approx(
            [0.0, 0.25, 1.0, 1.0, 1.25], rel=1e-13
        )

    def test_as_array_is_one_read_only_array(self):
        table = neumann_eigenvalues(GridDomain.interval(math.pi, 64), 3)
        first = table.as_array()
        assert table.as_array() is first
        assert not first.flags.writeable
        assert first.tolist() == [0.0, 1.0, 4.0, 9.0]
        with pytest.raises(ValueError):
            first[1] = 2.0

    def test_n_max_validation(self):
        with pytest.raises(ValueError):
            neumann_eigenvalues(GridDomain.interval(1.0, 8), 0)

    def test_table_validation(self):
        with pytest.raises(ValueError, match="exactly 0"):
            SpectrumTable((0.5, 1.0))
        with pytest.raises(ValueError, match="ascending"):
            SpectrumTable((0.0, 4.0, 1.0))
        with pytest.raises(ValueError):
            SpectrumTable((0.0,))
        with pytest.raises(ValueError, match="positive"):
            SpectrumTable((0.0, 0.0, 1.0))


class TestInitialData:
    def test_constant_state(self, interval_pi, reference_params):
        state = init_state(interval_pi, InitSpec.constant(0.5), reference_params)
        assert state.time == 0.0
        assert np.all(state.u == 0.5)
        # Constant density slaves a constant signal nu c / mu.
        assert state.v == pytest.approx(np.full(64, 0.5), abs=1e-12)

    def test_perturbation_keeps_mean(self, interval_pi, reference_params):
        spec = InitSpec.perturbation(u_star=1.0, amplitude=0.3, mode=1)
        state = init_state(interval_pi, spec, reference_params)
        # Cosine modes sum to zero over cell centers, so the mean is exact.
        mean = state.u.mean()
        assert mean == pytest.approx(1.0, abs=1e-14)
        assert state.u.max() > 1.2 and state.u.min() < 0.8

    def test_perturbation_2d_mode_tuple(self, reference_params):
        g = GridDomain.rectangle(math.pi, math.pi, 16, 16)
        spec = InitSpec.perturbation(u_star=2.0, amplitude=0.1, mode=(1, 2))
        state = init_state(g, spec, reference_params)
        assert state.u.shape == (16, 16)
        assert state.u.mean() == pytest.approx(2.0, abs=1e-13)

    def test_overlarge_amplitude_rejected(self, interval_pi, reference_params):
        spec = InitSpec.perturbation(u_star=1.0, amplitude=1.5)
        with pytest.raises(NonPositiveInitialData):
            init_state(interval_pi, spec, reference_params)

    def test_array_roundtrip(self, interval_pi, reference_params):
        values = 1.0 + 0.1 * np.sin(np.arange(64))
        state = init_state(interval_pi, InitSpec.from_array(values), reference_params)
        assert np.array_equal(state.u, values)

    def test_array_shape_mismatch(self, interval_pi, reference_params):
        with pytest.raises(ValueError, match="shape"):
            init_state(interval_pi, InitSpec.from_array(np.ones(32)), reference_params)

    def test_field_state_validation(self):
        with pytest.raises(ValueError, match="share a shape"):
            FieldState(0.0, np.ones(4), np.ones(5))
        with pytest.raises(ValueError, match="time"):
            FieldState(-1.0, np.ones(4), np.ones(4))
