"""Parameter validation, equilibria, grids, spectra, and initial data."""

import dataclasses
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import chemostab.core
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
    array_max,
    array_min,
    initial_density,
    mass_average,
    max_abs,
    reference_equilibrium,
)
from conftest import REFERENCE, face_cells, full_sort_eigenvalues, make_params


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

    @pytest.mark.parametrize("a, b", [(math.nan, math.nan), (math.inf, 1.0), (1.0, math.inf),
                                      (math.nan, 1.0), (1.0, math.nan), (math.inf, math.inf)])
    def test_non_finite_source_rejected(self, a, b):
        # a = b = nan once passed and gave the equilibrium (nan, nan); a = inf
        # gave u* = inf.
        with pytest.raises(NonPositiveCoefficient, match="finite"):
            make_params(a=a, b=b)

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

    def test_reference_equilibrium(self, interval_pi):
        u0 = 1.0 + 0.5 * np.cos(interval_pi.centers())
        logistic, minimal = make_params(), make_params(a=0.0, b=0.0)
        assert reference_equilibrium(logistic, interval_pi, u0=u0) == equilibrium(logistic)
        # The minimal model's u* is the mean of u0, unless u_star is given.
        mean = mass_average(u0, interval_pi)
        assert reference_equilibrium(minimal, interval_pi, u0=u0) == equilibrium(minimal, mean)
        assert reference_equilibrium(minimal, interval_pi, u0=u0, u_star=2.0) == \
            equilibrium(minimal, 2.0)
        with pytest.raises(MissingFreeParameter):
            reference_equilibrium(minimal, interval_pi)

    def test_nonpositive_equilibrium_rejected(self):
        with pytest.raises(ValueError):
            Equilibrium(-1.0, 1.0)
        with pytest.raises(ValueError):
            Equilibrium(1.0, 0.0)

    @pytest.mark.parametrize("u_star, v_star", [(math.nan, 1.0), (1.0, math.nan),
                                                (math.inf, 1.0), (1.0, math.inf)])
    def test_non_finite_equilibrium_rejected(self, u_star, v_star):
        with pytest.raises(ValueError, match="finite"):
            Equilibrium(u_star, v_star)

    @pytest.mark.parametrize("u_star", [math.nan, math.inf])
    def test_minimal_non_finite_u_star_rejected(self, u_star):
        with pytest.raises(ValueError):
            equilibrium(make_params(a=0.0, b=0.0), u_star=u_star)

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


class TestParamScalars:
    def test_each_coefficient_as_a_read_only_0d_float64(self):
        p = make_params(chi0=-1.7, beta=0.5, m=1.5, alpha=2.0, gamma=1.5, a=2.0, b=0.5, nu=3.0)
        scalars = p.scalars
        assert scalars is p.scalars  # made once per record
        assert scalars._fields == ("chi0", "neg_beta", "m", "a", "b", "sink_exponent",
                                   "gamma", "nu")
        expected = (-1.7, -0.5, 1.5, 2.0, 0.5, 3.0, 1.5, 3.0)
        for value, want in zip(scalars, expected):
            assert value.shape == () and value.dtype == np.float64
            assert not value.flags.writeable
            assert float(value) == want

    def test_replace_makes_its_own(self):
        p = make_params(chi0=1.7, beta=1.0)
        first = p.scalars
        q = dataclasses.replace(p, chi0=0.25, beta=0.0)
        assert (float(q.scalars.chi0), float(q.scalars.neg_beta)) == (0.25, 0.0)
        assert p.scalars is first and float(first.chi0) == 1.7
        # Not a field: equality and hashing see the coefficients alone.
        assert p == make_params(chi0=1.7, beta=1.0)
        assert hash(p) == hash(make_params(chi0=1.7, beta=1.0))


def _bits_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# Values where an element found by index and a ufunc reduction can differ:
# NaNs of either sign and another payload, infinities, tied zeros of either
# sign, subnormals.
SPECIAL_FLOATS = [
    math.nan, -math.nan, _bits_float(0x7FF8000000000123), _bits_float(0xFFF8000000000001),
    math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.0, -1.0,
]


@st.composite
def reduction_inputs(draw):
    """A float64 array of one or two axes, in C order, Fortran order, or as
    a strided or reversed view."""
    elements = st.one_of(st.sampled_from(SPECIAL_FLOATS),
                         st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=9))
    x = draw(hnp.arrays(np.float64, shape, elements=elements))
    layout = draw(st.sampled_from(["c", "fortran", "strided", "reversed"]))
    if layout == "fortran":
        return np.asfortranarray(x)
    if layout == "strided":
        wide = np.repeat(x, 2, axis=-1)
        wide[..., 1::2] = draw(st.sampled_from(SPECIAL_FLOATS))
        return wide[..., ::2]
    return x[::-1] if layout == "reversed" else x


class TestExtremaByIndex:
    """array_min, array_max and max_abs return, bit for bit, the Python
    float of the ufunc reduction each stands for."""

    @given(x=reduction_inputs())
    @settings(max_examples=500, deadline=None)
    def test_each_helper_is_its_reduction_bit_for_bit(self, x):
        pairs = [
            (array_min(x), np.minimum.reduce(x, axis=None)),
            (array_max(x), np.maximum.reduce(x, axis=None)),
            (max_abs(x), np.maximum.reduce(np.abs(x), axis=None)),
        ]
        for got, want in pairs:
            assert type(got) is float
            assert struct.pack("d", got) == struct.pack("d", float(want))

    @pytest.mark.parametrize("values", [[0.0, -0.0], [-0.0, 0.0], [-0.0], [math.nan],
                                        [1.0, -math.nan, math.nan], [-math.inf, 5e-324],
                                        [-5e-324, 0.0]])
    def test_the_hard_cases(self, values):
        x = np.array(values)
        for got, want in [(array_min(x), np.minimum.reduce(x)),
                          (array_max(x), np.maximum.reduce(x)),
                          (max_abs(x), np.maximum.reduce(np.abs(x)))]:
            assert struct.pack("d", got) == struct.pack("d", float(want)), values


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

    @pytest.mark.parametrize("build, value", [
        (lambda: GridDomain.interval(math.pi, 64.9), "64.9"),
        (lambda: GridDomain.rectangle(1.0, 2.0, 8.9, 12.2), "8.9"),
        (lambda: GridDomain.interval(math.pi, "64"), "'64'"),
        (lambda: GridDomain.interval(math.pi, None), "None"),
        (lambda: GridDomain(1.5, (math.pi,), (64,)), "1.5"),
        (lambda: GridDomain(math.inf, (math.pi,), (64,)), "inf"),
    ], ids=["fraction", "fraction-2d", "string", "none", "dimension", "dimension-inf"])
    def test_fractional_or_non_numeric_counts_rejected(self, build, value):
        # A fractional cell count was once truncated without a word.
        with pytest.raises(ValueError, match=f"must be a whole number, got {re.escape(value)}$"):
            build()

    @pytest.mark.parametrize("build, value", [
        (lambda: GridDomain.interval("3.14", 64), "'3.14'"),
        (lambda: GridDomain.rectangle(1.0, None, 8, 12), "None"),
        (lambda: GridDomain(1, (1 + 2j,), (64,)), "(1+2j)"),
    ], ids=["string", "none-2d", "complex"])
    def test_non_numeric_lengths_rejected(self, build, value):
        # A string length was once converted by float() and accepted.
        with pytest.raises(ValueError, match=f"length must be a number, got {re.escape(value)}$"):
            build()

    def test_numpy_lengths_are_stored_as_floats(self):
        grid = GridDomain.rectangle(np.float64(math.pi), np.int64(2), 8, 12)
        assert grid.lengths == (math.pi, 2.0)
        assert all(type(length) is float for length in grid.lengths)
        assert grid == GridDomain.rectangle(math.pi, 2.0, 8, 12)

    def test_whole_float_dimension_is_stored_as_int(self):
        # A float dimension once passed the check and failed in `faces`.
        grid = GridDomain(1.0, (math.pi,), (np.int64(64),))
        assert type(grid.dimension) is int and type(grid.cells[0]) is int
        assert grid == GridDomain.interval(math.pi, 64)
        assert len(grid.faces) == 1

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            GridDomain(2, (1.0,), (8, 8))

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ValueError):
            GridDomain.interval(0.0, 8)

    def test_fields_are_the_grid_description(self):
        names = tuple(f.name for f in dataclasses.fields(GridDomain))
        assert names == ("dimension", "lengths", "cells")

    @pytest.mark.parametrize(
        "build",
        [lambda: GridDomain.interval(math.pi, 64),
         lambda: GridDomain.rectangle(1.0, 2.5, 12, 20),
         lambda: GridDomain(2, [1, 2.5], [12.0, 20.0])],
        ids=["1d", "2d", "2d-coerced"],
    )
    def test_equal_grids_share_equality_hash_and_operator(self, build):
        first, second = build(), build()
        assert first.cell_volume > 0.0  # caches spacing and cell_volume on one grid only
        assert first is not second
        assert first == second
        assert hash(first) == hash(second)

    @pytest.mark.parametrize(
        "grid",
        [GridDomain.interval(math.pi, 64), GridDomain.rectangle(1.0, 2.5, 12, 20),
         GridDomain.rectangle(0.3, 7.0, 33, 17)],
        ids=["1d", "2d", "2d-uneven"],
    )
    def test_spacing_and_cell_volume(self, grid):
        expected = tuple(L / n for L, n in zip(grid.lengths, grid.cells))
        assert grid.spacing == expected
        assert grid.spacing is grid.spacing  # computed once per grid
        assert grid.cell_volume == math.prod(expected)
        resized = dataclasses.replace(grid, cells=tuple(2 * n for n in grid.cells))
        assert resized.spacing == tuple(h / 2 for h in expected)

    @pytest.mark.parametrize(
        "grid",
        [GridDomain.interval(math.pi, 64), GridDomain.rectangle(1.0, 2.5, 12, 20)],
        ids=["1d", "2d"],
    )
    def test_faces(self, grid, rng):
        assert grid.faces is grid.faces  # computed once per grid
        w = rng.normal(size=grid.shape + (3,))
        for axis, (low, high, h, padded, interior) in enumerate(grid.faces):
            assert (low, high) == face_cells(grid.dimension, axis)
            assert h.shape == () and h.dtype == np.float64 and not h.flags.writeable
            assert float(h) == grid.spacing[axis]
            expected = list(grid.shape)
            expected[axis] += 1
            assert padded == tuple(expected)
            # The interior of a padded face array holds the interior faces, one
            # per pair of neighbouring cells, and its high-minus-low difference
            # is back on the cells.
            faces = np.zeros(padded + (3,))
            faces[interior] = np.diff(w, axis=axis)
            assert faces[interior].shape == w[high].shape
            assert np.array_equal(faces[high] - faces[low],
                                  np.diff(faces, axis=axis))
            assert faces[high].shape == w.shape


class TestSpectrum:
    def test_interval_pi_eigenvalues(self):
        table = neumann_eigenvalues(GridDomain.interval(math.pi, 64), 3)
        assert table.eigenvalues.tolist() == [0.0, 1.0, 4.0, 9.0]
        assert table.lambda_star == 1.0
        assert type(table.lambda_star) is float
        assert len(table) == 4

    def test_interval_2pi_eigenvalues(self):
        table = neumann_eigenvalues(GridDomain.interval(2.0 * math.pi, 64), 2)
        assert table.eigenvalues == pytest.approx([0.0, 0.25, 1.0], rel=1e-14)

    def test_square_eigenvalues_merge_sorted(self):
        g = GridDomain.rectangle(math.pi, math.pi, 8, 8)
        table = neumann_eigenvalues(g, 4)
        # (j^2 + k^2): 0, 1, 1, 2, 4
        assert table.eigenvalues == pytest.approx([0.0, 1.0, 1.0, 2.0, 4.0], rel=1e-13)

    def test_rectangle_anisotropic(self):
        g = GridDomain.rectangle(math.pi, 2.0 * math.pi, 8, 8)
        table = neumann_eigenvalues(g, 4)
        # (j^2 + (k/2)^2): 0, 1/4, 1 (j=1 and k=2), 5/4
        assert table.eigenvalues == pytest.approx(
            [0.0, 0.25, 1.0, 1.0, 1.25], rel=1e-13
        )

    @pytest.mark.parametrize("lx, ly, n_max", [
        (math.pi, 2.0, 1), (math.pi, 2.0, 4), (math.pi, 2.0, 200), (math.pi, 2.0, 1000),
        (math.pi, 2.0, 3000), (math.pi, 2.0, 100_000), (1.0, 1.0, 200), (1.0, 1.0, 1000),
        (1.0, 1.0, 100_000),
        (math.pi, math.pi, 500), (1.0, 1.0, 2), (2.0, math.pi, 777), (100.0, 1.0, 400),
        (1.0, 100.0, 400), (1e-3, 1e3, 50), (1e6, 1.0, 30), (1.0, 1e6, 30),
        (3.0, 3.0 + 1e-12, 200), (0.37, 5.1, 1234), (7.0, 0.2, 999),
    ])
    def test_rectangle_table_is_the_full_sort(self, lx, ly, n_max):
        # Bit for bit. 100,000 modes need indices below 500 on π x 2 and 1 x 1,
        # so a box of 1,001 indices per axis holds them; the first assert shows it.
        indices = min(n_max + 1, 1001)
        table = neumann_eigenvalues(GridDomain.rectangle(lx, ly, 8, 8), n_max)
        expected = full_sort_eigenvalues(lx, ly, n_max, indices)
        assert expected[-1] < min((indices * math.pi / lx) ** 2, (indices * math.pi / ly) ** 2)
        assert table.eigenvalues.tobytes() == expected.tobytes()

    @given(lx=st.floats(1e-2, 1e2), ly=st.floats(1e-2, 1e2), n_max=st.integers(1, 600))
    @settings(max_examples=100, deadline=None)
    def test_random_rectangle_table_is_the_full_sort(self, lx, ly, n_max):
        table = neumann_eigenvalues(GridDomain.rectangle(lx, ly, 8, 8), n_max)
        assert table.eigenvalues.tobytes() == full_sort_eigenvalues(lx, ly, n_max).tobytes()

    def test_a_large_rectangle_table_sorts_about_n_sums(self, monkeypatch):
        # 100,000 modes of the full sort would be 10^10 sums; the box sorts
        # about 2 n_max of them on any aspect ratio.
        sorted_sizes = []
        sort = np.sort

        def counting_sort(a, *args, **kwargs):
            sorted_sizes.append(a.size)
            return sort(a, *args, **kwargs)

        monkeypatch.setattr(chemostab.core.np, "sort", counting_sort)
        for lx, ly in [(math.pi, 2.0), (100.0, 1.0), (1.0, 1e6)]:
            table = neumann_eigenvalues(GridDomain.rectangle(lx, ly, 8, 8), 100_000)
            assert len(table) == 100_001
        assert max(sorted_sizes) < 3 * 100_001

    def test_eigenvalues_are_one_read_only_array(self):
        table = neumann_eigenvalues(GridDomain.interval(math.pi, 64), 3)
        first = table.eigenvalues
        assert table.eigenvalues is first
        assert first.dtype == np.float64
        assert not first.flags.writeable
        assert first.tolist() == [0.0, 1.0, 4.0, 9.0]
        with pytest.raises(ValueError):
            first[1] = 2.0

    def test_table_copies_the_callers_array(self):
        given = np.array([0.0, 1.0, 4.0])
        table = SpectrumTable(given)
        assert given.flags.writeable
        assert table.eigenvalues is not given
        given[1] = 2.0
        assert table.eigenvalues.tolist() == [0.0, 1.0, 4.0]

    @pytest.mark.parametrize("n_max", [200, 1000, 100_000])
    @pytest.mark.parametrize("length", [math.pi, 2.5])
    def test_interval_table_is_the_python_float_formula(self, length, n_max):
        # Python's float power, bit for bit: numpy's x**2 (x * x) differs from
        # it in the last bit on some of these entries.
        table = neumann_eigenvalues(GridDomain.interval(length, 8), n_max)
        expected = [(n * math.pi / length) ** 2 for n in range(n_max + 1)]
        assert table.eigenvalues.tobytes() == np.array(expected).tobytes()

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

    @pytest.mark.parametrize("eigenvalues", [(0.0, math.nan, 4.0, 9.0), (0.0, 1.0, math.inf)])
    def test_table_rejects_non_finite(self, eigenvalues):
        # NaN passes the order checks; left in, it made chi* NaN.
        with pytest.raises(ValueError, match="finite"):
            SpectrumTable(eigenvalues)


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

    @pytest.mark.parametrize("mode, expected", [
        (np.int64(2), (2,)), ((np.int64(1), np.int32(2)), (1, 2)), (np.uint8(3), (3,)),
    ], ids=["int64", "tuple", "uint8"])
    def test_perturbation_takes_numpy_integers(self, mode, expected):
        spec = InitSpec.perturbation(u_star=1.0, amplitude=0.1, mode=mode)
        assert spec.mode == expected
        assert all(type(k) is int for k in spec.mode)

    @pytest.mark.parametrize("mode, expected", [(2.0, (2,)), ((1.0, np.float64(3.0)), (1, 3))],
                             ids=["float", "tuple"])
    def test_perturbation_takes_whole_floats(self, mode, expected):
        spec = InitSpec.perturbation(u_star=1.0, amplitude=0.1, mode=mode)
        assert spec.mode == expected
        assert all(type(k) is int for k in spec.mode)

    @pytest.mark.parametrize("mode, named", [((1.7,), "1.7"), (1.5, "1.5"), ((2, 0.5), "0.5")],
                             ids=["tuple", "number", "second-entry"])
    def test_perturbation_refuses_fractional_modes(self, mode, named):
        with pytest.raises(ValueError, match=f"perturbation mode must be a whole number, "
                                             f"got {re.escape(named)}"):
            InitSpec.perturbation(u_star=1.0, amplitude=0.1, mode=mode)

    @pytest.mark.parametrize("grid, mode", [
        (GridDomain.interval(math.pi, 16), (1, 2)),
        (GridDomain.rectangle(math.pi, 2.0, 16, 12), (1, 0, 3)),
    ], ids=["1d", "2d"])
    def test_mode_longer_than_dimension_rejected(self, grid, mode):
        spec = InitSpec.perturbation(u_star=1.0, amplitude=0.1, mode=mode)
        with pytest.raises(ValueError, match=rf"mode {re.escape(str(mode))} has "
                                             rf"{len(mode)} entries; a {grid.dimension}D grid"):
            initial_density(grid, spec)

    def test_short_mode_padded_with_zeros(self):
        g = GridDomain.rectangle(math.pi, 2.0, 16, 12)
        short = initial_density(g, InitSpec.perturbation(u_star=1.0, amplitude=0.1, mode=2))
        padded = initial_density(g, InitSpec.perturbation(u_star=1.0, amplitude=0.1, mode=(2, 0)))
        assert short.tobytes() == padded.tobytes()

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

    @pytest.mark.parametrize("spec, message", [
        (InitSpec(kind="constant"), "constant initial data needs a value"),
        (InitSpec(kind="perturbation"), "perturbation initial data needs u_star"),
        (InitSpec(kind="array"), "array initial data needs the array"),
        (InitSpec(kind="wavelet"), "unknown initial-condition kind 'wavelet'"),
    ], ids=["constant", "perturbation", "array", "unknown"])
    def test_spec_without_its_field_rejected(self, interval_pi, spec, message):
        with pytest.raises(ValueError, match=message):
            initial_density(interval_pi, spec)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_density_rejected(self, interval_pi, bad):
        values = np.ones(64)
        values[5] = bad
        with pytest.raises(NonPositiveInitialData, match="non-finite"):
            initial_density(interval_pi, InitSpec.from_array(values))

    def test_field_state_validation(self):
        with pytest.raises(ValueError, match="share a shape"):
            FieldState(0.0, np.ones(4), np.ones(5))
        with pytest.raises(ValueError, match="time"):
            FieldState(-1.0, np.ones(4), np.ones(4))

    @pytest.mark.parametrize("time", [math.nan, math.inf, -1.0])
    def test_field_state_time_must_be_finite(self, time):
        # A NaN time once passed, since NaN < 0 is false.
        with pytest.raises(ValueError, match=f"time must be finite and >= 0, got {time}"):
            FieldState(time, np.ones(4), np.ones(4))
