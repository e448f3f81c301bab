"""The block-sampled inequality fuzzers against the scalar formulas.

The fuzzers draw a block of trials per numpy call and evaluate it with the
elementwise cores of the threshold formulas. These tests check that every
drawn sample agrees with the scalar public functions, that chi* from the
modes around its minimum is the full scan's, float for float, that a
planted fault in a formula is caught (so the array program checks
something), and that nothing overflows or divides by zero outside a
formula's gate.
"""

import functools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chemostab import diagnostics, stability, thresholds
from chemostab.cli import main
from chemostab.core import (
    GridDomain,
    ModelParams,
    equilibrium,
    neumann_eigenvalues,
)
from chemostab.diagnostics import check_power_diff_inequality
from chemostab.stability import (
    SpectrumTooShort,
    _bracketed_minimum,
    critical_sensitivity,
)
from chemostab.thresholds import (
    chi_double_star,
    minimal_thresholds,
    power_diff_constant,
    verify_orderings,
)
from conftest import scanned_minimum

PARTS = ("1", "2", "3", "4", "minimal-1", "minimal-2")
SAMPLES = 256
RTOL = 1e-12
PARAM_KEYS = ("chi0", "beta", "m", "alpha", "gamma", "a", "b", "mu", "nu")


def close(x, y):
    return abs(x - y) <= RTOL * max(abs(x), abs(y))


@functools.lru_cache(maxsize=None)
def unit_spectrum(modes=200):
    """The first modes + 1 Neumann eigenvalues of [0, pi], read-only."""
    return neumann_eigenvalues(GridDomain.interval(math.pi, 8), modes)


def point(row):
    """ModelParams, Equilibrium and interval of one sample row."""
    params = ModelParams(chi0=0.0, **{k: row[k] for k in PARAM_KEYS if k != "chi0"})
    if params.minimal:
        eq = equilibrium(params, u_star=row["u_star"])
    else:
        eq = equilibrium(params)
    return params, eq, GridDomain.interval(row["length"], 8)


def rows(sample):
    size = len(sample["beta"])
    return [{k: float(v[i]) for k, v in sample.items()} for i in range(size)]


def drawn_block(part, seed):
    sample = thresholds._draw_ordering_block(part, SAMPLES, np.random.default_rng(seed))
    if not part.startswith("minimal"):
        # Cover the m = 1 branches of bar chi and v_lower_ab as well; every
        # gate of the part still holds with a smaller m.
        sample["m"][::2] = 1.0
    return sample


class TestBlockAgreement:
    """Per-sample agreement of the batched evaluation with the scalar API."""

    @pytest.mark.parametrize("part", PARTS)
    def test_chi_star_matches_critical_sensitivity(self, part):
        sample = drawn_block(part, 5)
        checks, _ = thresholds._ordering_checks(part, sample, unit_spectrum())
        chi_star = next(rhs for _, _, name, rhs in checks if name == "chi*")
        for i, row in enumerate(rows(sample)):
            params, eq, interval = point(row)
            assert close(float(chi_star[i]), critical_sensitivity(params, eq, interval)[0])

    @pytest.mark.parametrize("part", ("1", "2", "3", "4"))
    def test_all_four_entries_match_chi_double_star(self, part):
        sample = drawn_block(part, 6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = thresholds._chi_double_star_values(
                sample["a"], sample["b"], sample["m"], sample["alpha"], sample["gamma"],
                sample["beta"], sample["mu"], sample["nu"], sample["u_star"],
                sample["v_star"], sample["m0"],
            )
        for i, row in enumerate(rows(sample)):
            params, eq, _ = point(row)
            assert close(eq.u_star, row["u_star"]) and close(eq.v_star, row["v_star"])
            entries = chi_double_star(params, eq, m0=row["m0"])
            for entry, (values, flags) in zip(entries, batch):
                assert bool(flags[i]) is entry.applicable
                if entry.value is None:
                    assert math.isnan(values[i])
                else:
                    assert close(float(values[i]), entry.value)

    @pytest.mark.parametrize("part", ("1", "2", "3", "4"))
    def test_checked_rows_are_the_applicable_entries(self, part):
        sample = drawn_block(part, 7)
        _, gated = thresholds._ordering_checks(part, sample, unit_spectrum())
        for i, row in enumerate(rows(sample)):
            params, eq, _ = point(row)
            entry = chi_double_star(params, eq, m0=row["m0"])[int(part) - 1]
            assert bool(gated[i]) is (entry.applicable and entry.value is not None)

    @pytest.mark.parametrize("part", ("minimal-1", "minimal-2"))
    def test_minimal_values_match_minimal_thresholds(self, part):
        sample = drawn_block(part, 8)
        lam_star = sample["length"] ** -2 * math.pi**2 * unit_spectrum()[1]
        chi1, chi2, cb, cap = thresholds._minimal_values(
            sample["u_star"], sample["gamma"], sample["beta"], sample["mu"], sample["nu"],
            lam_star, sample["ubar0"], sample["vlower0"], 1,
        )
        for i, row in enumerate(rows(sample)):
            params, eq, interval = point(row)
            ref = minimal_thresholds(
                eq.u_star, params.gamma, params.beta, params.mu, params.nu,
                neumann_eigenvalues(interval, 1)[1], row["ubar0"], row["vlower0"], 1,
            )
            assert close(float(chi1[i]), ref.chi_ss1_min)
            assert close(float(cb[i]), ref.chi_beta)
            assert close(float(cap[i]), ref.gamma_cap)
            if ref.chi_ss2_min is None:
                assert math.isnan(chi2[i])
            else:
                assert close(float(chi2[i]), ref.chi_ss2_min)

    def test_power_diff_constant_elementwise(self):
        rng = np.random.default_rng(9)
        alpha = 10.0 ** rng.uniform(-2.0, 1.0, 1000)
        gamma = rng.uniform(0.0, (alpha + 1.0) / 2.0)
        batch = power_diff_constant(alpha, gamma)
        assert all(
            close(float(c), power_diff_constant(a, g))
            for a, g, c in zip(alpha.tolist(), gamma.tolist(), batch)
        )

    def test_power_diff_constant_rejects_any_bad_entry(self):
        with pytest.raises(thresholds.HypothesisViolated):
            power_diff_constant(np.array([2.0, 1.0]), np.array([1.0, 1.2]))


def outcome(chi_star, unit, *columns):
    """The value bytes and modes of a chi* batch, or its SpectrumTooShort message."""
    try:
        value, mode = chi_star(unit, *(np.asarray(c, dtype=float) for c in columns))
    except SpectrumTooShort as exc:
        return str(exc)
    return value.tobytes(), mode.tolist()


def assert_window_matches_scan(unit, *columns, scanned=None):
    """_bracketed_minimum on `unit` against the scan of `scanned` (default
    `unit`), value bytes and modes."""
    expected = outcome(scanned_minimum, unit if scanned is None else scanned, *columns)
    assert outcome(_bracketed_minimum, unit, *columns) == expected
    return expected


# One row of _bracketed_minimum's input: the scale (pi/L)^2 of an interval
# of length 0.1 to 31, a alpha (0 as in the minimal parts, or 1e-3 to 1e3),
# mu and the gain.
ROW = st.tuples(
    st.floats(0.1, 31.0).map(lambda length: (math.pi / length) ** 2),
    st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
    st.floats(1e-2, 1e2),
    st.floats(1e-4, 1e4),
)


def reaches_lam0(unit, scale, a_alpha, mu, gain):
    """Per row: does the table hold an eigenvalue >= sqrt(a alpha mu)?"""
    return np.sqrt(np.multiply(a_alpha, mu)) / scale <= unit[-1]


class TestBracketedMinimum:
    """chi* from the modes around lam0 = sqrt(a alpha mu) against the scan oracle."""

    @given(part=st.sampled_from(PARTS), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_scan_on_drawn_blocks(self, part, seed):
        s = thresholds._draw_ordering_block(part, 64, np.random.default_rng(seed))
        gain = stability._gain(
            s["nu"], s["gamma"], s["m"], s["beta"], s["u_star"], s["v_star"]
        )
        assert_window_matches_scan(
            unit_spectrum(), (math.pi / s["length"]) ** 2, s["a"] * s["alpha"],
            s["mu"], gain,
        )

    @given(rows=st.lists(ROW, min_size=1, max_size=8), size=st.integers(12, 1000))
    @example(rows=[(1.0, 0.0, 1.0, 1.0)], size=201)
    @example(rows=[(1.0, 1.0, 1.0, 1.0)], size=12)
    @example(rows=[(987.0, 1e3, 1e2, 1e-4), (0.0103, 1e-3, 1e-2, 1e4)], size=1000)
    @example(rows=[(0.0103, 1e3, 1e2, 1.0)], size=1000)
    @settings(max_examples=300, deadline=None)
    def test_matches_scan_across_the_ranges(self, rows, size):
        # Rows whose lam0 lies within the table give the scan's value bytes
        # and modes; a batch holding any other row raises.
        unit = unit_spectrum(size - 1)
        columns = [np.array(column) for column in zip(*rows)]
        reach = reaches_lam0(unit, *columns)
        if reach.any():
            assert_window_matches_scan(unit, *(column[reach] for column in columns))
        if not reach.all():
            with pytest.raises(SpectrumTooShort):
                _bracketed_minimum(unit, *columns)

    @given(
        lengths=st.tuples(st.floats(0.5, 10.0), st.floats(0.5, 10.0)),
        row=ROW.map(lambda row: (1.0, *row[1:])),
        size=st.integers(12, 400),
    )
    @example(lengths=(math.pi, math.pi), row=(1.0, 65.0, 65.0, 1.0), size=100)
    @example(lengths=(math.pi, 2.0), row=(1.0, 0.0, 1.0, 1.0), size=12)
    @example(
        lengths=(math.pi, math.pi), row=(1.0, 978.645690275952, 15.722401152257774,
                                         0.00029514061260056906), size=288,
    )
    @example(lengths=(7.0, 7.0), row=(1.0, 43.0, 47.0, 1.0), size=192)
    @settings(max_examples=300, deadline=None)
    def test_rectangle_tables_match_scan(self, lengths, row, size):
        # Rectangles have eigenvalues equal up to rounding (65 = 1 + 64 =
        # 16 + 49 on the square of side pi), and the window takes whole runs
        # of them, so value and mode are the scan's. On the square of side
        # pi the four modes of 125 (4 + 121 and 25 + 100, each both ways)
        # hold floats 3 ulp apart. On the 7 x 7 square modes 189-191 are one
        # eigenvalue, and 191, outside the unwidened window 187..190, gives
        # the least candidate, 2 ulp below the others.
        unit = neumann_eigenvalues(GridDomain.rectangle(*lengths, 8, 8), size - 1)
        columns = [np.array([x]) for x in row]
        if not reaches_lam0(unit, *columns)[0]:
            with pytest.raises(SpectrumTooShort):
                _bracketed_minimum(unit, *columns)
            return
        value, mode = _bracketed_minimum(unit, *columns)
        expected, expected_mode = scanned_minimum(unit, *columns)
        assert value.tobytes() == expected.tobytes()
        assert mode.tolist() == expected_mode.tolist()

    def test_no_decay_takes_the_first_mode(self):
        # a alpha = 0: the candidate (lam + mu) / gain increases in lam.
        _, mode = assert_window_matches_scan(
            unit_spectrum(), [1.0, 0.25, 39.0], [0.0] * 3, [0.1, 1.0, 10.0], [1.0] * 3,
        )
        assert mode == [1, 1, 1]

    def test_reference_row(self):
        # L = pi, a alpha = mu = gain = 1: lam0 = lam1 = 1 and chi* = 4.
        value, mode = assert_window_matches_scan(unit_spectrum(), *[[1.0]] * 4)
        assert np.frombuffer(value).tolist() == [4.0] and mode == [1]

    @pytest.mark.parametrize("n", [185, 189.5, 190.5, 191, 191.5, 195, 199.5, 200])
    def test_lam0_among_the_last_modes(self, n):
        # lam0 = n^2 up to the last entry, 200^2: the bracket alone gives
        # the scan of a table 20 times longer, bytes and modes.
        _, mode = assert_window_matches_scan(
            unit_spectrum(), [1.0, 0.3], [n**2, 1.0], [n**2, 1.0], [1.0, 2.0],
            scanned=unit_spectrum(4000),
        )
        assert mode[0] in (math.floor(n), math.ceil(n))

    @pytest.mark.parametrize("n", [200.5, 250.0])
    def test_lam0_beyond_the_table_raises(self, n):
        message = outcome(
            _bracketed_minimum, unit_spectrum(), [1.0, 1.0], [1.0, n**2],
            [1.0, n**2], [1.0, 1.0],
        )
        assert message.startswith(f"sqrt(a alpha mu) = {n**2!r} lies above the last "
                                  f"eigenvalue {float(unit_spectrum()[-1])!r} ")

    @pytest.mark.parametrize("lam0", [1.0, 4.0])
    @pytest.mark.parametrize("size", [2, 3, 4, 5, 12])
    def test_short_tables(self, size, lam0):
        # lam0 = 1 is mode 1 and lam0 = 4 is mode 2. Every table that holds
        # lam0 gives the scan of 200 modes, through a window min(4, modes)
        # wide; the two-entry table does not hold 4 and raises.
        table = unit_spectrum()[:size]
        columns = [[1.0], [lam0], [lam0], [1.0]]
        if table[-1] < lam0:
            assert outcome(_bracketed_minimum, table, *columns).startswith(
                "sqrt(a alpha mu) = 4.0 lies above the last eigenvalue 1.0 "
            )
        else:
            assert_window_matches_scan(table, *columns, scanned=unit_spectrum())

    @pytest.mark.parametrize("trials", (1, 200, 4096, 4097))
    @pytest.mark.parametrize("seed", (0, 1, 2))
    @pytest.mark.parametrize("flag_every_row", (False, True))
    def test_reports_match_the_scan(self, monkeypatch, trials, seed, flag_every_row):
        if flag_every_row:
            # Every checked row becomes a violation carrying its chi*.
            monkeypatch.setattr(
                thresholds, "_violates", lambda lhs, rhs: np.ones(lhs.shape, bool)
            )
        report = verify_orderings(trials, np.random.default_rng(seed))
        monkeypatch.setattr(stability, "_bracketed_minimum", scanned_minimum)
        assert verify_orderings(trials, np.random.default_rng(seed)) == report
        assert bool(report.violations) is flag_every_row


class TestPlantedFaults:
    """A fault planted in a formula must show up as violations."""

    def test_power_fuzzer_catches_halved_constant(self, monkeypatch):
        original = thresholds.power_diff_constant
        monkeypatch.setattr(
            thresholds, "power_diff_constant", lambda a, g: 0.5 * original(a, g)
        )
        assert check_power_diff_inequality(2000, np.random.default_rng(1)) > 0

    def test_power_fuzzer_checks_every_trial_of_every_block(self, monkeypatch):
        # A negative constant makes every trial with u != u* a violation.
        original = thresholds.power_diff_constant
        monkeypatch.setattr(
            thresholds, "power_diff_constant", lambda a, g: -original(a, g)
        )
        monkeypatch.setattr(diagnostics, "POWER_BLOCK", 100)
        assert check_power_diff_inequality(1050, np.random.default_rng(2)) == 1050

    def test_ordering_fuzzer_reports_inflated_chi_ss3(self, monkeypatch):
        original = thresholds._chi_double_star_values

        def inflated(*args):
            entries = list(original(*args))
            value, applicable = entries[2]
            entries[2] = (1e3 * value, applicable)
            return tuple(entries)

        monkeypatch.setattr(thresholds, "_chi_double_star_values", inflated)
        report = verify_orderings(40, np.random.default_rng(3), parts=("3",))
        monkeypatch.undo()
        assert report.violations
        for violation in report.violations:
            assert (violation.part, violation.lhs_name, violation.rhs_name) == (
                "3", "chi**_3", "chi*",
            )
            params, eq, interval = point(violation.sample)
            entry = chi_double_star(params, eq, m0=violation.sample["m0"])[2]
            assert close(violation.lhs, 1e3 * entry.value)
            assert close(violation.rhs, critical_sensitivity(params, eq, interval)[0])
            assert violation.lhs > violation.rhs

    def test_ordering_fuzzer_reports_inflated_minimal_threshold(self, monkeypatch):
        original = thresholds._minimal_values

        def inflated(*args, **kwargs):
            chi1, chi2, cb, cap = original(*args, **kwargs)
            return 1e3 * chi1, chi2, cb, cap

        monkeypatch.setattr(thresholds, "_minimal_values", inflated)
        report = verify_orderings(20, np.random.default_rng(4), parts=("minimal-1",))
        monkeypatch.undo()
        assert report.violations
        for violation in report.violations:
            params, eq, interval = point(violation.sample)
            ref = minimal_thresholds(
                eq.u_star, params.gamma, params.beta, params.mu, params.nu,
                neumann_eigenvalues(interval, 1)[1], violation.sample["ubar0"],
                violation.sample["vlower0"], 1,
            )
            assert violation.lhs_name == "chi**_1_min"
            assert close(violation.lhs, 1e3 * ref.chi_ss1_min)
            rhs = {"chi*": critical_sensitivity(params, eq, interval)[0],
                   "chi_beta": ref.chi_beta}[violation.rhs_name]
            assert close(violation.rhs, rhs)

    def test_skipped_comes_from_the_applicability_mask(self, monkeypatch):
        original = thresholds._chi_double_star_values

        def half_gated(*args):
            entries = list(original(*args))
            value, applicable = entries[0]
            entries[0] = (value, applicable & (np.arange(value.size) % 2 == 0))
            return tuple(entries)

        monkeypatch.setattr(thresholds, "_chi_double_star_values", half_gated)
        report = verify_orderings(41, np.random.default_rng(5), parts=("1",))
        assert report.checked["1"] == 21
        assert report.skipped["1"] == 20

    def test_blocks_add_up_to_the_trial_count(self, monkeypatch):
        monkeypatch.setattr(thresholds, "ORDERING_BLOCK", 7)
        report = verify_orderings(30, np.random.default_rng(6))
        assert report.ok
        for part in PARTS:
            assert report.checked[part] + report.skipped[part] == 30

    def test_unknown_part_is_rejected(self):
        with pytest.raises(ValueError, match="unknown ordering parts"):
            verify_orderings(3, np.random.default_rng(0), parts=("5",))


class TestTrialCounts:
    def test_negative_counts_are_rejected(self):
        with pytest.raises(ValueError, match="trials must be >= 0"):
            check_power_diff_inequality(-1, np.random.default_rng(0))
        with pytest.raises(ValueError, match="trials must be >= 0"):
            verify_orderings(-3, np.random.default_rng(0))

    def test_zero_trials_check_nothing(self):
        assert check_power_diff_inequality(0, np.random.default_rng(0)) == 0
        report = verify_orderings(0, np.random.default_rng(0))
        assert report.ok
        assert report.checked == {part: 0 for part in PARTS}
        assert report.skipped == {part: 0 for part in PARTS}

    @pytest.mark.parametrize("counts", [("-5", "-3"), ("-1", "10"), ("10", "-1")])
    def test_cli_exits_2_on_a_negative_count(self, capsys, counts):
        code = main(["fuzz", "--trials", counts[0], "--ordering-trials", counts[1]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "ValueError"


class TestNoFloatingPointWarnings:
    def test_fuzzers_raise_no_runtime_warning(self):
        rng = np.random.default_rng(11)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert check_power_diff_inequality(100_000, rng) == 0
            assert verify_orderings(1000, rng).ok

    def test_cli_fuzz_defaults(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["fuzz"])
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert code == 0
        assert set(payload) == {
            "power_diff_trials", "power_diff_violations", "ordering_trials_per_part",
            "ordering_checked", "ordering_skipped", "ordering_violations",
        }
        assert payload["power_diff_trials"] == 100_000
        assert payload["power_diff_violations"] == 0
        assert payload["ordering_checked"] == {part: 1000 for part in PARTS}
        assert payload["ordering_skipped"] == {part: 0 for part in PARTS}
        assert payload["ordering_violations"] == []


def selected_block(part, size, seed):
    """A drawn block of `size` rows; parts 1-4 take m = 1 on every other row,
    as drawn_block does."""
    sample = thresholds._draw_ordering_block(part, size, np.random.default_rng(seed))
    if not part.startswith("minimal"):
        sample["m"][::2] = 1.0
    return sample


def check_bytes(checks, gated):
    pairs = [(ln, lhs.tobytes(), rn, rhs.tobytes()) for ln, lhs, rn, rhs in checks]
    return pairs, gated.tobytes()


def chi_ss_columns(sample):
    return tuple(sample[k] for k in (
        "a", "b", "m", "alpha", "gamma", "beta", "mu", "nu", "u_star", "v_star", "m0",
    ))


def minimal_columns(sample):
    lam_star = (math.pi / sample["length"]) ** 2 * unit_spectrum()[1]
    return (sample["u_star"], sample["gamma"], sample["beta"], sample["mu"], sample["nu"],
            lam_star, sample["ubar0"], sample["vlower0"], 1)


class TestPartSelection:
    """Each part evaluates only the threshold it compares, with the floats
    of the evaluation of all of them."""

    @pytest.mark.parametrize("size", (1, 7, 200, 4096))
    @pytest.mark.parametrize("part", PARTS)
    def test_checks_match_the_evaluation_of_every_threshold(self, monkeypatch, part, size):
        sample = selected_block(part, size, 12)
        unit = unit_spectrum()
        selected = check_bytes(*thresholds._ordering_checks(part, sample, unit))
        selectors = []

        def every_threshold(original, columns):
            def wrapper(*args):
                selectors.append(args[columns:])
                return original(*args[:columns])
            return wrapper

        monkeypatch.setattr(thresholds, "_chi_double_star_values",
                            every_threshold(thresholds._chi_double_star_values, 11))
        monkeypatch.setattr(thresholds, "_minimal_values",
                            every_threshold(thresholds._minimal_values, 9))
        assert check_bytes(*thresholds._ordering_checks(part, sample, unit)) == selected
        assert selectors == [((int(part[-1]),),)]

    @pytest.mark.parametrize("size", (1, 7, 200, 4096))
    @pytest.mark.parametrize("part", ("1", "2", "3", "4"))
    def test_chi_ss_entries_match_all_four(self, part, size):
        columns = chi_ss_columns(selected_block(part, size, 13))
        every = thresholds._chi_double_star_values(*columns)
        for k in (1, 2, 3, 4):
            entries = thresholds._chi_double_star_values(*columns, (k,))
            assert [e is None for e in entries] == [j != k for j in (1, 2, 3, 4)]
            (value, ok), (ref_value, ref_ok) = entries[k - 1], every[k - 1]
            assert value.tobytes() == ref_value.tobytes()
            assert ok.tobytes() == ref_ok.tobytes()

    @pytest.mark.parametrize("size", (1, 7, 200, 4096))
    @pytest.mark.parametrize("part", ("minimal-1", "minimal-2"))
    def test_minimal_values_match_both(self, part, size):
        columns = minimal_columns(selected_block(part, size, 14))
        chi1, chi2, cb, cap = thresholds._minimal_values(*columns)
        only1 = thresholds._minimal_values(*columns, (1,))
        only2 = thresholds._minimal_values(*columns, (2,))
        assert [x.tobytes() for x in (only1[0], only1[2], only1[3])] == [
            x.tobytes() for x in (chi1, cb, cap)
        ]
        assert only1[1] is None
        assert [x.tobytes() for x in (only2[1], only2[2])] == [
            x.tobytes() for x in (chi2, cb)
        ]
        assert only2[0] is None and only2[3] is None


class TestSkippedWork:
    """The constants a part's threshold does not read are never computed."""

    REACHED = {
        "1": {"power_diff_constant"},
        "2": {"power_diff_constant", "_bar_chi", "_v_lower_ab"},
        "3": set(),
        "4": {"_bar_chi", "_v_lower_ab"},
        "minimal-1": {"gamma_cap_minimal"},
        "minimal-2": set(),
    }

    @pytest.mark.parametrize("part", PARTS)
    def test_part_reaches_only_what_it_reads(self, monkeypatch, part):
        calls = {name: 0 for name in
                 ("power_diff_constant", "_bar_chi", "_v_lower_ab", "gamma_cap_minimal")}
        for name in calls:
            original = getattr(thresholds, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(thresholds, name, counted)
        report = verify_orderings(50, np.random.default_rng(15), parts=(part,))
        assert report.ok and report.checked[part] + report.skipped[part] == 50
        assert {name for name, count in calls.items() if count} == self.REACHED[part]


class TestRepeatedParts:
    @pytest.mark.parametrize("parts", [("1", "1"), ("3", "minimal-2", "3", "minimal-2")])
    def test_repeated_parts_are_refused_before_any_draw(self, parts):
        rng = np.random.default_rng(16)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="more than once") as info:
            verify_orderings(10, rng, parts=parts)
        for part in set(parts):
            assert repr(part) in str(info.value)
        assert rng.bit_generator.state == state


class TestUnitSpectrum:
    def test_table_is_read_only_and_the_analytic_one(self):
        table = thresholds._unit_spectrum()
        with pytest.raises(ValueError):
            table[1] = 2.0
        expected = neumann_eigenvalues(GridDomain.interval(math.pi, 8), thresholds.ORDERING_MODES)
        assert table.tobytes() == expected.tobytes()
        assert thresholds._unit_spectrum() is table

    def test_orderings_build_no_spectrum(self, monkeypatch):
        report = verify_orderings(20, np.random.default_rng(17))

        def refused(*args):
            raise AssertionError("neumann_eigenvalues called")

        monkeypatch.setattr(thresholds, "neumann_eigenvalues", refused)
        assert verify_orderings(20, np.random.default_rng(17)) == report


def broadcast_where(cond, then, *args, otherwise=None):
    """`_where` written straight through: broadcast everything, then fill
    each side from its gathered entries."""
    cond, *args = np.broadcast_arrays(cond, *args)
    out = np.full(cond.shape, math.nan)
    for side, func in ((cond, then), (~cond, otherwise)):
        if func is not None:
            at = np.nonzero(side)
            out[at] = func(*(x[at] for x in args))
    return out


class TestWhere:
    X = np.linspace(0.5, 3.0, 6)

    @staticmethod
    def same(cond, then, *args, otherwise=None):
        out = thresholds._where(cond, then, *args, otherwise=otherwise)
        ref = broadcast_where(cond, then, *args, otherwise=otherwise)
        assert out.shape == ref.shape and out.tobytes() == ref.tobytes()
        return out

    def test_scalar_with_array(self):
        out = self.same(self.X > 1.0, lambda s, x: s * x**0.5, 2.0, self.X,
                        otherwise=lambda s, x: -s)
        assert out[0] == -2.0 and out[-1] == 2.0 * 3.0**0.5

    def test_column_with_row(self):
        column = self.X[:, None]
        out = self.same(column > 1.5, lambda c, r: c / r, column, self.X)
        assert out.shape == (6, 6)
        assert np.isnan(out[0]).all() and not np.isnan(out[-1]).any()

    @pytest.mark.parametrize("held", (True, False))
    def test_uniform_condition_evaluates_one_side(self, held):
        def never(*args):
            raise AssertionError("a side with no entries was evaluated")

        def power(x, y):
            return x**y

        def difference(x, y):
            return x - y

        cond = np.full(self.X.shape, held)
        args = (self.X, self.X[::-1])
        for otherwise in (difference, None):
            ref = broadcast_where(cond, power, *args, otherwise=otherwise)
            if held:
                out = thresholds._where(cond, power, *args, otherwise=never)
            else:
                out = thresholds._where(cond, never, *args, otherwise=otherwise)
            assert out.tobytes() == ref.tobytes()


class TestSeedRefusal:
    def test_cli_names_a_negative_seed(self, capsys):
        code = main(["fuzz", "--seed", "-1", "--trials", "10", "--ordering-trials", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error["error"] == "ValueError"
        assert "--seed" in error["message"]
