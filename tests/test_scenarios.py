"""Every packaged scenario must run clean and report a passing verdict."""

import functools
import math

import pytest

from chemostab.scenarios import SCENARIOS, _meets, run_scenario

EXPECTED_NAMES = {
    "persistence",
    "negative-sensitivity",
    "stable-dichotomy",
    "unstable-dichotomy",
    "lyapunov-i",
    "lyapunov-ii",
    "rectangle-iii",
    "rectangle-iv",
    "minimal-entropy",
    "minimal-akl",
    "thresholds-only",
    "sweep",
}

VERDICT_KEYS = {"scenario", "theorem", "hypotheses_checked", "measured",
                "expected", "pass"}

# Each scenario runs once per session; both verdict tests read its result.
cached_run = functools.cache(run_scenario)


class TestRegistry:
    def test_registry_names(self):
        assert set(SCENARIOS) == EXPECTED_NAMES

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="persistence"):
            run_scenario("nonexistent")


class TestRuns:
    @pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
    def test_scenario_passes(self, name):
        result = cached_run(name)
        assert result.name == name
        assert VERDICT_KEYS <= set(result.verdict)
        assert result.verdict["pass"] is True, result.verdict["measured"]

    @pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
    def test_passing_verdict_meets_its_bounds(self, name):
        verdict = cached_run(name).verdict
        measured, expected = verdict["measured"], verdict["expected"]
        if verdict["pass"]:
            for key, bound in expected.items():
                stem = key[:-4]
                if key.endswith("_max") and stem in measured:
                    assert measured[stem] <= bound, key
                elif key.endswith("_min") and stem in measured:
                    assert measured[stem] >= bound, key

class TestMeets:
    MEASURED = {"error": 1e-7, "growth": 12.0, "verdict": "stable", "rate": math.nan}

    def test_max_bounds_from_above(self):
        assert _meets(self.MEASURED, {"error_max": 1e-6}, "error_max")
        assert _meets(self.MEASURED, {"error_max": 1e-7}, "error_max")
        assert not _meets(self.MEASURED, {"error_max": 1e-8}, "error_max")

    def test_min_bounds_from_below(self):
        assert _meets(self.MEASURED, {"growth_min": 10.0}, "growth_min")
        assert _meets(self.MEASURED, {"growth_min": 12.0}, "growth_min")
        assert not _meets(self.MEASURED, {"growth_min": 13.0}, "growth_min")

    def test_other_keys_must_equal(self):
        assert _meets(self.MEASURED, {"verdict": "stable"}, "verdict")
        assert not _meets(self.MEASURED, {"verdict": "unstable"}, "verdict")

    def test_nan_meets_no_bound(self):
        expected = {"rate_max": math.inf, "rate_min": -math.inf, "rate": math.nan}
        for key in expected:
            assert not _meets(self.MEASURED, expected, key)

    def test_every_named_entry_is_checked(self):
        expected = {"error_max": 1e-6, "growth_min": 13.0, "verdict": "stable"}
        assert _meets(self.MEASURED, expected, "error_max", "verdict")
        assert not _meets(self.MEASURED, expected, "error_max", "growth_min", "verdict")
        assert _meets(self.MEASURED, expected)

    def test_unnamed_entries_are_not_checked(self):
        expected = {"error_max": 1e-6, "chi_star": 4.0}
        assert _meets(self.MEASURED, expected, "error_max")
