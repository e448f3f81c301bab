"""Every packaged scenario must run clean and report a passing verdict."""

import functools
import math
from unittest import mock

import pytest

from chemostab import scenarios
from chemostab.scenarios import SCENARIOS, _meets, _result, run_scenario

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

PDE_NAMES = EXPECTED_NAMES - {"thresholds-only", "sweep"}

VERDICT_KEYS = {"scenario", "theorem", "hypotheses_checked", "measured",
                "expected", "pass"}


@functools.cache
def recorded_run(name):
    """The scenario's result and its (run, init_state) call counts, each
    counted through the module-level name in `scenarios`. Each scenario
    runs once per session; every test below reads this one run."""
    with mock.patch.object(scenarios, "run", wraps=scenarios.run) as run, \
            mock.patch.object(scenarios, "init_state", wraps=scenarios.init_state) as init:
        result = run_scenario(name)
    return result, (run.call_count, init.call_count)


def cached_run(name):
    return recorded_run(name)[0]


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

    @pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
    def test_each_pde_run_goes_through_the_module_level_names(self, name):
        """perfbench's run recorder patches `scenarios.run` to check each
        trajectory, so a run that bypassed it would go unchecked."""
        count = 1 if name in PDE_NAMES else 0
        assert recorded_run(name)[1] == (count, count)


class TestPassRule:
    MEASURED = {"error": 1e-7, "verdict": "stable"}

    def verdict(self, expected, equal=()):
        return _result("s", "t", {}, self.MEASURED, expected, equal=equal).verdict

    def test_every_bound_is_checked(self):
        assert self.verdict({"error_max": 1e-6})["pass"] is True
        assert self.verdict({"error_max": 1e-8})["pass"] is False
        assert self.verdict({"error_min": 1e-6})["pass"] is False

    def test_other_entries_are_checked_only_when_named(self):
        expected = {"verdict": "unstable", "chi_star": 4.0}
        assert self.verdict(expected)["pass"] is True
        assert self.verdict(expected, equal=("verdict",))["pass"] is False


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
