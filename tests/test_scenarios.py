"""Every packaged scenario must run clean and report a passing verdict."""

import pytest

from chemostab.scenarios import SCENARIOS, run_scenario

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


class TestRegistry:
    def test_registry_names(self):
        assert set(SCENARIOS) == EXPECTED_NAMES

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="persistence"):
            run_scenario("nonexistent")


class TestRuns:
    @pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
    def test_scenario_passes(self, name):
        result = run_scenario(name)
        assert result.name == name
        assert VERDICT_KEYS <= set(result.verdict)
        assert result.verdict["pass"] is True, result.verdict["measured"]
