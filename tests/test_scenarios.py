"""Every packaged scenario must run clean and report a passing verdict, and
each check must refuse a point outside its gates and pass at a second point."""

import contextlib
import functools
import itertools
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from chemostab import scenarios
from chemostab.core import GridDomain, InitSpec, equilibrium
from chemostab.diagnostics import HypothesisNotMet, persistence_metrics
from chemostab.integrator import StepConfig, Trajectory
from chemostab.scenarios import PRESETS, SCENARIOS, _meets, _result, run_scenario

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


# For each gate of each check, a change to its preset point that breaks it:
# coefficients, or the grid under the key "grid". A minimal point given to a
# logistic check, and the reverse, is refused by the model gate
# (`logistic_source` or `minimal_model`).
MINIMAL = {"a": 0.0, "b": 0.0}
LOGISTIC = {"a": 1.0, "b": 1.0}
REFUSALS = [
    ("persistence", MINIMAL, "logistic_source"),
    ("persistence", {"chi0": -1.0}, "positive_sensitivity"),
    ("persistence", {"beta": 0.5}, "beta_at_least_one"),
    ("persistence", {"chi0": 3.0}, "chi0_below_persistence_gate"),
    # The m > 1 floor needs chi0 > 0, where the m = 1 floor takes chi0 = 0.
    ("persistence", {"m": 2.0, "chi0": 0.0}, "chi0_below_persistence_gate"),
    ("negative-sensitivity", {"chi0": 1.0}, "non_positive_sensitivity"),
    ("negative-sensitivity", MINIMAL, "logistic_source"),
    ("stable-dichotomy", MINIMAL, "logistic_source"),
    ("stable-dichotomy", {"chi0": 5.0}, "chi0_below_chi_star"),
    ("unstable-dichotomy", MINIMAL, "logistic_source"),
    ("unstable-dichotomy", {"chi0": 3.0}, "chi0_above_chi_star"),
    ("lyapunov-i", MINIMAL, "logistic_source"),
    ("lyapunov-i", {"gamma": 1.5}, "power_balance"),
    ("lyapunov-i", {"chi0": 5.0}, "chi0_below_chi_ss1"),
    ("lyapunov-ii", MINIMAL, "logistic_source"),
    ("lyapunov-ii", {"beta": 0.5}, "beta_at_least_one"),
    ("lyapunov-ii", {"gamma": 1.5}, "power_balance"),
    ("lyapunov-ii", {"chi0": 5.0}, "chi0_below_chi_ss2"),
    ("rectangle-iii", MINIMAL, "logistic_source"),
    ("rectangle-iii", {"chi0": 1.0}, "chi0_below_chi_ss3"),
    ("rectangle-iii", {"gamma": 0.5}, "power_balance"),
    ("rectangle-iv", MINIMAL, "logistic_source"),
    ("rectangle-iv", {"chi0": 5.0}, "chi0_below_chi_ss4"),
    ("rectangle-iv", {"beta": 0.5}, "beta_at_least_one"),
    ("rectangle-iv", {"gamma": 1.2}, "power_balance"),
    ("minimal-entropy", LOGISTIC, "minimal_model"),
    ("minimal-entropy", {"beta": 0.5}, "beta_at_least_one"),
    ("minimal-entropy", {"chi0": 0.7}, "chi0_below_half_chi_beta"),
    # chi_beta = 5 at beta = 3: sqrt(5) < 2.3 < 5 / 2.
    ("minimal-entropy", {"chi0": 2.3, "beta": 3.0}, "chi0_below_sqrt_chi_beta"),
    # On [0, 10 pi] the first eigenvalue is 1/100, which lowers chi**_1.
    ("minimal-entropy", {"chi0": 0.4, "grid": GridDomain.interval(10 * math.pi, 64)},
     "chi0_below_chi_ss1_min_empirical"),
    ("minimal-akl", LOGISTIC, "minimal_model"),
    ("minimal-akl", {"gamma": 0.5}, "gamma_is_one"),
    ("minimal-akl", {"beta": 0.5}, "beta_at_least_one"),
    ("minimal-akl", {"chi0": 0.6}, "chi0_below_chi_ss2_min_empirical"),
    ("thresholds-only", MINIMAL, "logistic_source"),
    ("sweep", MINIMAL, "logistic_source"),
]

# Gates on the thresholds calibrated on the check's own run.
CALIBRATED = {"chi0_below_chi_ss1_min_empirical", "chi0_below_chi_ss2_min_empirical"}
MODEL_GATES = {"logistic_source", "minimal_model"}
# The minimal checks' gates read a calibration run; a short one will do.
SHORT_RUN = StepConfig(t_end=0.1, dt=1e-2, output_stride=5)

# A second point inside each PDE check's gates: changes to the preset's
# coefficients, and for lyapunov-i a smaller start.
SECOND_POINTS = {
    "persistence": {"chi0": 0.8, "beta": 1.5},
    "negative-sensitivity": {"chi0": -2.0, "beta": 0.5},
    "stable-dichotomy": {"chi0": 3.5},
    "unstable-dichotomy": {"chi0": 4.5},
    "lyapunov-i": {"chi0": 2.0},
    "lyapunov-ii": {"chi0": 0.2},
    "rectangle-iii": {"chi0": 0.2},
    "rectangle-iv": {"chi0": 0.3},
    "minimal-entropy": {"chi0": 0.2},
    "minimal-akl": {"chi0": 0.2},
}
SECOND_STARTS = {"lyapunov-i": InitSpec.perturbation(1.0, 0.2)}


class ReachedRun(Exception):
    """Raised in place of a check's PDE run, to see which points reach it."""


class TestChecks:
    def test_each_scenario_runs_its_preset(self):
        assert list(SCENARIOS) == list(PRESETS)
        for name, preset in PRESETS.items():
            call = SCENARIOS[name]
            assert call.args == (name, preset.params, preset.grid, preset.init, preset.cfg)

    @pytest.mark.parametrize("name, changes, gate", REFUSALS, ids=[
        f"{name}-{gate}" + (f"-m{changes['m']}" if "m" in changes else "")
        for name, changes, gate in REFUSALS])
    def test_a_point_that_breaks_a_gate_is_refused_naming_it(self, name, changes, gate):
        """Refused before any work the gate protects: no run unless the gate
        reads the run, and for a model gate no equilibrium or threshold."""
        preset = PRESETS[name]
        changes = dict(changes)
        grid = changes.pop("grid", preset.grid)
        cfg = SHORT_RUN if name.startswith("minimal") else preset.cfg
        watched = ("run", "equilibrium", "chi_double_star", "threshold_report")
        with contextlib.ExitStack() as stack:
            calls = {fn: stack.enter_context(
                mock.patch.object(scenarios, fn, wraps=getattr(scenarios, fn)))
                for fn in watched}
            with pytest.raises(HypothesisNotMet, match=rf"gate\(s\) failed: .*\b{gate}\b"):
                preset.check(name, replace(preset.params, **changes), grid, preset.init, cfg)
        assert calls["run"].call_count == (gate in CALIBRATED)
        if gate in MODEL_GATES:
            assert all(call.call_count == 0 for call in calls.values())

    def test_the_persistence_gate_is_the_floor_the_report_applies(self):
        """The check reaches its run exactly where chi0 > 0, beta >= 1 and
        `persistence_metrics` applies a density floor, at m = 1 and m > 1."""
        preset = PRESETS["persistence"]
        mismatches = []
        for m, beta, chi0 in itertools.product(
                (1.0, 1.5, 3.0), (0.0, 0.99, 1.0, 2.0), (-1.0, 0.0, 0.5, 1.99, 2.0, 2.5, 10.0)):
            params = replace(preset.params, m=m, beta=beta, chi0=chi0)
            stub = Trajectory(params=params, grid=preset.grid, eq=equilibrium(params),
                              times=np.arange(4.0), u_min=np.ones(4), v_min=np.ones(4))
            floor = persistence_metrics(stub, params).bound_case is not None
            with mock.patch.object(scenarios, "run", side_effect=ReachedRun):
                try:
                    preset.check("persistence", params, preset.grid, preset.init, preset.cfg)
                except ReachedRun:
                    reached = True
                except HypothesisNotMet:
                    reached = False
            if reached != (chi0 > 0.0 and beta >= 1.0 and floor):
                mismatches.append((m, beta, chi0, reached))
        assert mismatches == []

    @pytest.mark.parametrize("m, floor", [(1.5, 0.25), (2.0, 0.5)])
    def test_persistence_passes_past_the_m_1_cap_at_m_above_1(self, m, floor):
        # chi0 = 3 is past the m = 1 cap a / (mu Theta_0) = 2; the m > 1
        # floor (a / (b + chi0 mu Theta_0))^max{1/(m-1), 1/alpha} applies.
        preset = PRESETS["persistence"]
        params = replace(preset.params, m=m, chi0=3.0)
        verdict = preset.check("persistence", params, preset.grid, preset.init,
                               preset.cfg).verdict
        assert verdict["expected"]["u_floor"] == floor
        assert verdict["pass"] is True, verdict["measured"]

    @pytest.mark.parametrize("init", [
        InitSpec.constant(1.0),
        InitSpec.perturbation(2.0, 0.25),
        InitSpec.from_array(np.full(64, 1.0)),
    ], ids=["constant", "about-2", "array"])
    def test_the_rectangle_needs_a_perturbation_about_u_star(self, init):
        preset = PRESETS["rectangle-iii"]
        with mock.patch.object(scenarios, "run") as run, \
                pytest.raises(ValueError, match="perturbation about u\\* = 1.0") as raised:
            preset.check("rectangle-iii", preset.params, preset.grid, init, preset.cfg)
        assert raised.type is ValueError
        run.assert_not_called()

    @pytest.mark.parametrize("name", sorted(PDE_NAMES))
    def test_each_pde_check_passes_at_a_second_point(self, name):
        preset = PRESETS[name]
        params = replace(preset.params, **SECOND_POINTS[name])
        init = SECOND_STARTS.get(name, preset.init)
        result = preset.check(name, params, GridDomain.interval(math.pi, 128), init, preset.cfg)
        assert result.trajectory.grid.cells == (128,)
        assert result.verdict["pass"] is True, result.verdict["measured"]


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
