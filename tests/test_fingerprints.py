"""The committed output fingerprints hold: every CLI command of
`fingerprints.COMMANDS`, every `chemostab scenario NAME`, and every
scenario trajectory's floats and counts are those recorded in
`fingerprints.json`.

Where the Python, numpy and scipy versions are those the file was made
with, the bytes must match. Elsewhere (older or newer wheels) the parsed
JSON and the array summaries must: strings, booleans, None and shapes
exactly, numbers within REL_TOL relative or ABS_TOL absolute.
"""

import json
import math

import pytest

import fingerprints
from chemostab.scenarios import SCENARIOS
from test_scenarios import cached_run

# The bounds of the cross-version path. Last-bit differences between BLAS
# or libm builds compound over a run's thousands of steps, and are
# expected to stay far below them.
REL_TOL = 1e-6
ABS_TOL = 1e-9

RECORD = json.loads(fingerprints.PATH.read_text())
SAME_VERSIONS = RECORD["versions"] == fingerprints.versions()


def close(expected, actual, path="") -> list[str]:
    """The paths at which two parsed JSON values differ beyond the bounds."""
    if expected is None or isinstance(expected, (bool, str)) or isinstance(actual, bool):
        return [] if type(expected) is type(actual) and expected == actual else [path]
    if isinstance(expected, (int, float)):
        if not isinstance(actual, (int, float)):
            return [path]
        if math.isnan(expected) or math.isnan(actual):
            return [] if math.isnan(expected) and math.isnan(actual) else [path]
        ok = math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=ABS_TOL)
        return [] if ok else [path]
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or list(expected) != list(actual):
            return [path]
        return [p for key in expected for p in close(expected[key], actual[key], f"{path}/{key}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            return [path]
        return [p for i, (e, a) in enumerate(zip(expected, actual))
                for p in close(e, a, f"{path}/{i}")]
    raise TypeError(f"unexpected {type(expected).__name__} at {path}")


def mismatches(expected: dict, actual: dict, exact: bool) -> list[str]:
    """The paths at which a fingerprint entry differs: every hash and exit
    code when `exact`, else every parsed value, shape and summary."""
    if exact:
        return close(expected, actual)
    return close(_without_hashes(expected), _without_hashes(actual))


def _without_hashes(entry):
    if isinstance(entry, dict):
        return {key: _without_hashes(value) for key, value in entry.items() if key != "sha256"}
    return entry


@pytest.fixture(scope="module")
def command_outputs(tmp_path_factory):
    return fingerprints.command_fingerprints(tmp_path_factory.mktemp("fingerprints"))


def test_the_record_covers_every_command_and_scenario():
    assert list(RECORD["commands"]) == list(fingerprints.COMMANDS)
    assert sorted(RECORD["scenarios"]) == sorted(SCENARIOS)


@pytest.mark.parametrize("exact", [SAME_VERSIONS, False],
                         ids=["this-platform", "parsed-json"])
def test_commands_match(command_outputs, exact):
    for command in fingerprints.COMMANDS:
        diff = mismatches(RECORD["commands"][command], command_outputs[command], exact)
        assert not diff, f"{command}: {diff}"


@pytest.mark.parametrize("exact", [SAME_VERSIONS, False],
                         ids=["this-platform", "parsed-json"])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenarios_match(name, exact):
    actual = fingerprints.scenario_fingerprint(name, cached_run(name))
    diff = mismatches(RECORD["scenarios"][name], actual, exact)
    assert not diff, f"scenario {name}: {diff}"


def test_a_last_bit_change_is_a_mismatch():
    entry = RECORD["scenarios"]["persistence"]["arrays"]["final_u"]
    changed = {**entry, "sha256": entry["sha256"][:-1] + ("0" if entry["sha256"][-1] != "0"
                                                          else "1")}
    assert mismatches(entry, changed, exact=True)
    assert not mismatches(entry, changed, exact=False)
    summary = [x * (1 + 2 * REL_TOL) for x in entry["summary"]]
    assert mismatches(entry, {**entry, "summary": summary}, exact=False)
