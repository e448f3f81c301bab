"""Output fingerprints: the CLI's bytes and every scenario's floats.

`fingerprints.json`, next to this file, records for a fixed list of CLI
commands the exit code and the SHA-256 of stdout and of stderr, with both
streams parsed as JSON; and for every scenario with a trajectory the hash
of each `SERIES` column and of the final u and v, with their shapes and a
few summary values, and the step and clip counts. It also records the
Python, numpy and scipy versions it was made with. `test_fingerprints.py`
recomputes every entry and compares.

Rewrite the file from the current tree with

    PYTHONPATH=src python tests/fingerprints.py

A change that rewrites an entry says which one, and why, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import scipy

from chemostab import cli
from chemostab.integrator import SERIES

PATH = Path(__file__).with_name("fingerprints.json")

_COEFFICIENTS = "chi0 = 0.3\nbeta = 1\nm = 1\nalpha = 1\ngamma = 1\nmu = 1\nnu = 1\n"
_LOGISTIC = _COEFFICIENTS + "a = 1\nb = 1\n"
_MINIMAL = _COEFFICIENTS + "a = 0\nb = 0\n"
_INTERVAL = "domain.dimension = 1\ndomain.lengths = 3.141592653589793\ndomain.cells = 64\n"
_RECTANGLE = "domain.dimension = 2\ndomain.lengths = 3.141592653589793, 2\ndomain.cells = 16, 12\n"
_RUN = "run.t_end = 0.5\nrun.dt = 5e-3\n"
_BUMP = "init.kind = perturbation\ninit.amplitude = 0.2\n"

# Config files by name; "{dir}" is the directory they are written to.
CONFIGS = {
    "log1d.cfg": _LOGISTIC + _INTERVAL + _BUMP + _RUN,
    "log2d.cfg": _LOGISTIC + _RECTANGLE + _BUMP + _RUN,
    "log_ustar.cfg": _LOGISTIC + _INTERVAL + _BUMP + "init.u_star = 1.1\n" + _RUN,
    "min_array.cfg": _MINIMAL + _INTERVAL + "init.kind = array\ninit.path = {dir}/u0.npy\n" + _RUN,
    "min_ustar.cfg": _MINIMAL + _INTERVAL + _BUMP + "init.u_star = 1.2\n" + _RUN,
    "min_bare.cfg": _MINIMAL + _INTERVAL,
}
CONFIGS["sweep_min_array.cfg"] = (CONFIGS["min_array.cfg"]
                                  + "sweep.parameter = chi0\nsweep.values = 0.5, 1, 2, 4\n")
CONFIGS["sweep_log1d.cfg"] = (CONFIGS["log1d.cfg"]
                              + "sweep.parameter = chi0\nsweep.values = 0.3, 3.9, 4.1\n")
CONFIGS["sweep_min_ustar_mu.cfg"] = (CONFIGS["min_ustar.cfg"]
                                     + "sweep.parameter = mu\nsweep.values = 0.5, 1, 2\n")

# Every command but `scenario NAME`, which runs for each name in SCENARIOS;
# a word ending in .cfg names a file of CONFIGS.
COMMANDS = (
    "simulate --config log1d.cfg",
    "simulate --config log2d.cfg",
    "simulate --config min_array.cfg",
    "simulate --config min_ustar.cfg",
    "simulate --config log_ustar.cfg",
    "stability --config log1d.cfg",
    "stability --config log2d.cfg",
    "stability --config min_array.cfg",
    "stability --config min_ustar.cfg",
    "stability --config log1d.cfg --discrete-check",
    "thresholds --config log1d.cfg --stub-c-star",
    "thresholds --config log1d.cfg --discrete-m0",
    "thresholds --config log2d.cfg --discrete-m0",
    "thresholds --config min_array.cfg",
    "thresholds --config min_ustar.cfg",
    "thresholds --config min_bare.cfg",
    "sweep --config sweep_min_array.cfg",
    "sweep --config sweep_log1d.cfg",
    "sweep --config sweep_min_ustar_mu.cfg",
    "rectangle --config log1d.cfg --tau-end 5",
    "fuzz --seed 0 --trials 20000 --ordering-trials 200",
)


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def write_configs(directory: Path) -> None:
    """CONFIGS and the initial density u0.npy that min_array.cfg loads."""
    np.save(directory / "u0.npy", 1.0 + 0.2 * np.cos(np.linspace(0.0, np.pi, 64)))
    for name, text in CONFIGS.items():
        (directory / name).write_text(text.format(dir=directory))


def _stream(text: str) -> dict:
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(),
            "json": json.loads(text) if text.strip() else None}


def cli_fingerprint(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of `chemostab ARGV`, run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"exit_code": code, "stdout": _stream(out.getvalue()),
            "stderr": _stream(err.getvalue())}


def command_fingerprints(directory: Path) -> dict[str, dict]:
    """The fingerprint of every command of COMMANDS, its configs in `directory`."""
    write_configs(directory)
    return {
        command: cli_fingerprint([str(directory / word) if word.endswith(".cfg") else word
                                  for word in command.split()])
        for command in COMMANDS
    }


def scenario_fingerprint(name: str, result) -> dict:
    """`chemostab scenario NAME`, printing `result`, and the floats and counts
    of its trajectory, if it has one."""
    with mock.patch.object(cli, "run_scenario", lambda _: result):
        entry = {"cli": cli_fingerprint(["scenario", name])}
    traj = result.trajectory
    if traj is not None:
        arrays = {column: getattr(traj, column) for column in SERIES}
        arrays["final_u"] = traj.final_state.u
        arrays["final_v"] = traj.final_state.v
        entry["arrays"] = {key: array_fingerprint(value) for key, value in arrays.items()}
        entry["counts"] = {"steps_taken": traj.steps_taken,
                           "steps_integrated": traj.steps_integrated,
                           "clip_count": traj.clip_count}
    return entry


def array_fingerprint(values) -> dict:
    """The bytes' hash, the shape and five summary values of a float array."""
    array = np.ascontiguousarray(values, dtype=float)
    flat = array.ravel()
    return {"sha256": hashlib.sha256(array.tobytes()).hexdigest(),
            "shape": list(array.shape),
            "summary": [float(x) for x in (flat[0], flat[-1], flat.min(), flat.max(),
                                           flat.mean())]}


def main() -> int:
    from chemostab.scenarios import SCENARIOS, run_scenario

    with tempfile.TemporaryDirectory() as directory:
        commands = command_fingerprints(Path(directory))
    record = {
        "versions": versions(),
        "commands": commands,
        "scenarios": {name: scenario_fingerprint(name, run_scenario(name))
                      for name in sorted(SCENARIOS)},
    }
    PATH.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {PATH}: {len(commands)} commands, {len(SCENARIOS)} scenarios",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
