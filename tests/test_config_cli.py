"""Config parsing and the JSON command-line front end."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

import chemostab.cli
from chemostab import GridDomain, gradient_constant, stability
from chemostab.cli import jsonable, main
from chemostab.config import (
    KEYS,
    ConfigError,
    grid_from_config,
    init_from_config,
    params_from_config,
    parse_config_text,
    read_config,
    required,
    step_config_from_config,
)
from chemostab.core import PARAM_FIELDS, Equilibrium
from chemostab.integrator import StepConfig
from chemostab.stability import PROVING_MODES_CAP, SWEEP_CELL_LIMIT
from chemostab.thresholds import c_star_from_table, default_c_star_stub
from conftest import REFERENCE, make_params

BASE_CFG = """
# model coefficients
chi0 = {chi0}
beta = {beta}
m = {m}
alpha = {alpha}
gamma = {gamma}
a = {a}
b = {b}
mu = {mu}
nu = {nu}

domain.dimension = 1
domain.lengths = 3.141592653589793
domain.cells = 64

init.kind = perturbation
init.amplitude = 0.01
init.mode = 1

run.t_end = 0.2
run.dt = 1e-3
run.output_stride = 20
"""


def write_cfg(tmp_path, name="run.cfg", text=None, **overrides):
    merged = {**REFERENCE, **overrides}
    path = tmp_path / name
    path.write_text(text if text is not None else BASE_CFG.format(**merged))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    error = json.loads(captured.err) if captured.err.strip() else None
    return code, payload, error


class TestParsing:
    def test_comments_and_blanks_ignored(self):
        cfg = parse_config_text("a = 1  # trailing\n\n# full line\nb = 2\n")
        assert cfg == {"a": "1", "b": "2"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("a = 1\na = 2\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just words\n")

    def test_empty_value_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            parse_config_text("a =\n")

    def test_read_config(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("domain.dimension = 3\n")
        assert read_config(path) == {"domain.dimension": 3}


class TestTypedConfig:
    def test_typed_access(self, tmp_path):
        cfg = read_config(write_cfg(tmp_path, text="mu = 2.5\nrun.output_stride = 7\n"
                                                   "init.path = text\n"))
        assert cfg == {"mu": 2.5, "run.output_stride": 7, "init.path": "text"}
        assert type(cfg["run.output_stride"]) is int

    def test_base_config_has_the_types_of_keys(self, tmp_path):
        cfg = read_config(write_cfg(tmp_path))
        assert set(cfg) <= set(KEYS)
        for key, value in cfg.items():
            kind = KEYS[key]
            if isinstance(kind, tuple):
                assert type(value) is tuple and value
                assert all(type(entry) is kind[0] for entry in value), key
            elif typing.get_origin(kind) is typing.Literal:
                assert value in typing.get_args(kind), key
            else:
                assert type(value) is kind, key

    def test_every_step_config_field_is_a_run_key(self):
        hints = typing.get_type_hints(StepConfig)
        assert [f.name for f in dataclasses.fields(StepConfig)] == list(hints)
        for name, kind in hints.items():
            assert KEYS[f"run.{name}"] is kind
        assert {key for key in KEYS if key.startswith("run.")} == {f"run.{name}" for name in hints}

    def test_defaults_and_missing(self):
        assert init_from_config({"init.kind": "perturbation", "init.u_star": 1.0}).amplitude == 0.0
        assert required({"x": 1.5}, "x") == 1.5
        with pytest.raises(ConfigError, match="missing required key 'x'"):
            required({}, "x")
        with pytest.raises(ConfigError, match="missing"):
            grid_from_config({"domain.dimension": 1})

    def test_parse_failures(self, tmp_path):
        with pytest.raises(ConfigError, match="key 'mu': cannot parse 'abc' as float"):
            read_config(write_cfg(tmp_path, text="mu = abc\n"))
        with pytest.raises(ConfigError, match="cannot parse 'maybe' as bool"):
            read_config(write_cfg(tmp_path, text="run.t_end = 1\nrun.store_snapshots = maybe\n"))

    def test_lists(self, tmp_path):
        cfg = read_config(write_cfg(tmp_path, text="domain.lengths = 1.0, 2.5 ,3\n"
                                                   "domain.cells = 4, 5\n"))
        assert cfg["domain.lengths"] == (1.0, 2.5, 3.0)
        assert cfg["domain.cells"] == (4, 5)
        cfg = read_config(write_cfg(tmp_path, text="domain.cells = 4\n"))
        assert cfg["domain.cells"] == (4,)


class TestBuilders:
    def test_params_roundtrip(self, tmp_path):
        cfg = read_config(write_cfg(tmp_path))
        assert params_from_config(cfg) == make_params()

    def test_params_missing_listed(self):
        with pytest.raises(ConfigError, match="beta"):
            params_from_config({"chi0": 1.0})

    def test_grid(self, tmp_path):
        cfg = read_config(write_cfg(tmp_path))
        grid = grid_from_config(cfg)
        assert grid.dimension == 1
        assert grid.cells == (64,)

    def test_grid_mismatched_entries(self):
        cfg = {"domain.dimension": 2, "domain.lengths": (1.0,),
               "domain.cells": (8, 8)}
        with pytest.raises(ConfigError, match="entries"):
            grid_from_config(cfg)

    def test_init_kinds(self, tmp_path):
        assert init_from_config({"init.kind": "constant", "init.value": 2.0}).value == 2.0
        spec = init_from_config({"init.kind": "perturbation"}, base_u_star=1.5)
        assert spec.u_star == 1.5
        with pytest.raises(ConfigError, match="missing"):
            init_from_config({"init.kind": "perturbation"})
        with pytest.raises(ConfigError, match="init.kind"):
            init_from_config({"init.kind": "wavelet"})

    def test_init_array_from_file(self, tmp_path):
        path = tmp_path / "u0.npy"
        np.save(path, np.full(64, 1.25))
        spec = init_from_config({"init.kind": "array", "init.path": str(path)})
        assert spec.array.shape == (64,)
        with pytest.raises(ConfigError, match="init.path"):
            init_from_config({"init.kind": "array", "init.path": "/nonexistent.npy"})

    def test_step_config_defaults_and_errors(self):
        cfg = step_config_from_config({"run.t_end": 1.0})
        assert cfg.dt == 1e-3 and cfg.output_stride == 10
        with pytest.raises(ConfigError):
            step_config_from_config({"run.t_end": -1.0})
        with pytest.raises(ConfigError, match="missing"):
            step_config_from_config({})

    def test_step_config_defaults_come_from_step_config(self, tmp_path):
        assert step_config_from_config({"run.t_end": 2.5}) == StepConfig(t_end=2.5)
        cfg = step_config_from_config(read_config(write_cfg(
            tmp_path, text="run.t_end = 1\nrun.dt_policy = cfl\nrun.store_snapshots = yes\n")))
        assert cfg == StepConfig(t_end=1.0, dt_policy="cfl", store_snapshots=True)
        cfg = step_config_from_config(read_config(write_cfg(
            tmp_path, text="run.t_end = 1\nrun.store_snapshots = 0\n")))
        assert cfg.store_snapshots is False


class TestJsonable:
    def test_infinities_become_strings(self):
        assert jsonable(math.inf) == "inf"
        assert jsonable(-math.inf) == "-inf"
        assert jsonable(1.5) == 1.5

    def test_containers_and_arrays(self):
        out = jsonable({"a": np.array([1.0, math.inf]), "b": (1, 2)})
        assert out == {"a": [1.0, "inf"], "b": [1, 2]}

    def test_dataclass_to_dict(self):
        assert jsonable(Equilibrium(2.0, 1.0)) == {"u_star": 2.0, "v_star": 1.0}

    def test_c_star_source_leaves_out_its_callable(self):
        stub = jsonable(default_c_star_stub())
        assert stub == {"nonrigorous": True,
                        "description": "stub C*_{N,p} = 1 (nonrigorous placeholder)"}
        table = jsonable(c_star_from_table([(1.5, 2.0), (10.0, 3.0)]))
        assert table == {"nonrigorous": False, "description": "user table"}

    def test_numpy_scalars(self):
        assert jsonable(np.float64(2.0)) == 2.0
        assert jsonable(np.int32(3)) == 3


class TestSimulateCommand:
    def test_completed_run(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        csv = str(tmp_path / "traj.csv")
        code, payload, _ = run_cli(capsys, "simulate", "--config", cfg, "--csv", csv)
        assert code == 0
        assert payload["status"] == "completed"
        assert payload["steps"] == payload["steps_integrated"] == 200
        assert payload["positivity_clips"] == 0
        header = open(csv).readline().strip()
        assert header == "t,u_min,u_max,v_min,v_max,mass,err_inf,lyapunov,dissipation"

    def test_a_run_at_the_equilibrium_stops_integrating(self, tmp_path, capsys):
        # u* = 1 is a fixed point of the step by the first sample, at step 20.
        text = BASE_CFG.format(**REFERENCE).replace(
            "init.kind = perturbation", "init.kind = constant"
        ).replace("init.amplitude = 0.01", "init.value = 1")
        code, payload, _ = run_cli(capsys, "simulate", "--config", write_cfg(tmp_path, text=text))
        assert code == 0
        assert (payload["steps"], payload["steps_integrated"]) == (200, 20)

    def test_blowup_exit_code(self, tmp_path, capsys):
        text = BASE_CFG.format(**REFERENCE).replace(
            "init.kind = perturbation", "init.kind = constant"
        ).replace("init.amplitude = 0.01", "init.value = 0.9")
        text += "run.blowup_cap = 0.95\n"
        text = text.replace("run.t_end = 0.2", "run.t_end = 5.0")
        cfg = write_cfg(tmp_path, text=text)
        code, payload, _ = run_cli(capsys, "simulate", "--config", cfg)
        assert code == 1
        assert payload["status"] == "blowup"
        assert payload["cap"] == 0.95
        assert 0.0 < payload["time"] < 5.0

    @staticmethod
    def overflow_cfg(tmp_path, m, alpha):
        """A cfl run from a density with one cell at 1e200, whose power
        overflows in the step bound before the first step."""
        u0 = np.ones(64)
        u0[10] = 1e200
        np.save(tmp_path / "u0.npy", u0)
        text = BASE_CFG.format(**{**REFERENCE, "m": m, "alpha": alpha}).replace(
            "init.kind = perturbation", "init.kind = array").replace(
            "init.amplitude = 0.01", f"init.path = {tmp_path / 'u0.npy'}")
        return write_cfg(tmp_path, text=text + "run.dt_policy = cfl\n")

    @pytest.mark.parametrize("m, alpha", [(1, 2), (3, 1)], ids=["u_max^alpha", "u_max^(m-1)"])
    def test_a_step_bound_that_overflows_exits_2(self, tmp_path, capsys, m, alpha):
        # A finite density whose power overflows in the cfl bound is a
        # degenerate state, with the default blow-up cap too.
        cfg = self.overflow_cfg(tmp_path, m, alpha)
        with np.errstate(over="ignore", invalid="ignore"):
            code, payload, error = run_cli(capsys, "simulate", "--config", cfg)
        assert code == 2
        assert payload is None
        assert error["error"] == "DegenerateState"
        assert "overflows" in error["message"]

    def test_an_overflow_leaves_one_json_document_on_stderr(self, tmp_path):
        """numpy's overflow warning would print ahead of the error's JSON.
        pytest captures warnings in its own process, so the command runs in
        a child process."""
        cfg = self.overflow_cfg(tmp_path, 1, 2)
        src = str(Path(chemostab.cli.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-m", "chemostab.cli", "simulate", "--config", cfg],
                              env={**os.environ, "PYTHONPATH": src}, capture_output=True)
        assert done.returncode == 2
        assert done.stdout == b""
        assert json.loads(done.stderr)["error"] == "DegenerateState"

    def test_blowup_names_the_cell(self, tmp_path, capsys):
        # Without chemotaxis the mode-1 start keeps its peak in cell 0.
        text = BASE_CFG.format(**{**REFERENCE, "chi0": 0.0}).replace(
            "init.amplitude = 0.01", "init.amplitude = 0.5")
        cfg = write_cfg(tmp_path, text=text + "run.blowup_cap = 1.2\n")
        code, payload, _ = run_cli(capsys, "simulate", "--config", cfg)
        assert code == 1
        assert payload["status"] == "blowup"
        assert payload["cell"] == [0]

    def test_mode_longer_than_dimension_exits_2(self, tmp_path, capsys):
        text = BASE_CFG.format(**REFERENCE).replace("init.mode = 1", "init.mode = 1, 2")
        cfg = write_cfg(tmp_path, text=text)
        code, payload, error = run_cli(capsys, "simulate", "--config", cfg)
        assert code == 2
        assert payload is None
        assert error["error"] == "ValueError"
        assert "mode (1, 2)" in error["message"]
        assert "1D grid" in error["message"]

    def test_grid_budget_enforced(self, tmp_path, capsys):
        text = BASE_CFG.format(**REFERENCE).replace(
            "domain.cells = 64", f"domain.cells = {(1 << 20) + 1}"
        )
        cfg = write_cfg(tmp_path, text=text)
        code, payload, error = run_cli(capsys, "simulate", "--config", cfg)
        assert code == 2
        assert error["error"] == "GridTooLarge"

    @pytest.mark.parametrize("command", ["simulate", "stability", "thresholds",
                                         "rectangle", "sweep"])
    def test_misspelt_keys_rejected(self, tmp_path, capsys, command):
        text = BASE_CFG.format(**REFERENCE) + "run.dt_polcy = cfl\nrun.output_strid = 5\n"
        cfg = write_cfg(tmp_path, text=text)
        code, payload, error = run_cli(capsys, command, "--config", cfg)
        assert code == 2
        assert payload is None
        assert error["error"] == "ConfigError"
        assert "'run.dt_polcy'" in error["message"]
        assert "'run.output_strid'" in error["message"]

    @pytest.mark.parametrize("command", ["simulate", "stability", "thresholds",
                                         "rectangle", "sweep"])
    @pytest.mark.parametrize("line, key, problem", [
        ("run.dt = abc", "run.dt", "cannot parse 'abc' as float"),
        ("init.amplitude = zz", "init.amplitude", "cannot parse 'zz' as float"),
        ("sweep.values = x, y", "sweep.values", "cannot parse 'x' as float"),
        ("run.output_stride = 2.5", "run.output_stride", "cannot parse '2.5' as int"),
        ("run.dt_policy = foo", "run.dt_policy", "'foo' is not one of fixed, cfl"),
        ("init.kind = wavelet", "init.kind",
         "'wavelet' is not one of constant, perturbation, array"),
        ("sweep.parameter = cells", "sweep.parameter",
         f"'cells' is not one of {', '.join(PARAM_FIELDS)}"),
    ], ids=["run.dt", "init.amplitude", "sweep.values", "run.output_stride",
            "run.dt_policy", "init.kind", "sweep.parameter"])
    def test_malformed_values_rejected_by_every_command(self, tmp_path, capsys, command,
                                                        line, key, problem):
        # Each command exits 2 on a malformed or unknown value, read or not:
        # stability and rectangle read no run.* or init.* key, and only sweep
        # reads sweep.*.
        rows = [row for row in BASE_CFG.format(**REFERENCE).splitlines()
                + ["sweep.parameter = chi0", "sweep.values = 3.9, 4.1"]
                if not row.startswith(f"{key} ")]
        cfg = write_cfg(tmp_path, text="\n".join(rows + [line]) + "\n")
        code, payload, error = run_cli(capsys, command, "--config", cfg)
        assert (code, payload) == (2, None)
        assert error == {"error": "ConfigError", "message": f"key {key!r}: {problem}"}

    @pytest.mark.parametrize("key, value", [
        ("t_end", "nan"), ("t_end", "inf"), ("dt", "nan"), ("dt", "inf"),
        ("positivity_floor", "nan"), ("positivity_floor", "inf"), ("blowup_cap", "nan"),
    ])
    def test_non_finite_run_keys_rejected(self, tmp_path, capsys, key, value):
        text = BASE_CFG.format(**REFERENCE)
        text = "\n".join(line for line in text.splitlines()
                         if not line.startswith(f"run.{key} "))
        cfg = write_cfg(tmp_path, text=text + f"\nrun.{key} = {value}\n")
        code, payload, error = run_cli(capsys, "simulate", "--config", cfg)
        assert code == 2
        assert payload is None
        assert error["error"] == "ConfigError"
        assert key in error["message"]

    @pytest.mark.parametrize("t_end, dt", [("1.0", "5e-324"), ("1e300", "1e-300")])
    def test_overflowing_fixed_step_count_rejected(self, tmp_path, capsys, t_end, dt):
        text = BASE_CFG.format(**REFERENCE)
        text = "\n".join(line for line in text.splitlines()
                         if not line.startswith(("run.t_end ", "run.dt ", "run.dt_policy ")))
        cfg = write_cfg(tmp_path, text=text + f"\nrun.t_end = {t_end}\nrun.dt = {dt}\n")
        code, payload, error = run_cli(capsys, "simulate", "--config", cfg)
        assert code == 2
        assert payload is None
        assert error["error"] == "ConfigError"
        assert "t_end / dt" in error["message"]

    def test_missing_config_file(self, capsys):
        code, payload, error = run_cli(capsys, "simulate", "--config", "/no/such.cfg")
        assert code == 2
        assert error is not None


class TestAnalysisCommands:
    def test_stability_report(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        code, payload, _ = run_cli(capsys, "stability", "--config", cfg)
        assert code == 0
        assert payload["chi_star"] == pytest.approx(4.0, rel=1e-12)
        assert payload["verdict"] == "stable"
        assert payload["equilibrium"] == {"u_star": 1.0, "v_star": 1.0}

    @pytest.mark.parametrize("extra", [[], ["--discrete-check"]])
    def test_stability_report_keys_and_order(self, tmp_path, capsys, extra):
        cfg = write_cfg(tmp_path)
        code, payload, _ = run_cli(capsys, "stability", "--config", cfg, *extra)
        assert code == 0
        keys = ["equilibrium", "chi_star", "argmin_mode", "verdict", "sigma_zero",
                "sigma_max", "fastest_mode"]
        assert list(payload) == keys + ["discrete_check"] * bool(extra)
        assert (payload["argmin_mode"], payload["fastest_mode"]) == (1, 1)

    def test_stability_needs_only_the_modes_up_to_lam0(self, tmp_path, capsys):
        # a = 4: lam0 = sqrt(a alpha mu) = 2 lies between modes 1 and 2 of
        # [0, pi], so the table stability proves it from holds five modes,
        # the window of four about lam0 and one past it, and gives what a
        # thousand give.
        cfg = write_cfg(tmp_path, a=4.0)
        code, payload, _ = run_cli(capsys, "stability", "--config", cfg)
        assert code == 0
        assert (payload["chi_star"], payload["verdict"]) == (2.5, "stable")
        assert len(stability._proving_table(GridDomain.interval(math.pi, 64), 2.0)) == 6

    @pytest.mark.parametrize("command", ["stability", "sweep"])
    def test_the_table_reaches_the_peak_of_sigma(self, tmp_path, capsys, command):
        # chi0 = 4000, beta = 1: sigma peaks between modes 6 and 7 of [0, pi].
        # A table of four modes would report mode 3's sigma as the maximum.
        text = BASE_CFG.format(**{**REFERENCE, "chi0": 4000.0, "beta": 1.0})
        text += "sweep.parameter = chi0\nsweep.values = 1, 4000\n"
        cfg = write_cfg(tmp_path, text=text)
        code, payload, _ = run_cli(capsys, command, "--config", cfg)
        assert code == 0
        report = payload if command == "stability" else payload["rows"][1]
        assert report["sigma_max"] == 1910.0
        if command == "stability":
            assert payload["fastest_mode"] == 7

    @pytest.mark.parametrize("dimension, lengths, cells, chi0, mode", [
        (1, "3.141592653589793", "64", "1e13", 1495),
        (2, "3.141592653589793, 2", "16, 12", "1e7", 1156),
    ], ids=["interval", "rectangle"])
    def test_a_large_chi0_takes_the_modes_it_needs(self, tmp_path, capsys, dimension,
                                                   lengths, cells, chi0, mode):
        # sigma peaks beyond mode 1000, which the CLI's fixed table ended at.
        cfg = write_cfg(tmp_path, text=self.large_chi0_cfg(dimension, lengths, cells, chi0))
        code, payload, error = run_cli(capsys, "stability", "--config", cfg)
        assert (code, error) == (0, None)
        assert payload["fastest_mode"] == mode
        assert payload["verdict"] == "unstable"

    def test_a_peak_beyond_the_cap_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, text=self.large_chi0_cfg(1, "3.141592653589793", "64", "1e300"))
        code, payload, error = run_cli(capsys, "stability", "--config", cfg)
        assert (code, payload) == (2, None)
        assert error["error"] == "SpectrumTooShort"
        assert "lambda = 7.071067811865476e+149" in error["message"]
        assert f"first {PROVING_MODES_CAP} Neumann modes" in error["message"]

    def test_thresholds_reads_no_peak_of_sigma(self, tmp_path, capsys):
        # The report prints chi* and no sigma, so a peak beyond the cap is
        # no reason to refuse it.
        cfg = write_cfg(tmp_path, text=self.large_chi0_cfg(1, "3.141592653589793", "64", "1e300"))
        code, payload, error = run_cli(capsys, "thresholds", "--config", cfg)
        assert (code, error) == (0, None)
        assert (payload["chi_star"], payload["argmin_mode"]) == (8.0, 1)

    @staticmethod
    def large_chi0_cfg(dimension, lengths, cells, chi0):
        return (f"chi0 = {chi0}\nbeta = 1\nm = 1\nalpha = 1\ngamma = 1\na = 1\nb = 1\n"
                f"mu = 1\nnu = 1\ndomain.dimension = {dimension}\n"
                f"domain.lengths = {lengths}\ndomain.cells = {cells}\n")

    def test_stability_discrete_check(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        code, payload, _ = run_cli(
            capsys, "stability", "--config", cfg, "--discrete-check", "--modes", "3"
        )
        assert code == 0
        check = payload["discrete_check"]
        assert set(check) == {"grid_eigenvalues", "predicted", "residuals",
                              "max_spectrum_residual", "n_modes"}
        assert len(check["residuals"]) == len(check["predicted"]) == 4
        assert check["max_spectrum_residual"] < 1e-9

    def test_thresholds_report(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        code, payload, _ = run_cli(capsys, "thresholds", "--config", cfg)
        assert code == 0
        assert payload["chi_star"] == pytest.approx(4.0, rel=1e-12)
        assert payload["chi_ab"]["value"] == "inf"
        names = [entry["name"] for entry in payload["chi_ss"]]
        assert names == ["chi**_1", "chi**_2", "chi**_3", "chi**_4"]

    def test_thresholds_stub_constant(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        code, payload, _ = run_cli(
            capsys, "thresholds", "--config", cfg, "--stub-c-star"
        )
        assert code == 0
        assert payload["aux"]["c_star"]["nonrigorous"] is True
        assert payload["aux"]["k_star"]["converged"] is True

    @pytest.mark.parametrize("c_star", ["--stub-c-star", "--c-star-table"])
    def test_thresholds_output_is_reproducible(self, tmp_path, c_star):
        # Two processes, the same command: the same bytes, and no address.
        cfg = write_cfg(tmp_path)
        argv = ["thresholds", "--config", cfg, c_star]
        if c_star == "--c-star-table":
            table = tmp_path / "c_star.csv"
            table.write_text("1.5,2\n10,3\n")
            argv.append(str(table))
        src = str(Path(chemostab.cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        outputs = [subprocess.run([sys.executable, "-m", "chemostab.cli", *argv], env=env,
                                  capture_output=True, check=True).stdout
                   for _ in range(2)]
        assert outputs[0] == outputs[1]
        assert b"0x" not in outputs[0]
        assert json.loads(outputs[0])["aux"]["c_star"]["description"]

    @pytest.mark.parametrize("rows", ["1.5,nan\n10,nan\n", "1.5,2\ninf,3\n"])
    def test_thresholds_non_finite_c_star_table_exits_2(self, tmp_path, capsys, rows):
        cfg = write_cfg(tmp_path)
        table = tmp_path / "c_star.csv"
        table.write_text(rows)
        code, payload, error = run_cli(
            capsys, "thresholds", "--config", cfg, "--c-star-table", str(table)
        )
        assert code == 2
        assert payload is None
        assert error["error"] == "MissingCZConstant"

    @pytest.mark.parametrize(
        "row", ["10", "1.5,2,3", "1.5,abc", "p,C*"], ids=["one", "three", "text", "header"]
    )
    def test_thresholds_malformed_c_star_row_exits_2(self, tmp_path, capsys, row):
        cfg = write_cfg(tmp_path)
        table = tmp_path / "c_star.csv"
        table.write_text(f"# p, C*\n1.5,2\n{row}  # bad\n10,3\n")
        code, payload, error = run_cli(
            capsys, "thresholds", "--config", cfg, "--c-star-table", str(table)
        )
        assert (code, payload) == (2, None)
        assert error["error"] == "MissingCZConstant"
        assert error["message"] == (
            f"{table}, line 3: expected a 'p,C*' row of two numbers, got {row!r}"
        )

    def test_thresholds_minimal_calibration(self, tmp_path, capsys):
        text = BASE_CFG.format(**{**REFERENCE, "a": 0.0, "b": 0.0, "beta": 1.0})
        text = text.replace("init.amplitude = 0.01", "init.amplitude = 0.1\ninit.u_star = 1.0")
        cfg = write_cfg(tmp_path, text=text)
        code, payload, _ = run_cli(capsys, "thresholds", "--config", cfg)
        assert code == 0
        assert payload["minimal"]["inputs_source"] == "empirical"
        assert payload["minimal"]["ubar0"] >= 1.0

    def test_thresholds_minimal_calibration_needs_t_end(self, tmp_path, capsys, monkeypatch):
        # init.kind asks for a calibration run, which has no horizon here: a
        # typed error that names the key, not a report with no bounds.
        text = BASE_CFG.format(**{**REFERENCE, "a": 0.0, "b": 0.0, "beta": 1.0})
        text = text.replace("run.t_end = 0.2\n", "")
        cfg = write_cfg(tmp_path, text=text)

        def no_run(*args, **kwargs):
            raise AssertionError("the calibration run started")

        monkeypatch.setattr(chemostab.cli, "run", no_run)
        code, payload, error = run_cli(capsys, "thresholds", "--config", cfg)
        assert (code, payload) == (2, None)
        assert error["error"] == "ConfigError"
        assert "'run.t_end'" in error["message"]

    def test_thresholds_minimal_calibration_needs_init_kind(self, tmp_path, capsys,
                                                            monkeypatch):
        # The converse: a horizon with no initial density to run from. A
        # typed error that names the key before any work, not "minimal": null.
        text = BASE_CFG.format(**{**REFERENCE, "a": 0.0, "b": 0.0, "beta": 1.0})
        text = text.replace("init.kind = perturbation\ninit.amplitude = 0.01\ninit.mode = 1\n",
                            "init.u_star = 1.0\n")
        text = text.replace("run.t_end = 0.2\nrun.dt = 1e-3\n", "run.t_end = 0.5\nrun.dt = 5e-3\n")
        assert "init.kind" not in text and "run.t_end = 0.5" in text
        cfg = write_cfg(tmp_path, text=text)

        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(chemostab.cli, "run", no_work)
        monkeypatch.setattr(stability, "_proving_table", no_work)
        code, payload, error = run_cli(capsys, "thresholds", "--config", cfg)
        assert (code, payload) == (2, None)
        assert error["error"] == "ConfigError"
        assert "'init.kind'" in error["message"]

    def test_thresholds_minimal_without_run_keys_is_not_refused(self, tmp_path, capsys):
        # No run.t_end asks for no calibration run. With init.u_star the
        # report is made without one; with no init key at all u* is missing,
        # and the error names both keys that would give it: init.u_star, or
        # init.kind for an initial density whose mean is u*.
        text = BASE_CFG.format(**{**REFERENCE, "a": 0.0, "b": 0.0, "beta": 1.0})
        bare = text.split("init.kind")[0]
        assert "init." not in bare and "run." not in bare
        cfg = write_cfg(tmp_path, text=bare + "init.u_star = 1.0\n")
        code, payload, error = run_cli(capsys, "thresholds", "--config", cfg)
        assert (code, error) == (0, None)
        assert payload["minimal"] is None
        cfg = write_cfg(tmp_path, name="bare.cfg", text=bare)
        message = ("the minimal model's u* needs 'init.u_star' or an initial density: "
                   "the config sets neither 'init.u_star' nor 'init.kind'")
        for command in ("thresholds", "stability"):
            code, payload, error = run_cli(capsys, command, "--config", cfg)
            assert (code, payload) == (2, None)
            assert error == {"error": "ConfigError", "message": message}

    def test_thresholds_calibration_grid_budget_enforced(self, tmp_path, capsys):
        text = BASE_CFG.format(**{**REFERENCE, "a": 0.0, "b": 0.0, "beta": 1.0})
        text = text.replace("init.amplitude = 0.01", "init.amplitude = 0.1\ninit.u_star = 1.0")
        text = text.replace("domain.cells = 64", f"domain.cells = {(1 << 20) + 1}")
        cfg = write_cfg(tmp_path, text=text)
        code, payload, error = run_cli(capsys, "thresholds", "--config", cfg)
        assert code == 2
        assert payload is None
        assert error["error"] == "GridTooLarge"

    def test_thresholds_discrete_m0(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, beta=1.0)
        code, payload, _ = run_cli(capsys, "thresholds", "--config", cfg, "--discrete-m0")
        assert code == 0
        assert payload["aux"]["m0_source"] == "discrete"
        expected = gradient_constant(GridDomain.interval(math.pi, 64), 1.0)
        assert payload["aux"]["m0"] == expected
        # chi**_3 = a / (nu u*^(m+gamma-1)) / (2 + beta v* m0^2), u* = v* = 1.
        assert payload["chi_ss"][2]["value"] == pytest.approx(1.0 / (2.0 + expected**2))

    def test_thresholds_m0_sources_are_exclusive(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["thresholds", "--config", cfg, "--m0", "1.0", "--discrete-m0"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", [("thresholds", "--discrete-m0"),
                                         ("stability", "--discrete-check")], ids=lambda c: c[0])
    def test_dense_check_cell_limit(self, tmp_path, capsys, command):
        cfg = write_cfg(tmp_path, text=BASE_CFG.format(**REFERENCE).replace(
            "domain.cells = 64", f"domain.cells = {SWEEP_CELL_LIMIT + 1}"))
        code, payload, error = run_cli(capsys, command[0], "--config", cfg, command[1])
        assert code == 2
        assert payload is None
        assert error["error"] == "SweepTooLarge"

    @pytest.mark.parametrize("command", ["thresholds", "rectangle"])
    @pytest.mark.parametrize("m0", ["-1", "nan", "inf"])
    def test_m0_must_be_finite_and_nonnegative(self, tmp_path, capsys, command, m0):
        cfg = write_cfg(tmp_path, beta=1.0, chi0=0.3)
        code, payload, error = run_cli(capsys, command, "--config", cfg, "--m0", m0)
        assert code == 2
        assert payload is None
        assert error["error"] == "HypothesisViolated"

    def test_minimal_thresholds_check_m0(self, tmp_path, capsys):
        text = BASE_CFG.format(**{**REFERENCE, "a": 0.0, "b": 0.0, "beta": 1.0})
        cfg = write_cfg(tmp_path, text=text + "init.u_star = 1.0\n")
        code, payload, error = run_cli(capsys, "thresholds", "--config", cfg, "--m0", "nan")
        assert code == 2
        assert payload is None
        assert error["error"] == "HypothesisViolated"

    def test_minimal_thresholds_check_m0_before_the_calibration_run(self, tmp_path, capsys,
                                                                     monkeypatch):
        # The config asks for a calibration run, which a bad m0 must not start.
        text = BASE_CFG.format(**{**REFERENCE, "a": 0.0, "b": 0.0, "beta": 1.0})
        cfg = write_cfg(tmp_path, text=text + "init.u_star = 1.0\n")

        def no_run(*args, **kwargs):
            raise AssertionError("the calibration run started")

        monkeypatch.setattr(chemostab.cli, "run", no_run)
        for m0 in ("nan", "-1", "inf"):
            code, payload, error = run_cli(capsys, "thresholds", "--config", cfg, "--m0", m0)
            assert code == 2
            assert payload is None
            assert error["error"] == "HypothesisViolated"

    def test_minimal_rectangle_is_unsupported(self, tmp_path, capsys):
        # The comparison system needs a, b > 0; a = b = 0 must not ask for
        # a u_star that `rectangle` cannot take.
        text = BASE_CFG.format(**{**REFERENCE, "a": 0.0, "b": 0.0, "beta": 1.0})
        cfg = write_cfg(tmp_path, text=text)
        code, payload, error = run_cli(capsys, "rectangle", "--config", cfg)
        assert code == 2
        assert payload is None
        assert error["error"] == "MinimalModelUnsupported"

    def test_rectangle_step_count_is_bounded(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, chi0=0.3)
        code, payload, error = run_cli(capsys, "rectangle", "--config", cfg, "--tau-end", "1e15")
        assert code == 2
        assert payload is None
        assert error["error"] == "TooManySteps"
        assert "1000000000000000000 steps" in error["message"]

    @pytest.mark.parametrize("flag, value", [
        ("--tau-end", "inf"), ("--tau-end", "nan"), ("--tau-end", "0"),
        ("--ode-dt", "nan"), ("--ode-dt", "0"),
    ])
    def test_rectangle_time_grid_must_be_finite(self, tmp_path, capsys, flag, value):
        cfg = write_cfg(tmp_path, chi0=0.3)
        code, payload, error = run_cli(capsys, "rectangle", "--config", cfg, flag, value)
        assert code == 2
        assert payload is None
        assert error["error"] == "ValueError"
        assert "finite" in error["message"]

    def test_rectangle_tau_end_off_the_lattice_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, chi0=0.3)
        code, payload, error = run_cli(capsys, "rectangle", "--config", cfg,
                                       "--tau-end", "0.0125")
        assert (code, payload) == (2, None)
        assert error["error"] == "ValueError"
        assert "0.0125 is not a positive multiple of dt = 0.001" in error["message"]

    def test_rectangle_command(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, chi0=0.3)
        csv = str(tmp_path / "rect.csv")
        code, payload, _ = run_cli(
            capsys, "rectangle", "--config", cfg, "--tau-end", "5.0", "--csv", csv
        )
        assert code == 0
        assert payload["kappa0"] == pytest.approx(0.3, rel=1e-12)
        assert payload["contraction"] is True
        assert open(csv).readline().strip() == "tau,ubar,ulow"

    def test_sweep_command(self, tmp_path, capsys):
        text = BASE_CFG.format(**REFERENCE) + "sweep.parameter = chi0\nsweep.values = 3.9, 4.1\n"
        cfg = write_cfg(tmp_path, text=text)
        code, payload, _ = run_cli(capsys, "sweep", "--config", cfg)
        assert code == 0
        verdicts = [row["verdict"] for row in payload["rows"]]
        assert verdicts == ["stable", "unstable"]

    def test_sweep_rejects_unknown_parameter(self, tmp_path, capsys):
        text = BASE_CFG.format(**REFERENCE) + "sweep.parameter = cells\nsweep.values = 1\n"
        cfg = write_cfg(tmp_path, text=text)
        code, _, error = run_cli(capsys, "sweep", "--config", cfg)
        assert code == 2
        assert error["error"] == "ConfigError"

    @pytest.mark.parametrize("values", ["1, abc", "1,,2"])
    def test_sweep_rejects_malformed_values(self, tmp_path, capsys, values):
        text = BASE_CFG.format(**REFERENCE) + f"sweep.parameter = chi0\nsweep.values = {values}\n"
        cfg = write_cfg(tmp_path, text=text)
        code, payload, error = run_cli(capsys, "sweep", "--config", cfg)
        assert code == 2
        assert payload is None
        assert error["error"] == "ConfigError"
        assert "'sweep.values'" in error["message"]

    @pytest.mark.parametrize("command, overrides, quantity", [
        # m_star's 8^p at p = 400.
        (("thresholds", "--stub-c-star"), {"alpha": 400.0}, "M* = nu^p"),
        # Theta_beta's beta^beta, first taken at beta - 1.
        (("thresholds",), {"beta": 200.0}, "Theta_s = s^s (1+s)^-(1+s) overflows a float "
                                           "at s = 199.0"),
        # u* = (a/b)^(1/alpha), before any command's own work.
        (("stability",), {"a": 1000.0, "b": 0.001, "alpha": 0.01}, "u* = (a/b)^(1/alpha)"),
        (("thresholds",), {"a": 1000.0, "b": 0.001, "alpha": 0.01}, "u* = (a/b)^(1/alpha)"),
        (("simulate",), {"a": 1000.0, "b": 0.001, "alpha": 0.01}, "u* = (a/b)^(1/alpha)"),
        # u* = 1e200, so u*^(m+gamma-1) = u*^2 in the feedback gain and in kappa0.
        (("stability",), {"b": 1e-200, "m": 2.0}, "the feedback gain g = "),
        (("sweep",), {"b": 1e-200, "m": 2.0}, "the feedback gain g = "),
        (("thresholds",), {"b": 1e-200, "m": 2.0}, "the feedback gain g = "),
        (("rectangle",), {"b": 1e-200, "m": 2.0}, "kappa0 = chi0 nu u*^(m+gamma-1) / a"),
    ], ids=["m_star", "theta", "u_star-stability", "u_star-thresholds", "u_star-simulate",
            "gain-stability", "gain-sweep", "gain-thresholds", "kappa0-rectangle"])
    def test_a_closed_form_that_overflows_exits_2(self, tmp_path, capsys, command, overrides,
                                                  quantity):
        # The same class as Python's own, with a message that names the
        # quantity, where Python's names only the errno text.
        text = BASE_CFG.format(**{**REFERENCE, "chi0": 0.3, "beta": 1.0, **overrides})
        if command[0] == "sweep":
            text += "sweep.parameter = chi0\nsweep.values = 0.3\n"
        cfg = write_cfg(tmp_path, text=text)
        code, payload, error = run_cli(capsys, command[0], "--config", cfg, *command[1:])
        assert (code, payload) == (2, None)
        assert error["error"] == "OverflowError"
        assert quantity in error["message"]
        if quantity.startswith("u*"):
            assert "a = 1000.0, b = 0.001, alpha = 0.01" in error["message"]
        if overrides.get("m") == 2.0:
            assert "u* = 1e+200" in error["message"] and "m = 2.0" in error["message"]

    @pytest.mark.parametrize("overrides, message", [
        ({"beta": 0.5}, "beta >= 1"),
        ({"chi0": 0.6}, "chi0 <= bar chi = 0.5"),
    ], ids=["beta-below-one", "chi0-above-bar-chi"])
    def test_signal_floor_outside_its_hypotheses_exits_2(self, tmp_path, capsys, overrides,
                                                         message):
        cfg = write_cfg(tmp_path, **{"chi0": 0.3, "beta": 1.0, **overrides})
        code, payload, error = run_cli(capsys, "rectangle", "--config", cfg,
                                       "--mode", "signal-floor")
        assert (code, payload) == (2, None)
        assert error["error"] == "HypothesisViolated"
        assert message in error["message"]


MINIMAL_CONSTANT_CFG = BASE_CFG.format(**{**REFERENCE, "a": 0.0, "b": 0.0, "beta": 1.0}).replace(
    "init.kind = perturbation", "init.kind = constant"
).replace("init.amplitude = 0.01", "init.value = 1.5").replace(
    "run.t_end = 0.2", "run.t_end = 0.01"
)


class TestMinimalModelSolves:
    """The minimal model's mass average needs the density only: the CLI
    makes no elliptic solve for it."""

    @pytest.fixture
    def solves(self, monkeypatch):
        import chemostab.helmholtz

        count = []
        solve = chemostab.helmholtz.HelmholtzOperator.solve

        def counting_solve(op, r):
            count.append(1)
            return solve(op, r)

        monkeypatch.setattr(chemostab.helmholtz.HelmholtzOperator, "solve", counting_solve)
        return count

    def test_simulate_solves_once_per_state(self, tmp_path, capsys, solves):
        cfg = write_cfg(tmp_path, text=MINIMAL_CONSTANT_CFG)
        code, payload, _ = run_cli(capsys, "simulate", "--config", cfg)
        assert code == 0
        assert payload["steps"] == 10
        # One signal solve for the initial state, then one diffusion and
        # one signal solve per step.
        assert len(solves) == 1 + 2 * 10

    @pytest.mark.parametrize("command", ["simulate", "thresholds"])
    def test_array_initial_density_is_loaded_and_built_once(self, tmp_path, capsys,
                                                            monkeypatch, command):
        # u* is the mass of the initial density; it was once built twice.
        path = tmp_path / "u0.npy"
        np.save(path, 1.0 + 0.1 * np.cos(np.linspace(0.0, math.pi, 64)))
        text = MINIMAL_CONSTANT_CFG.replace(
            "init.kind = constant", "init.kind = array").replace(
            "init.value = 1.5", f"init.path = {path}")
        cfg = write_cfg(tmp_path, text=text)
        loads, builds = [], []
        load, build = np.load, chemostab.core.initial_density

        def counting_load(*args, **kwargs):
            loads.append(1)
            return load(*args, **kwargs)

        def counting_build(*args, **kwargs):
            builds.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(np, "load", counting_load)
        monkeypatch.setattr(chemostab.core, "initial_density", counting_build)
        monkeypatch.setattr(chemostab.cli, "initial_density", counting_build)
        code, payload, _ = run_cli(capsys, command, "--config", cfg)
        assert code == 0
        assert (len(loads), len(builds)) == (1, 1)
        if command == "thresholds":
            assert payload["minimal"]["inputs_source"] == "empirical"

    def test_sweep_loads_and_builds_the_initial_density_once(self, tmp_path, capsys,
                                                              monkeypatch):
        # u* is the mean of the initial density, whatever the swept value;
        # it was once taken again for each value.
        path = tmp_path / "u0.npy"
        np.save(path, 1.0 + 0.1 * np.cos(np.linspace(0.0, math.pi, 64)))
        text = MINIMAL_CONSTANT_CFG.replace(
            "init.kind = constant", "init.kind = array").replace(
            "init.value = 1.5", f"init.path = {path}")
        text += "sweep.parameter = chi0\nsweep.values = 0.5, 1, 2, 4\n"
        cfg = write_cfg(tmp_path, text=text)
        calls = []

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np, "load", counted("load", np.load))
        build = counted("build", chemostab.core.initial_density)
        monkeypatch.setattr(chemostab.core, "initial_density", build)
        monkeypatch.setattr(chemostab.cli, "initial_density", build)
        code, payload, _ = run_cli(capsys, "sweep", "--config", cfg)
        assert code == 0
        assert [row["chi0"] for row in payload["rows"]] == [0.5, 1.0, 2.0, 4.0]
        assert (calls.count("load"), calls.count("build")) == (1, 1)

    def test_sweep_makes_no_solve(self, tmp_path, capsys, solves):
        text = MINIMAL_CONSTANT_CFG + "sweep.parameter = chi0\nsweep.values = 0.5, 1, 2\n"
        cfg = write_cfg(tmp_path, text=text)
        code, payload, _ = run_cli(capsys, "sweep", "--config", cfg)
        assert code == 0
        assert len(payload["rows"]) == 3
        assert solves == []


class TestScenarioAndFuzzCommands:
    def test_scenario_exit_zero_on_pass(self, capsys):
        code, payload, _ = run_cli(capsys, "scenario", "thresholds-only")
        assert code == 0
        assert payload["pass"] is True

    @pytest.mark.parametrize("name", ["thresholds-only", "sweep"])
    def test_scenario_csv_without_trajectory_exits_2(self, capsys, tmp_path, name):
        csv = tmp_path / "none.csv"
        code, payload, error = run_cli(capsys, "scenario", name, "--csv", str(csv))
        assert code == 2
        assert payload is None
        assert error["error"] == "ValueError"
        assert repr(name) in error["message"]
        assert not csv.exists()

    def test_fuzz_small_run(self, capsys):
        code, payload, _ = run_cli(
            capsys, "fuzz", "--trials", "500", "--ordering-trials", "5", "--seed", "9"
        )
        assert code == 0
        assert payload["power_diff_violations"] == 0
        assert payload["ordering_violations"] == []
