"""Config parsing and the JSON command-line front end."""

import json
import math

import numpy as np
import pytest

from chemostab.cli import jsonable, main
from chemostab.config import (
    ConfigError,
    get_bool,
    get_float,
    get_float_list,
    get_int,
    get_int_list,
    get_str,
    grid_from_config,
    init_from_config,
    load_config,
    params_from_config,
    parse_config_text,
    step_config_from_config,
)
from chemostab.core import Equilibrium
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

    def test_load_config(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("x = 3\n")
        assert load_config(path) == {"x": "3"}


class TestGetters:
    def test_typed_access(self):
        cfg = {"f": "2.5", "i": "7", "s": "text", "t": "yes", "n": "0"}
        assert get_float(cfg, "f") == 2.5
        assert get_int(cfg, "i") == 7
        assert get_str(cfg, "s") == "text"
        assert get_bool(cfg, "t", False) is True
        assert get_bool(cfg, "n", True) is False

    def test_defaults_and_missing(self):
        assert get_float({}, "x", 1.5) == 1.5
        with pytest.raises(ConfigError, match="missing"):
            get_float({}, "x")
        with pytest.raises(ConfigError, match="missing"):
            get_str({}, "x")

    def test_parse_failures(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            get_float({"x": "abc"}, "x")
        with pytest.raises(ConfigError, match="cannot parse"):
            get_bool({"x": "maybe"}, "x", False)

    def test_lists(self):
        cfg = {"v": "1.0, 2.5 ,3", "k": "4, 5"}
        assert get_float_list(cfg, "v") == (1.0, 2.5, 3.0)
        assert get_int_list(cfg, "k") == (4, 5)


class TestBuilders:
    def test_params_roundtrip(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path))
        assert params_from_config(cfg) == make_params()

    def test_params_missing_listed(self):
        with pytest.raises(ConfigError, match="beta"):
            params_from_config({"chi0": "1"})

    def test_grid(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path))
        grid = grid_from_config(cfg)
        assert grid.dimension == 1
        assert grid.cells == (64,)

    def test_grid_mismatched_entries(self):
        cfg = {"domain.dimension": "2", "domain.lengths": "1.0",
               "domain.cells": "8, 8"}
        with pytest.raises(ConfigError, match="entries"):
            grid_from_config(cfg)

    def test_init_kinds(self, tmp_path):
        assert init_from_config({"init.kind": "constant", "init.value": "2"}).value == 2.0
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
        cfg = step_config_from_config({"run.t_end": "1.0"})
        assert cfg.dt == 1e-3 and cfg.output_stride == 10
        with pytest.raises(ConfigError):
            step_config_from_config({"run.t_end": "-1.0"})
        with pytest.raises(ConfigError, match="missing"):
            step_config_from_config({})


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

    def test_callable_repr(self):
        assert "len" in jsonable(len)

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
        assert payload["steps"] == 200
        assert payload["positivity_clips"] == 0
        header = open(csv).readline().strip()
        assert header == "t,u_min,u_max,v_min,v_max,mass,err_inf,lyapunov,dissipation"

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

    def test_grid_budget_enforced(self, tmp_path, capsys):
        text = BASE_CFG.format(**REFERENCE).replace(
            "domain.cells = 64", f"domain.cells = {(1 << 20) + 1}"
        )
        cfg = write_cfg(tmp_path, text=text)
        code, payload, error = run_cli(capsys, "simulate", "--config", cfg)
        assert code == 2
        assert error["error"] == "GridTooLarge"

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

    def test_stability_discrete_check(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        code, payload, _ = run_cli(
            capsys, "stability", "--config", cfg, "--discrete-check", "--modes", "3"
        )
        assert code == 0
        assert payload["discrete_check"]["max_mode_deviation"] < 1e-9

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

    def test_thresholds_minimal_calibration(self, tmp_path, capsys):
        text = BASE_CFG.format(**{**REFERENCE, "a": 0.0, "b": 0.0, "beta": 1.0})
        text = text.replace("init.amplitude = 0.01", "init.amplitude = 0.1\ninit.u_star = 1.0")
        cfg = write_cfg(tmp_path, text=text)
        code, payload, _ = run_cli(capsys, "thresholds", "--config", cfg)
        assert code == 0
        assert payload["minimal"]["inputs_source"] == "empirical"
        assert payload["minimal"]["ubar0"] >= 1.0

    def test_thresholds_calibration_grid_budget_enforced(self, tmp_path, capsys):
        text = BASE_CFG.format(**{**REFERENCE, "a": 0.0, "b": 0.0, "beta": 1.0})
        text = text.replace("init.amplitude = 0.01", "init.amplitude = 0.1\ninit.u_star = 1.0")
        text = text.replace("domain.cells = 64", f"domain.cells = {(1 << 20) + 1}")
        cfg = write_cfg(tmp_path, text=text)
        code, payload, error = run_cli(capsys, "thresholds", "--config", cfg)
        assert code == 2
        assert payload is None
        assert error["error"] == "GridTooLarge"

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


class TestScenarioAndFuzzCommands:
    def test_scenario_exit_zero_on_pass(self, capsys, tmp_path):
        csv = tmp_path / "none.csv"
        code, payload, _ = run_cli(
            capsys, "scenario", "thresholds-only", "--csv", str(csv)
        )
        assert code == 0
        assert payload["pass"] is True
        assert not csv.exists()  # scenario produces no trajectory

    def test_fuzz_small_run(self, capsys):
        code, payload, _ = run_cli(
            capsys, "fuzz", "--trials", "500", "--ordering-trials", "5", "--seed", "9"
        )
        assert code == 0
        assert payload["power_diff_violations"] == 0
        assert payload["ordering_violations"] == []
