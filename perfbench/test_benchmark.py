"""Tests of the benchmark's own checks and tracer.

Each output check must pass on a real program output and flag a
deliberately corrupted copy of it. Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import reference  # noqa: E402
import run as bench_run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from chemostab import helmholtz, integrator  # noqa: E402
from chemostab.core import GridDomain, InitSpec, ModelParams, init_state  # noqa: E402
from chemostab.integrator import StepConfig  # noqa: E402


def short_run(params: ModelParams, grid: GridDomain, u0: np.ndarray, cfg: StepConfig):
    init = init_state(grid, InitSpec.from_array(u0), params)
    traj = integrator.run(params, grid, init, cfg)
    return workloads.RunCall(params, grid, init, cfg, traj)


@pytest.fixture(scope="module")
def minimal_call():
    grid = GridDomain.interval(math.pi, 64)
    params = ModelParams(chi0=1.0, **workloads.MINIMAL)
    u0 = 1.0 + 0.2 * np.cos(grid.centers())
    return short_run(params, grid, u0, StepConfig(t_end=0.1, dt=1e-2, output_stride=2))


@pytest.fixture(scope="module")
def grid_2d_case():
    return workloads.grid_2d_inputs(seed=3)[0]


def test_real_outputs_pass(minimal_call):
    assert workloads.trajectory_failures(minimal_call) == []


@pytest.mark.parametrize("shape", ["1d", "2d"])
def test_signal_check_flags_one_perturbed_cell(minimal_call, grid_2d_case, shape):
    if shape == "1d":
        params, grid = minimal_call.params, minimal_call.grid
        state = minimal_call.traj.final_state
    else:
        params, grid = grid_2d_case.params, grid_2d_case.grid
        state = init_state(grid, InitSpec.from_array(grid_2d_case.u0), params)
    h = workloads.spacing(grid)
    assert checks.check_signal(state.u, state.v, params, h) == []
    v = state.v.copy()
    v.flat[v.size // 3] += 1e-6
    assert checks.check_signal(state.u, v, params, h)[0].startswith("signal_residual")


def test_mirror_laplacian_matches_cosine_eigenvalues():
    n, length = 32, math.pi
    h = length / n
    x = (np.arange(n) + 0.5) * h
    for k in (1, 5):
        w = np.cos(k * x)
        lam = (4.0 / h**2) * math.sin(k * math.pi / (2 * n)) ** 2
        assert np.allclose(checks.mirror_laplacian(w, (h,)), -lam * w, atol=1e-10)


def test_mass_check_flags_a_change_of_one_millionth(minimal_call):
    traj, grid = minimal_call.traj, minimal_call.grid
    u0, final = minimal_call.init.u, traj.final_state.u
    vol = workloads.cell_volume(grid)
    assert checks.check_mass(u0, final, traj.mass, vol) == []
    changed = final * (1.0 + 1e-6)
    assert checks.check_mass(u0, changed, traj.mass, vol)[0].startswith("mass_drift")


def test_positivity_check_flags_one_negative_cell(minimal_call):
    traj = minimal_call.traj
    u = traj.final_state.u.copy()
    assert checks.check_positive(traj.u_min, u, 0) == []
    u[7] = -1e-12
    assert checks.check_positive(traj.u_min, u, 0)[0].startswith("positivity")
    assert checks.check_positive(traj.u_min, traj.final_state.u, 1)[0].startswith("clipping")


def test_fixed_step_check_flags_one_extra_step(minimal_call):
    cfg, steps = minimal_call.cfg, minimal_call.traj.steps_taken
    assert checks.check_fixed_steps(cfg, steps) == []
    failure = checks.check_fixed_steps(cfg, steps + 1)
    assert failure[0].startswith(checks.FIXED_STEP_FAULT)
    cfl = SimpleNamespace(dt_policy="cfl", t_end=cfg.t_end, dt=cfg.dt)
    assert checks.check_fixed_steps(cfl, steps + 1) == []


def test_sweep_check_flags_one_wrong_verdict():
    chi_star = workloads.pinned_chi_star()
    assert chi_star == pytest.approx(4.0, rel=1e-15)
    rows = [{"chi0": chi0, "verdict": checks.expected_verdict(chi0, chi_star),
             "chi_star": chi_star} for chi0 in (0.5, 3.9, 4.0, 4.1)]
    assert [r["verdict"] for r in rows] == ["stable", "stable", "critical", "unstable"]
    assert checks.check_sweep_rows(rows, chi_star) == []
    rows[1] = {**rows[1], "verdict": "unstable"}
    assert checks.check_sweep_rows(rows, chi_star)[0].startswith("verdict")
    assert checks.check_verdict_pass({"scenario": "sweep", "pass": False})
    assert checks.check_chi_star(4.0 + 1e-9, chi_star, "thresholds-only")


def test_growth_checks_flag_the_wrong_direction():
    x = np.linspace(0.0, math.pi, 16)
    small = 1.0 + 0.01 * np.cos(x)
    assert checks.check_amplification(small, 1.0 + 0.2 * np.cos(x), 1.0) == []
    assert checks.check_amplification(small, 1.0 + 0.05 * np.cos(x), 1.0)
    assert checks.check_approach(small, 1.0 + 0.005 * np.cos(x), 1.0) == []
    assert checks.check_approach(small, small, 1.0)


def test_fuzz_checks_flag_violations_and_lost_trials():
    ok = SimpleNamespace(checked={"1": 990, "2": 1000}, skipped={"1": 10, "2": 0},
                         violations=())
    assert checks.check_ordering_fuzz(ok, 1000) == []
    lost = SimpleNamespace(checked={"1": 989, "2": 1000}, skipped={"1": 10, "2": 0},
                           violations=())
    assert checks.check_ordering_fuzz(lost, 1000)
    bad = SimpleNamespace(checked=ok.checked, skipped=ok.skipped, violations=("v",))
    assert checks.check_ordering_fuzz(bad, 1000)
    assert checks.check_power_fuzz(0) == []
    assert checks.check_power_fuzz(1)


def test_tracer_records_nested_spans_and_restores_the_program():
    original_step, original_solve = integrator.step, helmholtz.HelmholtzOperator.solve
    original_field = integrator.chemical_field
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert integrator.step is not original_step
        assert integrator.chemical_field is helmholtz.chemical_field
        grid = GridDomain.interval(math.pi, 32)
        params = ModelParams(chi0=1.0, **workloads.PINNED)
        short_run(params, grid, 1.0 + 0.1 * np.cos(grid.centers()),
                  StepConfig(t_end=0.05, dt=1e-2, output_stride=1))
    finally:
        tracer.uninstall()
    assert integrator.step is original_step
    assert integrator.chemical_field is original_field
    assert helmholtz.HelmholtzOperator.solve is original_solve
    assert tracer.missing == []
    metrics = tracing.layer_metrics(tracer, 1, 0, {}, 0.0, 0.0)
    assert metrics["integrator.steps"] == 5
    assert metrics["helmholtz.diffusion_solve.calls"] == 5
    assert metrics["helmholtz.signal_solve.calls"] == 6   # init_state + one per step
    assert metrics["integrator.run.calls"] == 1
    assert metrics["integrator.step.self_us"] > 0.0
    stats = tracer.span_stats()
    calls, total, own = stats["integrator.run"]
    assert 0.0 < own < total


def test_benchmark_json_lists_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench_run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        "setup_s": "s", **worker.END_TO_END}
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.per_layer_names()


def test_wall_ref_pairs_each_operation_with_the_reference_around_it():
    op = workloads.Operation
    # a takes 2 s between references of 1 s and 3 s: 1 unit; b 3 s over 3 s: 1 unit.
    steady = workloads.Round([op("a", 2.0, []), op("b", 3.0, [])], refs=[1.0, 3.0, 3.0])
    # The same round at half speed, the references slowed alike.
    slow = workloads.Round([op("a", 4.0, []), op("b", 6.0, [])], refs=[2.0, 6.0, 6.0])
    odd = workloads.Round([op("a", 2.0, []), op("b", 9.0, [])], refs=[1.0, 3.0, 3.0])
    assert worker.round_cost(steady) == worker.round_cost(slow) == 2.0
    assert worker.end_to_end([steady, odd, slow]) == {"wall_ref": 2.0}


def test_each_round_pauses_before_every_operation():
    pauses = []
    rnd = workloads.run_round("fuzz", 5, lambda: pauses.append(None))
    calls = workloads.FUZZ_CALLS
    assert len(rnd.operations) == len(pauses) == 2 * calls
    assert sum(op.work for op in rnd.operations[:calls]) == workloads.POWER_TRIALS
    assert sum(op.work for op in rnd.operations[calls:]) == 6 * workloads.ORDERING_TRIALS
    assert all(op.failures == [] for op in rnd.operations)


def test_reference_is_fixed_work():
    assert reference.compute() == reference.compute()
    assert reference.seconds() > 0.0


def test_envelope_checks_flag_an_escape_and_a_growing_gap():
    tau = np.linspace(0.0, 1.0, 11)
    ubar, ulow = 1.0 + 0.2 * np.exp(-tau), 1.0 - 0.2 * np.exp(-tau)
    u_max, u_min = 1.0 + 0.1 * np.exp(-tau), 1.0 - 0.1 * np.exp(-tau)
    assert checks.check_sandwich(tau, u_max, u_min, 1.0, 1.0, tau, ubar, ulow, 1e-6) == []
    escaped = u_max.copy()
    escaped[3] = ubar[3] + 1e-3
    assert checks.check_sandwich(tau, escaped, u_min, 1.0, 1.0, tau, ubar, ulow, 1e-6)
    assert checks.check_sandwich(tau * 2.0, u_max, u_min, 1.0, 1.0, tau, ubar, ulow, 1e-6)
    assert checks.check_contraction(ubar, ulow) == []
    widened = ulow.copy()
    widened[5] = 0.7
    assert checks.check_contraction(ubar, widened)[0].startswith("contraction")


def test_rectangle_operations_fail_only_on_the_fixed_step_fault():
    pauses = []
    pde, envelope = workloads.rectangle_operations(lambda: pauses.append(None))
    assert len(pauses) == 2
    assert envelope.failures == []
    assert pde.work == 12_001
    assert [f.split(":")[0] for f in pde.failures] == [checks.FIXED_STEP_FAULT]
