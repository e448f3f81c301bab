"""Traced run: timing wrappers at the module boundaries of `chemostab`.

The wrappers replace module attributes, so every caller that looks a name
up in a module's globals at call time (the integrator does so for `step`,
`stable_dt`, `_record`, `chemical_field` and `get_operator`) goes through
them without any edit to the program. A name that one module imported
from another with `from ... import` is replaced in both places.

Each call records a span: name, start, end and the span that was open
when it began. Spans stay in compact arrays in memory; `save` writes them
out once the run is over. Self time is a span's duration minus the time
its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

# Module-level functions wrapped as "<module>.<name>" spans.
TARGETS = (
    ("core", "init_state"),
    ("core", "neumann_eigenvalues"),
    ("helmholtz", "chemical_field"),
    ("helmholtz", "get_operator"),
    ("integrator", "chemotactic_face_flux"),
    ("integrator", "flux_divergence"),
    ("integrator", "stable_dt"),
    ("integrator", "step"),
    ("integrator", "_record"),
    ("integrator", "run"),
    ("diagnostics", "lyapunov_F"),
    ("diagnostics", "dissipation_D"),
    ("diagnostics", "check_power_diff_inequality"),
    ("rectangle", "integrate_rectangle"),
    ("rectangle", "verify_sandwich"),
    ("thresholds", "verify_orderings"),
    ("thresholds", "chi_double_star"),
    ("stability", "critical_sensitivity"),
    ("stability", "classify_equilibrium"),
)

# Work units of one call, for metrics given per trial or per step.
UNITS = {
    "diagnostics.check_power_diff_inequality":
        lambda args, kwargs, result: args[0] if args else kwargs["trials"],
    "thresholds.verify_orderings":
        lambda args, kwargs, result: sum(result.checked.values()) + sum(result.skipped.values()),
    "rectangle.integrate_rectangle":
        lambda args, kwargs, result: len(result.tau) - 1,
}

# The scenarios the verdicts workload runs (workloads.VERDICT_SCENARIOS).
SCENARIO_NAMES = ("persistence", "negative-sensitivity", "stable-dichotomy",
                  "unstable-dichotomy", "thresholds-only", "sweep")

SOLVE = "helmholtz.HelmholtzOperator.solve"
CG = "helmholtz.cg"

# Timed spans: (metric prefix, span, statistic). "us" is the mean inclusive
# time per call, "self_us" the mean self time, "us_per_trial" the inclusive
# time per unit of UNITS. Every traced run reports every per-layer metric;
# a layer that a workload does not reach reads 0.
TIMED = (
    ("helmholtz.signal_solve", "helmholtz.chemical_field", "us"),
    ("helmholtz.diffusion_solve", "diffusion_solve", "us"),
    ("helmholtz.get_operator", "helmholtz.get_operator", "us"),
    ("integrator.chemotactic_face_flux", "integrator.chemotactic_face_flux", "us"),
    ("integrator.flux_divergence", "integrator.flux_divergence", "us"),
    ("integrator.stable_dt", "integrator.stable_dt", "us"),
    ("integrator._record", "integrator._record", "us"),
    ("integrator.run", "integrator.run", "self_us"),
    ("diagnostics.lyapunov_F", "diagnostics.lyapunov_F", "us"),
    ("diagnostics.dissipation_D", "diagnostics.dissipation_D", "us"),
    ("diagnostics.check_power_diff_inequality",
     "diagnostics.check_power_diff_inequality", "us_per_trial"),
    ("rectangle.verify_sandwich", "rectangle.verify_sandwich", "us"),
    ("thresholds.verify_orderings", "thresholds.verify_orderings", "us_per_trial"),
    ("thresholds.chi_double_star", "thresholds.chi_double_star", "us"),
    ("stability.critical_sensitivity", "stability.critical_sensitivity", "us"),
    ("stability.classify_equilibrium", "stability.classify_equilibrium", "us"),
    ("core.neumann_eigenvalues", "core.neumann_eigenvalues", "us"),
    ("core.init_state", "core.init_state", "us"),
)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    names = []
    for prefix, _span, stat in TIMED:
        names.append((f"{prefix}.{stat}", "us"))
        names.append((f"{prefix}.calls", "count"))
    names += [
        ("helmholtz.cg_iterations", "count"),
        ("helmholtz.operator_builds", "count"),
        ("integrator.step.self_us", "us"),
        ("integrator.steps", "count"),
        ("rectangle.rk4_step.us", "us"),
        ("rectangle.integrate_rectangle.calls", "count"),
    ]
    names += [(f"scenarios.{name}.s", "s") for name in SCENARIO_NAMES]
    names += [("process.peak_rss_mb", "MiB"), ("trace.overhead_s", "s"),
              ("trace.spans", "count"), ("run.wall_s", "s"), ("run.reference_ms", "ms")]
    return names


class _ModuleProxy:
    """Stands in for a module, overriding some attributes."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.units: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, units=None):
        nid = self._id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, totals = self._stack, self.units

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if units is not None:
                totals[name] += units(args, kwargs, result)
            return result

        return traced

    def _set(self, owner, key: str, value) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, vars(owner)[key]))
            setattr(owner, key, value)

    def _counting_cg(self, cg):
        counters = self.counters

        def cg_counted(A, b, *args, callback=None, **kwargs):
            def count(xk):
                counters["helmholtz.cg_iterations"] += 1
                if callback is not None:
                    callback(xk)

            return cg(A, b, *args, callback=count, **kwargs)

        return cg_counted

    def install(self) -> None:
        """Wrap every target in every loaded `chemostab` module."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "chemostab" or n.startswith("chemostab.")]
        for mod_name, attr in TARGETS:
            module = sys.modules.get(f"chemostab.{mod_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            name = f"{mod_name}.{attr}"
            wrapper = self.wrap(name, original, UNITS.get(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapper)

        helmholtz = sys.modules["chemostab.helmholtz"]
        operator = getattr(helmholtz, "HelmholtzOperator", None)
        if operator is not None and "solve" in vars(operator):
            self._set(operator, "solve", self.wrap(SOLVE, vars(operator)["solve"]))
        else:
            self.missing.append(SOLVE)
        spla = getattr(helmholtz, "spla", None)
        if spla is not None and hasattr(spla, "cg"):
            cg = self.wrap(CG, self._counting_cg(spla.cg))
            self._set(helmholtz, "spla", _ModuleProxy(spla, cg=cg))

        scenarios = sys.modules["chemostab.scenarios"].SCENARIOS
        for name, fn in list(scenarios.items()):
            self._set(scenarios, name, self.wrap(f"scenarios.{name}", fn))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32) if len(self.name) else np.zeros(0, np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64) if len(self.parent) else np.zeros(0, np.int64)
        start = np.asarray(self.start, dtype=float)
        end = np.asarray(self.end, dtype=float)
        return name, parent, start, end

    def save(self, path: Path) -> None:
        name, parent, start, end = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, name=name, parent=parent, start=start, end=end,
                 names=np.asarray(json.dumps(self.names)))

    def span_stats(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds).

        Also yields "diffusion_solve", the operator solves made directly
        from `integrator.step`, and "cg_solves", the solves that ran CG.
        """
        name, parent, start, end = self.arrays()
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        stats = {}
        for nid, span in enumerate(self.names):
            sel = name == nid
            stats[span] = (int(sel.sum()), float(dur[sel].sum()), float(own[sel].sum()))
        if SOLVE in self._ids and "integrator.step" in self._ids:
            parent_name = np.where(nested, name[np.maximum(parent, 0)], -1)
            sel = (name == self._ids[SOLVE]) & (parent_name == self._ids["integrator.step"])
            stats["diffusion_solve"] = (int(sel.sum()), float(dur[sel].sum()),
                                        float(own[sel].sum()))
        if CG in self._ids:
            solves = np.unique(parent[name == self._ids[CG]])
            stats["cg_solves"] = (int(solves.size), 0.0, 0.0)
        return stats


def layer_metrics(tracer: Tracer, rounds: int, operator_builds: int,
                  scenario_s: dict[str, float], overhead_s: float,
                  peak_rss_mb: float) -> dict[str, float]:
    """The per-layer metrics of `rounds` traced rounds. Counts are per round;
    `scenario_s` and `peak_rss_mb` come from the untraced rounds."""
    stats = tracer.span_stats()

    def get(span):
        return stats.get(span, (0, 0.0, 0.0))

    def mean_us(seconds, count):
        return seconds / count * 1e6 if count else 0.0

    out = {}
    for prefix, span, stat in TIMED:
        calls, total, own = get(span)
        if stat == "us":
            value = mean_us(total, calls)
        elif stat == "self_us":
            value = mean_us(own, calls)
        else:
            value = mean_us(total, tracer.units.get(span, 0.0))
        out[f"{prefix}.{stat}"] = value
        out[f"{prefix}.calls"] = calls / rounds
    steps, _, step_self = get("integrator.step")
    rk4_calls, rk4_total, _ = get("rectangle.integrate_rectangle")
    out["helmholtz.cg_iterations"] = (
        tracer.counters["helmholtz.cg_iterations"] / get("cg_solves")[0]
        if get("cg_solves")[0] else 0.0
    )
    out["helmholtz.operator_builds"] = operator_builds / rounds
    out["integrator.step.self_us"] = mean_us(step_self, steps)
    out["integrator.steps"] = steps / rounds
    out["rectangle.rk4_step.us"] = mean_us(rk4_total, tracer.units.get(
        "rectangle.integrate_rectangle", 0.0))
    out["rectangle.integrate_rectangle.calls"] = rk4_calls / rounds
    for name in SCENARIO_NAMES:
        out[f"scenarios.{name}.s"] = scenario_s.get(name, 0.0)
    out["process.peak_rss_mb"] = peak_rss_mb
    out["trace.overhead_s"] = overhead_s
    out["trace.spans"] = len(tracer.start) / rounds
    return out
