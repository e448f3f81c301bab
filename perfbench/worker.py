"""One benchmark process: set up, run whole rounds of a workload, report.

run.py starts this script in a fresh interpreter and reads the JSON object
it prints as its last line. `--t0` is the launcher's `time.monotonic()`
just before the start, so that `setup_s` covers interpreter start, package
import and input generation, up to the first timed operation. With
`--setup-only` the process stops there.

Rounds repeat until `--seconds` have passed (at least one round). Before
each round the operator cache is emptied, so that every round does the
work of a fresh process. A traced run spends the first half of its time
on untraced rounds and the second half on traced ones; the difference of
their fastest round times is the tracing overhead.

Before each operation and after the last one of a round, the worker times
the reference computation (reference.py). wall_ref, the end-to-end metric,
is a round's time in units of it: each operation's time over the mean of
the reference times around it, summed over the round, and the median of
that over the run's rounds.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent

# End-to-end metrics a worker measures; run.py adds setup_s.
END_TO_END = {"wall_ref": "ref"}


def import_program():
    """Import chemostab from the checkout's own src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import chemostab

    if not Path(chemostab.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"chemostab imported from {chemostab.__file__}, not from {src}")
    return chemostab


def operator_cache(helmholtz):
    """The lru_cache behind helmholtz.get_operator, under any trace wrapper,
    or None once the program no longer caches operators."""
    fn = helmholtz.get_operator
    while not hasattr(fn, "cache_info") and hasattr(fn, "__wrapped__"):
        fn = fn.__wrapped__
    return fn if hasattr(fn, "cache_info") else None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_rounds(workloads, helmholtz, name, inputs, seconds):
    """Whole rounds until `seconds` have passed, with the reference timed
    around every operation. Also returns the operator builds (cache
    misses) of all rounds and the peak RSS after the first."""
    rounds, builds, first_rss = [], 0, 0.0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        cache = operator_cache(helmholtz)
        if cache is not None:
            cache.cache_clear()
        refs = []
        rounds.append(workloads.run_round(name, inputs, lambda: refs.append(reference.seconds())))
        refs.append(reference.seconds())
        rounds[-1].refs = refs
        if cache is not None:
            builds += cache.cache_info().misses
        first_rss = first_rss or peak_rss_mb()
    return rounds, builds, first_rss


def by_name(rounds) -> dict[str, list]:
    """Every repetition of each operation, by operation name."""
    ops: dict[str, list] = {}
    for r in rounds:
        for op in r.operations:
            ops.setdefault(op.name, []).append(op)
    return ops


def round_cost(r) -> float:
    """A round's time in reference units: each operation over the mean of
    the reference times just before and just after it."""
    return sum(2.0 * op.seconds / (before + after)
               for op, before, after in zip(r.operations, r.refs, r.refs[1:]))


def end_to_end(rounds) -> dict:
    """wall_ref: the median round cost of the run."""
    return {"wall_ref": statistics.median(round_cost(r) for r in rounds)}


def tally(rounds, fault: str) -> dict:
    """Operations attempted and failed; `correct` is false when any
    operation failed for another reason than the known fault."""
    ops = [op for r in rounds for op in r.operations]
    failed = [op for op in ops if op.failures]
    reasons = sorted({f"{op.name}: {f}" for op in failed for f in op.failures})
    return {
        "attempted": len(ops),
        "failed": len(failed),
        "correct": all(f.startswith(fault) for op in failed for f in op.failures),
        "failures": reasons,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import_program()
    from chemostab import helmholtz

    import checks
    import tracing
    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    report = {"setup_s": setup_s}
    if not args.trace:
        rounds, _, _ = run_rounds(workloads, helmholtz, args.workload, inputs, args.seconds)
        values = end_to_end(rounds)
        units = END_TO_END
    else:
        plain, _, rss = run_rounds(workloads, helmholtz, args.workload, inputs,
                                   args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, builds, _ = run_rounds(workloads, helmholtz, args.workload, inputs,
                                           args.seconds / 2)
        finally:
            tracer.uninstall()
        if tracer.missing:
            print(f"trace: not found in the program: {', '.join(tracer.missing)}",
                  file=sys.stderr)
        overhead = min(r.wall_s for r in traced) - min(r.wall_s for r in plain)
        scenario_s = {name: min(op.seconds for op in ops)
                      for name, ops in by_name(plain).items()}
        values = tracing.layer_metrics(tracer, len(traced), builds, scenario_s, overhead, rss)
        values["run.wall_s"] = statistics.median(r.wall_s for r in plain)
        values["run.reference_ms"] = 1e3 * statistics.median(t for r in plain for t in r.refs)
        units = dict(tracing.per_layer_names())
        tracer.save(ROOT / ".perfbench" / f"trace-{args.workload}.npz")
        rounds = plain + traced
    report["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    report.update(tally(rounds, checks.FIXED_STEP_FAULT))
    report["rounds"] = [{"seconds": [op.seconds for op in r.operations], "refs": r.refs}
                        for r in rounds]
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
