"""chemostab benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout: the program is imported from its src/.
Each workload runs in a fresh worker process (worker.py) that repeats whole
rounds of the workload for --seconds and checks every output. The last
line on stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, wall_ref);
with --trace 1 the per-layer ones of tracing.py. setup_s is the median
over the worker and 2 * SETUP_PROBES processes that only set up, half
before the worker and half after, so that they sample the machine over
the whole run. Workers run with one BLAS thread. With --workload all,
each workload prints its own line and the last line sums them, its
metrics prefixed "<workload>.".
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("verdicts", "grid-2d", "aggregation-cfl", "fuzz")
SETUP_PROBES = 2   # set-up-only processes before the worker, and as many after
# One BLAS thread: the load comes from one thread of one process, so that
# the run measures the program and not how busy the other CPUs are.
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                      "MKL_NUM_THREADS")}
TIME_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> dict:
    """Run one worker to completion and return its last stdout line as JSON."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before the worker started")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args, "--t0", repr(t0)],
            cwd=ROOT, env={**os.environ, **ONE_THREAD}, stdout=subprocess.PIPE,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the time limit: {' '.join(args)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]

    def probes() -> list[float]:
        if trace:
            return []
        return [spawn([*common, "--trace", "0", "--setup-only"], deadline)["setup_s"]
                for _ in range(SETUP_PROBES)]

    setups = probes()
    report = spawn([*common, "--trace", str(trace)], deadline)
    walls = [sum(r["seconds"]) for r in report["rounds"]]
    refs = [t for r in report["rounds"] for t in r["refs"]]
    print(f"{workload}: {len(walls)} rounds of {min(walls):.3f}..{max(walls):.3f} s, "
          f"reference {1e3 * statistics.median(refs):.2f} ms, "
          f"{report['attempted']} operations, {report['failed']} failed", file=sys.stderr)
    for reason in report["failures"]:
        print(f"  failed {reason}", file=sys.stderr)
    metrics = report["metrics"]
    if not trace:
        setups += [report["setup_s"], *probes()]
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description="chemostab benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "chemostab" / "__init__.py").is_file():
        print(f"error: no chemostab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + TIME_LIMIT_S
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            if len(names) > 1:
                print(json.dumps({"workload": name, **results[name]}))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
