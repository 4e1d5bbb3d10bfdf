"""Benchmark of the exact edge-ideal pipeline: one workload per run.

    python3 perfbench/run.py --workload sample200-s3 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads: sample200-s3, cycle-w2, cover-scan, cli-mix (see
``BENCHMARK.json`` for why each was chosen).  Each run:

1. times a fixed pure-Python reference loop, a record of host speed;
2. times the set-up (package import plus inputs) in four fresh processes;
3. runs the workload in one more fresh process for ``--seconds``
   (``worker.py``) and checks every output against the recorded digests.

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer ones from a traced run.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; each run is also
appended to ``.perfbench/runs.jsonl`` with the reference-loop time.  Exits
1 when any output differs from its recorded digest, and 2 when the
package or the digests cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import summary
import tracing
import workloads
from worker import BENCH_DIR, ROOT, STATE_DIR

WORKER = os.path.join(BENCH_DIR, "worker.py")
RUN_LOG = os.path.join(STATE_DIR, "runs.jsonl")

SETUP_PROBES = 4
END_TO_END_UNITS = {
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}


class WorkerError(RuntimeError):
    pass


def call_worker(args: list[str], timeout: float) -> dict:
    """Run worker.py with the given arguments; its last stdout line as JSON."""
    proc = subprocess.run(
        [sys.executable, WORKER, *args],
        capture_output=True, text=True, timeout=timeout, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise WorkerError(proc.stderr.strip() or f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=(*workloads.NAMES, "all"),
        help="one workload, or all of them in turn (one result line each)",
    )
    parser.add_argument("--seed", type=int, default=0, help="seeds the item order")
    parser.add_argument(
        "--workload-seed", type=int, default=workloads.DEFAULT_WORKLOAD_SEED,
        help="seeds the random graphs (needs recorded digests for that seed)",
    )
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    return max(run(name, args) for name in names)


def run(workload: str, args: argparse.Namespace) -> int:
    """Measure one workload; prints its metrics and result line, returns the exit code."""
    started = time.perf_counter()
    host_ref_s = summary.reference_loop_seconds()
    common = ["--workload", workload, "--workload-seed", str(args.workload_seed)]
    try:
        setups = [
            call_worker([*common, "--setup-only"], timeout=60)["setup_s"]
            for _ in range(SETUP_PROBES)
        ]
        budget = max(1.0, args.seconds - (time.perf_counter() - started))
        result = call_worker(
            [*common, "--seed", str(args.seed), "--seconds", str(budget),
             "--trace", str(args.trace)],
            timeout=budget + 120,
        )
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    setups.append(result["setup_s"])

    correct = result["failed"] == 0 and result["digests_agree"]
    if args.trace:
        correct = correct and not result["missing_spans"]
        values = result["per_layer"]
        units = tracing.LAYER_UNITS
    else:
        values = {n: result[n] for n in END_TO_END_UNITS if n != "setup_s"}
        values["setup_s"] = summary.median(setups)
        units = END_TO_END_UNITS
    metrics = {n: {"value": values[n], "unit": u} for n, u in units.items()}

    for problem in result["problems"]:
        print(f"MISMATCH {problem}", file=sys.stderr)
    for span in result.get("missing_spans", ()):
        print(f"MISSING SPAN {span}", file=sys.stderr)
    print(f"workload {workload}: {result['items_per_pass']} items per pass, "
          f"{result['passes']} untraced passes"
          + (f", {result['traced_passes']} traced passes" if args.trace else ""))
    tail = result["tail_percentile"]
    print("item_tail_ms is " + (f"p{tail}" if tail else "the slowest item (< 20 items)"))
    print(f"host_ref_s {host_ref_s:.6f} s")
    print(f"failed_frac {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']}/{result['attempted']})")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")

    os.makedirs(os.path.dirname(RUN_LOG), exist_ok=True)
    with open(RUN_LOG, "a") as fh:
        record = {
            "time": time.time(), "workload": workload, "seed": args.seed,
            "workload_seed": args.workload_seed, "trace": args.trace,
            "host_ref_s": host_ref_s, "pass_walls": result["pass_walls"],
            "correct": correct, "metrics": {n: m["value"] for n, m in metrics.items()},
        }
        fh.write(json.dumps(record) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
