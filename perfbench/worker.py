"""One measuring process: set up a workload, run timed passes, check outputs.

Run by ``run.py`` in a fresh process per run, so that the peak RSS it
reports belongs to this workload alone.  With ``--setup-only`` it only
times the set-up (package import plus inputs) and exits.  Prints one JSON
object on stdout.

A pass runs every item once, in the order ``--seed`` fixes, as a closed
loop with one client: the next item starts when the previous one returns.
Passes repeat while the next one is expected to end within ``--seconds``;
there is always at least one.  With ``--trace 1`` untraced and traced
passes alternate, and the per-layer figures come from the traced passes.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import sys
import tempfile
import time

import summary
import tracing
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
STATE_DIR = os.path.join(ROOT, ".perfbench")  # run log and scratch inputs


def fail(message: str) -> None:
    print(f"perfbench worker: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import oriented_ideals
    except ImportError as exc:
        fail(f"cannot import oriented_ideals from {src}: {exc}")
    if not os.path.abspath(oriented_ideals.__file__).startswith(src + os.sep):
        fail(f"oriented_ideals came from {oriented_ideals.__file__}, not {src}")
    return oriented_ideals


def run_pass(workload, order, tracer=None):
    """Time each item; returns (wall, per-item times, outputs, errors)."""
    items = workload.items
    times = [0.0] * len(items)
    outputs: list[object] = [None] * len(items)
    errors: dict[int, str] = {}
    pass_start = time.perf_counter()
    for i in order:
        start = time.perf_counter()
        span = tracer.open(tracing.ITEM) if tracer else -1
        try:
            outputs[i] = items[i].run()
        except Exception as exc:  # a failed item is counted, and the pass goes on
            errors[i] = f"{items[i].key}: {type(exc).__name__}: {exc}"
        finally:
            if tracer:
                tracer.close(span)
        times[i] = time.perf_counter() - start
    return time.perf_counter() - pass_start, times, outputs, errors


def check_pass(items, outputs, errors, expected) -> tuple[list[str], list[str]]:
    """(problems, digests) for one pass; an erroring item has digest ''."""
    problems = list(errors.values())
    digests = []
    for i, item in enumerate(items):
        if i in errors:
            digests.append("")
            continue
        got, problem = workloads.check(item, outputs[i], expected)
        digests.append(got)
        if problem:
            problems.append(problem)
    return problems, digests


def measure(workload, order, expected, seconds: float, traced: bool) -> dict:
    deadline = time.perf_counter() + seconds
    walls, traced_walls, item_times, layers = [], [], [], []
    problems: list[str] = []
    digest_sets = set()
    attempted = failed = 0
    seen_spans: set[str] = set()

    def one(tracer=None) -> float:
        nonlocal attempted, failed
        wall, times, outputs, errors = run_pass(workload, order, tracer)
        bad, digests = check_pass(workload.items, outputs, errors, expected)
        attempted += len(times)
        failed += len(bad)
        problems.extend(bad)
        digest_sets.add(tuple(digests))
        if tracer is None:
            item_times.append(times)
        else:
            stdout_bytes = sum(
                len(o.stdout.encode()) for o in outputs if isinstance(o, workloads.CliOutput)
            )
            layers.append({**tracing.layer_metrics(tracer), "cli.stdout_bytes": stdout_bytes})
            seen_spans.update(tracer.names)
        return wall

    def one_traced() -> float:
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        try:
            return one(tracer)
        finally:
            uninstall()

    # with tracing, untraced and traced passes alternate, so that host drift
    # falls on both sides of trace.overhead_s alike
    while True:
        walls.append(one())
        if traced:
            traced_walls.append(one_traced())
        cycle = summary.median(walls) + (summary.median(traced_walls) if traced else 0.0)
        if time.perf_counter() + cycle > deadline:
            break

    for check in workload.checks:
        attempted += 1
        try:
            problem = workloads.check(check, check.run(), expected)[1]
        except Exception as exc:  # counted as a failure like a timed item
            problem = f"{check.key}: {type(exc).__name__}: {exc}"
        if problem:
            failed += 1
            problems.append(problem)

    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "passes": len(walls),
        "pass_walls": walls,
        "wall_s": summary.median(walls),
        "item_p50_ms": summary.median([t for times in item_times for t in times]) * 1e3,
        "item_tail_ms": summary.median([summary.item_tail(t) for t in item_times]) * 1e3,
        "items_per_pass": len(workload.items),
        "tail_percentile": summary.tail_percentile(len(workload.items)),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        # every pass, traced or not, gave the same digests
        "digests_agree": len(digest_sets) == 1,
    }
    if traced:
        per_layer = {n: summary.median([pass_[n] for pass_ in layers]) for n in layers[0]}
        per_layer["trace.overhead_s"] = summary.median(traced_walls) - result["wall_s"]
        result["per_layer"] = per_layer
        result["traced_passes"] = len(traced_walls)
        expected_spans = workloads.EXPECTED_SPANS.get(workload.name, ())
        result["missing_spans"] = sorted(set(expected_spans) - seen_spans)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0, help="item order")
    parser.add_argument("--workload-seed", type=int, default=workloads.DEFAULT_WORKLOAD_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    setup_start = time.perf_counter()
    api = import_package()
    os.makedirs(STATE_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="inputs-", dir=STATE_DIR)
    try:
        workload = workloads.build(args.workload, api, args.workload_seed, scratch)
        setup_s = time.perf_counter() - setup_start
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        path = workloads.expected_path(BENCH_DIR, args.workload_seed)
        try:
            with open(path) as fh:
                expected = json.load(fh)[args.workload]
        except (OSError, KeyError, ValueError) as exc:
            fail(
                f"no recorded digests for workload seed {args.workload_seed} in {path} "
                f"({exc}); record them at a reference commit with perfbench/record.py"
            )
        order = list(range(len(workload.items)))
        random.Random(args.seed).shuffle(order)
        result = measure(workload, order, expected, args.seconds, bool(args.trace))
        result["setup_s"] = setup_s
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
