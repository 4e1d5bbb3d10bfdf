"""Record the expected output digests of every workload item.

Run this at a reference commit whose outputs are trusted; the benchmark then
checks every later run against the file it writes:

    python3 perfbench/record.py [--workload-seed N]

writes ``perfbench/expected/<N>.json`` (N defaults to 20260819).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

import workloads
from worker import BENCH_DIR, STATE_DIR, import_package


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload-seed", type=int, default=workloads.DEFAULT_WORKLOAD_SEED)
    args = parser.parse_args(argv)

    api = import_package()
    os.makedirs(STATE_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="record-", dir=STATE_DIR)
    recorded: dict[str, dict[str, str]] = {}
    try:
        for name in workloads.NAMES:
            workload = workloads.build(name, api, args.workload_seed, scratch)
            recorded[name] = {
                item.key: workloads.digest(item.canonical(item.run()))
                for item in workload.items + workload.checks
            }
            print(f"{name}: {len(recorded[name])} digests", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    path = workloads.expected_path(BENCH_DIR, args.workload_seed)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
