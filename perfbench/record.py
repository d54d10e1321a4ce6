"""Record the reference outputs that run.py checks every operation against.

    python3 perfbench/record.py --workload desk [--seeds 0-31]

Run from the repository root. For each data seed it runs the workload's
operation once in a fresh process, exactly as run.py does, and stores the
outputs (epoch-log losses, test IC and RankIC, backtest returns) in
``perfbench/reference/<workload>.json``. Re-record only when a change to the
program is meant to change those outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Record benchmark reference outputs.")
    parser.add_argument("--workload", required=True, choices=sorted(run.bench.WORKLOADS))
    parser.add_argument("--seeds", default=f"0-{run.DATA_SEEDS - 1}",
                        help="inclusive range lo-hi of data seeds")
    args = parser.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    root = os.getcwd()
    work = os.path.join(run.HERE, "_work")
    path = os.path.join(run.bench.REFERENCE_DIR, f"{args.workload}.json")
    table = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            table = json.load(fh)
    for seed in range(int(lo), int(hi or lo) + 1):
        deadline = time.monotonic() + run.TIME_LIMIT_S
        run_dir = os.path.join(work, f"record-{args.workload}-{os.getpid()}")
        os.makedirs(run_dir)
        try:
            cmd = ["measure", "--workload", args.workload, "--seed", str(seed),
                   "--seconds", "0", "--work-dir", run_dir]
            if args.workload == "score":
                cmd += ["--fixture-dir", run.ensure_fixture(work, seed, root, deadline)]
            result = json.loads(run.run_child(cmd, root, deadline))
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        if result["outputs"] is None:
            print(f"seed {seed}: the operation failed: {result['failures']}", file=sys.stderr)
            return 1
        table[str(seed)] = result["outputs"]
        print(f"seed {seed}: test_ic {result['outputs']['test_ic']!r}", flush=True)
    os.makedirs(run.bench.REFERENCE_DIR, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(table.items(), key=lambda kv: int(kv[0]))), fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
