"""Run one momrank benchmark workload and print its metrics.

    python3 perfbench/run.py --workload desk --seed 3 --seconds 20 --trace 0

Run it from the repository root; it imports momrank from ``src``. The
workloads, their metrics and the reasons for each are listed in
``BENCHMARK.json``. Each run:

1. maps ``--seed`` to one of ``DATA_SEEDS`` input seeds, whose outputs are
   recorded in ``perfbench/reference/`` (``perfbench/record.py`` writes them);
2. for ``score``, builds the CSV panel and checkpoint fixture for that seed in
   its own process (kept in ``perfbench/_work`` for the next run);
3. with ``--trace 0``, times ``setup_s`` in ``PROBES`` fresh processes (after
   one discarded warm-up) and reports the median;
4. runs the workload in one fresh process: a closed loop of the workload's
   operation for ``--seconds``, every output checked. With ``--trace 1`` the
   loop alternates untraced and traced operations and reports the per-layer
   metrics, the tracing overhead and the NDCG pool-size sweep.

Children run with OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1. The last line
of standard output is the JSON result; the lines before it are for people.
The exit code is 0 when every output check passed, 1 when one failed and 2
when the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bench  # noqa: E402  (stdlib-only at import)

DATA_SEEDS = 32
PROBES = 5
TIME_LIMIT_S = 170.0  # a run must end within 180 s


class RunError(Exception):
    pass


def child_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    env.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
                "PYTHONPATH": os.path.join(root, "src")})
    return env


def run_child(args: list[str], root: str, deadline: float) -> str:
    """Run bench.py in a fresh interpreter; return its last stdout line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("out of time before " + args[0])
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "bench.py")] + args,
                              cwd=root, env=child_env(root), capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise RunError(f"bench.py {args[0]} did not finish in time") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RunError(f"bench.py {args[0]} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return lines[-1] if lines else ""


def ensure_fixture(work: str, seed: int, root: str, deadline: float) -> str:
    """The score fixture for ``seed``; fixtures of other seeds are removed."""
    final = os.path.join(work, f"score-fixture-{seed}")
    if os.path.isdir(final):
        return final
    for name in os.listdir(work):
        if name.startswith("score-fixture"):
            shutil.rmtree(os.path.join(work, name))
    tmp = os.path.join(work, f"score-fixture-tmp-{os.getpid()}")
    os.makedirs(tmp)
    run_child(["fixture", "--workload", "score", "--seed", str(seed), "--fixture-dir", tmp],
              root, deadline)
    os.replace(tmp, final)
    return final


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return "p_hi n/a (fewer than 11 samples)"
    ordered = sorted(values)
    return f"p{100 * (n - 10) // n} {ordered[n - 11]:.4f}"


def report_lines(workload: str, result: dict, setup: list[float]) -> list[str]:
    lines = [f"machine {json.dumps(result['machine'], sort_keys=True)}"]
    names = {"fit": ("fit_s", "predict_eval_backtest_s"), "reproduce": ("reproduce_s",),
             "score": ("score_s",)}[bench.WORKLOADS[workload]["kind"]]
    samples = result["samples"]
    for name, key in zip(names, ("op_s", "post_s")):
        vals = samples.get(key, [])
        if vals:
            lines.append(f"{name:<24} median {statistics.median(vals):.4f} s  {tail(vals)}  "
                         f"n={len(vals)}")
    if setup:
        lines.append(f"{'setup_s':<24} median {statistics.median(setup):.4f} s  "
                     f"{tail(setup)}  n={len(setup)}")
    if "peak_rss_mb" in result["metrics"]:
        lines.append(f"{'peak_rss_mb':<24} {result['metrics']['peak_rss_mb']:.1f} MB")
    for key in ("test_ic", "test_rank_ic"):
        lines.append(f"{key:<24} {result['outputs'][key]:.6f} corr")
    attempted, failed = result["attempted"], result["failed"]
    lines.append(f"{'fail_frac':<24} {failed / max(attempted, 1):.4f} fraction "
                 f"({failed} of {attempted})")
    lines += [f"check failed: {msg}" for msg in result["failures"]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one momrank benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "momrank", "__init__.py")):
        print("error: run from the repository root; src/momrank is missing", file=sys.stderr)
        return 2
    seed = args.seed % DATA_SEEDS
    work = os.path.join(HERE, "_work")
    run_dir = os.path.join(work, f"run-{args.workload}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        fixture = None
        if args.workload == "score":
            fixture = ensure_fixture(work, seed, root, deadline)
        setup: list[float] = []
        if not args.trace:
            probe = ["probe", "--workload", args.workload, "--seed", str(seed)]
            for i in range(PROBES + 1):
                sample = json.loads(run_child(probe, root, deadline))["setup_s"]
                if i:  # the first probe warms the file and bytecode caches
                    setup.append(sample)
        measure = ["measure", "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--work-dir", run_dir]
        if fixture:
            measure += ["--fixture-dir", fixture]
        result = json.loads(run_child(measure, root, deadline))
    except (RunError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        spans = os.path.join(run_dir, "trace.json")
        if os.path.exists(spans):
            os.replace(spans, os.path.join(work, f"trace-{args.workload}.json"))
        shutil.rmtree(run_dir, ignore_errors=True)
    metrics = result.get("metrics")
    if not metrics:
        print("error: no operation completed", file=sys.stderr)
        return 2
    if setup:
        metrics["setup_s"] = statistics.median(setup)
    print(f"workload {args.workload} seed {args.seed} (data seed {seed}) "
          f"seconds {args.seconds:g} trace {args.trace}")
    for line in report_lines(args.workload, result, setup):
        print(line)
    correct = result["failed"] == 0
    out = {name: {"value": value, "unit": unit_of(name)} for name, value in sorted(metrics.items())}
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": out}))
    return 0 if correct else 1


def unit_of(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
