"""Workloads of the momrank benchmark, each run in a fresh process by run.py.

Modes (``python3 perfbench/bench.py <mode> ...``, from the repository root,
with ``src`` on PYTHONPATH):

  probe    time ``import momrank`` plus the panel preparation the workload
           pays before its timed operation; prints one setup_s sample
  fixture  write the score workload's CSV panel and checkpoint for a seed
  measure  run the workload's operation in a closed loop for --seconds,
           check every output, and print one JSON result line

Every input is generated from the data seed. Numpy and momrank are imported
inside functions, so that a probe can time those imports.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

SIGNAL = 0.6
NDCG_SWEEP = (50, 200, 500, 1000, 2000)

# top_n is set below the 50-name pool on desk and ablation: at top_n = 50 the
# Top-N backtest would hold every stock and ignore the model.
WORKLOADS = {
    "desk": {"kind": "fit", "n_dates": 250, "n_tickers": 50, "epochs": 3, "top_n": 10},
    "universe": {"kind": "fit", "n_dates": 250, "n_tickers": 500, "epochs": 1, "top_n": 50},
    "ablation": {"kind": "reproduce", "n_dates": 250, "n_tickers": 50, "epochs": 1,
                 "top_n": 10},
    "score": {"kind": "score", "n_dates": 1000, "n_tickers": 200, "drop_frac": 0.01,
              "top_n": 50, "ckpt_dates": 250, "ckpt_tickers": 50, "ckpt_epochs": 2},
}

# Relative tolerance for outputs against the values recorded in reference/.
REFERENCE_RTOL = 1e-9


# ---- setup ----

def prepare_panels(spec: dict, seed: int):
    """Synthetic panel, per-date normalization and the 60/20/20 split."""
    from momrank import data
    panel = data.normalize_features(
        data.gen_synthetic(spec["n_dates"], spec["n_tickers"], SIGNAL, seed=seed))
    return data.split(panel, data.fraction_split_spec(panel, 0.6, 0.2))


def probe(workload: str, seed: int) -> float:
    spec = WORKLOADS[workload]
    t0 = time.perf_counter()
    import momrank  # noqa: F401
    if spec["kind"] == "fit":
        prepare_panels(spec, seed)
    else:
        import momrank.cli  # noqa: F401
    return time.perf_counter() - t0


def fixture_paths(fixture_dir: str) -> tuple[str, str]:
    return os.path.join(fixture_dir, "panel.csv"), os.path.join(fixture_dir, "checkpoint.json")


def write_fixture(seed: int, out_dir: str) -> None:
    """CSV panel with ~1% of rows missing, and a checkpoint trained on a small panel."""
    import numpy as np
    from momrank import data, losses, model, momentum, training
    spec = WORKLOADS["score"]
    csv_path, ckpt_path = fixture_paths(out_dir)
    panel = data.gen_synthetic(spec["n_dates"], spec["n_tickers"], SIGNAL, seed=seed)
    keep = np.random.Generator(np.random.Philox(seed + 1)).random(panel.valid.shape) \
        >= spec["drop_frac"]
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("date,ticker,close," + ",".join(f"f{j}" for j in range(panel.n_features))
                 + "\n")
        for t, date in enumerate(panel.dates):
            for i, ticker in enumerate(panel.tickers):
                if keep[t, i]:
                    vals = [float(panel.close[t, i])] + [float(v) for v in panel.features[t, i]]
                    fh.write(f"{date},{ticker}," + ",".join(repr(v) for v in vals) + "\n")
        fh.flush()
        os.fsync(fh.fileno())  # no writeback of the fixture while the workload is timed
    train_p, valid_p, _ = prepare_panels(
        {"n_dates": spec["ckpt_dates"], "n_tickers": spec["ckpt_tickers"]}, seed)
    result = training.fit(train_p, valid_p, momentum.MomentumConfig(), losses.RankLossConfig(),
                          training.TrainConfig(epochs=spec["ckpt_epochs"]), seed=seed)
    model.save_checkpoint(ckpt_path, result.params, extra={"fixture_seed": seed})


# ---- output checks ----

def ledger_failures(balance, daily_return) -> list[str]:
    """The ledger identity: balance == cumprod(1 + daily_return)."""
    import numpy as np
    balance = np.asarray(balance, dtype=np.float64)
    expect = np.cumprod(1.0 + np.asarray(daily_return, dtype=np.float64))
    if balance.size == 0 or not np.allclose(balance, expect, rtol=1e-12, atol=0.0):
        return ["ledger balance != cumprod(1 + daily_return)"]
    return []


def ic_failures(scores, panel, ic: float) -> list[str]:
    """Mean daily Pearson IC recomputed with np.corrcoef, against the library's."""
    import numpy as np
    close, valid = panel.close, panel.valid
    daily = []
    for t in range(panel.n_dates - 1):
        ok = valid[t] & valid[t + 1] & np.isfinite(scores[t])
        if ok.sum() < 2:
            continue
        y = (close[t + 1, ok] - close[t, ok]) / close[t, ok]
        if scores[t, ok].std() < 1e-15 or y.std() < 1e-15:
            continue
        daily.append(np.corrcoef(scores[t, ok], y)[0, 1])
    oracle = float(np.mean(daily)) if daily else float("nan")
    if not math.isclose(oracle, ic, rel_tol=1e-9, abs_tol=1e-12):
        return [f"test_ic {ic!r} != recomputed {oracle!r}"]
    return []


def _same(a, b) -> bool:
    if isinstance(a, list) or isinstance(b, list):
        return (isinstance(a, list) and isinstance(b, list) and len(a) == len(b)
                and all(_same(x, y) for x, y in zip(a, b)))
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=REFERENCE_RTOL, abs_tol=1e-12)


def load_reference(workload: str, seed: int) -> dict | None:
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(str(seed))


def reference_failures(outputs: dict, reference: dict | None) -> list[str]:
    if reference is None:
        return ["no reference values recorded for this seed"]
    return [f"{key} differs from the reference" for key in sorted(reference)
            if key not in outputs or not _same(outputs[key], reference[key])]


def _read_csv(path: str) -> tuple[dict[str, str], list[dict[str, str]]]:
    """Provenance header lines ``# key = value`` and the rows of a momrank CSV."""
    header: dict[str, str] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    body = []
    for line in lines:
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            header[key] = value
        else:
            body.append(line)
    return header, list(csv.DictReader(body))


# ---- workload operations ----
#
# Each operation returns (timings, outputs, failures). ``span`` opens a
# tracer span or does nothing; "bench.op" covers exactly the timed operation.

class Context:
    def __init__(self, workload: str, seed: int, work_dir: str, fixture_dir: str | None):
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.work_dir = work_dir
        self.fixture_dir = fixture_dir
        self.panels = None
        self.library_report = None
        if self.spec["kind"] == "fit":
            self.panels = prepare_panels(self.spec, seed)
        if self.spec["kind"] == "score":
            self.library_report = _library_score(self)

    def cli_args(self, *extra: str) -> list[str]:
        spec = self.spec
        sets = {"seed": self.seed, "backtest.top_n": spec["top_n"]}
        if spec["kind"] == "score":
            csv_path, _ = fixture_paths(self.fixture_dir)
            sets.update({"data.source": "csv", "data.csv_path": csv_path})
        else:
            sets.update({"data.n_dates": spec["n_dates"], "data.n_tickers": spec["n_tickers"],
                         "train.epochs": spec["epochs"]})
        args = list(extra)
        for key, value in sets.items():
            args += ["--set", f"{key}={value}"]
        return args


def _library_score(ctx: Context):
    """The test-split report for the fixture checkpoint, computed through the library."""
    from momrank import config, data, metrics, model, training
    csv_path, ckpt_path = fixture_paths(ctx.fixture_dir)
    cfg = config.load_config(None, ctx.cli_args()[1::2])
    params, _ = model.load_checkpoint(ckpt_path)
    panel = data.normalize_features(data.load_csv(csv_path))
    _, _, test_p = data.split(panel, data.fraction_split_spec(panel, 0.6, 0.2))
    scores = model.predict_panel(params, test_p)
    labels = training.class_labels_for(test_p, cfg.train.task, cfg.momentum)
    return metrics.evaluate_predictions(scores, test_p, precision_ns=cfg.eval.precision_ns,
                                        class_labels=labels, loss_cfg=cfg.loss)


def op_fit(ctx: Context, span, panels):
    from momrank import backtest, losses, metrics, model, momentum, training
    spec = ctx.spec
    train_p, valid_p, test_p = panels
    # patience >= epochs, so early stopping never changes the amount of work
    cfg = training.TrainConfig(epochs=spec["epochs"], patience=spec["epochs"])
    t0 = time.perf_counter()
    with span("bench.op"):
        result = training.fit(train_p, valid_p, momentum.MomentumConfig(),
                              losses.RankLossConfig(), cfg, seed=ctx.seed)
    t1 = time.perf_counter()
    with span("bench.post"):
        scores = model.predict_panel(result.params, test_p)
        report = metrics.evaluate_predictions(scores, test_p)
        ledger = backtest.run_topn(test_p, scores, spec["top_n"])
    t2 = time.perf_counter()
    outputs = {"epoch_losses": [r.loss for r in result.epoch_log],
               "test_ic": report.ic, "test_rank_ic": report.rank_ic,
               "cum_return_pct": backtest.cumulative_return(ledger)}
    failures = ledger_failures(ledger.balance, ledger.daily_return)
    failures += ic_failures(scores, test_p, report.ic)
    return {"op_s": t1 - t0, "post_s": t2 - t1}, outputs, failures


def op_reproduce(ctx: Context, span, panels):
    from momrank import cli
    out_dir = os.path.join(ctx.work_dir, "reproduce")
    t0 = time.perf_counter()
    with span("bench.op"):
        code = cli.main(ctx.cli_args("reproduce", "--out-dir", out_dir))
    t1 = time.perf_counter()
    if code != 0:
        return {"op_s": t1 - t0}, {}, [f"reproduce exited {code}"]
    header, rows = _read_csv(os.path.join(out_dir, "comparison.csv"))
    failures = []
    names = [name for name, _ in cli.REPRODUCE_CELLS]
    if [r["variant"] for r in rows] != names:
        failures.append(f"comparison.csv rows {[r['variant'] for r in rows]} != {names}")
    ics = [float(r["ic"]) for r in rows]
    if not all(math.isfinite(v) for v in ics):
        failures.append("comparison.csv has a non-finite IC")
    if header.get("backtest.top_n") != str(ctx.spec["top_n"]):
        failures.append("comparison.csv was not run at the workload's top_n")
    for name in names:
        if not os.path.exists(os.path.join(out_dir, name, "checkpoint.json")):
            failures.append(f"no checkpoint for cell {name}")
    full = rows[0] if rows else {"ic": "nan", "rank_ic": "nan"}
    outputs = {"test_ic": float(full["ic"]), "test_rank_ic": float(full["rank_ic"]),
               "ic": ics, "rank_ic": [float(r["rank_ic"]) for r in rows],
               "cum_return_pct": [float(r["cum_return_pct"]) for r in rows]}
    return {"op_s": t1 - t0}, outputs, failures


def op_score(ctx: Context, span, panels):
    from momrank import cli
    _, ckpt_path = fixture_paths(ctx.fixture_dir)
    out_dir = os.path.join(ctx.work_dir, "score")
    t0 = time.perf_counter()
    with span("bench.op"):
        codes = [cli.main(ctx.cli_args(cmd, "--checkpoint", ckpt_path, "--out-dir", out_dir))
                 for cmd in ("evaluate", "backtest")]
    t1 = time.perf_counter()
    if codes != [0, 0]:
        return {"op_s": t1 - t0}, {}, [f"evaluate/backtest exited {codes}"]
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)["report"]
    header, rows = _read_csv(os.path.join(out_dir, "ledger.csv"))
    balance = [float(r["balance"]) for r in rows]
    failures = ledger_failures(balance, [float(r["daily_return"]) for r in rows])
    lib = ctx.library_report
    for key, value in (("ic", lib.ic), ("rank_ic", lib.rank_ic)):
        if not math.isclose(report[key], value, rel_tol=1e-12, abs_tol=1e-15):
            failures.append(f"report.json {key} {report[key]!r} != library {value!r}")
    cum = float(header.get("cumulative_return_pct", "nan"))
    if not balance or not math.isclose(cum, 100.0 * (balance[-1] - 1.0), rel_tol=1e-9):
        failures.append("ledger.csv cumulative_return_pct does not match its balance")
    outputs = {"test_ic": report["ic"], "test_rank_ic": report["rank_ic"],
               "precision_at": [report["precision_at"][k] for k in sorted(report["precision_at"])],
               "cum_return_pct": cum}
    return {"op_s": t1 - t0}, outputs, failures


OPS = {"fit": op_fit, "reproduce": op_reproduce, "score": op_score}


def iteration(ctx: Context, tracer=None):
    """One closed-loop operation; with a tracer, the setup is traced too.

    The previous operation's garbage is collected first, so that each
    operation starts as it would in a fresh process and peak_rss_mb is the
    peak of one operation.
    """
    gc.collect()
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    panels = ctx.panels
    if tracer is not None and ctx.spec["kind"] == "fit":
        with span("bench.setup"):
            panels = prepare_panels(ctx.spec, ctx.seed)
    return OPS[ctx.spec["kind"]](ctx, span, panels)


# ---- measurement ----

def machine() -> dict:
    import numpy as np
    import platform
    info = {"nproc": os.cpu_count(), "cpu": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "threads": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        if models:
            info["cpu"] = models[0]
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    return info


def _peak_mib(fn) -> float:
    """tracemalloc peak of one call of ``fn``, in MiB."""
    import tracemalloc
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def ndcg_probe(n: int, rng, cfg, repeats: int) -> tuple[float, float]:
    """make_rank_batch -> ndcg_loss -> backward on an n-name pool: median s, peak MiB."""
    from momrank import autodiff, losses
    scores = rng.uniform(0.0, 40.0, n)
    levels = rng.integers(0, 5, n)

    def step():
        batch = losses.make_rank_batch(autodiff.Tensor(scores), levels, 5, cfg)
        losses.ndcg_loss(batch, cfg.gain).backward()

    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        step()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), _peak_mib(step)


def replay_ndcg_peak(largest) -> float:
    """Peak MiB of the largest traced ndcg_loss call plus its backward, replayed."""
    from momrank import autodiff, losses
    if largest is None:
        return 0.0
    scores, gains, group_sizes, threshold, k = largest

    def step():
        batch = losses.RankBatch(scores=autodiff.Tensor(scores), gains=gains,
                                 group_sizes=group_sizes, threshold=threshold, k=k)
        losses.ndcg_loss(batch, losses.RankLossConfig().gain).backward()

    return _peak_mib(step)


def layer_metrics(tracer, n_iter: int) -> dict[str, float]:
    """Per-iteration per-layer metrics from the tracer's spans and counters."""
    from tracer import LAYERS, SPAN_NAMES
    s = tracer.summary()
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}_s"] = s["self_s"].get(name, 0.0) / n_iter
    for name in ("training.epoch_eval", "cli.prepare_panel"):
        out[f"{name}_total_s"] = s["total_s"].get(name, 0.0) / n_iter
    out["autodiff.backward_calls"] = s["calls"].get("autodiff.backward", 0) / n_iter
    out["model.forward_calls"] = s["calls"].get("model.forward", 0) / n_iter
    out["training.steps"] = s["calls_under"].get(("model.forward", "training.fit"), 0) / n_iter
    for key in ("autodiff.tensors_created", "model.forward_rows", "losses.ndcg_pairs",
                "momentum.cells_labeled", "data.load_csv_rows"):
        out[key] = tracer.counts.get(key, 0) / n_iter
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in s["self_s"].items()
                                     if k.split(".")[0] == layer) / n_iter
    out["trace.unattributed_s"] = s["self_s"].get("bench.op", 0.0) / n_iter
    out["trace.op_layers_s"] = s["op_layers_s"] / n_iter
    out["trace.spans"] = len(tracer.names) / n_iter
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool, work_dir: str,
            fixture_dir: str | None) -> dict:
    ctx = Context(workload, seed, work_dir, fixture_dir)
    reference = load_reference(workload, seed)
    samples: dict[str, list[float]] = {}
    failures: list[str] = []
    attempted = failed = 0
    outputs = None
    traced_s: list[float] = []
    untraced_s: list[float] = []
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()

    def run_one(traced: bool):
        nonlocal attempted, failed
        attempted += 1
        try:
            if traced:
                with tracer.installed():
                    with tracer.span("bench.iteration"):
                        result = iteration(ctx, tracer)
            else:
                result = iteration(ctx)
        except Exception as exc:  # a failed operation is counted, not fatal
            failed += 1
            failures.append(f"{type(exc).__name__}: {exc}")
            return None
        timings, outs, fails = result
        fails = fails + reference_failures(outs, reference)
        if fails:
            failed += 1
            failures.extend(fails)
        return timings, outs

    start = time.perf_counter()
    pair = 0
    while True:
        if trace:
            order = (False, True) if pair % 2 == 0 else (True, False)
            got = {traced: run_one(traced) for traced in order}
            if got[False] and got[True]:
                untraced_s.append(got[False][0]["op_s"])
                traced_s.append(got[True][0]["op_s"])
                if json.dumps(got[False][1], sort_keys=True) != json.dumps(got[True][1],
                                                                          sort_keys=True):
                    failed += 1
                    failures.append("traced and untraced outputs differ")
                outputs = got[False][1]
            pair += 1
        else:
            got = run_one(False)
            if got:
                for key, value in got[0].items():
                    samples.setdefault(key, []).append(value)
                outputs = got[1]
        if time.perf_counter() - start >= seconds:
            break

    result = {"attempted": attempted, "failed": failed, "failures": failures[:20],
              "outputs": outputs, "machine": machine(), "samples": samples}
    if trace and traced_s:
        metrics = layer_metrics(tracer, len(traced_s))
        op_traced, op_untraced = statistics.median(traced_s), statistics.median(untraced_s)
        metrics.update({
            "trace.op_traced_s": op_traced, "trace.op_untraced_s": op_untraced,
            "trace.overhead_s": op_traced - op_untraced,
            "trace.overhead_frac": (op_traced - op_untraced) / op_untraced,
            "trace.outputs_identical": float("traced and untraced outputs differ"
                                             not in failures),
            "losses.ndcg_peak_mib": replay_ndcg_peak(tracer.largest_ndcg),
        })
        import numpy as np
        from momrank import losses
        rng = np.random.Generator(np.random.Philox(seed))
        for n in NDCG_SWEEP:
            t, peak = ndcg_probe(n, rng, losses.RankLossConfig(), repeats=3)
            metrics[f"losses.ndcg_n{n}_s"] = t
            metrics[f"losses.ndcg_n{n}_peak_mib"] = peak
        tracer.write(os.path.join(work_dir, "trace.json"))
        result["metrics"] = metrics
    elif samples.get("op_s"):
        result["metrics"] = {
            "op_s": statistics.median(samples["op_s"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("probe", "fixture", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", default=None)
    parser.add_argument("--fixture-dir", default=None)
    args = parser.parse_args(argv)
    if args.mode == "probe":
        print(json.dumps({"setup_s": probe(args.workload, args.seed)}))
    elif args.mode == "fixture":
        write_fixture(args.seed, args.fixture_dir)
    else:
        print(json.dumps(measure(args.workload, args.seed, args.seconds, bool(args.trace),
                                 args.work_dir, args.fixture_dir)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
