"""Span tracer for the benchmark's traced runs.

The tracer wraps momrank's public functions from the outside, without any
change to ``src/``. ``training`` and ``cli`` bind functions such as
``forward``, ``gradients``, ``load_csv`` and ``fit`` by name at import, so
patching only the defining module would miss those calls. ``install`` therefore
replaces every binding of a wrapped function in every ``momrank`` module, and
``uninstall`` puts the originals back.

A span is (name, start, end, parent); spans stay in memory until the run
ends. The self time of a span is its duration minus the durations of its
direct children. Nothing runs concurrently, so a layer's self time is the
most a faster version of that layer could save.

This module imports neither numpy nor momrank at import time, so that a setup
probe can time those imports.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("data", "momentum", "model", "autodiff", "losses", "training", "metrics",
          "backtest", "cli")

# (module, function or Class.method, span name). Span names start with the
# layer they belong to; each becomes a ``<span>_s`` self-time metric.
SPANS = [
    ("autodiff", "gradients", "autodiff.gradients"),
    ("autodiff", "Tensor.backward", "autodiff.backward"),
    ("model", "forward", "model.forward"),
    ("model", "predict_panel", "model.predict"),
    ("model", "load_checkpoint", "model.checkpoint_load"),
    ("model", "save_checkpoint", "model.checkpoint_save"),
    ("losses", "mse_loss", "losses.mse"),
    ("losses", "cross_entropy", "losses.ce"),
    ("losses", "classification_loss", "losses.classification"),
    ("losses", "make_rank_batch", "losses.rank_batch"),
    ("losses", "ndcg_loss", "losses.ndcg"),
    ("losses", "pairwise_loss", "losses.pairwise"),
    ("training", "fit", "training.fit"),
    ("training", "build_batches", "training.build_batches"),
    ("training", "log_grad", "training.log_grad"),
    ("training", "ema_update", "training.pipeline"),
    ("training", "balance_gradients", "training.pipeline"),
    ("training", "_GroupOptimizer.step", "training.optimizer_step"),
    ("training", "_split_metrics", "training.epoch_eval"),
    ("momentum", "label_dataset", "momentum.label"),
    ("data", "load_csv", "data.load_csv"),
    ("data", "gen_synthetic", "data.gen"),
    ("data", "normalize_features", "data.normalize"),
    ("data", "split", "data.split"),
    ("cli", "main", "cli.main"),
    ("cli", "_prepare_panel", "cli.prepare_panel"),
    ("metrics", "evaluate_predictions", "metrics.evaluate"),
    ("metrics", "daily_rank_ic", "metrics.rank_ic"),
    ("backtest", "run_topn", "backtest.run_topn"),
]

SPAN_NAMES = sorted({name for _, _, name in SPANS})


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.largest_ndcg: tuple | None = None  # (scores, gains, group_sizes, threshold, k)
        self._undo: list[tuple[object, str, object]] = []

    # ---- spans ----

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn, count):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(self, args, out)
            return out
        return traced

    # ---- installation ----

    def install(self) -> None:
        """Wrap every binding of the SPANS functions in every momrank module."""
        modules = [importlib.import_module(f"momrank.{m}") for m in LAYERS]
        for mod_name, attr, name in SPANS:
            home = importlib.import_module(f"momrank.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                self._patch(cls, meth, self._wrap(name, getattr(cls, meth), _COUNTERS.get(name)))
                continue
            fn = getattr(home, attr)
            wrapped = self._wrap(name, fn, _COUNTERS.get(name))
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, binding, wrapped)
        tensor = importlib.import_module("momrank.autodiff").Tensor
        init = tensor.__init__
        counts = self.counts

        def counting_init(obj, *args, **kwargs):
            counts["autodiff.tensors_created"] += 1
            init(obj, *args, **kwargs)

        self._patch(tensor, "__init__", counting_init)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # ---- aggregation ----

    def summary(self) -> dict:
        """Self and total time per span name, call counts and child counts.

        ``op_layers_s`` is the summed self time of the layer spans inside
        "bench.op" spans: the part of the timed operation the layers account for.
        """
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        calls_under: dict[tuple[str, str], int] = defaultdict(int)
        names, parents = self.names, self.parents
        bench_root: list[str] = []  # nearest enclosing bench.* span; parents come first
        op_layers_s = 0.0
        for i, name in enumerate(names):
            dur = self.ends[i] - self.starts[i]
            self_s[name] += dur
            total_s[name] += dur
            calls[name] += 1
            p = parents[i]
            bench_root.append(name if name.startswith("bench.") or p < 0 else bench_root[p])
            if bench_root[i] == "bench.op" and not name.startswith("bench."):
                op_layers_s += dur
            if p >= 0:
                self_s[names[p]] -= dur
                calls_under[(name, names[p])] += 1
                if bench_root[p] == "bench.op" and not names[p].startswith("bench."):
                    op_layers_s -= dur
        return {"self_s": self_s, "total_s": total_s, "calls": calls,
                "calls_under": calls_under, "op_layers_s": op_layers_s}

    def write(self, path: str) -> None:
        """Dump every span as [name index, start, end, parent index]."""
        index = {name: i for i, name in enumerate(sorted(set(self.names)))}
        spans = [[index[n], s, e, p] for n, s, e, p in
                 zip(self.names, self.starts, self.ends, self.parents)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": sorted(index, key=index.get), "spans": spans,
                       "counts": dict(self.counts)}, fh)


def _count_forward(tracer: Tracer, args, out) -> None:
    tracer.counts["model.forward_rows"] += len(args[1])


def _count_load_csv(tracer: Tracer, args, out) -> None:
    tracer.counts["data.load_csv_rows"] += int(out.valid.sum())


def _count_label(tracer: Tracer, args, out) -> None:
    tracer.counts["momentum.cells_labeled"] += int((out >= 0).sum())


def _count_ndcg(tracer: Tracer, args, out) -> None:
    batch = args[0]
    n = int(batch.gains.size)
    tracer.counts["losses.ndcg_pairs"] += n * n
    if tracer.largest_ndcg is None or n > tracer.largest_ndcg[1].size:
        tracer.largest_ndcg = (batch.scores.data.copy(), batch.gains.copy(),
                               list(batch.group_sizes), batch.threshold, batch.k)


_COUNTERS = {
    "model.forward": _count_forward,
    "data.load_csv": _count_load_csv,
    "momentum.label": _count_label,
    "losses.ndcg": _count_ndcg,
}
