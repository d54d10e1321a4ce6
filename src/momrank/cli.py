"""Command-line entry points: label, train, evaluate, backtest, reproduce.

Every artifact embeds the resolved configuration (and therefore the seed) as
``# key = value`` header lines in CSVs or a ``config`` object in JSON, so any
output is re-derivable from its own file. Exit codes: 0 success, 1 config
error, 2 runtime error. ``--out-dir`` is made at the first artifact written.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

# One BLAS thread unless the caller chose otherwise: the matmuls are too small
# to gain from threads, and on a busy host a threaded BLAS is many times slower.
# This must run before the first numpy import below.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from .backtest import cumulative_return, run_topn
from .config import ExperimentConfig, _fmt_value, build_config, load_config, to_flat
from .data import (SplitSpec, StockPanel, compute_return, fraction_split_spec, gen_synthetic,
                   load_csv, normalize_features, split)
from .errors import ConfigError, ContractError, MomrankError
from .metrics import EvalReport, evaluate_predictions
from .model import (Architecture, load_checkpoint, predict_panel, save_checkpoint, window_ok,
                    write_json)
from .momentum import UNLABELED, label_dataset
from .training import N_CLASSES, FitResult, class_labels_for, fit

REPRODUCE_CELLS: list[tuple[str, dict[str, str]]] = [
    ("full", {}),
    ("equal_weight", {"train.mode": "ew"}),
    ("single_task", {"train.mode": "stl"}),
    ("rise_fall", {"train.task": "rise_fall"}),
    ("pairwise", {"loss.ranking": "pairwise"}),
    ("fixed_k", {}),  # loss.fixed_k filled from backtest.top_n at run time
    ("fixed_beta", {"train.mode": "fixed_beta"}),
    ("fixed_decay", {"train.mode": "fixed_decay"}),
]


def _write_csv(path, provenance: dict[str, str], header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for key, value in provenance.items():
            fh.write(f"# {key} = {value}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt_value(v) for v in row) + "\n")


def _prepare_panel(cfg: ExperimentConfig) -> StockPanel:
    if cfg.data.source == "csv":
        panel = load_csv(cfg.data.csv_path)
    else:
        panel = gen_synthetic(cfg.data.n_dates, cfg.data.n_tickers, cfg.data.signal_strength,
                              seed=cfg.seed, n_features=cfg.data.n_features,
                              shift_after=cfg.data.shift_after,
                              shifted_signal_strength=cfg.data.shifted_signal_strength)
    return normalize_features(panel)


def _split_panels(cfg: ExperimentConfig, panel: StockPanel):
    if cfg.split.train is not None:
        spec = SplitSpec(cfg.split.train, cfg.split.valid, cfg.split.test)
    else:
        spec = fraction_split_spec(panel, cfg.split.train_frac, cfg.split.valid_frac)
    return split(panel, spec)


def _pick_split(cfg: ExperimentConfig, panel: StockPanel, name: str) -> StockPanel:
    """The named split; it must have a day with 2 names to score against next-day returns."""
    train_p, valid_p, test_p = _split_panels(cfg, panel)
    picked = {"train": train_p, "valid": valid_p, "test": test_p}[name]
    if picked.n_dates < 2 or not (
            (window_ok(picked, cfg.train.window) & np.isfinite(compute_return(picked)))
            .sum(axis=1) >= 2).any():
        raise ContractError(f"no scoreable day in the {name} split: it has {picked.n_dates} "
                            f"dates, and with train.window = {cfg.train.window} no date has "
                            f"2 names with a full feature window and a next-day return")
    return picked


def _check_arch(arch: Architecture, cfg: ExperimentConfig, panel: StockPanel, path) -> None:
    """Reject a checkpoint whose architecture does not fit the run's config and panel."""
    n_classes = N_CLASSES[cfg.train.task]
    for field, have, want, source in (
            ("window", arch.window, cfg.train.window, "train.window"),
            ("n_features", arch.n_features, panel.n_features, "the panel's n_features"),
            ("n_classes", arch.n_classes, n_classes, f"train.task={cfg.train.task}")):
        if have != want:
            raise ContractError(f"{path}: checkpoint arch.{field} = {have} does not match "
                                f"{source} ({want})")


def _scored_split(cfg: ExperimentConfig, checkpoint, split_name: str):
    """The named split and the checkpoint's regression-head scores on it."""
    if not checkpoint:
        raise ContractError("a --checkpoint path is required")
    if not os.path.exists(checkpoint):
        raise ContractError(f"checkpoint not found: {checkpoint}")
    params, _ = load_checkpoint(checkpoint)
    panel = _prepare_panel(cfg)
    _check_arch(params.arch, cfg, panel, checkpoint)
    picked = _pick_split(cfg, panel, split_name)
    return picked, predict_panel(params, picked)


def _artifact(out_dir: str, name: str) -> str:
    """The path of an artifact in ``out_dir``; the directory is made at its first artifact."""
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def cmd_label(cfg: ExperimentConfig, out_dir: str) -> None:
    panel = _prepare_panel(cfg)
    labels = label_dataset(panel, cfg.momentum)
    days, names = np.nonzero(labels != UNLABELED)
    rows = [(panel.dates[t], panel.tickers[i], level)
            for t, i, level in zip(days.tolist(), names.tolist(), labels[days, names].tolist())]
    _write_csv(_artifact(out_dir, "labels.csv"), to_flat(cfg), ["date", "ticker", "level"], rows)


def write_train(cfg: ExperimentConfig, out_dir: str, train_p, valid_p) -> FitResult:
    """Fit, then write checkpoint.json, epochs.csv and the training-day k_hist.csv."""
    result = fit(train_p, valid_p, cfg.momentum, cfg.loss, cfg.train, cfg.seed)
    flat = to_flat(cfg)
    save_checkpoint(_artifact(out_dir, "checkpoint.json"), result.params,
                    extra={"config": flat, "best_epoch": result.best_epoch,
                           "epochs_run": result.epochs_run,
                           "k_counts": {str(k): c for k, c in result.k_counts.items()}})
    _write_csv(_artifact(out_dir, "epochs.csv"), flat,
               ["epoch", "split", "task", "loss", "V", "beta", "decay", "ic", "rank_ic"],
               [(r.epoch, r.split, r.task, r.loss, r.converge, r.beta, r.decay, r.ic, r.rank_ic)
                for r in result.epoch_log])
    _write_csv(_artifact(out_dir, "k_hist.csv"), flat, ["k", "count"],
               sorted(result.k_counts.items()))
    return result


def write_evaluate(cfg: ExperimentConfig, out_dir: str, panel: StockPanel, scores: np.ndarray,
                   split_name: str) -> EvalReport:
    """Score a split and write report.json; its k histogram is the report's ``k_histogram``."""
    labels = class_labels_for(panel, cfg.train.task, cfg.momentum)
    report = evaluate_predictions(scores, panel, precision_ns=cfg.eval.precision_ns,
                                  class_labels=labels, loss_cfg=cfg.loss)
    write_json(_artifact(out_dir, "report.json"),
               {"config": to_flat(cfg), "split": split_name, "report": report.to_dict()})
    return report


def write_backtest(cfg: ExperimentConfig, out_dir: str, panel: StockPanel,
                   scores: np.ndarray) -> float:
    """Run the Top-N backtest, write ledger.csv and return the cumulative return in percent."""
    ledger = run_topn(panel, scores, cfg.eval.top_n, cfg.eval.cost_bps)
    cum_return = cumulative_return(ledger)
    _write_csv(_artifact(out_dir, "ledger.csv"),
               {**to_flat(cfg), "cumulative_return_pct": repr(cum_return)},
               ["date", "balance", "daily_return"],
               zip(ledger.dates, ledger.balance, ledger.daily_return))
    return cum_return


def cmd_reproduce(cfg: ExperimentConfig, out_dir: str) -> None:
    """Train, evaluate and backtest each ablation cell into ``out_dir/<cell>`` through the
    commands' own writers, then write comparison.csv. Prints one progress line per finished
    cell to stderr: name, wall time, test IC."""
    base_flat = to_flat(cfg)
    header = ["variant", "ic", "rank_ic", "ic_std_e3", "rank_ic_std_e3"]
    precision_cols = [f"precision_at_{n}" for n in cfg.eval.precision_ns]
    header += precision_cols + ["cum_return_pct", "best_epoch", "epochs_run"]
    # no cell overrides a data.*, split.* or momentum.* key, so every cell shares one
    # panel and one split
    panel = _prepare_panel(cfg)
    if cfg.eval.top_n >= panel.n_tickers:  # every cell would hold the whole universe
        raise ContractError(f"backtest.top_n = {cfg.eval.top_n} must be below the "
                            f"panel's {panel.n_tickers} tickers")
    train_p, valid_p, test_p = _split_panels(cfg, panel)
    rows = []
    for i, (name, delta) in enumerate(REPRODUCE_CELLS, 1):
        started = time.perf_counter()
        fixed_k = {"loss.fixed_k": str(cfg.eval.top_n)} if name == "fixed_k" else {}
        cell_cfg = build_config({**base_flat, **delta, **fixed_k})
        cell_dir = os.path.join(out_dir, name)
        result = write_train(cell_cfg, cell_dir, train_p, valid_p)
        scores = predict_panel(result.params, test_p)
        report = write_evaluate(cell_cfg, cell_dir, test_p, scores, "test")
        row = [name, report.ic, report.rank_ic, report.ic_std, report.rank_ic_std]
        row += [report.precision_at.get(n, float("nan")) for n in cell_cfg.eval.precision_ns]
        row += [write_backtest(cell_cfg, cell_dir, test_p, scores), result.best_epoch,
                result.epochs_run]
        rows.append(row)
        print(f"reproduce [{i}/{len(REPRODUCE_CELLS)}] {name}: "
              f"{time.perf_counter() - started:.2f} s, test IC {report.ic:.4f}",
              file=sys.stderr, flush=True)
    _write_csv(_artifact(out_dir, "comparison.csv"), base_flat, header, rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="momrank",
                                     description="Momentum-labeled multi-task stock ranking")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_ckpt in (("label", False), ("train", False), ("evaluate", True),
                             ("backtest", True), ("reproduce", False)):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
        p.add_argument("--out-dir", default="momrank_out")
        if needs_ckpt:
            p.add_argument("--checkpoint", required=False, default=None)
            p.add_argument("--split", default="test", choices=("train", "valid", "test"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.set)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.command == "label":
            cmd_label(cfg, args.out_dir)
        elif args.command == "train":
            train_p, valid_p, _ = _split_panels(cfg, _prepare_panel(cfg))
            write_train(cfg, args.out_dir, train_p, valid_p)
        elif args.command == "reproduce":
            cmd_reproduce(cfg, args.out_dir)
        else:
            panel, scores = _scored_split(cfg, args.checkpoint, args.split)
            if args.command == "evaluate":
                write_evaluate(cfg, args.out_dir, panel, scores, args.split)
            else:
                write_backtest(cfg, args.out_dir, panel, scores)
    except (MomrankError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
