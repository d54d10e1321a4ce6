"""Cross-sectional evaluation: daily IC, RankIC, Precision@N, k statistics.

All correlations use population moments, are computed per trading day on the
cross-section, and are averaged over days with a defined value. Days with
fewer than two stocks or zero variance on either side are undefined and drop
out of the mean. Standard deviations across days are reported x1e3, matching
the usual table convention for these metrics.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .data import StockPanel, compute_return
from .errors import ContractError
from .losses import RankLossConfig, adaptive_k, level_groups
from .momentum import UNLABELED


def daily_ic(pred: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation of one day's cross-section; NaN if undefined."""
    pred = np.asarray(pred, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if pred.shape != y.shape:
        raise ContractError(f"shape mismatch {pred.shape} vs {y.shape}")
    if pred.size < 2:
        return float("nan")
    sp, sy = pred.std(), y.std()
    if sp < 1e-15 or sy < 1e-15:
        return float("nan")
    cov = ((pred - pred.mean()) * (y - y.mean())).mean()
    return float(cov / (sp * sy))


def average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks, ties averaged."""
    v = np.asarray(v, dtype=np.float64)
    order = np.argsort(v, kind="stable")
    sv = v[order]
    cuts = np.flatnonzero(sv[1:] != sv[:-1]) + 1   # first index of each tie run but the first
    start = np.concatenate(([0], cuts))
    end = np.concatenate((cuts, [v.size])) - 1      # inclusive
    ranks = np.empty(v.size, dtype=np.float64)
    ranks[order] = np.repeat((start + end) / 2.0 + 1.0, end - start + 1)
    return ranks


def daily_rank_ic(pred: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation of average-ranked vectors; NaN if undefined."""
    pred = np.asarray(pred, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if pred.size < 2:
        return float("nan")
    return daily_ic(average_ranks(pred), average_ranks(y))


def precision_at_n(pred: np.ndarray, y: np.ndarray, n_top: int) -> float:
    """Percent of the N top-scored names with positive realized return."""
    pred = np.asarray(pred, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if pred.shape != y.shape:
        raise ContractError(f"shape mismatch {pred.shape} vs {y.shape}")
    if n_top < 1 or n_top > pred.size:
        raise ContractError(f"N={n_top} out of range for {pred.size} stocks")
    top = np.argsort(-pred, kind="stable")[:n_top]
    return 100.0 * float((y[top] > 0).sum()) / n_top


def record_k(k_values) -> dict[int, int]:
    """Occurrence count per truncation depth."""
    return dict(sorted(Counter(int(k) for k in k_values).items()))


@dataclass
class EvalReport:
    """Across-day metric summary. Std fields are x1e3 (table convention)."""

    ic: float
    rank_ic: float
    ic_std: float
    rank_ic_std: float
    precision_at: dict[int, float] = field(default_factory=dict)
    k_histogram: dict[int, int] = field(default_factory=dict)
    n_days: int = 0

    def to_dict(self) -> dict:
        return {
            "ic": self.ic,
            "rank_ic": self.rank_ic,
            "ic_std_e3": self.ic_std,
            "rank_ic_std_e3": self.rank_ic_std,
            "precision_at": {str(n): v for n, v in self.precision_at.items()},
            "k_histogram": {str(k): c for k, c in self.k_histogram.items()},
            "n_days": self.n_days,
        }


def aggregate(daily_ics, daily_rank_ics, daily_precisions: dict[int, list[float]] | None = None,
              k_values=None) -> EvalReport:
    """Mean the per-day values over defined days; stds reported x1e3."""
    ics = np.asarray([v for v in daily_ics if np.isfinite(v)], dtype=np.float64)
    rics = np.asarray([v for v in daily_rank_ics if np.isfinite(v)], dtype=np.float64)
    if ics.size == 0 or rics.size == 0:
        raise ContractError("no defined days to aggregate")
    precision_at = {}
    for n_top, vals in (daily_precisions or {}).items():
        finite = [v for v in vals if np.isfinite(v)]
        if finite:
            precision_at[n_top] = float(np.mean(finite))
    return EvalReport(
        ic=float(ics.mean()),
        rank_ic=float(rics.mean()),
        ic_std=float(ics.std() * 1e3),
        rank_ic_std=float(rics.std() * 1e3),
        precision_at=precision_at,
        k_histogram=record_k(k_values or []),
        n_days=int(ics.size),
    )


def evaluate_predictions(scores: np.ndarray, panel: StockPanel,
                         precision_ns=(10, 20, 30, 50),
                         class_labels: np.ndarray | None = None,
                         loss_cfg: RankLossConfig | None = None) -> EvalReport:
    """Score a prediction matrix against a panel's realized next-day returns.

    Precision@N on a day is only defined when the day has at least N scored
    stocks. When class labels are given, the day-by-day adaptive truncation
    depth is recorded into the report's k histogram.
    """
    y = compute_return(panel).y
    ics, rics = [], []
    precisions: dict[int, list[float]] = {n: [] for n in precision_ns}
    k_values: list[int] = []
    cfg = loss_cfg or RankLossConfig()
    for t in range(panel.n_dates):
        ok = np.isfinite(y[t]) & np.isfinite(scores[t]) & panel.valid[t]
        if ok.sum() < 2:
            continue
        pred_t, y_t = scores[t, ok], y[t, ok]
        ics.append(daily_ic(pred_t, y_t))
        rics.append(daily_rank_ic(pred_t, y_t))
        for n_top in precision_ns:
            if n_top <= pred_t.size:
                precisions[n_top].append(precision_at_n(pred_t, y_t, n_top))
        if class_labels is not None and cfg.fixed_k is None:
            lab = class_labels[t, ok]
            lab = lab[lab != UNLABELED]
            if lab.size:
                k_values.append(adaptive_k(*level_groups(lab, int(lab.max()) + 1,
                                                         cfg.threshold_frac)))
    return aggregate(ics, rics, precisions, k_values)
