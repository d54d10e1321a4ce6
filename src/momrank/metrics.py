"""Cross-sectional evaluation: daily IC, RankIC, Precision@N, k statistics.

All correlations use population moments, are computed per trading day on the
cross-section, and are averaged over days with a defined value. Days with
fewer than two stocks or zero variance on either side are undefined and drop
out of the mean. Standard deviations across days are reported x1e3, matching
the usual table convention for these metrics.

The kernels take a whole split at once, in ``data``'s day layout, where a
day's result does not depend on the other days. So they can take a split
``_GROUP_ROWS`` names of whole days at a time, which keeps their temporaries
to a few hundred KiB on any split.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .data import StockPanel, compute_return, day_grid, day_sums, sorted_within_days
from .errors import ContractError
from .losses import RankLossConfig, level_ks
from .momentum import UNLABELED

_GROUP_ROWS = 4096  # names of whole days per kernel pass; a larger day runs alone


def _day_groups(sizes: np.ndarray, *arrays):
    """Yield runs of whole days of at most ``_GROUP_ROWS`` names: each run's
    slices of ``arrays`` and its day sizes. Yields once, empty, for no days."""
    ends = np.cumsum(sizes)
    first = lo = 0
    while True:
        stop = int(np.searchsorted(ends, lo + _GROUP_ROWS, side="right"))
        stop = min(sizes.size, max(first + 1, stop))
        hi = int(ends[stop - 1]) if stop else 0
        yield (*(a[lo:hi] for a in arrays), sizes[first:stop])
        if stop >= sizes.size:
            return
        first, lo = stop, hi


def _pearson(a: np.ndarray, b: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Per-day Pearson correlation with population moments; NaN where undefined."""
    starts = np.cumsum(sizes) - sizes
    n = sizes.astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        dev_a = a - np.repeat(day_sums(a, starts) / n, sizes)
        dev_b = b - np.repeat(day_sums(b, starts) / n, sizes)
        sd_a = np.sqrt(day_sums(dev_a * dev_a, starts) / n)
        sd_b = np.sqrt(day_sums(dev_b * dev_b, starts) / n)
        ic = day_sums(dev_a * dev_b, starts) / n / (sd_a * sd_b)
    return np.where((sizes < 2) | (sd_a < 1e-15) | (sd_b < 1e-15), np.nan, ic)


def day_ranks(v: np.ndarray, sizes) -> np.ndarray:
    """1-based ranks within each day, ties averaged."""
    v = np.asarray(v, dtype=np.float64)
    sizes = np.asarray(sizes, dtype=np.int64)
    order = sorted_within_days(v, sizes)
    sv = v[order]
    first = np.ones(v.size, dtype=bool)      # first entry of each tie run
    first[1:] = sv[1:] != sv[:-1]
    starts = np.cumsum(sizes) - sizes
    first[starts[sizes > 0]] = True
    run_lo = np.flatnonzero(first)
    run_hi = np.empty_like(run_lo)               # inclusive
    run_hi[:-1] = run_lo[1:] - 1
    run_hi[-1:] = v.size - 1
    day_lo = np.repeat(starts, sizes)[run_lo]
    ranks = np.empty(v.size)
    ranks[order] = np.repeat(((run_lo - day_lo) + (run_hi - day_lo)) / 2.0 + 1.0,
                             run_hi - run_lo + 1)
    return ranks


def day_ics(pred: np.ndarray, y: np.ndarray, sizes) -> tuple[np.ndarray, np.ndarray]:
    """IC and RankIC of each day of a split; NaN where undefined."""
    pred = np.asarray(pred, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    sizes = np.asarray(sizes, dtype=np.int64)
    if pred.shape != y.shape or pred.ndim != 1 or sizes.sum() != pred.size:
        raise ContractError(f"shape mismatch {pred.shape} vs {y.shape} "
                            f"for days of {sizes.sum()} names")
    parts = [(_pearson(p, q, n), _pearson(day_ranks(p, n), day_ranks(q, n), n))
             for p, q, n in _day_groups(sizes, pred, y)]
    return np.concatenate([ic for ic, _ in parts]), np.concatenate([ric for _, ric in parts])


def day_precisions(pred: np.ndarray, y: np.ndarray, sizes, n_tops) -> dict[int, np.ndarray]:
    """Precision@N of each day of a split for each N; NaN on days of N names or fewer.

    Percent of the N top-scored names with positive realized return, ties in
    score broken by position within the day. On a day of exactly N names it
    would be the day's share of positive returns, whatever the scores.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    if any(n_top < 1 for n_top in n_tops):
        raise ContractError(f"precision depths must be >= 1, got {list(n_tops)}")
    parts = []
    for p, q, n in _day_groups(sizes, np.asarray(pred, dtype=np.float64),
                               np.asarray(y, dtype=np.float64)):
        grid, _ = day_grid(q[sorted_within_days(-p, n)], n)
        hits = np.cumsum(grid > 0, axis=1)   # positive returns among each day's top names
        part = {}
        for n_top in n_tops:
            counts = hits[:, n_top - 1] if n_top <= hits.shape[1] else np.zeros(n.size)
            part[n_top] = np.where(n > n_top, 100.0 * counts / n_top, np.nan)
        parts.append(part)
    return {n_top: np.concatenate([part[n_top] for part in parts]) for n_top in n_tops}


def daily_rank_ic(pred: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation of average-ranked vectors; NaN if undefined."""
    return float(day_ics(pred, y, [np.size(pred)])[1][0])


def defined(daily_values) -> np.ndarray:
    """A per-day metric's values on the days it is defined: the finite ones, in day order."""
    values = np.asarray(daily_values, dtype=np.float64)
    return values[np.isfinite(values)]


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
    precision_at: dict[int, float]
    k_histogram: dict[int, int]
    n_days: int

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


def aggregate(daily_ics, daily_rank_ics, daily_precisions: dict[int, list[float]],
              k_values) -> EvalReport:
    """Mean the per-day values over defined days; stds reported x1e3."""
    ics, rics = defined(daily_ics), defined(daily_rank_ics)
    if ics.size == 0 or rics.size == 0:
        raise ContractError("no defined days to aggregate")
    precision_at = {}
    for n_top, vals in daily_precisions.items():
        finite = defined(vals)
        if finite.size:
            precision_at[n_top] = float(finite.mean())
    return EvalReport(
        ic=float(ics.mean()),
        rank_ic=float(rics.mean()),
        ic_std=float(ics.std() * 1e3),
        rank_ic_std=float(rics.std() * 1e3),
        precision_at=precision_at,
        k_histogram=record_k(k_values),
        n_days=int(ics.size),
    )


def evaluate_predictions(scores: np.ndarray, panel: StockPanel,
                         precision_ns=(10, 20, 30, 50),
                         class_labels: np.ndarray | None = None,
                         loss_cfg: RankLossConfig | None = None) -> EvalReport:
    """Score a prediction matrix against a panel's realized next-day returns.

    A day counts when at least 2 names have a score and a next-day return (a
    finite return implies a valid cell). Precision@N on a day is only defined
    when the day has more than N such names. When class labels are given, the
    day-by-day truncation depth k over those names' labels (``level_ks``:
    fixed or adaptive, as in training) is recorded into the report's k
    histogram.
    """
    y = compute_return(panel)
    ok = np.isfinite(y) & np.isfinite(scores)
    days = np.flatnonzero(ok.sum(axis=1) >= 2)
    ok = ok[days]
    sizes = ok.sum(axis=1)
    pred, ret = scores[days][ok], y[days][ok]
    ics, rics = day_ics(pred, ret, sizes)
    precisions = day_precisions(pred, ret, sizes, precision_ns)
    k_values = []
    if class_labels is not None:
        labeled = ok & (class_labels[days] != UNLABELED)
        lab = class_labels[days][labeled]
        if lab.size:
            _, _, ks = level_ks(lab, labeled.sum(axis=1), int(lab.max()) + 1,
                                loss_cfg or RankLossConfig())
            k_values = ks[labeled.any(axis=1)].tolist()
    return aggregate(ics, rics, precisions, k_values)
