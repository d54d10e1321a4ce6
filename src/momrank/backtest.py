"""Daily Top-N rebalance simulation against next-day realized returns.

Each day the N highest-scored tradable stocks, in the order Precision@N ranks
by, are bought equal-weight and sold the next day; the account compounds from
1.0, less a turnover cost of two one-way trades a day.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import StockPanel, compute_return, day_sums, sorted_within_days
from .errors import ContractError


@dataclass
class BacktestLedger:
    dates: list[str]
    balance: np.ndarray        # account value after each day's trade
    daily_return: np.ndarray
    holdings: list[list[str]]


def run_topn(panel: StockPanel, scores: np.ndarray, top_n: int,
             cost_bps: float = 0.0) -> BacktestLedger:
    """Simulate the strategy over every date with a defined next-day return.

    Ties in score break by ticker order; days with fewer than N candidates
    hold all of them; days with none sit in cash (zero return). A day's net
    return is floored at -1, so a ruined account stays at 0.
    """
    if top_n < 1:
        raise ContractError("top_n must be >= 1")
    if scores.shape != panel.close.shape:
        raise ContractError(f"scores shape {scores.shape} does not match panel {panel.close.shape}")
    y, scores = compute_return(panel)[:-1], scores[:-1]
    ok = np.isfinite(y) & np.isfinite(scores)   # each day's candidates
    sizes = ok.sum(axis=1)
    held = np.minimum(sizes, top_n)
    order = sorted_within_days(-scores[ok], sizes)   # best first, ties in ticker order
    rank = np.arange(order.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    picks = order[rank < top_n]
    ends = np.cumsum(held)
    gross = day_sums(y[ok][picks], ends - held) / np.maximum(held, 1)
    daily = np.where(held > 0, np.maximum(gross - 2.0 * cost_bps / 1e4, -1.0), 0.0)
    names = [panel.tickers[i] for i in np.nonzero(ok)[1][picks].tolist()]
    return BacktestLedger(panel.dates[:-1], np.cumprod(1.0 + daily), daily,
                          [names[lo:hi] for lo, hi in zip((ends - held).tolist(), ends.tolist())])


def cumulative_return(ledger: BacktestLedger) -> float:
    """Final account growth in percent."""
    if ledger.balance.size == 0:
        raise ContractError("empty ledger")
    return 100.0 * (float(ledger.balance[-1]) - 1.0)
