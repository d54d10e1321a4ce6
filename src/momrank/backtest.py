"""Daily Top-N rebalance simulation against next-day realized returns.

Each day the N highest-scored tradable stocks are bought equal-weight and sold
the next day; the account compounds multiplicatively from 1.0. Turnover cost
is charged as two one-way trades per day.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import StockPanel, compute_return
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
    hold all of them; days with none sit in cash (zero return).
    """
    if top_n < 1:
        raise ContractError("top_n must be >= 1")
    if scores.shape != panel.close.shape:
        raise ContractError(f"scores shape {scores.shape} does not match panel {panel.close.shape}")
    y = compute_return(panel)
    cost = 2.0 * cost_bps / 1e4
    dates: list[str] = []
    returns: list[float] = []
    holdings: list[list[str]] = []
    balance: list[float] = []
    value = 1.0
    for t in range(panel.n_dates - 1):
        candidates = np.flatnonzero(np.isfinite(y[t]) & np.isfinite(scores[t]))
        if candidates.size == 0:
            picks = np.empty(0, dtype=np.int64)
            day_ret = 0.0
        else:
            order = np.argsort(-scores[t, candidates], kind="stable")
            picks = candidates[order[:top_n]]
            day_ret = float(y[t, picks].mean()) - cost
        value *= 1.0 + day_ret
        dates.append(panel.dates[t])
        returns.append(day_ret)
        holdings.append([panel.tickers[i] for i in picks])
        balance.append(value)
    return BacktestLedger(dates=dates, balance=np.asarray(balance),
                          daily_return=np.asarray(returns), holdings=holdings)


def cumulative_return(ledger: BacktestLedger) -> float:
    """Final account growth in percent."""
    if ledger.balance.size == 0:
        raise ContractError("empty ledger")
    return 100.0 * (float(ledger.balance[-1]) - 1.0)
