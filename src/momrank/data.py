"""Stock panels: CSV loading, labels, normalization, splits, synthetic markets.

A panel is a dense date x ticker grid. Cells with no observation are masked
invalid and carry NaN; masked cells never enter batches, losses, metrics or
backtests. All randomness goes through numpy's Philox generator (a documented
64-bit counter-based algorithm), so a seed pins the panel bit-for-bit.
"""

from __future__ import annotations

import csv
import datetime as _dt
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DataError


@dataclass
class StockPanel:
    """Date x ticker panel of closes, feature channels and a validity mask."""

    dates: list[str]            # ISO-8601, strictly increasing
    tickers: list[str]
    close: np.ndarray           # [T, N] float64, NaN where invalid
    features: np.ndarray        # [T, N, F] float64, NaN where invalid
    valid: np.ndarray           # [T, N] bool

    def __post_init__(self):
        if any(a >= b for a, b in zip(self.dates, self.dates[1:])):
            raise DataError("panel dates must be strictly increasing")
        t, n = len(self.dates), len(self.tickers)
        if self.close.shape != (t, n) or self.valid.shape != (t, n):
            raise DataError(f"close/valid shape mismatch: {self.close.shape} vs ({t}, {n})")
        if self.features.shape[:2] != (t, n):
            raise DataError(f"features shape {self.features.shape} does not match ({t}, {n})")

    @property
    def n_dates(self) -> int:
        return len(self.dates)

    @property
    def n_tickers(self) -> int:
        return len(self.tickers)

    @property
    def n_features(self) -> int:
        return self.features.shape[2]

    def subpanel(self, lo: int, hi: int) -> "StockPanel":
        """Rows [lo, hi) as a new panel (copies; panels stay immutable)."""
        return StockPanel(self.dates[lo:hi], list(self.tickers),
                          self.close[lo:hi].copy(), self.features[lo:hi].copy(),
                          self.valid[lo:hi].copy())


@dataclass
class ReturnLabel:
    """One-day return ratio per cell; NaN marks undefined (incl. the last date)."""

    y: np.ndarray  # [T, N] float64

    def defined(self) -> np.ndarray:
        return np.isfinite(self.y)


@dataclass(frozen=True)
class SplitSpec:
    """Chronological train/valid/test date ranges, inclusive ISO endpoints."""

    train: tuple[str, str]
    valid: tuple[str, str]
    test: tuple[str, str]


def compute_return(panel: StockPanel) -> ReturnLabel:
    """Next-day relative close change per cell; final date masked undefined."""
    if panel.n_dates < 2:
        raise ContractError("need at least 2 dates to compute returns")
    bad = panel.valid & ~(panel.close > 0)
    if bad.any():
        t, i = np.argwhere(bad)[0]
        raise DataError(f"non-positive close at date {panel.dates[t]} ticker {panel.tickers[i]}")
    y = np.full_like(panel.close, np.nan)
    both = panel.valid[:-1] & panel.valid[1:]
    cur, nxt = panel.close[:-1], panel.close[1:]
    with np.errstate(invalid="ignore"):
        y[:-1] = np.where(both, (nxt - cur) / cur, np.nan)
    return ReturnLabel(y)


def load_csv(path, expected_features: int | None = None) -> StockPanel:
    """Assemble a panel from ``date,ticker,close,f0..f{F-1}`` rows (UTF-8).

    Missing (date, ticker) combinations are masked invalid; duplicate keys,
    unparseable rows and non-finite values raise with the offending line number.
    """
    rows: dict[tuple[str, str], tuple[float, list[float], int]] = {}
    n_feat = 0
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file")
        header = [h.strip() for h in header]
        if header[:3] != ["date", "ticker", "close"]:
            raise DataError(f"{path}: header must start 'date,ticker,close', got {header[:3]}")
        n_feat = len(header) - 3
        if expected_features is not None and n_feat != expected_features:
            raise DataError(f"{path}: expected {expected_features} feature columns, got {n_feat}")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3 + n_feat:
                raise DataError(f"{path}:{lineno}: expected {3 + n_feat} fields, got {len(row)}")
            date, ticker = row[0].strip(), row[1].strip()
            try:
                _dt.date.fromisoformat(date)
                close = float(row[2])
                feats = [float(v) for v in row[3:]]
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: unparseable row ({exc})") from None
            key = (date, ticker)
            if key in rows:
                raise DataError(f"{path}:{lineno}: duplicate (date,ticker) {key}")
            rows[key] = (close, feats, lineno)
    if not rows:
        raise DataError(f"{path}: no data rows")
    dates = sorted({d for d, _ in rows})
    tickers = sorted({t for _, t in rows})
    t_idx = {d: i for i, d in enumerate(dates)}
    n_idx = {t: i for i, t in enumerate(tickers)}
    close = np.full((len(dates), len(tickers)), np.nan)
    features = np.full((len(dates), len(tickers), n_feat), np.nan)
    valid = np.zeros((len(dates), len(tickers)), dtype=bool)
    for (d, t), (c, f, _) in rows.items():
        close[t_idx[d], n_idx[t]] = c
        features[t_idx[d], n_idx[t]] = f
        valid[t_idx[d], n_idx[t]] = True
    bad = valid & ~(np.isfinite(close) & np.isfinite(features).all(axis=2))
    if bad.any():
        lineno = min(rows[(dates[i], tickers[j])][2] for i, j in np.argwhere(bad))
        raise DataError(f"{path}:{lineno}: non-finite close or feature value")
    return StockPanel(dates, tickers, close, features, valid)


def normalize_features(panel: StockPanel) -> StockPanel:
    """Standardize each feature channel per date cross-section (population std).

    Channels with std below 1e-12 on a date are zeroed. Idempotent within
    numerical tolerance; invalid cells are untouched.
    """
    feats = panel.features.copy()
    for t in range(panel.n_dates):
        ok = panel.valid[t]
        if not ok.any():
            continue
        block = feats[t, ok, :]
        mu = block.mean(axis=0)
        sd = block.std(axis=0)
        degenerate = sd < 1e-12
        z = (block - mu) / np.where(degenerate, 1.0, sd)
        z[:, degenerate] = 0.0
        feats[t, ok, :] = z
    return StockPanel(list(panel.dates), list(panel.tickers),
                      panel.close.copy(), feats, panel.valid.copy())


def trading_days(n: int, start: str = "2018-01-02") -> list[str]:
    """n consecutive weekdays from ``start`` as ISO dates."""
    day = _dt.date.fromisoformat(start)
    out: list[str] = []
    while len(out) < n:
        if day.weekday() < 5:
            out.append(day.isoformat())
        day += _dt.timedelta(days=1)
    return out


def _standardize(v: np.ndarray) -> np.ndarray:
    sd = v.std()
    if sd < 1e-12:
        return np.zeros_like(v)
    return (v - v.mean()) / sd


def gen_synthetic(n_dates: int, n_tickers: int, signal_strength: float, seed: int,
                  n_features: int = 4, drift: float = 5e-4, vol: float = 0.02,
                  shift_after: int | None = None,
                  shifted_signal_strength: float | None = None) -> StockPanel:
    """Seeded geometric random-walk market with a planted cross-sectional signal.

    Feature channel 0 at date t mixes the standardized next-day return with
    unit noise: ``s * z(y_t) + (1 - s) * noise``. Remaining channels are pure
    noise. ``shift_after`` switches the mix weight to
    ``shifted_signal_strength`` from that date index onward, creating a
    train/eval distribution shift for overfitting stress tests.
    """
    if n_dates < 20 or n_tickers < 5:
        raise ContractError("gen_synthetic needs n_dates >= 20 and n_tickers >= 5")
    if not 0.0 <= signal_strength <= 1.0:
        raise ContractError("signal_strength must lie in [0, 1]")
    rng = np.random.Generator(np.random.Philox(seed))
    rets = rng.normal(drift, vol, size=(n_dates - 1, n_tickers))
    close = np.empty((n_dates, n_tickers))
    close[0] = rng.uniform(50.0, 150.0, size=n_tickers)
    close[1:] = close[0] * np.cumprod(1.0 + rets, axis=0)
    features = rng.standard_normal((n_dates, n_tickers, n_features))
    for t in range(n_dates - 1):
        s = signal_strength
        if shift_after is not None and t >= shift_after:
            s = shifted_signal_strength if shifted_signal_strength is not None else 0.0
        features[t, :, 0] = s * _standardize(rets[t]) + (1.0 - s) * features[t, :, 0]
    valid = np.ones((n_dates, n_tickers), dtype=bool)
    tickers = [f"S{i:03d}" for i in range(n_tickers)]
    return StockPanel(trading_days(n_dates), tickers, close, features, valid)


def split(panel: StockPanel, spec: SplitSpec) -> tuple[StockPanel, StockPanel, StockPanel]:
    """Cut the panel into chronological train/valid/test sub-panels.

    Ranges are inclusive and must be disjoint, ordered, and non-empty within
    the panel's dates. Labels are recomputed per sub-panel, so no label ever
    uses a close from the following split.
    """
    ranges = [spec.train, spec.valid, spec.test]
    for lo, hi in ranges:
        if lo > hi:
            raise ContractError(f"range {lo}..{hi} is reversed")
    for (_, prev_hi), (next_lo, _) in zip(ranges, ranges[1:]):
        if next_lo <= prev_hi:
            raise ContractError(f"split ranges overlap or are out of order at {next_lo}")
    out = []
    for lo, hi in ranges:
        idx = [i for i, d in enumerate(panel.dates) if lo <= d <= hi]
        if not idx:
            raise ContractError(f"split range {lo}..{hi} selects no dates")
        if idx != list(range(idx[0], idx[-1] + 1)):
            raise ContractError(f"split range {lo}..{hi} is not contiguous in the panel")
        out.append(panel.subpanel(idx[0], idx[-1] + 1))
    return out[0], out[1], out[2]


def fraction_split_spec(panel: StockPanel, train_frac: float, valid_frac: float) -> SplitSpec:
    """Build a SplitSpec by date-count fractions (remainder goes to test)."""
    t = panel.n_dates
    n_train = int(round(t * train_frac))
    n_valid = int(round(t * valid_frac))
    if n_train < 1 or n_valid < 1 or n_train + n_valid >= t:
        raise ContractError(f"fractions {train_frac}/{valid_frac} leave an empty split for {t} dates")
    d = panel.dates
    return SplitSpec(train=(d[0], d[n_train - 1]),
                     valid=(d[n_train], d[n_train + n_valid - 1]),
                     test=(d[n_train + n_valid], d[-1]))
