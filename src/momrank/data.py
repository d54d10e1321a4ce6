"""Stock panels: CSV loading, labels, normalization, splits, synthetic markets.

A panel is a dense date x ticker grid. Cells with no observation are masked
invalid and carry NaN; masked cells never enter batches, losses, metrics or
backtests. All randomness goes through numpy's Philox generator (a documented
64-bit counter-based algorithm), so a seed pins the panel bit-for-bit.
"""

from __future__ import annotations

import bisect
import csv
import datetime as _dt
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DataError

_CHUNK = 16384  # CSV lines tokenized per numpy pass
SYNTHETIC_START = "2018-01-02"  # first date of a synthetic panel
SYNTHETIC_DRIFT, SYNTHETIC_VOL = 5e-4, 0.02  # mean and std of a synthetic daily return


@dataclass
class StockPanel:
    """Date x ticker panel of closes, feature channels and a validity mask.

    A valid cell's close and features must be finite, and its close must be
    > 0; the first cell that breaks a rule raises ``DataError`` naming its
    date and ticker, the finiteness rule first. Every panel is checked.
    """

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
        _check_cells(self)

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
        return StockPanel(self.dates[lo:hi], list(self.tickers), self.close[lo:hi].copy(),
                          self.features[lo:hi].copy(), self.valid[lo:hi].copy())


def _check_cells(panel: StockPanel) -> None:
    """Raise ``DataError`` at the first valid cell whose close or a feature is not
    finite, else at the first valid cell whose close is not > 0."""
    finite = np.isfinite(panel.close)
    if not (finite.all() and np.isfinite(panel.features).all()):
        for k in range(panel.n_features):  # 3x faster than .all(axis=2) over few channels
            finite &= np.isfinite(panel.features[..., k])
    for ok, what in ((finite, "non-finite close or feature"),
                     (panel.close > 0, "non-positive close")):
        if not ok.all():
            bad = panel.valid & ~ok
            if bad.any():
                d, i = np.argwhere(bad)[0]
                raise DataError(f"{what} at date {panel.dates[d]} ticker {panel.tickers[i]}")


@dataclass(frozen=True)
class SplitSpec:
    """Chronological train/valid/test date ranges, inclusive ISO endpoints."""

    train: tuple[str, str]
    valid: tuple[str, str]
    test: tuple[str, str]


def compute_return(panel: StockPanel) -> np.ndarray:
    """[T, N] next-day relative close change per cell; NaN where undefined
    (an invalid cell on either day, and the final date). Valid closes are
    > 0: the panel checked them when it was built."""
    if panel.n_dates < 2:
        raise ContractError("need at least 2 dates to compute returns")
    y = np.full_like(panel.close, np.nan)
    both = panel.valid[:-1] & panel.valid[1:]
    cur, nxt = panel.close[:-1], panel.close[1:]
    with np.errstate(invalid="ignore"):
        y[:-1] = np.where(both, (nxt - cur) / cur, np.nan)
    return y


def load_csv(path) -> StockPanel:
    """Assemble a panel from ``date,ticker,close,f0..f{F-1}`` rows (UTF-8).

    Records follow ``csv.reader``'s rules: quoted fields, CRLF line ends and blank
    lines are accepted, and dates and tickers are stripped of surrounding spaces.
    numpy's C parser tokenizes the rows ``_CHUNK`` lines at a time. A file that pass
    refuses is read again record by record, which names the first bad record or
    loads the panel. Missing (date, ticker) combinations are masked invalid. A header
    with no feature column raises ``DataError``; so do bytes that are not UTF-8, a
    field over ``csv.field_size_limit()``, a wrong field count, an unparseable number
    or date, a date not written YYYY-MM-DD, a duplicate key or a non-finite value,
    naming the file and the line (the CSV record number, header = 1) of the first
    offending record. A close that is not > 0 fails the panel's check.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            width = _header_width(path, next(csv.reader(fh), None))
            return _panel(path, width, *_tokenize(fh, width))
    except DataError:  # a header or panel rule, which a second read would only repeat
        raise
    except (ValueError, csv.Error):  # a UnicodeDecodeError is a ValueError
        return _panel(path, *_read_records(path))


def _header_width(path, header: list[str] | None) -> int:
    """The field count of a ``date,ticker,close,f0..`` header record."""
    if header is None:
        raise DataError(f"{path}: empty file")
    header = [h.strip() for h in header]
    if header[:3] != ["date", "ticker", "close"]:
        raise DataError(f"{path}: header must start 'date,ticker,close', got {header[:3]}")
    if len(header) == 3:
        raise DataError(f"{path}: header has no feature column after 'date,ticker,close'")
    return len(header)


def _tokenize(fh, width: int):
    """Date ids, ticker ids and (date id, ticker id, values) parts of the non-blank lines
    left in ``fh``. ``ValueError`` at a row numpy's parser refuses or may split unlike
    ``csv.reader``: over the field size limit, over two lines, or open at a chunk's end."""
    date_ids, ticker_ids, parts = {}, {}, []
    lines = itertools.filterfalse(str.isspace, fh)
    dtype = [("d", object), ("t", object), ("v", np.float64, (width - 2,))]
    while chunk := list(itertools.islice(lines, _CHUNK)):
        if (max(map(len, chunk)) > csv.field_size_limit() or ('"' in chunk[-1]
                and next(csv.reader(chunk[-1:]))[-1].endswith(("\n", "\r")))):
            raise ValueError("a line is over the field size limit or ends inside quotes")
        rows = np.loadtxt(chunk, dtype, delimiter=",", comments=None, quotechar='"', ndmin=1)
        if len(rows) != len(chunk):
            raise ValueError("a quoted field spans lines")
        values = rows["v"].copy()  # a view would keep every chunk's strings alive
        parts.append((_ids(rows["d"], date_ids), _ids(rows["t"], ticker_ids), values))
    for date in date_ids:
        iso_date(date)
    return date_ids, ticker_ids, parts


def _read_records(path):
    """The field count and ``_tokenize``'s result for ``path`` read record by record,
    or ``DataError`` at the first bad record: one with a byte that is not UTF-8 or a
    field over ``csv.field_size_limit()``, the header as ``_header_width`` rules, a
    data row by its field count, date, numbers, finiteness, then key.

    An undecodable byte is read as a lone surrogate and found on its own record:
    a strict decoder raises on text read ahead of the record being parsed.
    """
    rows: dict[tuple[str, str], list[float]] = {}
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        try:
            for line, row in enumerate(reader, start=1):
                try:
                    ",".join(row).encode("utf-8")
                except UnicodeEncodeError as exc:  # a surrogate: a byte that is not UTF-8
                    byte = ord(exc.object[exc.start]) - 0xDC00
                    raise DataError(f"{path}:{line}: byte {byte:#04x} is not UTF-8") from None
                if line == 1:
                    width = _header_width(path, row)
                    continue
                if not row or (len(row) == 1 and not row[0].strip()):  # a blank record
                    continue
                if len(row) != width:
                    raise DataError(f"{path}:{line}: expected {width} fields, got {len(row)}")
                key = (row[0].strip(), row[1].strip())
                try:
                    iso_date(key[0])
                    values = [float(v) for v in row[2:]]
                except ValueError as exc:
                    raise DataError(f"{path}:{line}: unparseable row ({exc})") from None
                if not np.isfinite(values).all():
                    raise DataError(f"{path}:{line}: non-finite close or feature value")
                if key in rows:
                    raise DataError(f"{path}:{line}: duplicate (date,ticker) {key}")
                rows[key] = values
        except csv.Error as exc:
            raise DataError(f"{path}:{reader.line_num}: {exc}") from None
    keys = np.array(list(rows), dtype=object).reshape(-1, 2)
    date_ids, ticker_ids = {}, {}
    parts = [(_ids(keys[:, 0], date_ids), _ids(keys[:, 1], ticker_ids),
              np.array(list(rows.values())).reshape(-1, width - 2))]
    return width, date_ids, ticker_ids, parts


def _panel(path, width: int, date_ids: dict, ticker_ids: dict, parts) -> StockPanel:
    """``_tokenize``'s result as a panel; ``ValueError`` at a non-finite value or repeated key."""
    if not date_ids:
        raise DataError(f"{path}: no data rows")
    d, t, values = (np.concatenate(col) for col in zip(*parts))
    dates, date_rank = _sorted_ids(date_ids)
    tickers, ticker_rank = _sorted_ids(ticker_ids)
    n = len(tickers)
    cells = date_rank[d] * n + ticker_rank[t]
    valid = np.zeros(len(dates) * n, dtype=bool)
    valid[cells] = True
    if np.count_nonzero(valid) < cells.size or not np.isfinite(values).all():
        raise ValueError("a value is not finite or a (date, ticker) key repeats")
    close = np.full(len(dates) * n, np.nan)
    features = np.full((len(dates) * n, width - 3), np.nan)
    close[cells], features[cells] = values[:, 0], values[:, 1:]
    return StockPanel(dates, tickers, close.reshape(-1, n), features.reshape(-1, n, width - 3),
                      valid.reshape(-1, n))


def _ids(column: np.ndarray, ids: dict[str, int]) -> np.ndarray:
    """Id of each stripped string in ``column``; strings not yet in ``ids`` are added."""
    local = dict.fromkeys(column)
    for raw in local:
        local[raw] = ids.setdefault(raw.strip(), len(ids))
    return np.fromiter(map(local.__getitem__, column), np.intp, len(column))


def _sorted_ids(ids: dict[str, int]) -> tuple[list[str], np.ndarray]:
    """The names of ``ids`` sorted, and each id's position in that order."""
    names = list(ids)
    order = sorted(range(len(names)), key=names.__getitem__)
    rank = np.empty(len(names), dtype=np.intp)
    rank[order] = np.arange(len(names))
    return [names[i] for i in order], rank


def normalize_features(panel: StockPanel) -> StockPanel:
    """Standardize each feature channel per date cross-section (population std).

    Means and stds of all dates come from masked reductions over the ticker
    axis. Channels with std below 1e-12 on a date are zeroed. Idempotent
    within numerical tolerance; invalid cells are untouched. A date whose sums
    overflow fails the new panel's check, naming that date.
    """
    valid = panel.valid[..., None]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        count = panel.valid.sum(axis=1)[:, None]  # 0 on a date with no valid cell
        mu = np.add.reduce(panel.features, axis=1, where=valid) / count
        dev = panel.features - mu[:, None, :]
        sd = np.sqrt(np.add.reduce(dev * dev, axis=1, where=valid) / count)
        degenerate = (sd < 1e-12)[:, None, :]
        z = np.where(degenerate, 0.0, dev / np.where(degenerate, 1.0, sd[:, None, :]))
    return StockPanel(list(panel.dates), list(panel.tickers), panel.close.copy(),
                      np.where(valid, z, panel.features), panel.valid.copy())


def iso_date(text: str) -> str:
    """``text`` if it is a date written YYYY-MM-DD; panels and splits compare dates
    as strings, so ``20180103`` would sort after ``2018-01-04``."""
    if _dt.date.fromisoformat(text).isoformat() != text:
        raise ValueError(f"date {text!r} is not written YYYY-MM-DD")
    return text


def trading_days(n: int) -> list[str]:
    """n consecutive weekdays from ``SYNTHETIC_START`` as ISO dates."""
    day = _dt.date.fromisoformat(SYNTHETIC_START)
    out: list[str] = []
    while len(out) < n:
        if day.weekday() < 5:
            out.append(day.isoformat())
        day += _dt.timedelta(days=1)
    return out


def standardize(v: np.ndarray) -> np.ndarray:
    """``v`` z-scored (population std); all zeros when its std is below 1e-12."""
    sd = v.std()
    if sd < 1e-12:
        return np.zeros_like(v)
    return (v - v.mean()) / sd


def check_synthetic(n_dates: int, n_tickers: int, n_features: int, signal_strength: float,
                    shifted_signal_strength: float | None) -> None:
    """Reject a synthetic-market shape or signal mix that ``gen_synthetic`` cannot build."""
    if n_dates < 20 or n_tickers < 5 or n_features < 1:
        raise ContractError("synthetic data needs n_dates >= 20, n_tickers >= 5 and "
                            f"n_features >= 1, got {n_dates}, {n_tickers} and {n_features}")
    for name, s in (("signal_strength", signal_strength),
                    ("shifted_signal_strength", shifted_signal_strength)):
        if s is not None and not 0.0 <= s <= 1.0:
            raise ContractError(f"{name} must lie in [0, 1], got {s}")


def gen_synthetic(n_dates: int, n_tickers: int, signal_strength: float, seed: int,
                  n_features: int = 4, shift_after: int | None = None,
                  shifted_signal_strength: float | None = None) -> StockPanel:
    """Seeded geometric random-walk market with a planted cross-sectional signal.

    Feature channel 0 at date t mixes the standardized next-day return with
    unit noise: ``s * z(y_t) + (1 - s) * noise``. Remaining channels are pure
    noise. ``shift_after`` switches the mix weight to
    ``shifted_signal_strength`` from that date index onward, creating a
    train/eval distribution shift for overfitting stress tests.
    """
    check_synthetic(n_dates, n_tickers, n_features, signal_strength, shifted_signal_strength)
    rng = np.random.Generator(np.random.Philox(seed))
    rets = rng.normal(SYNTHETIC_DRIFT, SYNTHETIC_VOL, size=(n_dates - 1, n_tickers))
    close = np.empty((n_dates, n_tickers))
    close[0] = rng.uniform(50.0, 150.0, size=n_tickers)
    close[1:] = close[0] * np.cumprod(1.0 + rets, axis=0)
    features = rng.standard_normal((n_dates, n_tickers, n_features))
    for t in range(n_dates - 1):
        s = signal_strength
        if shift_after is not None and t >= shift_after:
            s = shifted_signal_strength if shifted_signal_strength is not None else 0.0
        features[t, :, 0] = s * standardize(rets[t]) + (1.0 - s) * features[t, :, 0]
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
        # panel dates strictly increase, so the dates in [lo, hi] are one run
        first, stop = bisect.bisect_left(panel.dates, lo), bisect.bisect_right(panel.dates, hi)
        if first == stop:
            raise ContractError(f"split range {lo}..{hi} selects no dates")
        out.append(panel.subpanel(first, stop))
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
