"""Price momentum lines and their 5-level trend classification.

The momentum at day T with gap g is ``close[T] - close[T - g]``. A line is the
trailing sequence of ``length + 1`` momentum values ending at an anchor day.
Lines are bucketed into five trend levels used as the classification target:

    4 Bounce    starts negative, ends positive
    3 Positive  every value above the dead zone
    2 Volatile  oscillates around zero (everything else, incl. all-zero)
    1 Negative  every value below the dead zone
    0 Sink      starts positive, ends negative

"Starts"/"ends" refer to the first/last value whose sign survives the dead
zone. The dead zone is ``DEAD_ZONE_SCALE`` (0.01) x the per-date population
std of the cross-section's line values, so flat noise lands in Volatile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import StockPanel, window_ok
from .errors import ContractError

LEVEL_SINK, LEVEL_NEGATIVE, LEVEL_VOLATILE, LEVEL_POSITIVE, LEVEL_BOUNCE = 0, 1, 2, 3, 4
N_LEVELS = 5
UNLABELED = -1
DEAD_ZONE_SCALE = 0.01  # dead zone vs the per-date std of line values


@dataclass(frozen=True)
class MomentumConfig:
    gap: int = 4                     # days between the two closes in one momentum value
    length: int = 6                  # line has length + 1 values
    anchor_offset: int = 2           # line for sample date t ends at t + anchor_offset

    def __post_init__(self):
        if self.gap < 1 or self.length < 1:
            raise ContractError("momentum gap and length must be >= 1")
        if self.anchor_offset < 0:
            raise ContractError("anchor_offset must be >= 0")


def _classify_lines(lines: np.ndarray, dead_zone: float) -> np.ndarray:
    """Trend level of every column of ``lines`` via its dead-zoned sign pattern."""
    signs = np.where(lines > dead_zone, 1, np.where(lines < -dead_zone, -1, 0))
    nonzero = signs != 0
    cols = np.arange(signs.shape[1])
    first = signs[nonzero.argmax(axis=0), cols]   # 0 where a column has no sign
    last = signs[signs.shape[0] - 1 - nonzero[::-1].argmax(axis=0), cols]
    levels = np.full(signs.shape[1], LEVEL_VOLATILE, dtype=np.int64)
    levels[(first == -1) & (last == 1)] = LEVEL_BOUNCE
    levels[(first == 1) & (last == -1)] = LEVEL_SINK
    levels[(signs == 1).all(axis=0)] = LEVEL_POSITIVE
    levels[(signs == -1).all(axis=0)] = LEVEL_NEGATIVE
    return levels


def label_dataset(panel: StockPanel, cfg: MomentumConfig) -> np.ndarray:
    """Momentum level per (date, ticker); -1 where history/future is missing.

    The line for sample date t is anchored ``anchor_offset`` days ahead, so the
    label looks at the prices immediately after t (the trend being predicted).
    """
    labels = np.full(panel.valid.shape, UNLABELED, dtype=np.int64)
    span = cfg.length + cfg.gap
    # a line needs valid closes over the span + 1 days up to its anchor, and t itself valid
    lined = window_ok(panel, span + 1)[cfg.anchor_offset:]
    lined &= panel.valid[:len(lined)]
    for t in np.flatnonzero(lined.any(axis=1)).tolist():
        ok, anchor = lined[t], t + cfg.anchor_offset
        closes = panel.close[anchor - span:anchor + 1, ok]
        # rows are the length+1 line values m[anchor-length..anchor] per ticker
        lines = closes[cfg.gap:, :] - closes[: closes.shape[0] - cfg.gap, :]
        labels[t, ok] = _classify_lines(lines, DEAD_ZONE_SCALE * float(lines.std()))
    return labels


def rise_fall_label(y: np.ndarray) -> np.ndarray:
    """Binary up/flat-down target from a [T, N] return array; -1 where it is NaN.

    Zero return counts as "fall" so class 1 means strictly profitable.
    """
    out = np.full(y.shape, UNLABELED, dtype=np.int64)
    defined = np.isfinite(y)
    out[defined] = (y[defined] > 0).astype(np.int64)
    return out
