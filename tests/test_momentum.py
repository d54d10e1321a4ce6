import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from momrank.data import StockPanel, compute_return, gen_synthetic, trading_days
from momrank.errors import ContractError
from momrank.momentum import (LEVEL_BOUNCE, LEVEL_NEGATIVE, LEVEL_POSITIVE, LEVEL_SINK,
                              LEVEL_VOLATILE, UNLABELED, DEAD_ZONE_SCALE, MomentumConfig,
                              _classify_lines, label_dataset, rise_fall_label)
from oracles import classify_line, momentum_line, momentum_value

SWAP = {LEVEL_BOUNCE: LEVEL_SINK, LEVEL_SINK: LEVEL_BOUNCE,
        LEVEL_POSITIVE: LEVEL_NEGATIVE, LEVEL_NEGATIVE: LEVEL_POSITIVE,
        LEVEL_VOLATILE: LEVEL_VOLATILE}


def classify(line, dead_zone):
    """The level ``_classify_lines`` gives one line."""
    return int(_classify_lines(np.asarray(line, dtype=np.float64)[:, None], dead_zone)[0])


def series_panel(series_per_ticker):
    close = np.asarray(series_per_ticker, dtype=np.float64).T
    t, n = close.shape
    return StockPanel(trading_days(t), [f"S{i:03d}" for i in range(n)], close,
                      np.zeros((t, n, 1)), np.ones((t, n), dtype=bool))


# ---- momentum_value / momentum_line (the per-ticker oracle) ----

def test_momentum_flat():
    assert momentum_value(np.full(5, 10.0), 4, 4) == 0.0


def test_momentum_rising():
    assert momentum_value(np.array([10.0, 11, 12, 13, 14]), 4, 4) == 4.0


def test_momentum_falling():
    assert momentum_value(np.array([14.0, 13, 12, 11, 10]), 4, 4) == -4.0


def test_momentum_out_of_range():
    with pytest.raises(ContractError):
        momentum_value(np.full(5, 10.0), 3, 4)


def test_momentum_line_values():
    close = np.arange(10.0) ** 2
    cfg = MomentumConfig(gap=2, length=3)
    line = momentum_line(close, anchor=8, cfg=cfg)
    expected = [close[j] - close[j - 2] for j in range(5, 9)]
    np.testing.assert_allclose(line, expected)


# ---- _classify_lines: the trend rule label_dataset runs ----

def test_classify_bounce():
    assert classify(np.array([-1.0, -0.5, 0.2, 1.0]), 0.05) == LEVEL_BOUNCE


def test_classify_all_zero_is_volatile():
    assert classify(np.zeros(4), 0.0) == LEVEL_VOLATILE
    assert classify(np.zeros(4), 1.0) == LEVEL_VOLATILE


def test_classify_positive():
    assert classify(np.array([1.0, 2.0, 3.0, 4.0]), 0.05) == LEVEL_POSITIVE


def test_classify_negative_and_sink():
    assert classify(np.array([-1.0, -2.0, -0.5]), 0.0) == LEVEL_NEGATIVE
    assert classify(np.array([1.0, 0.5, -2.0]), 0.0) == LEVEL_SINK


def test_classify_dead_zone_damps_small_values():
    # a dead-zoned value breaks "stays positive", and [0,1,1] is no bounce either
    assert classify(np.array([0.01, 1.0, 2.0]), 0.05) == LEVEL_VOLATILE
    assert classify(np.array([0.01, 1.0, 2.0]), 0.0) == LEVEL_POSITIVE


def test_classify_scale_covariant_at_zero_eps():
    lines = np.random.default_rng(0).normal(size=(7, 200))  # one line per column
    np.testing.assert_array_equal(_classify_lines(lines * 13.7, 0.0),
                                  _classify_lines(lines, 0.0))


def rule_table_oracle(signs):
    """Literal restatement of the level definitions on a sign pattern."""
    nz = [s for s in signs if s != 0]
    if all(s == 1 for s in signs):
        return LEVEL_POSITIVE
    if all(s == -1 for s in signs):
        return LEVEL_NEGATIVE
    if nz and nz[0] == -1 and nz[-1] == 1:
        return LEVEL_BOUNCE
    if nz and nz[0] == 1 and nz[-1] == -1:
        return LEVEL_SINK
    return LEVEL_VOLATILE


def test_exhaustive_sign_patterns_match_oracle():
    patterns = list(itertools.product((-1, 0, 1), repeat=7))
    levels = _classify_lines(np.array(patterns, dtype=np.float64).T, 0.0)
    for pattern, level in zip(patterns, levels):
        assert level == rule_table_oracle(pattern), pattern
        assert classify_line(np.array(pattern, dtype=np.float64), 0.0) == level, pattern


def test_negation_symmetry():
    lines = np.array(list(itertools.product((-1, 0, 1), repeat=5)), dtype=np.float64).T
    levels = _classify_lines(lines, 0.0)
    np.testing.assert_array_equal(_classify_lines(-lines, 0.0), [SWAP[v] for v in levels])


# lines of 1..9 values, each column one line; values and dead zones include exact
# zeros and the dead-zone boundary through a coarse grid of multiples of 0.25
_LINE_VALUES = st.one_of(st.integers(-8, 8).map(lambda v: v * 0.25),
                         st.floats(-10.0, 10.0, allow_nan=False))
_LINES = st.tuples(st.integers(1, 9), st.integers(1, 12)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=_LINE_VALUES))
_DEAD_ZONES = st.one_of(st.integers(0, 8).map(lambda v: v * 0.25), st.floats(0.0, 5.0))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(lines=_LINES, dead_zone=_DEAD_ZONES)
def test_classify_lines_equals_scalar_oracle_per_column(lines, dead_zone):
    want = [classify_line(lines[:, j], dead_zone) for j in range(lines.shape[1])]
    np.testing.assert_array_equal(_classify_lines(lines, dead_zone), want)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(lines=_LINES, dead_zone=_DEAD_ZONES)
def test_classify_lines_negation_swaps_levels(lines, dead_zone):
    levels = _classify_lines(lines, dead_zone)
    np.testing.assert_array_equal(_classify_lines(-lines, dead_zone), [SWAP[v] for v in levels])


# ---- label_dataset ----

def test_label_dataset_too_short_all_masked():
    p = series_panel([np.full(5, 10.0)])
    labels = label_dataset(p, MomentumConfig())
    assert (labels == UNLABELED).all()


def test_label_dataset_rising_series_positive():
    t = 30
    p = series_panel([10.0 + np.arange(t), 20.0 + 2 * np.arange(t)])
    cfg = MomentumConfig(gap=4, length=6)
    labels = label_dataset(p, cfg)
    labeled = labels != UNLABELED
    assert labeled.any()
    assert np.all(labels[labeled] == LEVEL_POSITIVE)
    # label needs span history before anchor and anchor_offset days of future
    assert (labels[:8] == UNLABELED).all() and (labels[-2:] == UNLABELED).all()


def test_label_dataset_falling_series_negative():
    t = 30
    p = series_panel([100.0 - np.arange(t), 200.0 - 2 * np.arange(t)])
    labels = label_dataset(p, MomentumConfig(gap=4, length=6))
    labeled = labels != UNLABELED
    assert labeled.any() and np.all(labels[labeled] == LEVEL_NEGATIVE)


def test_label_dataset_masks_invalid_ticker_days():
    p = gen_synthetic(40, 6, 0.0, seed=3)
    p.valid[12, 2] = False
    labels = label_dataset(p, MomentumConfig(gap=2, length=2))
    # every anchor window covering date 12 for ticker 2 is unlabeled
    for t in range(40):
        anchor = t + 2
        if anchor < 40 and anchor - 4 <= 12 <= anchor:
            assert labels[t, 2] == UNLABELED


def test_label_dataset_flat_series_volatile():
    p = series_panel([np.full(30, 10.0), np.full(30, 20.0)])
    labels = label_dataset(p, MomentumConfig(gap=4, length=6))
    labeled = labels != UNLABELED
    assert labeled.any() and np.all(labels[labeled] == LEVEL_VOLATILE)


def test_dead_zone_is_one_percent_of_the_dates_line_std():
    # gap 1, length 1, anchor offset 0: date 2's label reads each ticker's two daily
    # steps. The lines are (100, -100), (1, 1) and (0.5, 0.5); their six values have
    # mean 0.5 and population variance (99.5^2 + 100.5^2 + 2 * 0.5^2) / 6 = 3333.5,
    # so std 57.74 and a dead zone of 0.577 at 0.01 x std: (1, 1) clears it and
    # (0.5, 0.5) does not. At 0.02 x std (1.155) neither would; at 0.005 (0.289) both.
    p = series_panel([[200.0, 300.0, 200.0], [50.0, 51.0, 52.0], [50.0, 50.5, 51.0]])
    labels = label_dataset(p, MomentumConfig(gap=1, length=1, anchor_offset=0))
    assert labels[:2].tolist() == [[UNLABELED] * 3] * 2
    assert labels[2].tolist() == [LEVEL_SINK, LEVEL_POSITIVE, LEVEL_VOLATILE]


def reference_labels(panel, cfg):
    """Per-cell reference: classify_line on each ticker's line, dead zone per date."""
    labels = np.full(panel.valid.shape, UNLABELED, dtype=np.int64)
    span = cfg.length + cfg.gap
    for t in range(panel.n_dates):
        anchor = t + cfg.anchor_offset
        if anchor - span < 0 or anchor >= panel.n_dates:
            continue
        ok = panel.valid[anchor - span:anchor + 1].all(axis=0) & panel.valid[t]
        if not ok.any():
            continue
        lines = {i: momentum_line(panel.close[:, i], anchor, cfg) for i in np.flatnonzero(ok)}
        eps = DEAD_ZONE_SCALE * float(np.stack(list(lines.values()), axis=1).std())
        for i, line in lines.items():
            labels[t, i] = classify_line(line, eps)
    return labels


def test_label_dataset_matches_reference_on_every_sign_pattern():
    patterns = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=7)))
    # one ticker per pattern; gap 1 makes the line on the last date its daily steps
    close = 100.0 + np.concatenate([np.zeros((len(patterns), 1)), patterns.cumsum(axis=1)], axis=1)
    p = series_panel(close)
    cfg = MomentumConfig(gap=1, length=6, anchor_offset=0)
    labels = label_dataset(p, cfg)
    np.testing.assert_array_equal(labels, reference_labels(p, cfg))
    assert labels[-1].tolist() == [rule_table_oracle(pat) for pat in patterns.astype(int)]


def test_label_dataset_matches_reference_with_invalid_cells():
    p = gen_synthetic(80, 30, 0.3, seed=11)
    p.valid &= np.random.default_rng(12).random(p.valid.shape) > 0.05
    cfg = MomentumConfig()
    labels = label_dataset(p, cfg)
    assert (labels != UNLABELED).sum() > 1000
    np.testing.assert_array_equal(labels, reference_labels(p, cfg))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**16), st.floats(0.0, 0.3), st.integers(1, 4), st.integers(1, 5),
       st.sampled_from([0, 1, 2, 7, 12, 40]))
def test_label_dataset_matches_the_per_date_slice_rule_on_masked_panels(seed, drop, gap, length,
                                                                        anchor_offset):
    # anchor offsets 7 and 12 can exceed gap + length; 40 exceeds the panel's 30 dates
    p = gen_synthetic(30, 8, 0.3, seed=seed)
    valid = np.random.default_rng(seed).random(p.valid.shape) >= drop
    p = StockPanel(p.dates, p.tickers, np.where(valid, p.close, np.nan),
                   np.where(valid[..., None], p.features, np.nan), valid)
    cfg = MomentumConfig(gap=gap, length=length, anchor_offset=anchor_offset)
    np.testing.assert_array_equal(label_dataset(p, cfg), reference_labels(p, cfg))


# ---- rise_fall_label ----

def test_rise_fall_values():
    y = np.array([[0.1, -0.1, 0.0], [np.nan, np.nan, np.nan]])
    out = rise_fall_label(y)
    np.testing.assert_array_equal(out[0], [1, 0, 0])
    np.testing.assert_array_equal(out[1], [UNLABELED] * 3)


def test_rise_fall_from_panel():
    p = gen_synthetic(25, 5, 0.0, seed=8)
    out = rise_fall_label(compute_return(p))
    assert set(np.unique(out[:-1])) <= {0, 1}
    assert (out[-1] == UNLABELED).all()
