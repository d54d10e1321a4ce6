from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from momrank import metrics
from momrank.data import StockPanel, day_standardize, day_sums, gen_synthetic
from momrank.errors import ContractError
from momrank.losses import adaptive_ks, level_counts
from momrank.metrics import (EvalReport, aggregate, daily_rank_ic, day_ics, day_precisions,
                             day_ranks, evaluate_predictions, record_k)
from momrank.momentum import UNLABELED


def daily_ic(pred, y):
    """One day's IC: ``day_ics`` with ``sizes=[n]``."""
    return day_ics(pred, y, [np.size(pred)])[0][0]


def average_ranks(v):
    """One day's ranks: ``day_ranks`` with ``sizes=[n]``."""
    return day_ranks(v, [np.size(v)])


def precision_at_n(pred, y, n_top):
    """One day's Precision@N: ``day_precisions`` with ``sizes=[n]``."""
    return day_precisions(pred, y, [np.size(pred)], [n_top])[n_top][0]


def test_ic_perfect():
    y = np.array([0.1, -0.2, 0.3, 0.0])
    assert daily_ic(y.copy(), y) == pytest.approx(1.0)


def test_ic_anti():
    y = np.array([0.1, -0.2, 0.3, 0.0])
    assert daily_ic(-y, y) == pytest.approx(-1.0)


def test_ic_hand_example():
    assert daily_ic(np.array([1.0, 3.0, 2.0]), np.array([1.0, 2.0, 3.0])) == pytest.approx(0.5)


def test_ic_zero_variance_undefined():
    assert np.isnan(daily_ic(np.ones(4), np.array([1.0, 2.0, 3.0, 4.0])))
    assert np.isnan(daily_ic(np.array([1.0]), np.array([2.0])))


def test_ic_affine_invariance():
    rng = np.random.default_rng(0)
    pred, y = rng.normal(size=30), rng.normal(size=30)
    base = daily_ic(pred, y)
    assert daily_ic(3.5 * pred + 2.0, y) == pytest.approx(base, abs=1e-12)
    assert daily_ic(pred, 0.1 * y - 7.0) == pytest.approx(base, abs=1e-12)


def test_average_ranks_ties():
    np.testing.assert_allclose(average_ranks(np.array([10.0, 20.0, 20.0, 5.0])),
                               [2.0, 3.5, 3.5, 1.0])


def test_rank_ic_monotone_invariance():
    rng = np.random.default_rng(1)
    y = rng.normal(size=25)
    assert daily_rank_ic(np.exp(y), y) == pytest.approx(1.0)
    pred = rng.normal(size=25)
    assert daily_rank_ic(np.exp(pred), y) == pytest.approx(daily_rank_ic(pred, y), abs=1e-12)


@st.composite
def day_pairs(draw):
    """One day's predictions and returns on 3-60 names; each side spans at least [-1, 1]."""
    n = draw(st.integers(3, 60))
    side = hnp.arrays(np.float64, n, elements=st.floats(-5.0, 5.0))
    pred, y = draw(side), draw(side)
    pred[:2] = (-1.0, 1.0)
    y[-2:] = (1.0, -1.0)
    return pred, y


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(day_pairs(), st.floats(0.01, 100.0), st.floats(-100.0, 100.0), st.booleans())
def test_ic_invariant_under_positive_affine_maps_and_flips_under_negative(case, scale, shift,
                                                                          map_pred):
    pred, y = case
    base = daily_ic(pred, y)
    for sign in (1.0, -1.0):
        if map_pred:
            mapped = daily_ic(sign * scale * pred + shift, y)
        else:
            mapped = daily_ic(pred, sign * scale * y + shift)
        assert mapped == pytest.approx(sign * base, abs=1e-9)


INCREASING_MAPS = [np.exp, lambda v: v ** 3 + v, np.arctan]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 60).flatmap(lambda n: st.tuples(
           hnp.arrays(np.float64, n, elements=st.integers(-40, 40).map(lambda k: k / 8.0)),
           hnp.arrays(np.float64, n, elements=st.floats(-5.0, 5.0)))),
       st.sampled_from(range(len(INCREASING_MAPS))), st.booleans())
def test_rank_ic_invariant_under_strictly_increasing_maps(case, which, map_pred):
    # grid values 1/8 apart stay distinct under each map, and ties stay tied
    grid, other = case
    f = INCREASING_MAPS[which]
    pred, y = (grid, other) if map_pred else (other, grid)
    mapped = daily_rank_ic(f(pred), y) if map_pred else daily_rank_ic(pred, f(y))
    np.testing.assert_array_equal(mapped, daily_rank_ic(pred, y))  # NaN when a side is constant


def test_rank_ic_reversed():
    y = np.array([0.1, 0.2, 0.3, 0.4])
    assert daily_rank_ic(-y, y) == pytest.approx(-1.0)


def test_rank_ic_hand_example():
    assert daily_rank_ic(np.array([1.0, 3.0, 2.0]),
                         np.array([1.0, 2.0, 3.0])) == pytest.approx(0.5)


def test_precision_examples():
    y = np.array([0.1, -0.1, 0.2])
    pred = np.array([3.0, 2.0, 1.0])
    assert precision_at_n(pred, y, 2) == pytest.approx(50.0)
    assert precision_at_n(pred, np.abs(y) + 0.1, 2) == pytest.approx(100.0)
    assert precision_at_n(pred, -np.abs(y) - 0.1, 1) == pytest.approx(0.0)


def test_precision_on_a_day_of_exactly_n_names_is_nan():
    # a top N of every name is the day's share of positive returns, whatever the scores
    rng = np.random.default_rng(2)
    y = rng.normal(size=40)
    pred = rng.normal(size=40)
    assert np.isnan(precision_at_n(pred, y, 40))
    assert np.isnan(precision_at_n(pred, y, 41))
    assert precision_at_n(pred, y, 39) == oracles.precision_at_n(pred, y, 39)


def test_precision_stable_tie_break():
    pred = np.array([1.0, 1.0, 1.0])
    y = np.array([0.5, -0.5, 0.5])
    assert precision_at_n(pred, y, 2) == pytest.approx(50.0)  # picks indices 0, 1


def test_aggregate_basics():
    rep = aggregate([0.02, 0.04], [0.01, 0.03], {10: [50.0, 60.0]}, [40, 40, 50])
    assert rep.ic == pytest.approx(0.03)
    assert rep.rank_ic == pytest.approx(0.02)
    assert rep.precision_at[10] == pytest.approx(55.0)
    assert rep.k_histogram == {40: 2, 50: 1}
    assert rep.n_days == 2


def test_aggregate_single_day_and_constant_std():
    rep = aggregate([0.02], [0.02], {}, [])
    assert rep.ic == pytest.approx(0.02) and rep.ic_std == 0.0
    rep2 = aggregate([0.05, 0.05, 0.05], [0.01, 0.01, 0.01], {}, [])
    assert rep2.ic_std == pytest.approx(0.0, abs=1e-12)
    assert rep2.rank_ic_std == pytest.approx(0.0, abs=1e-12)


def test_aggregate_std_scaled_e3():
    rep = aggregate([0.0, 0.02], [0.0, 0.02], {}, [])
    assert rep.ic_std == pytest.approx(10.0)  # std 0.01 -> 10 (x1e3)


def test_aggregate_excludes_undefined_days():
    rep = aggregate([0.02, float("nan"), 0.04], [0.03, float("nan"), 0.05], {}, [])
    assert rep.n_days == 2


def test_aggregate_empty_errors():
    with pytest.raises(ContractError):
        aggregate([float("nan")], [float("nan")], {}, [])


def test_record_k():
    assert record_k([40, 40, 50]) == {40: 2, 50: 1}
    assert record_k([]) == {}
    vals = [3, 3, 7, 9, 9, 9]
    assert sum(record_k(vals).values()) == len(vals)


def test_evaluate_predictions_perfect_foresight():
    panel = gen_synthetic(40, 10, 0.0, seed=3)
    from momrank.data import compute_return
    y = compute_return(panel)
    scores = np.where(np.isfinite(y), y, np.nan)
    rep = evaluate_predictions(scores, panel, precision_ns=(5,))
    assert rep.ic == pytest.approx(1.0)
    assert rep.rank_ic == pytest.approx(1.0)
    assert rep.n_days == 39


def test_evaluate_predictions_k_histogram():
    panel = gen_synthetic(40, 10, 0.0, seed=4)
    from momrank.data import compute_return
    from momrank.momentum import MomentumConfig, label_dataset
    y = compute_return(panel)
    labels = label_dataset(panel, MomentumConfig(gap=2, length=3))
    rep = evaluate_predictions(np.where(np.isfinite(y), y, np.nan), panel,
                               precision_ns=(5,), class_labels=labels)
    assert sum(rep.k_histogram.values()) > 0
    assert all(1 <= k <= 10 for k in rep.k_histogram)
    # a fixed k, capped at the day's labeled names, as in training
    from momrank.losses import RankLossConfig
    labeled_days = int(((labels != UNLABELED) & np.isfinite(y)).any(axis=1).sum())
    for fixed_k, k in ((5, 5), (12, 10)):
        rep = evaluate_predictions(np.where(np.isfinite(y), y, np.nan), panel, precision_ns=(5,),
                                   class_labels=labels, loss_cfg=RankLossConfig(fixed_k=fixed_k))
        assert rep.k_histogram == {k: labeled_days}


def test_report_to_dict_roundish():
    rep = EvalReport(ic=0.1, rank_ic=0.2, ic_std=1.0, rank_ic_std=2.0,
                     precision_at={10: 55.0}, k_histogram={4: 2}, n_days=3)
    d = rep.to_dict()
    assert d["ic"] == 0.1 and d["precision_at"]["10"] == 55.0 and d["k_histogram"]["4"] == 2


def loop_average_ranks(v):
    """Reference: walk the sorted values and average the ranks of each tie run."""
    v = np.asarray(v, dtype=np.float64)
    order = np.argsort(v, kind="stable")
    ranks = np.empty(v.size, dtype=np.float64)
    i = 0
    while i < v.size:
        j = i
        while j + 1 < v.size and v[order[j + 1]] == v[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def test_average_ranks_match_loop_reference_on_ties():
    rng = np.random.default_rng(5)
    cases = [np.array([]), np.array([3.0]), np.zeros(7), np.array([0.0, -0.0, 1.0, 0.0])]
    for _ in range(300):
        n = int(rng.integers(2, 300))
        cases.append(rng.integers(0, int(rng.integers(1, 10)), n).astype(np.float64))
    for v in cases:
        assert np.array_equal(average_ranks(v), loop_average_ranks(v)), v


# ---- split-wide kernels against the per-day loops they replaced ----

DAY_KINDS = ("continuous", "ties", "constant")


def day_values(rng, kind, size):
    if kind == "continuous":
        return rng.normal(size=size) * 10.0 ** rng.uniform(-3, 3)
    if kind == "ties":
        return rng.integers(-3, 4, size) / 4.0
    return np.full(size, rng.normal())


@st.composite
def stacked_days(draw, max_days=8, max_size=200):
    """Days of 1-``max_size`` names stacked in one array: continuous, tied and constant values.

    The sizes and each side's kind per day are drawn; the values come from a
    drawn seed. Single-name days appear at every draw of size 1.
    """
    sizes = draw(st.lists(st.one_of(st.just(1), st.integers(1, max_size)), min_size=1,
                          max_size=max_days))
    kinds = draw(st.lists(st.tuples(st.sampled_from(DAY_KINDS), st.sampled_from(DAY_KINDS)),
                          min_size=len(sizes), max_size=len(sizes)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pred = np.concatenate([day_values(rng, a, n) for n, (a, _) in zip(sizes, kinds)])
    y = np.concatenate([day_values(rng, b, n) for n, (_, b) in zip(sizes, kinds)])
    return pred, y, np.array(sizes)


def day_slices(sizes):
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def assert_same_or_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0, equal_nan=True)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(stacked_days())
def test_split_ic_and_rank_ic_match_the_per_day_loops(case):
    pred, y, sizes = case
    days = day_slices(sizes)
    for group_rows in (metrics._GROUP_ROWS, 150):  # one pass, and runs of whole days
        with mock.patch.object(metrics, "_GROUP_ROWS", group_rows):
            ics, rics = day_ics(pred, y, sizes)
        assert_same_or_close(ics, [oracles.daily_ic(pred[d], y[d]) for d in days])
        assert_same_or_close(rics, [oracles.daily_rank_ic(pred[d], y[d]) for d in days])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(stacked_days())
def test_day_sums_round_as_each_days_own_sum(case):
    pred, _, sizes = case
    starts = np.cumsum(sizes) - sizes
    np.testing.assert_array_equal(day_sums(pred, starts),
                                  [pred[d].sum() for d in day_slices(sizes)])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(stacked_days(max_days=40, max_size=700))
def test_split_z_scores_equal_each_days_standardize_bitwise(case):
    values, _, sizes = case
    want = np.concatenate([oracles.standardize(values[d]) for d in day_slices(sizes)])
    got = day_standardize(values, sizes)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(stacked_days())
def test_split_ranks_match_the_per_day_tie_runs(case):
    pred, _, sizes = case
    want = np.concatenate([oracles.average_ranks(pred[d]) for d in day_slices(sizes)])
    np.testing.assert_array_equal(day_ranks(pred, sizes), want)


PRECISION_NS = (1, 2, 5, 10, 50, 200)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(stacked_days())
def test_split_precision_matches_the_per_day_loop(case):
    pred, y, sizes = case
    y = y - np.median(y)  # about half the returns positive
    for group_rows in (metrics._GROUP_ROWS, 150):
        with mock.patch.object(metrics, "_GROUP_ROWS", group_rows):
            got = day_precisions(pred, y, sizes, PRECISION_NS)
        for n_top in PRECISION_NS:
            want = [oracles.precision_at_n(pred[d], y[d], n_top) if n_top < size else np.nan
                    for d, size in zip(day_slices(sizes), sizes)]
            np.testing.assert_array_equal(got[n_top], want)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(stacked_days(), st.sampled_from([2, 5]), st.sampled_from([0.05, 0.2, 0.5, 1.0]))
def test_split_k_matches_the_per_day_level_loop(case, n_levels, frac):
    _, _, sizes = case
    levels = np.random.default_rng(int(sizes.sum())).integers(0, n_levels, sizes.sum())
    groups, floors = level_counts(levels, sizes, n_levels, frac)
    want = [oracles.adaptive_k(*oracles.level_groups(levels[d], n_levels, frac))
            for d in day_slices(sizes)]
    np.testing.assert_array_equal(adaptive_ks(groups, floors), want)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 0.9), st.integers(5, 40))
def test_evaluate_predictions_matches_the_per_day_loop(seed, drop, n_tickers):
    rng = np.random.default_rng(seed)
    panel = gen_synthetic(30, n_tickers, 0.5, seed=seed % 1000)
    valid = rng.random(panel.valid.shape) >= drop
    panel = StockPanel(panel.dates, panel.tickers, np.where(valid, panel.close, np.nan),
                       np.where(valid[..., None], panel.features, np.nan), valid)
    scores = np.where(rng.random(valid.shape) < 0.9, rng.integers(-4, 5, valid.shape) / 2.0,
                      np.nan)
    labels = np.where(rng.random(valid.shape) < 0.7, rng.integers(0, 5, valid.shape),
                      UNLABELED)
    try:
        want = oracles.evaluate_by_day(scores, panel, (1, 3, 10), labels)
    except ContractError:
        with pytest.raises(ContractError, match="no defined days"):
            evaluate_predictions(scores, panel, (1, 3, 10), labels)
        return
    got = evaluate_predictions(scores, panel, (1, 3, 10), labels)
    for key in ("ic", "rank_ic", "ic_std", "rank_ic_std"):
        assert_same_or_close(getattr(got, key), getattr(want, key))
    assert (got.precision_at, got.k_histogram, got.n_days) == (want.precision_at,
                                                               want.k_histogram, want.n_days)
