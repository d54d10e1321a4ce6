import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from momrank.data import gen_synthetic
from momrank.errors import ContractError
from momrank.metrics import (EvalReport, aggregate, average_ranks, daily_ic, daily_rank_ic,
                             evaluate_predictions, precision_at_n, record_k)


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
    assert precision_at_n(pred, np.abs(y) + 0.1, 3) == pytest.approx(100.0)
    assert precision_at_n(pred, -np.abs(y) - 0.1, 1) == pytest.approx(0.0)


def test_precision_full_pool_equals_positive_fraction():
    rng = np.random.default_rng(2)
    y = rng.normal(size=40)
    pred = rng.normal(size=40)
    frac = 100.0 * (y > 0).mean()
    assert precision_at_n(pred, y, 40) == pytest.approx(frac)


def test_precision_contract():
    with pytest.raises(ContractError):
        precision_at_n(np.ones(3), np.ones(3), 4)


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
    rep = aggregate([0.02], [0.02])
    assert rep.ic == pytest.approx(0.02) and rep.ic_std == 0.0
    rep2 = aggregate([0.05, 0.05, 0.05], [0.01, 0.01, 0.01])
    assert rep2.ic_std == pytest.approx(0.0, abs=1e-12)
    assert rep2.rank_ic_std == pytest.approx(0.0, abs=1e-12)


def test_aggregate_std_scaled_e3():
    rep = aggregate([0.0, 0.02], [0.0, 0.02])
    assert rep.ic_std == pytest.approx(10.0)  # std 0.01 -> 10 (x1e3)


def test_aggregate_excludes_undefined_days():
    rep = aggregate([0.02, float("nan"), 0.04], [0.03, float("nan"), 0.05])
    assert rep.n_days == 2


def test_aggregate_empty_errors():
    with pytest.raises(ContractError):
        aggregate([float("nan")], [float("nan")])


def test_record_k():
    assert record_k([40, 40, 50]) == {40: 2, 50: 1}
    assert record_k([]) == {}
    vals = [3, 3, 7, 9, 9, 9]
    assert sum(record_k(vals).values()) == len(vals)


def test_evaluate_predictions_perfect_foresight():
    panel = gen_synthetic(40, 10, 0.0, seed=3)
    from momrank.data import compute_return
    y = compute_return(panel).y
    scores = np.where(np.isfinite(y), y, np.nan)
    rep = evaluate_predictions(scores, panel, precision_ns=(5,))
    assert rep.ic == pytest.approx(1.0)
    assert rep.rank_ic == pytest.approx(1.0)
    assert rep.n_days == 39


def test_evaluate_predictions_k_histogram():
    panel = gen_synthetic(40, 10, 0.0, seed=4)
    from momrank.data import compute_return
    from momrank.momentum import MomentumConfig, label_dataset
    y = compute_return(panel).y
    labels = label_dataset(panel, MomentumConfig(gap=2, length=3))
    rep = evaluate_predictions(np.where(np.isfinite(y), y, np.nan), panel,
                               precision_ns=(5,), class_labels=labels)
    assert sum(rep.k_histogram.values()) > 0
    assert all(1 <= k <= 10 for k in rep.k_histogram)


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
