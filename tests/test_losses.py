import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from momrank.autodiff import Tensor
from momrank.errors import ContractError
from momrank.losses import (_LN2, _ROW_CHUNK, GAIN_SHIFTED, GAIN_STANDARD, RANK_PAIRWISE,
                            SCORE_SCALE, RankBatch, RankLossConfig, adaptive_ks,
                            classification_loss, cross_entropy, day_labels, gain_values,
                            ideal_dcgs, log_softmax, make_rank_batch, mse_loss, ndcg_loss,
                            pairwise_loss, ranking_scores, split_labels)
from oracles import (approx_ndcg_at_k, approx_rank, check_gradient, dcg_at_k, exact_ndcg_at_k,
                     expected_level, ideal_dcg_at_k, sigmoid_node)
from oracles import sorted_kernel_ranks as _smooth_ranks
from oracles import sorted_kernel_ranks_vjp as _smooth_ranks_vjp


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


# ---- approx_rank ----

def test_approx_rank_two_equal_scores():
    ranks = approx_rank(Tensor(np.array([3.0, 3.0])))
    np.testing.assert_allclose(ranks.data, [1.5, 1.5])
    np.testing.assert_allclose(_smooth_ranks(np.array([3.0, 3.0])), [1.5, 1.5])


def test_approx_rank_top_item_value():
    ranks = approx_rank(Tensor(np.array([10.0, 0.0, -10.0])))
    expected_top = 1.0 + sigmoid(-10.0) + sigmoid(-20.0)
    for top in (ranks.data[0], _smooth_ranks(np.array([10.0, 0.0, -10.0]))[0]):
        assert top == pytest.approx(expected_top, abs=1e-12)
        assert top == pytest.approx(1.0000454, abs=1e-6)


def test_approx_rank_sum_identity_random():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(2, 30))
        scores = rng.normal(size=n) * rng.uniform(0.1, 50)
        for total in (approx_rank(Tensor(scores)).data.sum(), _smooth_ranks(scores).sum()):
            assert total == pytest.approx(n * (n + 1) / 2, abs=1e-9)


def test_approx_rank_converges_to_exact_at_scale_10():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(3, 12))
        base = rng.permutation(np.arange(1.0, n + 1.0))  # distinct, unit gaps
        exact = np.empty(n)
        exact[np.argsort(-base)] = np.arange(1, n + 1)
        for smooth in (approx_rank(Tensor(base * 10.0)).data, _smooth_ranks(base * 10.0)):
            assert np.abs(smooth - exact).max() < 1e-3


# ---- adaptive_ks ----

def adaptive_k(group_sizes, threshold: int) -> int:
    """One day's k: ``adaptive_ks`` of a single row."""
    return int(adaptive_ks(np.array([group_sizes]), np.array([threshold]))[0])


def test_adaptive_k_examples():
    assert adaptive_k([10, 30, 0, 0, 0], 20) == 40
    assert adaptive_k([25, 0, 0, 0, 0], 20) == 25
    assert adaptive_k([0, 0, 5, 0, 0], 1) == 5
    assert adaptive_k([3, 3, 3, 3, 3], 100) == 15  # exhausted -> n
    assert adaptive_k([4, 2, 1, 1, 1], 0) == 4     # threshold clamped to 1


def prefix_oracle(sizes, threshold):
    threshold = max(1, threshold)
    boundaries = []
    total = 0
    for s in sizes:
        total += s
        boundaries.append(total)
    for b in boundaries:
        if b >= threshold:
            return b
    return total


def test_adaptive_k_matches_prefix_oracle_and_never_splits():
    rng = np.random.default_rng(2)
    for _ in range(500):
        sizes = rng.integers(0, 101, size=5).tolist()
        if sum(sizes) == 0:
            continue
        threshold = int(rng.integers(1, 201))
        k = adaptive_k(sizes, threshold)
        assert k == prefix_oracle(sizes, threshold)
        cumulative = np.cumsum(sizes)
        assert k in cumulative.tolist()  # always a whole-group boundary


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(sizes=st.lists(st.integers(0, 60), min_size=1, max_size=8).filter(any),
       threshold=st.integers(-5, 400))
def test_adaptive_k_equals_prefix_oracle_on_random_groups(sizes, threshold):
    k = adaptive_k(sizes, threshold)
    assert k == prefix_oracle(sizes, threshold)
    assert k in np.cumsum(sizes).tolist()


# ---- DCG / NDCG ----

def test_dcg_single_zero_gain_item():
    assert dcg_at_k(np.array([1.0]), np.array([0]), 1) == 0.0


def test_dcg_ideal_example():
    val = ideal_dcgs(np.array([[1, 1, 1]]), [3], GAIN_STANDARD)[0]  # one each of levels 2, 1, 0
    assert val == pytest.approx(3.0 / math.log2(2) + 1.0 / math.log2(3), abs=1e-5)
    assert val == pytest.approx(3.63093, abs=1e-5)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(2, 600), min_size=1, max_size=12), st.integers(2, 5),
       st.sampled_from([GAIN_STANDARD, GAIN_SHIFTED]), st.sampled_from([None, 1, 3, 10, 700]),
       st.integers(0, 2**32 - 1))
def test_split_ideal_dcgs_equal_each_days_own_bitwise(sizes, n_levels, gain, fixed_k, seed):
    levels = np.random.default_rng(seed).integers(0, n_levels, sum(sizes))
    cfg = RankLossConfig(fixed_k=fixed_k, gain=gain)
    days = split_labels(levels, sizes, n_levels, cfg)
    for day, lab in zip(np.split(levels, np.cumsum(sizes)[:-1]), days):
        want = 0.0 if day.min() == day.max() else ideal_dcg_at_k(day, lab.k, gain)
        assert lab.ideal == want and isinstance(lab.ideal, float)


def test_a_rank_batch_without_an_ideal_derives_the_days_own():
    levels = np.array([0, 4, 2, 2, 1, 3, 0])
    scores = np.random.default_rng(3).normal(size=7) * 10.0
    for k in (1, 3, 7, 9):
        def loss(ideal):
            x = Tensor(scores)
            batch = RankBatch(scores=x, gains=levels, group_sizes=[], threshold=1, k=k,
                              ideal=ideal)
            value = ndcg_loss(batch, GAIN_SHIFTED)
            value.backward()
            return value.item(), x.grad

        got, want = loss(None), loss(ideal_dcg_at_k(levels, k, GAIN_SHIFTED))
        assert got[0] == want[0]
        np.testing.assert_array_equal(got[1], want[1])


def test_gain_variants():
    np.testing.assert_allclose(gain_values(np.array([0, 1, 2]), GAIN_STANDARD), [0.0, 1.0, 3.0])
    np.testing.assert_allclose(gain_values(np.array([0, 1, 2]), GAIN_SHIFTED), [0.5, 1.0, 2.0])


def batch_from(scores, levels, threshold_frac=0.2, fixed_k=None):
    cfg = RankLossConfig(threshold_frac=threshold_frac, fixed_k=fixed_k)
    return make_rank_batch(Tensor(np.asarray(scores, dtype=np.float64)),
                           np.asarray(levels), 5, cfg)


def oracle_exact_ndcg(scores, levels, k):
    """Brute-force oracle: sort-based DCG of predicted and ideal orders."""
    scores = list(scores)
    levels = list(levels)
    n = len(scores)
    gains = [2.0 ** w - 1.0 for w in levels]
    pred_order = sorted(range(n), key=lambda i: (-scores[i], i))
    ideal_order = sorted(range(n), key=lambda i: (-gains[i], i))
    dcg = sum(gains[pred_order[r - 1]] / math.log2(1 + r) for r in range(1, k + 1))
    idcg = sum(gains[ideal_order[r - 1]] / math.log2(1 + r) for r in range(1, k + 1))
    return dcg / idcg if idcg > 0 else 1.0


def test_approx_ndcg_ideal_order_near_one():
    levels = np.array([4, 3, 2, 1, 0])
    scores = np.array([40.0, 30.0, 20.0, 10.0, 0.0])
    val = approx_ndcg_at_k(batch_from(scores, levels), GAIN_STANDARD).item()
    assert 0.99 <= val <= 1.0


def test_approx_ndcg_equal_gains_is_one():
    for lvl in (0, 2, 4):
        scores = np.array([5.0, -3.0, 0.7, 9.9])
        levels = np.full(4, lvl)
        assert approx_ndcg_at_k(batch_from(scores, levels), GAIN_STANDARD).item() == 1.0


def test_approx_ndcg_reversed_matches_oracle():
    levels = np.array([4, 3, 2, 1, 0])
    scores = np.array([0.0, 10.0, 20.0, 30.0, 40.0])  # reversed order
    batch = batch_from(scores, levels, fixed_k=5)
    smooth = approx_ndcg_at_k(batch, GAIN_STANDARD).item()
    exact = oracle_exact_ndcg(scores, levels, 5)
    assert abs(smooth - exact) < 0.05


def test_approx_ndcg_random_days_match_oracle():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = 20
        levels = rng.integers(0, 5, size=n)
        scores = rng.permutation(np.arange(n, dtype=np.float64)) * 10.0
        batch = batch_from(scores, levels)
        smooth = approx_ndcg_at_k(batch, GAIN_STANDARD).item()
        if levels.max() == levels.min():
            assert smooth == 1.0
            continue
        exact = oracle_exact_ndcg(scores, levels, batch.k)
        assert abs(smooth - exact) < 0.05
        lib_exact = exact_ndcg_at_k(scores, levels, batch.k)
        assert lib_exact == pytest.approx(exact, abs=1e-12)


def test_ndcg_loss_values_and_monotonicity():
    levels = np.array([4, 3, 2, 1, 0])
    ideal = batch_from(np.array([40.0, 30.0, 20.0, 10.0, 0.0]), levels)
    worst = batch_from(np.array([0.0, 10.0, 20.0, 30.0, 40.0]), levels)
    loss_ideal = ndcg_loss(ideal, GAIN_STANDARD).item()
    loss_worst = ndcg_loss(worst, GAIN_STANDARD).item()
    assert loss_ideal == pytest.approx(math.exp(-1.0), rel=1e-3)
    assert loss_ideal < loss_worst <= 1.0


def test_ndcg_loss_equal_gain_day_has_zero_gradient():
    scores = Tensor(np.array([1.0, 2.0, 3.0]))
    batch = make_rank_batch(scores, np.array([2, 2, 2]), 5, RankLossConfig())
    loss = ndcg_loss(batch, GAIN_STANDARD)
    assert loss.item() == pytest.approx(math.exp(-1.0))
    loss.backward()
    np.testing.assert_array_equal(scores.grad, np.zeros(3))


def test_ndcg_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    levels = rng.integers(0, 5, size=8)

    def fn(x):
        batch = make_rank_batch(x, levels, 5, RankLossConfig())
        return ndcg_loss(batch, GAIN_STANDARD)

    for seed in range(5):
        point = np.random.default_rng(seed + 50).normal(size=8) * 2.0
        assert check_gradient(fn, point) < 1e-4


# ---- MSE ----

def test_mse_identities():
    y = np.array([1.0, 2.0, 3.0])
    assert mse_loss(Tensor(y.copy()), y).item() == 0.0
    assert mse_loss(Tensor(y + 0.5), y).item() == pytest.approx(0.25)


def test_mse_length_mismatch():
    with pytest.raises(ContractError):
        mse_loss(Tensor(np.ones(3)), np.ones(4))


def test_mse_gradient_formula():
    y = np.array([0.3, -0.2, 0.9, 0.0])
    pred = Tensor(np.array([0.5, 0.1, 0.2, -0.4]))
    loss = mse_loss(pred, y)
    loss.backward()
    np.testing.assert_allclose(pred.grad, 2.0 * (pred.data - y) / 4.0, atol=1e-12)
    assert check_gradient(lambda x: mse_loss(x, y), pred.data.copy()) < 1e-6


# ---- log-probabilities, cross-entropy and expected level ----

def test_cross_entropy_uniform_logits():
    logits = Tensor(np.zeros((3, 5)))
    labels = day_labels([0, 2, 4], 5, RankLossConfig())
    val = cross_entropy(log_softmax(logits), labels).item()
    assert val == pytest.approx(math.log(5.0), abs=1e-12)


def test_cross_entropy_one_hot_near_zero():
    labels = np.array([1, 3])
    logits = Tensor(np.eye(5)[labels] * 50.0)
    ce = cross_entropy(log_softmax(logits), day_labels(labels, 5, RankLossConfig()))
    assert ce.item() < 1e-9


def test_cross_entropy_gradient():
    labels = day_labels([0, 2, 4, 1], 5, RankLossConfig())

    def fn(x):
        return cross_entropy(log_softmax(x.reshape(4, 5)), labels)

    for seed in range(5):
        point = np.random.default_rng(seed + 7).normal(size=20)
        assert check_gradient(fn, point) < 1e-4


def test_expected_level_confident():
    logits = Tensor(np.eye(5)[[4, 0, 2]] * 60.0)
    np.testing.assert_allclose(expected_level(log_softmax(logits)).data, [4.0, 0.0, 2.0],
                               atol=1e-12)
    np.testing.assert_allclose(ranking_scores(log_softmax(logits)).data,
                               [4.0 * SCORE_SCALE, 0.0, 2.0 * SCORE_SCALE], atol=1e-11)


@st.composite
def logit_matrices(draw):
    """Logits within +-700 on 1-64 rows x 2-5 columns; some rows tie their maximum."""
    rows, cols = draw(st.integers(1, 64)), draw(st.integers(2, 5))
    logits = draw(hnp.arrays(np.float64, (rows, cols), elements=st.floats(-700.0, 700.0)))
    for i in draw(st.lists(st.integers(0, rows - 1), max_size=4)):
        logits[i, :draw(st.integers(2, cols))] = logits[i].max()  # all equal when cols tie
    weights = draw(hnp.arrays(np.float64, (rows, cols), elements=st.floats(-3.0, 3.0)))
    return logits, weights


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(logit_matrices())
def test_log_softmax_node_matches_composed_oracle(case):
    logits, weights = case
    x, ref_x = Tensor(logits.copy()), Tensor(logits.copy())
    node, ref = log_softmax(x), oracles.log_softmax(ref_x)
    assert len(node._prev) == 1 and node._prev[0] is x  # one node over the logits
    np.testing.assert_array_equal(node.data, ref.data)
    (node * weights).sum().backward()
    (ref * weights).sum().backward()
    scale = max(1.0, np.abs(ref_x.grad).max())
    assert np.abs(x.grad - ref_x.grad).max() <= 1e-12 * scale


# ---- pairwise ----

def test_pairwise_concordant_zero():
    scores = Tensor(np.array([3.0, 2.0, 1.0]))
    assert pairwise_loss(scores, np.array([0.3, 0.2, 0.1])).item() == 0.0


def test_pairwise_two_items_anticoncordant():
    scores = Tensor(np.array([1.0, 0.0]))
    val = pairwise_loss(scores, np.array([0.0, 1.0])).item()
    assert val == pytest.approx(0.25)


def test_pairwise_positive_homogeneity():
    rng = np.random.default_rng(5)
    s = rng.normal(size=6)
    y = rng.normal(size=6)
    one = pairwise_loss(Tensor(s), y).item()
    two = pairwise_loss(Tensor(2.0 * s), y).item()
    assert two == pytest.approx(2.0 * one, rel=1e-12)


def test_pairwise_gradient():
    y = np.random.default_rng(6).normal(size=6)

    def fn(x):
        return pairwise_loss(x, y)

    for seed in range(5):
        point = np.random.default_rng(seed + 30).normal(size=6)
        assert check_gradient(fn, point) < 1e-4


@st.composite
def hinge_cases(draw):
    """2-200 scores with ties; targets on 2 or 5 integer levels, or floats with ties."""
    n = draw(st.integers(2, 200))
    scores = draw(hnp.arrays(np.float64, n, elements=st.one_of(
        st.sampled_from([-3.0, 0.0, 0.5, 2.0]), st.floats(-50.0, 50.0))))
    kind = draw(st.sampled_from(["2 levels", "5 levels", "float"]))
    if kind == "float":
        elements = st.one_of(st.sampled_from([-1.5, 0.25]), st.floats(-10.0, 10.0))
    else:
        elements = st.integers(0, int(kind[0]) - 1).map(float)
    target = draw(hnp.arrays(np.float64, n, elements=elements))
    return scores, target, draw(st.sampled_from([1.0, -0.5, 2.5]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(hinge_cases())
def test_pairwise_node_matches_composed_oracle(case):
    scores, target, upstream = case
    x, ref_x = Tensor(scores.copy()), Tensor(scores.copy())
    node, ref = pairwise_loss(x, target), oracles.composed_pairwise_loss(ref_x, target)
    assert len(node._prev) == 1 and node._prev[0] is x  # one node over the scores
    assert abs(node.item() - ref.item()) <= 1e-12 * abs(ref.item())
    (node * upstream).backward()
    (ref * upstream).backward()
    assert np.abs(x.grad - ref_x.grad).max() <= 1e-12 * np.abs(ref_x.grad).max()


def test_pairwise_loss_backward_peak_memory_at_2000_names():
    rng = np.random.default_rng(24)
    scores, levels = rng.uniform(0.0, 40.0, 2000), rng.integers(0, 5, 2000).astype(np.float64)
    tracemalloc.start()
    try:
        pairwise_loss(Tensor(scores), levels).backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20


# ---- combined classification loss ----

def scored_batch(logits, labels, cfg):
    """The rank batch ``classification_loss`` ranks: ``SCORE_SCALE`` times the expected level."""
    return make_rank_batch(expected_level(log_softmax(logits)) * SCORE_SCALE, labels,
                           logits.data.shape[1], cfg)


def test_classification_loss_perfect_predictions():
    labels = np.array([4, 3, 2, 1, 0])
    logits = Tensor(np.eye(5)[labels] * 60.0)
    loss = classification_loss(logits, day_labels(labels, 5, RankLossConfig()), RankLossConfig())
    batch = scored_batch(logits, labels, RankLossConfig())
    np.testing.assert_allclose(batch.scores.data, labels * SCORE_SCALE, atol=1e-12)
    assert loss.item() == pytest.approx(0.5 * math.exp(-1.0), abs=2e-4)
    assert loss.item() == pytest.approx(0.18394, abs=2e-4)


def test_classification_loss_uniform_logits_ce_term():
    labels = np.array([4, 3, 2, 1, 0])
    logits = Tensor(np.zeros((5, 5)))
    loss = classification_loss(logits, day_labels(labels, 5, RankLossConfig()), RankLossConfig())
    rank_part = ndcg_loss(scored_batch(logits, labels, RankLossConfig()), GAIN_STANDARD).item()
    assert loss.item() == pytest.approx(0.5 * math.log(5.0) + 0.5 * rank_part, abs=1e-12)
    assert 0.5 * math.log(5.0) == pytest.approx(0.80472, abs=1e-5)


def test_classification_loss_gradient():
    for ranking, width in itertools.product(("ndcg", "pairwise"), (5, 2)):
        labels = np.array([0, 4, 2, 2, 1, 3]) % width
        cfg = RankLossConfig(ranking=ranking)

        def fn(x):
            return classification_loss(x.reshape(6, width), day_labels(labels, width, cfg), cfg)

        for seed in range(5):
            point = np.random.default_rng(seed + 90).normal(size=6 * width)
            assert check_gradient(fn, point) < 1e-4, (ranking, width, seed)


def test_classification_loss_pairwise_variant():
    labels = np.array([0, 4, 2, 1])
    logits = Tensor(np.random.default_rng(8).normal(size=(4, 5)))
    cfg = RankLossConfig(ranking=RANK_PAIRWISE)
    loss = classification_loss(logits, day_labels(labels, 5, cfg), cfg)
    ce = cross_entropy(log_softmax(logits), day_labels(labels, 5, cfg)).item()
    pw = pairwise_loss(scored_batch(logits, labels, cfg).scores, labels.astype(float)).item()
    assert loss.item() == pytest.approx(0.5 * ce + 0.5 * pw, abs=1e-12)


def test_classification_loss_scores_and_k_match_composed_terms():
    labels = np.array([4, 3, 3, 0, 2, 1, 0])
    logits = Tensor(np.random.default_rng(10).normal(size=(7, 5)) * 3.0)
    cfg = RankLossConfig(threshold_frac=0.3)
    loss = classification_loss(logits, day_labels(labels, 5, cfg), cfg)
    logp = oracles.log_softmax(Tensor(logits.data))
    scores = (logp.exp() * np.arange(5.0)).sum(axis=1) * SCORE_SCALE
    want = make_rank_batch(scores, labels, 5, cfg)
    ce = -(logp * np.eye(5)[labels]).sum(axis=1).mean()
    assert loss.item() == (ce * 0.5 + ndcg_loss(want, cfg.gain) * 0.5).item()


def test_classification_loss_improves_when_swapping_misordered_pair():
    labels = np.array([4, 3, 2, 1, 0])
    cfg = RankLossConfig()
    good = np.eye(5)[labels] * 4.0
    swapped = good[[1, 0, 2, 3, 4]]  # mis-order the top pair, gain-wise
    loss_good = classification_loss(Tensor(good), day_labels(labels, 5, cfg), cfg)
    loss_swapped = classification_loss(Tensor(swapped), day_labels(labels, 5, cfg), cfg)
    assert (ndcg_loss(scored_batch(Tensor(good), labels, cfg), cfg.gain).item()
            < ndcg_loss(scored_batch(Tensor(swapped), labels, cfg), cfg.gain).item())
    assert loss_good.item() < loss_swapped.item()


def test_classification_loss_computes_log_probabilities_once():
    labels = np.array([0, 4, 2, 2, 1, 3])
    logits = Tensor(np.random.default_rng(11).normal(size=(6, 5)))
    for ranking in ("ndcg", "pairwise"):
        cfg = RankLossConfig(ranking=ranking)
        loss = classification_loss(logits, day_labels(labels, 5, cfg), cfg)
        seen, stack, readers = set(), [loss], 0
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            readers += any(parent is logits for parent in node._prev)
            stack.extend(node._prev)
        assert readers == 1


# ---- fused smooth-DCG node against the composed graph ----

def composed_approx_rank(scores):
    """Reference: smooth ranks as a graph of elementwise ops over the full n x n block."""
    n = scores.data.shape[0]
    pair = sigmoid_node(scores.reshape(1, n) - scores.reshape(n, 1))  # sigmoid(f_j - f_i)
    return (pair * (1.0 - np.eye(n))).sum(axis=1) + 1.0


def composed_ndcg_loss(scores, levels, k, gain):
    """Reference: exp(-DCG@k / IDCG@k) with DCG over composed smooth ranks."""
    ranks = composed_approx_rank(scores)
    member = (ranks.data <= k + 0.5).astype(np.float64)
    discount = (ranks + 1.0).log() / _LN2
    dcg = (Tensor(gain_values(levels, gain) * member) / discount).sum()
    return (-(dcg / ideal_dcg_at_k(levels, k, gain))).exp()


def assert_fused_matches_composed(scores, levels, gain=GAIN_STANDARD, fixed_k=None):
    fused_x = Tensor(scores.copy())
    batch = make_rank_batch(fused_x, levels, 5, RankLossConfig(fixed_k=fixed_k, gain=gain))
    fused = ndcg_loss(batch, gain)
    fused.backward()
    ref_x = Tensor(scores.copy())
    ref = composed_ndcg_loss(ref_x, levels, batch.k, gain)
    ref.backward()
    assert abs(fused.item() - ref.item()) <= 1e-10
    scale = max(1.0, np.abs(ref_x.grad).max())
    assert np.abs(fused_x.grad - ref_x.grad).max() <= 1e-10 * scale
    assert np.abs(ref_x.grad).max() > 0


@pytest.mark.parametrize("n", [2, 50, _ROW_CHUNK - 1, _ROW_CHUNK, _ROW_CHUNK + 1, 1000])
def test_fused_ndcg_matches_composed_graph(n):
    rng = np.random.default_rng(n)
    levels = rng.integers(0, 5, n)
    levels[:2] = (0, 4)  # at least two distinct levels
    assert_fused_matches_composed(rng.uniform(0.0, 40.0, n), levels)


def test_fused_ndcg_matches_composed_graph_on_ties_fixed_k_and_gains():
    rng = np.random.default_rng(21)
    n = _ROW_CHUNK + 30
    levels = rng.integers(0, 5, n)
    tied = rng.integers(0, 6, n).astype(np.float64) * 3.0
    for gain in (GAIN_STANDARD, GAIN_SHIFTED):
        assert_fused_matches_composed(tied, levels, gain)
        assert_fused_matches_composed(rng.uniform(0.0, 40.0, n), levels, gain, fixed_k=7)


def test_approx_rank_matches_composed_values_and_gradient():
    rng = np.random.default_rng(22)
    scores = rng.normal(size=_ROW_CHUNK + 5) * 5.0
    weights = rng.normal(size=scores.size)
    x, ref_x = Tensor(scores), Tensor(scores.copy())
    fused, ref = approx_rank(x), composed_approx_rank(ref_x)
    np.testing.assert_array_equal(fused.data, ref.data)
    (fused * weights).sum().backward()
    (ref * weights).sum().backward()
    np.testing.assert_allclose(x.grad, ref_x.grad, rtol=0, atol=1e-10)


@st.composite
def score_vectors(draw):
    """1 to 3 chunks + 1 scores with ties, spread up to 1e3 so that some pairs saturate."""
    n = draw(st.integers(1, 3 * _ROW_CHUNK + 1))
    unit = draw(hnp.arrays(np.float64, n, elements=st.floats(-1.0, 1.0)))
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=8)):
        unit[i] = unit[j]
    return unit * draw(st.sampled_from([0.01, 1.0, 40.0, 100.0, 1000.0]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(score_vectors())
def test_smooth_ranks_sum_identity(scores):
    n = scores.size
    total = _smooth_ranks(scores).sum()
    assert abs(total - n * (n + 1) / 2.0) <= 1e-12 * n * (n + 1) / 2.0


def vjp_term_scale(s, g):
    """The largest sum of magnitudes a vjp entry adds up: (|g| W)_j + |g_j| (W 1)_j.

    The entries themselves can cancel to nothing, e.g. for tied scores and equal g.
    """
    a = np.abs(g)
    scale = np.zeros(s.size)
    for lo, w in oracles._pair_blocks(s, slope=True):
        rows = slice(lo, lo + len(w))
        scale += a[rows] @ w
        scale[rows] += a[rows] * w.sum(axis=1)
    return scale.max()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(score_vectors(), st.data())
def test_sorted_kernel_matches_full_block_oracle(scores, data):
    g = data.draw(hnp.arrays(np.float64, scores.size, elements=st.floats(-3.0, 3.0)))
    ranks, ref = _smooth_ranks(scores), oracles.smooth_ranks(scores)
    assert np.all(np.abs(ranks - ref) <= 1e-12 * ref)
    grad, ref_grad = _smooth_ranks_vjp(scores, g), oracles.smooth_ranks_vjp(scores, g)
    assert np.abs(grad - ref_grad).max() <= 1e-12 * vjp_term_scale(scores, g)


def test_ndcg_loss_backward_peak_memory_at_2000_names():
    rng = np.random.default_rng(23)
    scores, levels = rng.uniform(0.0, 40.0, 2000), rng.integers(0, 5, 2000)
    tracemalloc.start()
    try:
        batch = make_rank_batch(Tensor(scores), levels, 5, RankLossConfig())
        ndcg_loss(batch, GAIN_STANDARD).backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20


# ---- each fused loss node against its composed graph, bitwise ----

FUSED_NS = [2, 3, 50, _ROW_CHUNK - 1, _ROW_CHUNK, _ROW_CHUNK + 1, 130, 500]


def assert_node_matches_composed(fused, composed, data, weights=None):
    """``fused`` and ``composed`` map a leaf to a node over it. Their values, and the
    leaf's gradient of log(node + 1e-8) (or of the node's ``weights``-weighted sum),
    are equal bitwise; the fused node reads only the leaf."""
    x, ref_x = Tensor(data.copy()), Tensor(data.copy())
    node, ref = fused(x), composed(ref_x)
    assert node._prev == (x,)
    np.testing.assert_array_equal(node.data, ref.data)
    for out in (node, ref):
        root = (out + 1e-8).log() if weights is None else (out * weights).sum()
        root.backward()
    np.testing.assert_array_equal(x.grad, ref_x.grad)
    return x.grad


def day_levels(rng, n, n_levels):
    levels = rng.integers(0, n_levels, n)
    levels[:2] = (0, n_levels - 1)  # at least two levels
    return levels


@pytest.mark.parametrize("n", FUSED_NS)
def test_mse_node_matches_composed_graph_bitwise(n):
    rng = np.random.default_rng(n)
    y = rng.normal(size=n)
    grad = assert_node_matches_composed(lambda x: mse_loss(x, y),
                                        lambda x: oracles.composed_mse_loss(x, y),
                                        rng.normal(size=n))
    assert np.abs(grad).max() > 0


@pytest.mark.parametrize("n", FUSED_NS)
@pytest.mark.parametrize("n_levels", [5, 2])
def test_cross_entropy_and_ranking_score_nodes_match_composed_graphs_bitwise(n, n_levels):
    rng = np.random.default_rng(n)
    logp = log_softmax(Tensor(rng.normal(size=(n, n_levels)) * 3.0)).data
    labels = day_labels(day_levels(rng, n, n_levels), n_levels, RankLossConfig())
    assert_node_matches_composed(lambda x: cross_entropy(x, labels),
                                 lambda x: oracles.composed_cross_entropy(x, labels), logp)
    assert_node_matches_composed(ranking_scores,
                                 lambda x: oracles.expected_level(x) * SCORE_SCALE, logp,
                                 weights=rng.normal(size=n))


@pytest.mark.parametrize("n", FUSED_NS)
def test_ndcg_node_matches_composed_graph_bitwise(n):
    rng = np.random.default_rng(n)
    levels = day_levels(rng, n, 5)
    grads = []
    for gain, fixed_k in ((GAIN_STANDARD, None), (GAIN_SHIFTED, 3)):
        labels = day_labels(levels, 5, RankLossConfig(gain=gain, fixed_k=fixed_k))
        for ideal in (labels.ideal, None):  # a RankBatch without an ideal derives it
            def batch(x):
                return RankBatch(scores=x, gains=labels.gains, group_sizes=labels.group_sizes,
                                 threshold=labels.threshold, k=labels.k, ideal=ideal)

            grads.append(assert_node_matches_composed(
                lambda x: ndcg_loss(batch(x), gain),
                lambda x: oracles.composed_ndcg_loss(batch(x), gain),
                rng.normal(size=n) * 2.0))
    assert np.abs(grads).max() > 0


@pytest.mark.parametrize("n", [1, 2, 50])
def test_ndcg_node_on_a_day_of_equal_levels_is_exp_minus_one_bitwise(n):
    labels = day_labels(np.full(n, 3), 5, RankLossConfig())
    assert labels.ideal == 0.0
    for ideal in (labels.ideal, None):
        batch = RankBatch(scores=Tensor(np.arange(n, dtype=np.float64)), gains=labels.gains,
                          group_sizes=[n], threshold=1, k=labels.k, ideal=ideal)
        node = ndcg_loss(batch, GAIN_STANDARD)
        ref = oracles.composed_ndcg_loss(batch, GAIN_STANDARD)
        assert node._prev == () and node.data == ref.data == np.exp(-1.0)


@pytest.mark.parametrize("n", FUSED_NS)
@pytest.mark.parametrize("ranking,n_levels", [("ndcg", 5), ("pairwise", 5), ("ndcg", 2)])
def test_classification_node_matches_composed_graph_bitwise(n, ranking, n_levels):
    rng = np.random.default_rng(n)
    cfg = RankLossConfig(ranking=ranking)
    for levels in (day_levels(rng, n, n_levels), np.full(n, n_levels - 1)):
        labels = day_labels(levels, n_levels, cfg)
        x = Tensor(rng.normal(size=(n, n_levels)) * 2.0)
        ref_x = Tensor(x.data.copy())
        node = classification_loss(x, labels, cfg)
        ref = oracles.composed_classification_loss(ref_x, labels, cfg)
        np.testing.assert_array_equal(node.data, ref.data)
        (node + 1e-8).log().backward()
        (ref + 1e-8).log().backward()
        np.testing.assert_array_equal(x.grad, ref_x.grad)
