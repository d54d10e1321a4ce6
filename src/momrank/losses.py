"""Objective functions: MSE, cross-entropy, smooth list-wise NDCG, pair-wise hinge.

The ranking term treats each trading day as one list. Item ranks are made
differentiable by replacing the pairwise comparison indicator with a sigmoid,
truncation depth k is chosen per day by accumulating whole label groups from
the top level down until a floor is met (so a level is never split), and the
final loss is ``exp(-NDCG@k)``. The classification objective averages
cross-entropy and that ranking loss 50/50; ``classification_loss`` builds it
from one log-probability node that cross-entropy and the ranking scores share.
What depends on a day's labels alone (level group sizes, the k floor and k,
integer gains, the ideal DCG@k, each row's cross-entropy label index) is
derived once per day by ``split_labels``, and the objective reads it on every
step.

Each term is one autodiff node with a closed-form backward: the MSE,
cross-entropy, the ranking scores, ``exp(-NDCG@k)``, the pair-wise hinge and
the 50/50 mix. Each backward writes the expressions that the engine's
composed graph of that term would run, in its order, so values and
gradients equal the composed graph's bitwise.

Smooth rank -> DCG@k has a closed-form VJP (the smooth-rank derivative of
Qin, Liu & Li, 2010). It sorts the day's scores once and evaluates each pair
once, in the upper triangle of the sorted pair matrix, where the score
difference is non-negative and the logistic needs one branch; a pair's mirror
is its complement, and the slope matrix is symmetric. The triangle is built
``_ROW_CHUNK`` rows at a time and the VJP rebuilds each chunk, so a day of n
names holds O(n * chunk) floats.

The pair-wise hinge is one node too, from one sort of the scores: the loss is
a sum over the gaps between consecutive sorted scores, weighted by level
counts on either side, and the gradient is a count of strictly higher or
lower scores per level. It holds O(n * levels) floats.

The ranking scores are the expected level under the class probabilities times
``SCORE_SCALE``, so that confidently separated classes land in the regime
where smooth ranks are numerically close to exact ranks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .autodiff import Tensor
from .data import day_sums
from .errors import ContractError

GAIN_STANDARD = "standard"   # 2^w - 1: zero gain at level 0
GAIN_SHIFTED = "shifted"     # 2^(w-1): literal alternative reading
RANK_NDCG, RANK_PAIRWISE = "ndcg", "pairwise"

_LN2 = math.log(2.0)
_ROW_CHUNK = 64  # rows of the pairwise sigmoid block built at a time
# Added to exp(x) or cosh(x) on a chunk's diagonal sub-block: 1 for the pairs
# j > i, +inf for the mirrors and self-pairs the upper-triangle kernel skips,
# whose sigmoid and slope therefore come out 0.
_DIAGONAL_DENOMINATOR = np.where(np.tri(_ROW_CHUNK, dtype=bool), np.inf, 1.0)
_EXP_MAX = 700.0  # exp and cosh overflow past 709.78 and 710.47
SCORE_SCALE = 10.0  # spread applied to expected-level ranking scores


@dataclass(frozen=True)
class RankLossConfig:
    threshold_frac: float = 0.2        # k floor as a fraction of the day's pool
    fixed_k: int | None = None         # pin k instead of the adaptive rule
    gain: str = GAIN_STANDARD
    ranking: str = RANK_NDCG

    def __post_init__(self):
        if not 0.0 < self.threshold_frac <= 1.0:
            raise ContractError("threshold_frac must lie in (0, 1]")
        if self.fixed_k is not None and self.fixed_k < 1:
            raise ContractError("fixed_k must be >= 1")
        if self.gain not in (GAIN_STANDARD, GAIN_SHIFTED):
            raise ContractError(f"unknown gain variant {self.gain!r}")
        if self.ranking not in (RANK_NDCG, RANK_PAIRWISE):
            raise ContractError(f"unknown ranking term {self.ranking!r}")


@dataclass
class RankBatch:
    """One day's list: ranking scores, label gains, and the truncation depth."""

    scores: Tensor            # (n,) differentiable ranking scores
    gains: np.ndarray         # (n,) integer levels
    group_sizes: list[int]    # counts per level, highest level first
    threshold: int
    k: int
    ideal: float | None = None  # ideal DCG@k under the scoring gain; None derives it on use


@dataclass(frozen=True)
class DayLabels:
    """The label-only constants of one day's classification objective."""

    gains: np.ndarray         # (n,) int64 levels: NDCG gains, hinge targets, CE classes
    group_sizes: list[int]    # counts per level, highest level first
    threshold: int            # the k floor
    k: int
    ideal: float              # ideal DCG@k under cfg.gain; 0.0 when every level is equal
    label_index: np.ndarray   # (n,) flat index of each row's class in its (n, n_levels) logits


def adaptive_ks(group_sizes: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Truncation depth k per row of [days, levels] group sizes, highest level first.

    k accumulates whole level groups from the top until the day's floor
    (clamped up to 1) is met, so a group is never split; it is the whole
    pool when every group is needed.
    """
    cum = np.cumsum(group_sizes, axis=1)
    floors = np.maximum(1, thresholds)
    k = cum[np.arange(len(cum)), (cum >= floors[:, None]).argmax(axis=1)]
    return np.where(k >= floors, k, cum[:, -1])


def level_counts(levels: np.ndarray, sizes, n_levels: int,
                 threshold_frac: float) -> tuple[np.ndarray, np.ndarray]:
    """Label-group sizes and k floors of days stacked in one array of levels.

    Day d is the next ``sizes[d]`` entries of ``levels``, each in [0, n_levels).
    Returns the [days, n_levels] group sizes, highest level first, and each
    day's floor max(1, ceil(threshold_frac * size)).
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    day = np.repeat(np.arange(sizes.size), sizes)
    counts = np.bincount(day * n_levels + np.asarray(levels, dtype=np.int64),
                         minlength=sizes.size * n_levels).reshape(sizes.size, n_levels)
    floors = np.maximum(1, np.ceil(threshold_frac * sizes)).astype(np.int64)
    return counts[:, ::-1], floors


def level_ks(levels: np.ndarray, sizes, n_levels: int,
             cfg: RankLossConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``level_counts`` of days stacked in one array of levels, and each day's k:
    ``cfg.fixed_k`` capped at the day's size when set, else ``adaptive_ks``."""
    groups, floors = level_counts(levels, sizes, n_levels, cfg.threshold_frac)
    if cfg.fixed_k is not None:
        return groups, floors, np.minimum(cfg.fixed_k, sizes)
    return groups, floors, adaptive_ks(groups, floors)


def split_labels(levels: np.ndarray, sizes, n_levels: int,
                 cfg: RankLossConfig) -> list[DayLabels]:
    """The label constants of days stacked in one array of levels in [0, n_levels).

    Day d is the next ``sizes[d]`` (at least 1) entries of ``levels``. Group
    sizes, floors, k and the ideal DCG@k come from one pass over all days.
    """
    gains = np.asarray(levels).astype(np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    if gains.ndim != 1 or gains.size != sizes.sum() or (sizes < 1).any():
        raise ContractError(f"labels must be a vector of non-empty days, got shape "
                            f"{gains.shape} for day sizes {sizes.tolist()}")
    if gains.size and (gains.min() < 0 or gains.max() >= n_levels):
        raise ContractError(f"labels must lie in [0, {n_levels - 1}]")
    groups, floors, ks = level_ks(gains, sizes, n_levels, cfg)
    one_level = (groups > 0).sum(axis=1) == 1
    ideals = np.where(one_level, 0.0, ideal_dcgs(groups, ks, cfg.gain))
    return [DayLabels(gains=day, group_sizes=group, threshold=floor, k=k, ideal=ideal,
                      label_index=np.arange(day.size) * n_levels + day)
            for day, group, floor, k, ideal in zip(np.split(gains, np.cumsum(sizes)[:-1]),
                                                   groups.tolist(), floors.tolist(),
                                                   ks.tolist(), ideals.tolist())]


def day_labels(levels: np.ndarray, n_levels: int, cfg: RankLossConfig) -> DayLabels:
    """One day's label constants: ``split_labels`` of a single day."""
    levels = np.asarray(levels)
    return split_labels(levels, [levels.size], n_levels, cfg)[0]


def rank_batch(scores: Tensor, labels: DayLabels) -> RankBatch:
    """One day's ranking scores over its label constants."""
    if scores.data.shape != labels.gains.shape:
        raise ContractError(f"scores shape {scores.data.shape} does not match "
                            f"{labels.gains.size} labels")
    return RankBatch(scores=scores, gains=labels.gains, group_sizes=labels.group_sizes,
                     threshold=labels.threshold, k=labels.k, ideal=labels.ideal)


def make_rank_batch(scores: Tensor, levels: np.ndarray, n_levels: int,
                    cfg: RankLossConfig) -> RankBatch:
    return rank_batch(scores, day_labels(levels, n_levels, cfg))


def _upper_blocks(t: np.ndarray, slope: bool = False):
    """Yield (lo, block) over the upper triangle of the ascending scores' pair matrix.

    The block covers rows i = lo .. lo + c - 1 (c <= ``_ROW_CHUNK``) and columns
    j = lo .. n - 1. Right of the diagonal x = t_j - t_i >= 0, so one branch is
    stable: the block holds Q = 1/(1 + exp(x)) = 1 - sigmoid(x), or with
    ``slope`` the logistic's derivative W = 0.5/(1 + cosh(x)). On and below
    the diagonal the block is 0, because there the denominator gets +inf
    (``_DIAGONAL_DENOMINATOR``). x comes from one K=2 matrix product
    [-t_i, 1] @ [1, t_j], which rounds once, like a subtraction, but runs faster
    than numpy's broadcast subtract. Every chunk is a contiguous view of one
    reused buffer, valid until the next is yielded.
    """
    n = t.size
    terms = np.empty((3, n))  # rows [-t, 1, t]: [-t_i, 1] is terms[:2].T, [1, t_j] is terms[1:]
    np.negative(t, out=terms[0])
    terms[1] = 1.0
    terms[2] = t
    buf = np.empty(min(_ROW_CHUNK, n) * n)
    for lo in range(0, n, _ROW_CHUNK):
        c, width = min(_ROW_CHUNK, n - lo), n - lo
        x = buf[:c * width].reshape(c, width)
        np.matmul(terms[:2, lo:lo + c].T, terms[1:, lo:], out=x)
        if t[n - 1] - t[lo] > _EXP_MAX:  # exp and cosh would overflow
            np.clip(x, -_EXP_MAX, _EXP_MAX, out=x)
        if slope:
            np.cosh(x, out=x)
        else:
            np.exp(x, out=x)
        np.add(x[:, :c], _DIAGONAL_DENOMINATOR[:c, :c], out=x[:, :c])
        np.add(x[:, c:], 1.0, out=x[:, c:])
        np.divide(0.5 if slope else 1.0, x, out=x)
        yield lo, x


def _sorted_ranks(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smooth ranks of the ascending scores ``t``, in that order, and the last block.

    For position i, rank_i = 1 + sum over j > i of (1 - Q_ij) + sum over j < i of
    Q_ji = (n - i) - rowsum_i + colsum_i over the upper-triangle blocks: each
    pair is evaluated once, and its mirror is its complement. When n fits in
    one chunk, the last block is the whole upper triangle of Q.
    """
    n = t.size
    rank = np.arange(n, 0.0, -1.0)
    ones = np.ones(n)
    for lo, q in _upper_blocks(t):
        rank[lo:lo + len(q)] -= q @ ones[lo:]
        rank[lo:] += ones[:len(q)] @ q
    return rank, q


def _blocks_vjp(blocks, g: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. ascending scores of sum_i g_i * rank_i, from their slope blocks.

    ``blocks`` yields (lo, W chunk) as ``_upper_blocks(t, slope=True)`` does.
    With U the upper triangle of the symmetric slope matrix W, the gradient
    sum_i g_i W_ij - g_j sum_k W_jk is g U + U g - g * (rowsum U + colsum U).
    Stacking [g, 1] folds both sums into the two products per chunk.
    """
    n = g.size
    g_one = np.empty((n, 2))
    g_one[:, 0] = g
    g_one[:, 1] = 1.0
    acc = np.zeros((n, 2))   # U g + g U, rowsum U + colsum U
    for lo, w in blocks:
        c = len(w)
        acc[lo:lo + c] += w @ g_one[lo:]
        acc[lo:] += (g_one[lo:lo + c].T @ w).T
    return acc[:, 0] - g * acc[:, 1]


def _smooth_dcg_at_k(s: np.ndarray, levels: np.ndarray, k: int,
                     gain: str) -> tuple[float, Callable[[np.ndarray], np.ndarray]]:
    """DCG@k of the smooth ranks of the scores ``s``, and its VJP.

    Membership is smooth rank <= k + 0.5; the gradient flows through the
    discount of the included items only. The VJP maps the gradient of the
    DCG to the scores' gradient, reusing the forward's sort. It rebuilds each
    slope chunk from the scores, except on a day that fits in one chunk:
    there it derives W = Q(1 - Q) from the forward's block.
    """
    order = s.argsort(kind="stable")
    t = s[order]
    sorted_ranks, q = _sorted_ranks(t)
    if s.size > _ROW_CHUNK:
        q = None  # a view of the forward's buffer, which the backward does not need
    ranks = np.empty(s.size)
    ranks[order] = sorted_ranks
    weight = gain_values(levels, gain) * (ranks <= k + 0.5)
    discount = np.log(ranks + 1.0) / _LN2

    def vjp(g):
        g_rank = -g * weight / (discount * discount) / _LN2 / (ranks + 1.0)
        blocks = _upper_blocks(t, slope=True) if q is None else [(0, q - q * q)]
        grad = np.empty(s.size)
        grad[order] = _blocks_vjp(blocks, g_rank[order])
        return grad

    return np.sum(weight / discount), vjp


def gain_values(levels: np.ndarray, gain: str) -> np.ndarray:
    levels = np.asarray(levels, dtype=np.float64)
    if gain == GAIN_STANDARD:
        return np.exp2(levels) - 1.0
    if gain == GAIN_SHIFTED:
        return np.exp2(levels - 1.0)
    raise ContractError(f"unknown gain variant {gain!r}")


def ideal_dcgs(groups: np.ndarray, ks, gain: str) -> np.ndarray:
    """Ideal DCG@k of each day from its [days, levels] group sizes, highest level first.

    A day's levels in descending order are its groups' levels repeated (no sort);
    the sum over day d's top ``ks[d]`` rounds as that day's own sum.
    """
    sizes = groups.sum(axis=1)
    ranked = np.repeat(np.tile(np.arange(groups.shape[1])[::-1], sizes.size), groups.ravel())
    ranks = np.arange(1, ranked.size + 1) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    top = ranks <= np.repeat(ks, sizes)
    kept = np.minimum(ks, sizes)
    terms = gain_values(ranked[top], gain) / np.log2(1.0 + ranks[top])
    return day_sums(terms, np.cumsum(kept) - kept)


def ndcg_loss(batch: RankBatch, gain: str) -> Tensor:
    """exp(-NDCG@k) of the batch's scores as one node: strictly decreasing in NDCG@k.

    NDCG@k is the smooth DCG@k over the batch's ideal DCG@k, which is derived
    from its gains when ``batch.ideal`` is None. A day whose gains are all
    equal carries no ranking information: its NDCG@k is defined as a perfect
    1, so its loss is exp(-1) with no gradient.
    """
    levels = batch.gains
    if levels.size == 0:
        raise ContractError("empty batch")
    ideal = batch.ideal
    if ideal is None:
        ideal = 0.0 if levels.max() == levels.min() else ideal_dcgs(
            np.bincount(levels)[None, ::-1], [batch.k], gain)[0]
    if ideal <= 0.0:
        return Tensor(np.exp(-1.0))
    scores = batch.scores
    dcg, dcg_vjp = _smooth_dcg_at_k(scores.data, levels, batch.k, gain)

    def backward(out):
        scores.accumulate_grad(dcg_vjp(-(out.grad * out.data) / ideal))

    return Tensor(np.exp(-(dcg / ideal)), (scores,), backward)


def mse_loss(pred: Tensor, y: np.ndarray) -> Tensor:
    """Mean of (pred - y)^2 as one node."""
    y = np.asarray(y, dtype=np.float64)
    if pred.data.shape != y.shape:
        raise ContractError(f"pred shape {pred.data.shape} does not match y shape {y.shape}")
    diff = pred.data - y

    def backward(out):
        half = (out.grad / diff.size) * diff  # each factor of diff * diff passes one half
        pred.accumulate_grad(half + half)

    return Tensor((diff * diff).mean(), (pred,), backward)


def log_softmax(logits: Tensor) -> Tensor:
    """Row-wise log-probabilities as one node; backward g - softmax * (row sum of g)."""
    x = logits.data
    shifted = x - x.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

    def backward(out):
        g = out.grad
        logits.accumulate_grad(g - np.exp(out.data) * g.sum(axis=1, keepdims=True))

    return Tensor(logp, (logits,), backward)


def cross_entropy(logp: Tensor, labels: DayLabels) -> Tensor:
    """Mean negative log-probability of each row's label, as one node."""
    if logp.data.shape[0] != labels.gains.size:
        raise ContractError(f"labels shape {labels.gains.shape} does not match "
                            f"{logp.data.shape[0]} rows")
    onehot = np.zeros(logp.data.shape)
    onehot.flat[labels.label_index] = 1.0

    def backward(out):
        logp.accumulate_grad((-out.grad / len(onehot)) * onehot)

    return Tensor(-(logp.data * onehot).sum(axis=1).mean(), (logp,), backward)


def ranking_scores(logp: Tensor) -> Tensor:
    """``SCORE_SCALE`` times each row's expected class index under the
    probabilities exp(logp), as one node."""
    levels = np.arange(logp.data.shape[1], dtype=np.float64)
    probs = np.exp(logp.data)

    def backward(out):
        logp.accumulate_grad((out.grad * SCORE_SCALE)[:, None] * levels * probs)

    return Tensor((probs * levels).sum(axis=1) * SCORE_SCALE, (logp,), backward)


def pairwise_loss(scores: Tensor, target: np.ndarray) -> Tensor:
    """Hinge on discordant pairs: sum over i<j of max(0, -(f_i-f_j)(y_i-y_j)) / n^2.

    One node over one stable sort of the scores, in O(n * L^2) time and
    O(n * L) memory for L distinct target values (the counting idea of
    Joachims, KDD 2006). With target values y_a > y_b, a pair of an item of
    L_a and an item of L_b scored higher costs (y_a - y_b)(f_j - f_i), and
    f_j - f_i is the sum of the gaps between consecutive sorted scores from
    f_i up to f_j. So the loss is the sum over gaps of gap * crossing / n^2,
    where crossing, for the gap above sorted position m, is sum over (a, b) of
    (y_a - y_b) * #{L_a at or below m} * #{L_b above m}: every term is
    non-negative, so nothing cancels. The gradient counts strict inequalities,
    as the relu does, which passes nothing at a tie: -(y_a - y_b) times the
    count of L_b scored strictly higher for an item of L_a, and +(y_a - y_b)
    times the count of L_a scored strictly lower for an item of L_b.
    """
    target = np.asarray(target, dtype=np.float64)
    n = target.size
    if n < 2:
        raise ContractError("pairwise loss needs at least 2 items")
    if scores.data.shape != (n,):
        raise ContractError(f"scores shape {scores.data.shape} does not match {n} targets")
    values, level = np.unique(target, return_inverse=True)
    margin = np.maximum(values[:, None] - values[None, :], 0.0)  # y_a - y_b where y_a > y_b
    f = scores.data
    order = f.argsort(kind="stable")
    t = f[order]
    level = level[order]
    below = np.zeros((n + 1, values.size))        # below[p, a]: items of L_a among the p lowest
    below[np.arange(1, n + 1), level] = 1.0
    np.cumsum(below, axis=0, out=below)
    above = below[n] - below
    crossing = ((below[1:n] @ margin) * above[1:n]).sum(axis=1)
    value = np.diff(t) @ crossing / float(n * n)

    def backward(out):
        rows = np.arange(n)
        higher = above[t.searchsorted(t, side="right")] @ margin.T   # [m, a]: sum_b margin * count
        lower = below[t.searchsorted(t, side="left")] @ margin       # [m, b]: sum_a margin * count
        grad = np.empty(n)
        grad[order] = (lower[rows, level] - higher[rows, level]) * (out.grad / float(n * n))
        scores.accumulate_grad(grad)

    return Tensor(value, (scores,), backward)


def classification_loss(logits: Tensor, labels: DayLabels, cfg: RankLossConfig) -> Tensor:
    """The classification objective.

    One log-probability node feeds both terms: cross-entropy on the labels,
    and the ranking term on ``ranking_scores``. The loss is the mean of the
    two terms, one node. ``labels`` come from ``day_labels`` with this
    ``cfg`` and the logits' width as ``n_levels``.
    """
    logp = log_softmax(logits)
    batch = rank_batch(ranking_scores(logp), labels)
    if cfg.ranking == RANK_PAIRWISE:
        rank_term = pairwise_loss(batch.scores, batch.gains.astype(np.float64))
    else:
        rank_term = ndcg_loss(batch, cfg.gain)
    ce = cross_entropy(logp, labels)

    def backward(out):
        half = out.grad * 0.5
        ce.accumulate_grad(half)
        rank_term.accumulate_grad(half)

    return Tensor(ce.data * 0.5 + rank_term.data * 0.5, (ce, rank_term), backward)
