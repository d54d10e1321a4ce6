"""Objective functions: MSE, cross-entropy, smooth list-wise NDCG, pair-wise hinge.

The ranking term treats each trading day as one list. Item ranks are made
differentiable by replacing the pairwise comparison indicator with a sigmoid,
truncation depth k is chosen per day by accumulating whole label groups from
the top level down until a floor is met (so a level is never split), and the
final loss is ``exp(-NDCG@k)``. The classification objective averages
cross-entropy and that ranking loss 50/50; ``classification_loss`` builds it
from one log-probability node that cross-entropy and the ranking scores share.

Smooth rank -> DCG@k is one autodiff node with a closed-form backward (the
smooth-rank derivative of Qin, Liu & Li, 2010). It builds the n x n pairwise
sigmoid block ``_ROW_CHUNK`` rows at a time and its backward recomputes each
chunk, so a day of n names holds O(n * chunk) floats rather than several
n x n arrays.

The ranking scores are the expected level under the class probabilities times
``SCORE_SCALE``, so that confidently separated classes land in the regime
where smooth ranks are numerically close to exact ranks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .errors import ContractError

GAIN_STANDARD = "standard"   # 2^w - 1: zero gain at level 0
GAIN_SHIFTED = "shifted"     # 2^(w-1): literal alternative reading
RANK_NDCG, RANK_PAIRWISE = "ndcg", "pairwise"

_LN2 = math.log(2.0)
_ROW_CHUNK = 64  # rows of the n x n pairwise sigmoid block built at a time
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


def adaptive_k(group_sizes, threshold: int) -> int:
    """Accumulate whole level groups from the top until the floor is met.

    Returns the full pool size when every group is needed; never splits a
    group. ``threshold`` is clamped up to 1.
    """
    sizes = [int(s) for s in group_sizes]
    if any(s < 0 for s in sizes):
        raise ContractError("group sizes must be non-negative")
    n = sum(sizes)
    if n == 0:
        raise ContractError("empty batch: no items in any group")
    threshold = max(1, int(threshold))
    k = 0
    for size in sizes:
        k += size
        if k >= threshold:
            return k
    return n


def level_groups(levels: np.ndarray, n_levels: int,
                 threshold_frac: float) -> tuple[list[int], int]:
    """One day's label-group sizes (highest level first) and its k floor."""
    levels = np.asarray(levels)
    sizes = [int((levels == lvl).sum()) for lvl in range(n_levels - 1, -1, -1)]
    return sizes, max(1, math.ceil(threshold_frac * levels.size))


def make_rank_batch(scores: Tensor, levels: np.ndarray, n_levels: int,
                    cfg: RankLossConfig) -> RankBatch:
    levels = np.asarray(levels)
    n = levels.size
    if scores.data.shape != (n,):
        raise ContractError(f"scores shape {scores.data.shape} does not match {n} labels")
    group_sizes, threshold = level_groups(levels, n_levels, cfg.threshold_frac)
    if cfg.fixed_k is not None:
        k = min(cfg.fixed_k, n)
    else:
        k = adaptive_k(group_sizes, threshold)
    return RankBatch(scores=scores, gains=levels.astype(np.int64),
                     group_sizes=group_sizes, threshold=threshold, k=k)


def _pair_blocks(s: np.ndarray, slope: bool = False):
    """Yield (lo, block) for each chunk of ``_ROW_CHUNK`` rows i = lo, lo + 1, ...

    The block holds P[i, j] = sigmoid(s_j - s_i), or with ``slope`` its
    derivative W = P(1 - P), and is 0 on the diagonal. With x = s_j - s_i and
    e = exp(-|x|), P is 1/(1+e) where x >= 0 and e/(1+e) elsewhere (the
    two-branch stable logistic) and W = e/(1+e)^2. All chunks share one set
    of buffers, so a block is valid only until the next one is yielded.
    """
    n = s.size
    e_buf = np.empty((min(_ROW_CHUNK, n), n))
    d_buf = np.empty_like(e_buf)
    nonneg_buf = np.empty(e_buf.shape, dtype=bool)
    for lo in range(0, n, _ROW_CHUNK):
        rows = np.arange(min(_ROW_CHUNK, n - lo))
        e, d, nonneg = e_buf[:rows.size], d_buf[:rows.size], nonneg_buf[:rows.size]
        np.subtract(s[None, :], s[lo:lo + rows.size, None], out=e)  # x, until overwritten
        np.greater_equal(e, 0.0, out=nonneg)
        np.exp(np.negative(np.abs(e, out=e), out=e), out=e)
        np.add(e, 1.0, out=d)
        if slope:
            np.multiply(d, d, out=d)
        else:
            np.maximum(e, nonneg, out=e)  # numerator: 1 where x >= 0 (there e <= 1), else e
        np.divide(e, d, out=e)
        e[rows, rows + lo] = 0.0
        yield lo, e


def _smooth_ranks(s: np.ndarray) -> np.ndarray:
    """1 + sum over j != i of sigmoid(s_j - s_i), one row chunk at a time.

    The ranks sum to n(n+1)/2: a pair's two sigmoids add to one.
    """
    ranks = np.empty(s.size)
    for lo, p in _pair_blocks(s):
        ranks[lo:lo + len(p)] = p.sum(axis=1)
    return ranks + 1.0


def _smooth_ranks_vjp(s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. ``s`` of sum_i g_i * rank_i (Qin, Liu & Li, 2010).

    grad_j = sum_i g_i W_ij - g_j sum_k W_jk. Each row chunk of W is rebuilt
    from the scores rather than kept from the forward pass.
    """
    grad = np.zeros(s.size)
    for lo, w in _pair_blocks(s, slope=True):
        g_rows = g[lo:lo + len(w)]
        grad += g_rows @ w
        grad[lo:lo + len(w)] -= g_rows * w.sum(axis=1)
    return grad


def _smooth_dcg_at_k(scores: Tensor, levels: np.ndarray, k: int, gain: str) -> Tensor:
    """DCG@k of ``_smooth_ranks(scores)`` as one node with a closed-form backward.

    Membership is smooth rank <= k + 0.5; the gradient flows through the
    discount of the included items only.
    """
    s = scores.data
    ranks = _smooth_ranks(s)
    weight = gain_values(levels, gain) * (ranks <= k + 0.5)
    discount = np.log(ranks + 1.0) / _LN2

    def backward(out):
        g_rank = -out.grad * weight / (discount * discount) / _LN2 / (ranks + 1.0)
        scores.accumulate_grad(_smooth_ranks_vjp(s, g_rank))

    return Tensor(np.sum(weight / discount), (scores,), backward)


def gain_values(levels: np.ndarray, gain: str = GAIN_STANDARD) -> np.ndarray:
    levels = np.asarray(levels, dtype=np.float64)
    if gain == GAIN_STANDARD:
        return np.exp2(levels) - 1.0
    if gain == GAIN_SHIFTED:
        return np.exp2(levels - 1.0)
    raise ContractError(f"unknown gain variant {gain!r}")


def ideal_dcg_at_k(levels: np.ndarray, k: int, gain: str = GAIN_STANDARD) -> float:
    """DCG of the gain-sorted ordering with exact integer ranks."""
    gains = np.sort(gain_values(levels, gain))[::-1]
    ranks = np.arange(1, gains.size + 1, dtype=np.float64)
    top = ranks <= k + 0.5
    return float(np.sum(gains[top] / np.log2(1.0 + ranks[top])))


def approx_ndcg_at_k(batch: RankBatch, gain: str = GAIN_STANDARD) -> Tensor:
    """Smooth NDCG@k of the batch's scores against its label gains.

    Days whose gains are all equal carry no ranking information; they are
    defined as a perfect 1 with zero gradient.
    """
    levels = batch.gains
    if levels.size == 0:
        raise ContractError("empty batch")
    if levels.max() == levels.min():
        return Tensor(1.0)
    ideal = ideal_dcg_at_k(levels, batch.k, gain)
    if ideal <= 0.0:
        return Tensor(1.0)
    return _smooth_dcg_at_k(batch.scores, levels, batch.k, gain) / ideal


def ndcg_loss(batch: RankBatch, gain: str = GAIN_STANDARD) -> Tensor:
    """exp(-NDCG@k): strictly decreasing in the NDCG value."""
    return (-approx_ndcg_at_k(batch, gain)).exp()


def mse_loss(pred: Tensor, y: np.ndarray) -> Tensor:
    y = np.asarray(y, dtype=np.float64)
    if pred.data.shape != y.shape:
        raise ContractError(f"pred shape {pred.data.shape} does not match y shape {y.shape}")
    diff = pred - y
    return (diff * diff).mean()


def log_softmax(logits: Tensor) -> Tensor:
    """Row-wise log-probabilities as one node; backward g - softmax * (row sum of g)."""
    x = logits.data
    shifted = x - x.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

    def backward(out):
        g = out.grad
        logits.accumulate_grad(g - np.exp(out.data) * g.sum(axis=1, keepdims=True))

    return Tensor(logp, (logits,), backward)


def cross_entropy(logp: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-probability of each row's label."""
    labels = np.asarray(labels, dtype=np.int64)
    n, n_classes = logp.data.shape
    if labels.shape != (n,):
        raise ContractError(f"labels shape {labels.shape} does not match {n} rows")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ContractError(f"labels must lie in [0, {n_classes - 1}]")
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), labels] = 1.0
    return -(logp * onehot).sum(axis=1).mean()


def expected_level(logp: Tensor) -> Tensor:
    """Per-row expectation of the class index under the probabilities exp(logp)."""
    levels = np.arange(logp.data.shape[1], dtype=np.float64)
    return (logp.exp() * levels).sum(axis=1)


def pairwise_loss(scores: Tensor, target: np.ndarray) -> Tensor:
    """Hinge on discordant pairs: sum over i<j of max(0, -(f_i-f_j)(y_i-y_j)) / n^2."""
    target = np.asarray(target, dtype=np.float64)
    n = target.size
    if n < 2:
        raise ContractError("pairwise loss needs at least 2 items")
    if scores.data.shape != (n,):
        raise ContractError(f"scores shape {scores.data.shape} does not match {n} targets")
    score_diff = scores.reshape(n, 1) - scores.reshape(1, n)
    target_diff = target[:, None] - target[None, :]
    upper = np.triu(np.ones((n, n)), k=1)
    hinge = (-(score_diff * target_diff)).relu()
    return (hinge * upper).sum() / float(n * n)


def classification_loss(logits: Tensor, labels: np.ndarray,
                        cfg: RankLossConfig) -> tuple[Tensor, RankBatch]:
    """The classification objective and its rank batch.

    One log-probability node feeds both terms: cross-entropy on the labels,
    and the ranking term on ``SCORE_SCALE`` times the expected level. The
    loss is the mean of the two terms.
    """
    logp = log_softmax(logits)
    scores = expected_level(logp) * SCORE_SCALE
    batch = make_rank_batch(scores, labels, logits.data.shape[1], cfg)
    if cfg.ranking == RANK_PAIRWISE:
        rank_term = pairwise_loss(batch.scores, batch.gains.astype(np.float64))
    else:
        rank_term = ndcg_loss(batch, cfg.gain)
    return cross_entropy(logp, labels) * 0.5 + rank_term * 0.5, batch
