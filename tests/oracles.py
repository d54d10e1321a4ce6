"""Reference implementations the tests compare the library against.

Each is a plain or scalar restatement of a concept that ``momrank`` computes
in one vectorized or fused path: gradients by central differences, the
array logistic and a sigmoid node for composed reference graphs, composed
log-probabilities, exact ranks and NDCG, the full-block smooth-rank kernel,
the composed pairwise hinge, per-ticker momentum lines and the per-line trend
rule. None of them runs outside the tests.
"""

from __future__ import annotations

import numpy as np

from momrank.autodiff import Tensor
from momrank.errors import ContractError, GraphError, NumericError
from momrank.losses import _ROW_CHUNK, GAIN_STANDARD, gain_values, ideal_dcg_at_k
from momrank.momentum import (LEVEL_BOUNCE, LEVEL_NEGATIVE, LEVEL_POSITIVE, LEVEL_SINK,
                              LEVEL_VOLATILE, MomentumConfig)


# ---- gradients ----

def check_gradient(fn, point, step: float = 1e-5) -> float:
    """Compare the analytic gradient of ``fn`` against central finite differences.

    ``fn`` maps a 1-D Tensor to a scalar Tensor. Returns the max over
    coordinates of |analytic - numeric| / max(1, |analytic|).
    """
    if step <= 0:
        raise ValueError("step must be positive")
    point = np.asarray(point, dtype=np.float64).ravel()

    def evaluate(vec: np.ndarray) -> float:
        val = fn(Tensor(vec)).item()
        if not np.isfinite(val):
            raise NumericError(f"function value {val} is not finite")
        return val

    x = Tensor(point.copy())
    out = fn(x)
    if out.data.size != 1:
        raise GraphError("check_gradient needs a scalar-valued function")
    if not np.isfinite(out.data).all():
        raise NumericError("function value is not finite at the base point")
    out.backward()
    analytic = x.grad.ravel().copy()

    numeric = np.empty_like(analytic)
    for i in range(point.size):
        bumped = point.copy()
        bumped[i] = point[i] + step
        hi = evaluate(bumped)
        bumped[i] = point[i] - step
        lo = evaluate(bumped)
        numeric[i] = (hi - lo) / (2.0 * step)
    if analytic.size == 0:
        return 0.0
    denom = np.maximum(1.0, np.abs(analytic))
    return float(np.max(np.abs(analytic - numeric) / denom))


# ---- logistic and log-probabilities ----

def sigmoid_np(x):
    """Numerically stable logistic function on plain numpy data (or floats)."""
    arr = np.asarray(x, dtype=np.float64)
    flat = np.atleast_1d(arr)
    out = np.empty_like(flat)
    pos = flat >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-flat[pos]))
    ex = np.exp(flat[~pos])
    out[~pos] = ex / (1.0 + ex)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def log_softmax(logits: Tensor) -> Tensor:
    """Row-wise log-probabilities composed of elementwise ops, sum and reshape.

    The shift by each row's maximum is a constant: log-probabilities do not
    depend on it, so no gradient flows through it.
    """
    n = logits.data.shape[0]
    shifted = logits - logits.data.max(axis=1, keepdims=True)
    return shifted - shifted.exp().sum(axis=1).log().reshape(n, 1)


def sigmoid_node(x: Tensor) -> Tensor:
    """The logistic function as one node, with ``sigmoid_np``'s values."""
    def backward(out):
        x.accumulate_grad(out.grad * out.data * (1.0 - out.data))

    return Tensor(sigmoid_np(x.data), (x,), backward)


# ---- ranks and NDCG ----

def _pair_blocks(s: np.ndarray, slope: bool = False):
    """Yield (lo, block) for each chunk of ``_ROW_CHUNK`` rows i = lo, lo + 1, ...

    The full-block kernel the library used before its sorted half-pair one.
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


def smooth_ranks(s: np.ndarray) -> np.ndarray:
    """1 + sum over j != i of sigmoid(s_j - s_i), over every ordered pair."""
    ranks = np.empty(s.size)
    for lo, p in _pair_blocks(s):
        ranks[lo:lo + len(p)] = p.sum(axis=1)
    return ranks + 1.0


def smooth_ranks_vjp(s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. ``s`` of sum_i g_i * rank_i: sum_i g_i W_ij - g_j sum_k W_jk."""
    grad = np.zeros(s.size)
    for lo, w in _pair_blocks(s, slope=True):
        g_rows = g[lo:lo + len(w)]
        grad += g_rows @ w
        grad[lo:lo + len(w)] -= g_rows * w.sum(axis=1)
    return grad


def approx_rank(scores: Tensor) -> Tensor:
    """Smooth rank of each item as its own node: 1 + sum of sigmoid(s_j - s_i) over j != i.

    Always sums to n(n+1)/2 because the indicator and its mirror add to one.
    Built on the full-block kernel, whose values equal the composed graph's
    bitwise.
    """
    if scores.data.ndim != 1:
        raise ContractError(f"scores must be a vector, got shape {scores.data.shape}")
    s = scores.data

    def backward(out):
        scores.accumulate_grad(smooth_ranks_vjp(s, out.grad))

    return Tensor(smooth_ranks(s), (scores,), backward)


def dcg_at_k(ranks: np.ndarray, levels: np.ndarray, k: int, gain: str = GAIN_STANDARD) -> float:
    """Discounted cumulative gain truncated at depth k over exact 1-based ranks."""
    gains = gain_values(levels, gain)
    ranks = np.asarray(ranks, dtype=np.float64)
    member = ranks <= k + 0.5
    return float(np.sum(gains[member] / np.log2(1.0 + ranks[member])))


def exact_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks by descending score; ties broken by original index."""
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(-scores, kind="stable")
    ranks = np.empty(scores.size, dtype=np.float64)
    ranks[order] = np.arange(1, scores.size + 1)
    return ranks


def exact_ndcg_at_k(scores: np.ndarray, levels: np.ndarray, k: int,
                    gain: str = GAIN_STANDARD) -> float:
    """Non-differentiable NDCG@k on plain arrays."""
    levels = np.asarray(levels)
    if levels.size and levels.max() == levels.min():
        return 1.0
    ideal = ideal_dcg_at_k(levels, k, gain)
    if ideal <= 0.0:
        return 1.0
    return dcg_at_k(exact_ranks(scores), levels, k, gain) / ideal


# ---- pairwise hinge ----

def composed_pairwise_loss(scores: Tensor, target: np.ndarray) -> Tensor:
    """Hinge on discordant pairs as a graph of elementwise ops over the full n x n block.

    sum over i<j of max(0, -(f_i-f_j)(y_i-y_j)) / n^2; the relu passes no
    gradient at a tie.
    """
    target = np.asarray(target, dtype=np.float64)
    n = target.size
    if n < 2:
        raise ContractError("pairwise loss needs at least 2 items")
    score_diff = scores.reshape(n, 1) - scores.reshape(1, n)
    target_diff = target[:, None] - target[None, :]
    upper = np.triu(np.ones((n, n)), k=1)
    hinge = (-(score_diff * target_diff)).relu()
    return (hinge * upper).sum() / float(n * n)


# ---- momentum ----

def momentum_value(close: np.ndarray, t: int, gap: int) -> float:
    """close[t] - close[t - gap] on a single price series."""
    if t - gap < 0 or t >= len(close):
        raise ContractError(f"momentum at index {t} with gap {gap} is out of range")
    return float(close[t] - close[t - gap])


def momentum_line(close: np.ndarray, anchor: int, cfg: MomentumConfig) -> np.ndarray:
    """The length+1 momentum values ending at ``anchor``."""
    lo = anchor - cfg.length
    if lo - cfg.gap < 0 or anchor >= len(close):
        raise ContractError(f"momentum line at anchor {anchor} is out of range")
    idx = np.arange(lo, anchor + 1)
    return close[idx] - close[idx - cfg.gap]


def classify_line(values: np.ndarray, dead_zone: float = 0.0) -> int:
    """Map one momentum line to its trend level via its dead-zoned sign pattern."""
    values = np.asarray(values, dtype=np.float64)
    signs = np.where(values > dead_zone, 1, np.where(values < -dead_zone, -1, 0))
    nonzero = signs[signs != 0]
    if nonzero.size == 0:
        return LEVEL_VOLATILE
    if np.all(signs == 1):
        return LEVEL_POSITIVE
    if np.all(signs == -1):
        return LEVEL_NEGATIVE
    if nonzero[0] == -1 and nonzero[-1] == 1:
        return LEVEL_BOUNCE
    if nonzero[0] == 1 and nonzero[-1] == -1:
        return LEVEL_SINK
    return LEVEL_VOLATILE
