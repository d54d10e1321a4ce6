"""Reference implementations the tests compare the library against.

Each is a plain or scalar restatement of a concept that ``momrank`` computes
in one vectorized or fused path: the engine ops that only reference graphs
use, the composed graphs of the fused trunk and loss nodes, Adam written as
one expression, gradients by central differences, the array logistic,
sigmoid and relu nodes for composed reference graphs, composed
log-probabilities, exact ranks and NDCG, the full-block smooth-rank kernel
(and adapters that run the library's sorted one in input order), the
composed pairwise hinge, per-ticker momentum lines and the per-line trend
rule, one day's ideal DCG@k and z-scores, the per-day metric, k, evaluation
and Top-N backtest loops that the split-wide kernels replaced, a per-day
forward over windows gathered ticker by ticker, CQB training written one
equation at a time, and the chunked ``csv.reader`` pass that numpy's CSV
parser replaced in ``load_csv``. None of them runs outside the tests.
"""

from __future__ import annotations

import csv
import itertools
import math

import numpy as np

from momrank.autodiff import Tensor, _elementwise, _grad_same, _matmul, gradients, no_grad
from momrank.backtest import BacktestLedger
from momrank.data import (_CHUNK, StockPanel, _header_width, _ids, _sorted_ids, compute_return,
                          iso_date, window_ok)
from momrank.errors import ContractError, GraphError, NumericError
from momrank.losses import (_ROW_CHUNK, GAIN_STANDARD, RANK_PAIRWISE, SCORE_SCALE, RankBatch,
                            _blocks_vjp, _smooth_dcg_at_k, _sorted_ranks, _upper_blocks,
                            classification_loss, gain_values, mse_loss, pairwise_loss,
                            rank_batch)
from momrank.losses import log_softmax as log_softmax_node
from momrank.metrics import aggregate
from momrank.model import BatchOutput, forward
from momrank.momentum import (LEVEL_BOUNCE, LEVEL_NEGATIVE, LEVEL_POSITIVE, LEVEL_SINK,
                              LEVEL_VOLATILE, UNLABELED, MomentumConfig)
from momrank.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, CLS, REG


# ---- the composed ops ----
# The library's graphs need only the engine's add, matmul, reshape and log: its
# trunk and loss terms are fused nodes. The reference graphs here are written
# with the full operator set, the engine's former ops, which importing this
# module attaches to Tensor (``COMPOSED_OPS``).

def _grad_negated(g, x, y):
    return -g


def _grad_times_y(g, x, y):
    return g * y


def _grad_times_x(g, x, y):
    return g * x


def _grad_over_y(g, x, y):
    return g / y


def _grad_quotient_y(g, x, y):
    return -(g * x / (y * y))


def _sub(self, other):
    return _elementwise("sub", self, other, np.subtract, _grad_same, _grad_negated)


def _rsub(self, other):
    return _elementwise("sub", other, self, np.subtract, _grad_same, _grad_negated)


def _mul(self, other):
    return _elementwise("mul", self, other, np.multiply, _grad_times_y, _grad_times_x)


def _truediv(self, other):
    return _elementwise("div", self, other, np.true_divide, _grad_over_y, _grad_quotient_y)


def _rtruediv(self, other):
    return _elementwise("div", other, self, np.true_divide, _grad_over_y, _grad_quotient_y)


def _neg(self):
    def backward(out):
        self.accumulate_grad(-out.grad)

    return Tensor(-self.data, (self,), backward)


def _rmatmul(self, other):
    return _matmul(other, self)


def _exp(self):
    def backward(out):
        self.accumulate_grad(out.grad * out.data)

    return Tensor(np.exp(self.data), (self,), backward)


def _tanh(self):
    def backward(out):
        self.accumulate_grad(out.grad * (1.0 - out.data * out.data))

    return Tensor(np.tanh(self.data), (self,), backward)


def _sum(self, axis: int | None = None):
    def backward(out):
        g = out.grad if axis is None else np.expand_dims(out.grad, axis)
        self.accumulate_grad(np.broadcast_to(g, self.data.shape))

    return Tensor(self.data.sum(axis=axis), (self,), backward)


def _mean(self):
    def backward(out):
        self.accumulate_grad(np.broadcast_to(out.grad, self.data.shape) / self.data.size)

    return Tensor(self.data.mean(), (self,), backward)


COMPOSED_OPS = {"__radd__": Tensor.__add__, "__sub__": _sub, "__rsub__": _rsub,
                "__mul__": _mul, "__rmul__": _mul, "__truediv__": _truediv,
                "__rtruediv__": _rtruediv, "__neg__": _neg, "__rmatmul__": _rmatmul,
                "exp": _exp, "tanh": _tanh, "sum": _sum, "mean": _mean}
for _name, _op in COMPOSED_OPS.items():
    setattr(Tensor, _name, _op)


# ---- composed graphs of the fused nodes ----

def composed_forward(params, day_features) -> BatchOutput:
    """``model.forward`` with the trunk composed of matmul, add and tanh nodes."""
    arch = params.arch
    n = len(day_features)
    x = np.asarray(day_features, dtype=np.float64).reshape(n, arch.window * arch.n_features)
    h = (x @ params.trunk["w0"] + params.trunk["b0"]).tanh()
    h = (h @ params.trunk["w1"] + params.trunk["b1"]).tanh()
    pred = (h @ params.reg_head["w"] + params.reg_head["b"]).reshape(n)
    logits = h @ params.cls_head["w"] + params.cls_head["b"]
    return BatchOutput(pred_return=pred, class_logits=logits, hidden=h, trunk=())


def composed_mse_loss(pred: Tensor, y: np.ndarray) -> Tensor:
    diff = pred - np.asarray(y, dtype=np.float64)
    return (diff * diff).mean()


def composed_cross_entropy(logp: Tensor, labels) -> Tensor:
    onehot = np.zeros(logp.data.shape)
    onehot.flat[labels.label_index] = 1.0
    return -(logp * onehot).sum(axis=1).mean()


def expected_level(logp: Tensor) -> Tensor:
    """Per-row expectation of the class index under the probabilities exp(logp), composed."""
    levels = np.arange(logp.data.shape[1], dtype=np.float64)
    return (logp.exp() * levels).sum(axis=1)


def smooth_dcg_node(scores: Tensor, levels: np.ndarray, k: int, gain: str) -> Tensor:
    """The library's smooth DCG@k kernel (``losses._smooth_dcg_at_k``) as its own node."""
    value, vjp = _smooth_dcg_at_k(scores.data, levels, k, gain)

    def backward(out):
        scores.accumulate_grad(vjp(out.grad))

    return Tensor(value, (scores,), backward)


def approx_ndcg_at_k(batch: RankBatch, gain: str) -> Tensor:
    """Smooth NDCG@k of the batch's scores: the smooth DCG@k node over the ideal DCG@k
    (sorted from the gains when ``batch.ideal`` is None); 1, a leaf, on a day of
    equal gains."""
    levels = batch.gains
    ideal = batch.ideal
    if ideal is None:
        ideal = 0.0 if levels.max() == levels.min() else ideal_dcg_at_k(levels, batch.k, gain)
    if ideal <= 0.0:
        return Tensor(1.0)
    return smooth_dcg_node(batch.scores, levels, batch.k, gain) / ideal


def composed_ndcg_loss(batch: RankBatch, gain: str) -> Tensor:
    return (-approx_ndcg_at_k(batch, gain)).exp()


def composed_classification_loss(logits: Tensor, labels, cfg) -> Tensor:
    """``classification_loss`` with every term composed but the log-probabilities, which
    stay the library's one node."""
    logp = log_softmax_node(logits)
    batch = rank_batch(expected_level(logp) * SCORE_SCALE, labels)
    if cfg.ranking == RANK_PAIRWISE:
        rank_term = pairwise_loss(batch.scores, batch.gains.astype(np.float64))
    else:
        rank_term = composed_ndcg_loss(batch, cfg.gain)
    return composed_cross_entropy(logp, labels) * 0.5 + rank_term * 0.5



# ---- Adam as one expression ----

class AdamByExpression:
    """``training._GroupOptimizer``'s Adam step with each update one numpy expression."""

    def __init__(self, dim: int, lr: float):
        self.lr, self.m, self.v, self.t = lr, np.zeros(dim), np.zeros(dim), 0

    def step(self, flat: np.ndarray, grad: np.ndarray, decay: float) -> np.ndarray:
        self.t += 1
        self.m *= ADAM_BETA1
        self.m += (1.0 - ADAM_BETA1) * grad
        self.v *= ADAM_BETA2
        self.v += (1.0 - ADAM_BETA2) * grad * grad
        m_hat = self.m / (1.0 - ADAM_BETA1 ** self.t)
        v_hat = self.v / (1.0 - ADAM_BETA2 ** self.t)
        flat[...] = flat - self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS) - self.lr * decay * flat
        return flat


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


def relu_node(x: Tensor) -> Tensor:
    """max(x, 0) as one node; no gradient passes at 0."""
    def backward(out):
        x.accumulate_grad(out.grad * (x.data > 0))

    return Tensor(np.where(x.data > 0, x.data, 0.0), (x,), backward)


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


def sorted_kernel_ranks(s: np.ndarray) -> np.ndarray:
    """The library's smooth ranks (``losses._sorted_ranks`` over one stable sort of
    ``s``) in the order of ``s``; they sum to n(n+1)/2."""
    order = s.argsort(kind="stable")
    ranks = np.empty(s.size)
    ranks[order] = _sorted_ranks(s[order])[0]
    return ranks


def sorted_kernel_ranks_vjp(s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The library's smooth-rank gradient (``losses._blocks_vjp`` over the slope
    blocks of the sorted ``s``) in the order of ``s``."""
    order = s.argsort(kind="stable")
    grad = np.empty(s.size)
    grad[order] = _blocks_vjp(_upper_blocks(s[order], slope=True), g[order])
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


def ideal_dcg_at_k(levels: np.ndarray, k: int, gain: str) -> float:
    """One day's DCG@k of the gain-sorted ordering with exact integer ranks."""
    gains = np.sort(gain_values(levels, gain))[::-1]
    ranks = np.arange(1, gains.size + 1, dtype=np.float64)
    top = ranks <= k + 0.5
    return float(np.sum(gains[top] / np.log2(1.0 + ranks[top])))


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
    hinge = relu_node(-(score_diff * target_diff))
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


# ---- per-day metrics, k and evaluation ----

def standardize(v: np.ndarray) -> np.ndarray:
    """One day's ``v`` z-scored (population std); all zeros when its std is below 1e-12."""
    sd = v.std()
    if sd < 1e-12:
        return np.zeros_like(v)
    return (v - v.mean()) / sd


def daily_ic(pred: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation of one day's cross-section; NaN if undefined."""
    pred = np.asarray(pred, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if pred.size < 2:
        return float("nan")
    sp, sy = pred.std(), y.std()
    if sp < 1e-15 or sy < 1e-15:
        return float("nan")
    cov = ((pred - pred.mean()) * (y - y.mean())).mean()
    return float(cov / (sp * sy))


def average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks, ties averaged: the tie runs of one stable sort."""
    v = np.asarray(v, dtype=np.float64)
    order = np.argsort(v, kind="stable")
    sv = v[order]
    cuts = np.flatnonzero(sv[1:] != sv[:-1]) + 1   # first index of each tie run but the first
    start = np.concatenate(([0], cuts))
    end = np.concatenate((cuts, [v.size])) - 1      # inclusive
    ranks = np.empty(v.size, dtype=np.float64)
    ranks[order] = np.repeat((start + end) / 2.0 + 1.0, end - start + 1)
    return ranks


def daily_rank_ic(pred: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation of average-ranked vectors; NaN if undefined."""
    if np.asarray(pred).size < 2:
        return float("nan")
    return daily_ic(average_ranks(pred), average_ranks(y))


def precision_at_n(pred: np.ndarray, y: np.ndarray, n_top: int) -> float:
    """Percent of the N top-scored names with positive realized return."""
    top = np.argsort(-np.asarray(pred, dtype=np.float64), kind="stable")[:n_top]
    return 100.0 * float((np.asarray(y)[top] > 0).sum()) / n_top


def level_groups(levels: np.ndarray, n_levels: int,
                 threshold_frac: float) -> tuple[list[int], int]:
    """One day's label-group sizes (highest level first) and its k floor, level by level."""
    levels = np.asarray(levels)
    sizes = [int((levels == lvl).sum()) for lvl in range(n_levels - 1, -1, -1)]
    return sizes, max(1, math.ceil(threshold_frac * levels.size))


def adaptive_k(group_sizes, threshold: int) -> int:
    """Accumulate whole level groups from the top until the floor is met."""
    threshold = max(1, int(threshold))
    k = 0
    for size in group_sizes:
        k += int(size)
        if k >= threshold:
            return k
    return k


def evaluate_by_day(scores, panel, precision_ns, class_labels=None, threshold_frac=0.2):
    """``metrics.evaluate_predictions`` as one pass per date (the adaptive-k case)."""
    y = compute_return(panel)
    ics, rics, k_values = [], [], []
    precisions: dict[int, list[float]] = {n: [] for n in precision_ns}
    for t in range(panel.n_dates):
        ok = np.isfinite(y[t]) & np.isfinite(scores[t]) & panel.valid[t]
        if ok.sum() < 2:
            continue
        pred_t, y_t = scores[t, ok], y[t, ok]
        ics.append(daily_ic(pred_t, y_t))
        rics.append(daily_rank_ic(pred_t, y_t))
        for n_top in precision_ns:
            if n_top < pred_t.size:
                precisions[n_top].append(precision_at_n(pred_t, y_t, n_top))
        if class_labels is not None:
            lab = class_labels[t, ok]
            lab = lab[lab != UNLABELED]
            if lab.size:
                k_values.append(adaptive_k(*level_groups(lab, int(lab.max()) + 1,
                                                         threshold_frac)))
    return aggregate(ics, rics, precisions, k_values)


def run_topn_by_day(panel, scores, top_n, cost_bps=0.0) -> BacktestLedger:
    """``backtest.run_topn`` as one pass per date with its own stable sort and no
    floor on a day's net return."""
    y = compute_return(panel)
    cost = 2.0 * cost_bps / 1e4
    dates, returns, holdings, balance = [], [], [], []
    value = 1.0
    for t in range(panel.n_dates - 1):
        candidates = np.flatnonzero(np.isfinite(y[t]) & np.isfinite(scores[t]))
        if candidates.size == 0:
            picks = np.empty(0, dtype=np.int64)
            day_ret = 0.0
        else:
            order = np.argsort(-scores[t, candidates], kind="stable")
            picks = candidates[order[:top_n]]
            day_ret = float(y[t, picks].mean()) - cost
        value *= 1.0 + day_ret
        dates.append(panel.dates[t])
        returns.append(day_ret)
        holdings.append([panel.tickers[i] for i in picks])
        balance.append(value)
    return BacktestLedger(dates=dates, balance=np.asarray(balance),
                          daily_return=np.asarray(returns), holdings=holdings)


def usable_days_by_day(panel, window, labels) -> list[int]:
    """The days of ``training.usable_cells``, name by name: a name counts on day t
    when its cells t - window + 1..t + 1 are valid and it is labelled at t."""
    days = []
    for t in range(window - 1, panel.n_dates - 1):
        names = [i for i in range(panel.n_tickers)
                 if panel.valid[t - window + 1: t + 2, i].all() and labels[t, i] != UNLABELED]
        if len(names) >= 2:
            days.append(t)
    return days


def split_metrics_by_day(params, batches, loss_cfg, tasks, batch_losses):
    """``training._split_metrics`` as one pass per day with the per-day IC loops."""
    loss_sums = dict.fromkeys(tasks, 0.0)
    ics, rics = [], []
    with no_grad():
        for batch in batches:
            out, losses = batch_losses(params, batch, loss_cfg, tasks)
            for task in tasks:
                loss_sums[task] += losses[task].item()
            ics.append(daily_ic(out.pred_return.data, batch.y))
            rics.append(daily_rank_ic(out.pred_return.data, batch.y))
    finite_ics = [v for v in ics if np.isfinite(v)]
    finite_rics = [v for v in rics if np.isfinite(v)]
    ic = float(np.mean(finite_ics)) if finite_ics else float("nan")
    ric = float(np.mean(finite_rics)) if finite_rics else float("nan")
    return {task: total / len(batches) for task, total in loss_sums.items()}, ic, ric


# ---- convergence-aware balancing (CQB) ----

def cqb_converge_by_hand(train_losses, valid_losses, window) -> float:
    """The converge rate V for the epoch after the given epochs' losses.

    Per split, the change of loss is the last epoch's loss minus the mean over
    the ``window`` epochs that end ``window`` epochs before it (those before
    epoch 1 left out); V = change(valid) / change(train), the denominator
    floored at 1e-8 in size with its sign kept, clamped to [-5, 5]. V is 1
    while that earlier window would start more than one epoch before epoch 1,
    while it holds no epoch, and when a change is not finite.
    """
    last = len(train_losses)
    first = last - 2 * window + 1          # 1-based first epoch of the earlier window
    earlier = slice(max(first, 1) - 1, last - window)
    if first < 0 or not train_losses[earlier]:
        return 1.0
    d_train, d_valid = (losses[-1] - float(np.mean(losses[earlier]))
                        for losses in (train_losses, valid_losses))
    if not (math.isfinite(d_train) and math.isfinite(d_valid)):
        return 1.0
    if abs(d_train) < 1e-8:
        d_train = math.copysign(1e-8, d_train)
    return min(5.0, max(-5.0, d_valid / d_train))


def cqb_fit_by_hand(params, train_batches, valid_batches, loss_cfg, tasks, *, lr, beta, decay,
                    epochs, loss_window, adapt_beta, adapt_decay):
    """``training.fit`` with the pipeline on and plain SGD, one equation at a time.

    Per day and task the log-gradient is the loss gradient divided by
    loss + 1e-8. Its trunk part is smoothed by an EMA at the epoch's
    forgetting rate beta ** sigmoid(V) (the first day adopts it as is). The
    trunk steps on one task's smoothed gradient as is, or on two rescaled to
    the larger of their L2 norms and summed. Each head steps on its own task's
    log-gradient. Every stepped weight w becomes w - lr * g - lr * d * w at
    the epoch's decay d = decay * sigmoid(-mean V over the tasks). After each
    epoch V per task comes from the mean per-day losses on both splits
    (``cqb_converge_by_hand``). Returns one dict per epoch: V, beta and decay
    in force, the mean losses by (split, task), and a copy of the flat
    parameters after the epoch.
    """
    def sigmoid(x):
        return 1.0 / (1.0 + math.exp(-x))

    trunk = params.trunk_tensors()
    heads = {REG: params.reg_tensors(), CLS: params.cls_tensors()}
    n_trunk = sum(t.data.size for t in trunk)

    def day_losses(batch):
        out = forward(params, batch.feats)
        losses = {REG: mse_loss(out.pred_return, batch.y)}
        if CLS in tasks:
            losses[CLS] = classification_loss(out.class_logits, batch.labels, loss_cfg)
        return losses

    def sgd(tensors, grad, d):
        offset = 0
        for tensor in tensors:
            g = grad[offset: offset + tensor.data.size].reshape(tensor.data.shape)
            tensor.data = tensor.data - lr * g - lr * d * tensor.data
            offset += tensor.data.size

    ema = dict.fromkeys(tasks)
    converge = dict.fromkeys(tasks, 1.0)
    history = {(split, task): [] for split in ("train", "valid") for task in tasks}
    records = []
    for _ in range(epochs):
        betas = {task: beta ** sigmoid(converge[task]) if adapt_beta else beta for task in tasks}
        d = decay * sigmoid(-sum(converge.values()) / len(tasks)) if adapt_decay else decay
        for batch in train_batches:
            losses = day_losses(batch)
            head_grads = {}
            for task in tasks:
                grad = np.concatenate([g.ravel() for g in
                                       gradients(losses[task], trunk + heads[task])])
                grad = grad / (losses[task].item() + 1e-8)
                b = betas[task]
                ema[task] = (grad[:n_trunk] if ema[task] is None
                             else b * ema[task] + (1.0 - b) * grad[:n_trunk])
                head_grads[task] = grad[n_trunk:]
            if len(tasks) == 1:
                step = ema[tasks[0]]
            else:
                norms = {task: math.sqrt(float(ema[task] @ ema[task])) for task in tasks}
                step = sum(ema[task] * (max(norms.values()) / norms[task]) if norms[task] > 1e-12
                           else np.zeros(n_trunk) for task in tasks)
            sgd(trunk, step, d)
            for task in tasks:
                sgd(heads[task], head_grads[task], d)
        with no_grad():
            for split, batches in (("train", train_batches), ("valid", valid_batches)):
                sums = dict.fromkeys(tasks, 0.0)
                for batch in batches:
                    for task, loss in day_losses(batch).items():
                        sums[task] += loss.item()
                for task in tasks:
                    history[(split, task)].append(sums[task] / len(batches))
        records.append({"converge": dict(converge), "beta": betas, "decay": d,
                        "loss": {key: values[-1] for key, values in history.items()},
                        "flat": np.concatenate([t.data.ravel()
                                                for t in params.all_named().values()])})
        converge = {task: cqb_converge_by_hand(history[("train", task)], history[("valid", task)],
                                               loss_window) for task in tasks}
    return records


def predict_by_day(params, panel) -> np.ndarray:
    """Regression-head scores from one forward per date over windows gathered per ticker."""
    window = params.arch.window
    ok = window_ok(panel, window)
    scores = np.full((panel.n_dates, panel.n_tickers), np.nan)
    with no_grad():
        for t in range(panel.n_dates):
            rows = [i for i in range(panel.n_tickers) if ok[t, i]]
            if rows:
                feats = np.stack([panel.features[t - window + 1: t + 1, i] for i in rows])
                scores[t, rows] = forward(params, feats).pred_return.data
    return scores


# ---- CSV ----

def load_csv_chunked(path) -> StockPanel:
    """``load_csv``'s clean-file pass before numpy's parser: ``csv.reader`` records,
    ``_CHUNK`` at a time, numbers in one numpy cast per chunk, dates and tickers to
    ids through two dicts. Raises ``ValueError`` at a bad row without naming it."""
    date_ids: dict[str, int] = {}
    ticker_ids: dict[str, int] = {}
    parts = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        width = _header_width(path, next(reader, None))
        while rows := list(itertools.islice(reader, _CHUNK)):
            rows = [row for row in rows if row and (len(row) > 1 or row[0].strip())]
            if any(len(row) != width for row in rows):
                raise ValueError("a record has the wrong number of fields")
            cells = np.array(rows, dtype=object).reshape(len(rows), width)
            values = cells[:, 2:].astype(np.float64)  # float() on each cell, in C
            if not np.isfinite(values).all():
                raise ValueError("a close or feature value is not finite")
            parts.append((_ids(cells[:, 0], date_ids), _ids(cells[:, 1], ticker_ids), values))
    for date in date_ids:
        iso_date(date)
    d, t, values = (np.concatenate(col) for col in zip(*parts))
    dates, date_rank = _sorted_ids(date_ids)
    tickers, ticker_rank = _sorted_ids(ticker_ids)
    n = len(tickers)
    cells = date_rank[d] * n + ticker_rank[t]
    valid = np.zeros(len(dates) * n, dtype=bool)
    valid[cells] = True
    if np.count_nonzero(valid) < cells.size:
        raise ValueError("a (date, ticker) key repeats")
    close = np.full(len(dates) * n, np.nan)
    features = np.full((len(dates) * n, width - 3), np.nan)
    close[cells], features[cells] = values[:, 0], values[:, 1:]
    return StockPanel(dates, tickers, close.reshape(-1, n), features.reshape(-1, n, width - 3),
                      valid.reshape(-1, n))
