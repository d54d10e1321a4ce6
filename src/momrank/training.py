"""Training loop with convergence-aware multi-task gradient balancing.

One mini-batch is one trading day's full cross-section (the list-wise ranking
loss needs a coherent per-day list). The full pipeline, per task: take the
gradient of log(loss + 1e-8) on the shared trunk, smooth it with an
exponential moving average whose forgetting rate adapts per epoch, rescale
both task gradients to the larger L2 norm, and sum them. Each head steps on
its own task's gradient. The trunk step and the head gradients form one
vector, and one first-order adaptive optimizer with decoupled weight decay,
whose rate also adapts, updates the flat parameter buffer with it once per
day.

A step's graph is about a dozen nodes: the trunk is one node
(``model.forward``) and each loss term is one (``losses``). Each task's
backward pass runs once, from its log-loss to the trunk's output and to
that task's head (``gradients`` stops at the tensors it is asked for), and
one ``model.trunk_vjp`` call turns both tasks' cotangents at the trunk's
output into their trunk gradients. Every value is bitwise what a backward
pass per task through the composed layers and losses gives.

The adaptation signal is the relative converge rate: the recent change of
validation loss divided by the recent change of training loss, per task. A
negative value means validation loss is rebounding while training loss still
falls, i.e. overfitting; the forgetting rate then rises toward 1 (new
gradients get discounted) and weight decay grows toward its initial setting.

Modes (one row of ``MODES`` each; the pipeline is log-grad, EMA and balancing):

    mode          adapt beta  adapt decay  pipeline  tasks
    full          on          on           on        regression, classification
    ew            off         off          off       regression, classification
    stl           on          on           on        regression
    fixed_beta    off         on           on        regression, classification
    fixed_decay   on          off          on        regression, classification

Decay adapts on the mean converge rate over the active tasks. With the
pipeline off the trunk step is the plain sum of the raw task gradients (plain
joint training); with one task it is that task's EMA'd gradient.

``build_batches`` turns a split into its day batches or refuses it: it
labels the split once, and ``usable_cells`` builds the usable-cell mask (a
full feature window, a next-day return and a label, on a day with at least 2
such names) or raises the one error for a split with no usable day, naming
the split and the days each constraint alone leaves. The CLI refuses a split
it scores through the same function, without the label. The batches share one
ticker-major copy of the split's features (``model.ticker_major``), and each
day's batch gathers its [names, window, features] windows from it
(``model.day_window``) when a forward reads them; every day's z-scored target
and label constants (``losses.split_labels``) are derived once, split-wide.
Epoch-end evaluation runs the training forward and losses under ``no_grad``,
one day per forward, and takes every day's IC and RankIC from one split-wide
``metrics.day_ics`` call. A forward over several days would not reproduce the
per-day values bitwise: BLAS rounds the regression head's matrix-vector product
differently in the last rows of a call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, gradients, no_grad
from .data import StockPanel, compute_return, day_standardize, window_ok
from .errors import ContractError, TrainingError
from .losses import DayLabels, RankLossConfig, classification_loss, mse_loss, split_labels
from .metrics import day_ics, defined, record_k
from .model import (Architecture, BackboneParams, day_window, forward, init_params, ticker_major,
                    trunk_vjp)
from .momentum import N_LEVELS, UNLABELED, MomentumConfig, label_dataset, rise_fall_label

MODE_FULL, MODE_EW, MODE_STL = "full", "ew", "stl"
MODE_FIXED_BETA, MODE_FIXED_DECAY = "fixed_beta", "fixed_decay"
TASK_MOMENTUM, TASK_RISE_FALL = "momentum", "rise_fall"
REG, CLS = "regression", "classification"   # the two heads' tasks
N_CLASSES = {TASK_MOMENTUM: N_LEVELS, TASK_RISE_FALL: 2}  # classification head width per task
LOG_EPS = 1e-8
NORM_EPS = 1e-12


@dataclass(frozen=True)
class Mode:
    adapt_beta: bool
    adapt_decay: bool
    pipeline: bool          # log-grad + EMA + balancing; off means raw gradients
    tasks: tuple[str, ...]


MODES = {
    MODE_FULL: Mode(True, True, True, (REG, CLS)),
    MODE_EW: Mode(False, False, False, (REG, CLS)),
    MODE_STL: Mode(True, True, True, (REG,)),
    MODE_FIXED_BETA: Mode(False, True, True, (REG, CLS)),
    MODE_FIXED_DECAY: Mode(True, False, True, (REG, CLS)),
}


@dataclass(frozen=True)
class TrainConfig:
    mode: str = MODE_FULL
    task: str = TASK_MOMENTUM
    lr: float = 2e-4
    epochs: int = 100
    beta: float = 0.5            # initial EMA forgetting rate
    decay: float = 1e-3          # initial decoupled weight decay
    loss_window: int = 6         # epochs averaged in the converge-rate window
    patience: int = 30
    optimizer: str = "adam"      # adam | sgd
    window: int = 20             # feature window length W
    hidden: tuple[int, int] = (64, 64)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ContractError(f"unknown mode {self.mode!r}")
        if self.task not in N_CLASSES:
            raise ContractError(f"unknown task {self.task!r}")
        if self.lr <= 0 or self.epochs < 1 or self.decay < 0:
            raise ContractError("need lr > 0, epochs >= 1, decay >= 0")
        # decoupled decay scales every weight by 1 - lr * decay (the adapted decay is
        # never larger); a non-finite value is left to the config's finiteness message
        if math.isfinite(self.lr) and math.isfinite(self.decay) and self.lr * self.decay > 1:
            raise ContractError(f"train.lr * train.decay must be <= 1, got "
                                f"{self.lr} * {self.decay}")
        if not 0.0 < self.beta < 1.0:
            raise ContractError("beta must lie in (0, 1)")
        if self.loss_window < 1 or self.patience < 1 or self.window < 1:
            raise ContractError("loss_window, patience and window must be >= 1")
        if self.optimizer not in ("adam", "sgd"):
            raise ContractError(f"unknown optimizer {self.optimizer!r}")
        if len(self.hidden) != 2:
            raise ContractError(f"train.hidden needs exactly two layer sizes, got {self.hidden}")
        if any(h < 1 for h in self.hidden):
            raise ContractError(f"train.hidden sizes must be >= 1, got {self.hidden}")


@dataclass
class EpochRecord:
    epoch: int
    split: str      # train | valid
    task: str       # regression | classification
    loss: float
    converge: float  # relative converge rate in force during this epoch
    beta: float      # forgetting rate in force during this epoch
    decay: float
    ic: float
    rank_ic: float


@dataclass
class FitResult:
    params: BackboneParams
    best_epoch: int
    epochs_run: int
    epoch_log: list[EpochRecord]
    k_counts: dict[int, int]


# ---- pipeline primitives ----

def log_grad(loss: Tensor, wrt: list[Tensor]) -> list[np.ndarray]:
    """Gradient of log(loss + 1e-8) w.r.t. each tensor."""
    if not np.isfinite(loss.data).all():
        raise TrainingError("loss is not finite")
    return gradients((loss + LOG_EPS).log(), wrt)


def ema_update(prev: np.ndarray | None, grad: np.ndarray, beta: float) -> np.ndarray:
    """Exponential moving average; the first call adopts the gradient as-is."""
    if prev is None:
        return grad.copy()
    return beta * prev + (1.0 - beta) * grad


def balanced_parts(g_reg: np.ndarray, g_cls: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each task gradient rescaled to the larger of the two L2 norms; a gradient
    whose norm is at most ``NORM_EPS`` becomes zeros."""
    n_reg = float(np.linalg.norm(g_reg))
    n_cls = float(np.linalg.norm(g_cls))
    scale = max(n_reg, n_cls)
    part_reg = g_reg * (scale / n_reg) if n_reg > NORM_EPS else np.zeros_like(g_reg)
    part_cls = g_cls * (scale / n_cls) if n_cls > NORM_EPS else np.zeros_like(g_cls)
    return part_reg, part_cls


def balance_gradients(g_reg: np.ndarray, g_cls: np.ndarray) -> np.ndarray:
    part_reg, part_cls = balanced_parts(g_reg, g_cls)
    return part_reg + part_cls


def converge_ratio(train_hist, valid_hist, epoch: int, window: int) -> float:
    """Relative converge rate in force at epoch e, from the losses of epochs 1..e-1.

    The change of loss is epoch e-1's loss minus the mean over epochs
    max(1, e-2w)..e-w-1 (w = ``window``); the ratio valid/train is floored at
    |1e-8| in the denominator (sign kept) and clamped to [-5, 5]. The rate is 1
    for e < 2w (at e = 2w the earlier window holds only epochs 1..w-1), when
    that window is empty, and when a loss it needs is missing or not finite.
    """
    lo, hi = max(1, epoch - 2 * window), epoch - window - 1
    d_train, d_valid = (hist[epoch - 2] - float(np.mean(hist[lo - 1: hi]))
                        if epoch >= 2 * window and lo <= hi and len(hist) >= epoch - 1
                        else np.nan
                        for hist in (train_hist, valid_hist))
    if not (np.isfinite(d_train) and np.isfinite(d_valid)):
        return 1.0
    if abs(d_train) < 1e-8:
        d_train = 1e-8 if d_train >= 0 else -1e-8
    return float(np.clip(d_valid / d_train, -5.0, 5.0))


def _logistic(x: float) -> float:
    """Stable two-branch logistic of a float (``np.exp`` keeps the array form's values)."""
    if x >= 0:
        return float(1.0 / (1.0 + np.exp(-x)))
    e = np.exp(x)
    return float(e / (1.0 + e))


def adapted_beta(beta: float, converge: float) -> float:
    """Forgetting rate for the epoch: beta ** sigmoid(converge rate)."""
    return float(beta ** _logistic(converge))


def adapted_decay(decay: float, mean_converge: float) -> float:
    """Weight decay for the epoch: decay * sigmoid(-mean converge rate)."""
    return float(decay * _logistic(-mean_converge))


# ---- optimizer over the flat parameter buffer ----

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class _GroupOptimizer:
    """First-order step on a flat parameter vector with decoupled decay.

    Every update is elementwise, so stepping the concatenation of several
    parameter groups equals stepping each group on its own.
    """

    def __init__(self, kind: str, dim: int, lr: float):
        self.kind = kind
        self.lr = lr
        self.m = np.zeros(dim)
        self.v = np.zeros(dim)
        self.t = 0
        self._work = np.empty((2, dim))  # Adam's two temporaries, reused by every step

    def step(self, flat: np.ndarray, grad: np.ndarray, decay: float) -> np.ndarray:
        """Write the updated parameters into ``flat`` and return it.

        Adam computes ``(flat - (lr*m_hat)/(sqrt(v_hat)+eps)) - (lr*decay)*flat``
        in place, one operation at a time in that order, so it rounds as the
        expression does.
        """
        if self.kind == "sgd":
            flat[...] = flat - self.lr * grad - self.lr * decay * flat
            return flat
        self.t += 1
        a, b = self._work
        np.multiply(1.0 - ADAM_BETA1, grad, out=a)
        self.m *= ADAM_BETA1
        self.m += a
        np.multiply(1.0 - ADAM_BETA2, grad, out=a)
        a *= grad
        self.v *= ADAM_BETA2
        self.v += a
        np.divide(self.m, 1.0 - ADAM_BETA1 ** self.t, out=a)  # m_hat
        a *= self.lr
        np.divide(self.v, 1.0 - ADAM_BETA2 ** self.t, out=b)  # v_hat
        np.sqrt(b, out=b)
        b += ADAM_EPS
        a /= b
        np.multiply(self.lr * decay, flat, out=b)
        flat -= a
        flat -= b
        return flat


# ---- batches ----

@dataclass
class _DayBatch:
    t: int
    rows: np.ndarray      # ticker columns of the day's names
    y: np.ndarray
    labels: DayLabels
    features: np.ndarray  # the split's ``ticker_major`` features, shared by its batches
    window: int

    @property
    def feats(self) -> np.ndarray:
        """The day's [names, window, features] windows, gathered at each read."""
        return day_window(self.features, self.t, self.window, self.rows)


def class_labels_for(panel: StockPanel, task: str, mom_cfg: MomentumConfig) -> np.ndarray:
    if task == TASK_RISE_FALL:
        return rise_fall_label(compute_return(panel))
    return label_dataset(panel, mom_cfg)


def usable_cells(panel: StockPanel, name: str, window: int,
                 labelled: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The split's next-day returns and usable cells, or the error that it has none.

    A cell is usable when its name has a full feature window, a next-day
    return and each label in ``labelled`` (the labelled cells keyed by the
    label's description), on a day where at least 2 names pass them all. The
    error names the split, its date count and the days that each constraint
    alone leaves.
    """
    y = compute_return(panel)
    passing = {f"train.window = {window}": window_ok(panel, window), **labelled,
               "the next-day return": np.isfinite(y)}
    usable = np.logical_and.reduce(list(passing.values()))
    usable[usable.sum(axis=1) < 2] = False
    if not usable.any():
        leaves = [f"{what} leaves {int((ok.sum(axis=1) >= 2).sum())}"
                  for what, ok in passing.items()]
        dates = f"{panel.n_dates} date{'' if panel.n_dates == 1 else 's'}"
        raise TrainingError(
            f"no usable day in the {name} split: of its {dates}, {', '.join(leaves[:-1])} and "
            f"{leaves[-1]}; no day has 2 names that pass "
            f"{'both' if len(passing) == 2 else 'all three'}")
    return y, usable


def build_batches(panel: StockPanel, name: str, cfg: TrainConfig, mom_cfg: MomentumConfig,
                  loss_cfg: RankLossConfig) -> list[_DayBatch]:
    """The split's day batches: one per day with >= 2 usable cells (``usable_cells``
    with the task's label); a split with none is refused.

    The regression target is the day's return z-scored across the batch,
    putting the MSE on unit scale like the class loss. Per-day IC against the
    raw return is unchanged (affine invariance); every day is z-scored in one
    split-wide pass (``data.day_standardize``).
    """
    labels = class_labels_for(panel, cfg.task, mom_cfg)
    if cfg.task == TASK_RISE_FALL:
        label = "the rise/fall label (the sign of the next-day return)"
    else:
        label = (f"the momentum label (a line of momentum.gap + momentum.length = "
                 f"{mom_cfg.gap} + {mom_cfg.length} = {mom_cfg.gap + mom_cfg.length} days "
                 f"ending momentum.anchor_offset = {mom_cfg.anchor_offset} days ahead)")
    y, usable = usable_cells(panel, name, cfg.window, {label: labels != UNLABELED})
    day_of, ticker_of = np.nonzero(usable)   # the usable cells, day by day
    days, starts, sizes = np.unique(day_of, return_index=True, return_counts=True)
    z = day_standardize(y[day_of, ticker_of], sizes)
    labels_by_day = split_labels(labels[day_of, ticker_of], sizes, N_CLASSES[cfg.task],
                                 loss_cfg)
    features = ticker_major(panel)
    return [_DayBatch(t=t, rows=ticker_of[lo: lo + size], y=z[lo: lo + size], labels=day,
                      features=features, window=cfg.window)
            for t, lo, size, day in zip(days.tolist(), starts.tolist(), sizes.tolist(),
                                        labels_by_day)]


def _diverged(epoch: int, t: int) -> TrainingError:
    return TrainingError(f"training diverged at epoch {epoch}, day index {t}")


def _batch_losses(params: BackboneParams, batch: _DayBatch, loss_cfg: RankLossConfig,
                  tasks: tuple[str, ...]):
    """Forward one day; the output and the loss per task."""
    out = forward(params, batch.feats)
    losses = {REG: mse_loss(out.pred_return, batch.y)}
    if CLS in tasks:
        losses[CLS] = classification_loss(out.class_logits, batch.labels, loss_cfg)
    return out, losses


def _split_metrics(params: BackboneParams, batches: list[_DayBatch],
                   loss_cfg: RankLossConfig, tasks: tuple[str, ...]):
    """Mean per-day loss per task plus IC/RankIC of the regression head on a split.

    Runs the training forward and losses under ``no_grad``, one day at a time:
    values only, no graph. IC and RankIC of every day come from one split-wide
    call.
    """
    loss_sums = dict.fromkeys(tasks, 0.0)
    preds = []
    with no_grad():
        for batch in batches:
            out, losses = _batch_losses(params, batch, loss_cfg, tasks)
            for task in tasks:
                loss_sums[task] += losses[task].item()
            preds.append(out.pred_return.data)
    ics, rics = day_ics(np.concatenate(preds), np.concatenate([b.y for b in batches]),
                        [b.rows.size for b in batches])
    means = [float(v.mean()) if v.size else float("nan") for v in (defined(ics), defined(rics))]
    n = len(batches)
    return {task: total / n for task, total in loss_sums.items()}, *means


def fit(train_panel: StockPanel, valid_panel: StockPanel, mom_cfg: MomentumConfig,
        loss_cfg: RankLossConfig, cfg: TrainConfig, seed: int) -> FitResult:
    """Train on the train split, adapt and early-stop on the valid split.

    Returns the parameters of the epoch with the highest validation IC of the
    regression head, the per-epoch log, and the training-day k histogram. A
    split with no usable day is refused before training (``build_batches``).
    """
    mode = MODES[cfg.mode]
    tasks = mode.tasks
    train_batches, valid_batches = (build_batches(panel, name, cfg, mom_cfg, loss_cfg)
                                    for name, panel in (("train", train_panel),
                                                        ("valid", valid_panel)))

    arch = Architecture(window=cfg.window, n_features=train_panel.n_features,
                        hidden=cfg.hidden, n_classes=N_CLASSES[cfg.task])
    params = init_params(arch, seed)
    n_trunk = sum(t.data.size for t in params.trunk_tensors())
    heads = {REG: params.reg_tensors(), CLS: params.cls_tensors()}
    # the active tasks' groups are a prefix of the buffer's trunk, reg_head, cls_head layout
    opt = _GroupOptimizer(cfg.optimizer,
                          n_trunk + sum(t.data.size for task in tasks for t in heads[task]), cfg.lr)
    grad_fn = log_grad if mode.pipeline else gradients

    ema: dict[str, np.ndarray | None] = dict.fromkeys(tasks)
    hist = {(split, task): [] for split in ("train", "valid") for task in tasks}
    converge = dict.fromkeys(tasks, 1.0)
    # a day's k depends only on its labels, so every epoch counts the same histogram
    k_counts = record_k(b.labels.k for b in train_batches) if CLS in tasks else {}
    log: list[EpochRecord] = []
    best_ic, stale = -np.inf, 0

    for epoch in range(1, cfg.epochs + 1):
        beta_e = {task: adapted_beta(cfg.beta, converge[task]) if mode.adapt_beta else cfg.beta
                  for task in tasks}
        mean_converge = sum(converge[task] for task in tasks) / len(tasks)
        decay_e = adapted_decay(cfg.decay, mean_converge) if mode.adapt_decay else cfg.decay

        with np.errstate(over="ignore", invalid="ignore"):  # the checks below name the day
            for batch in train_batches:
                out, losses = _batch_losses(params, batch, loss_cfg, tasks)
                if not all(np.isfinite(loss.data).all() for loss in losses.values()):
                    raise _diverged(epoch, batch.t)

                # every gradient is taken before any in-place update: backward reads param data
                at_hidden, head_grads = [], []
                for task in tasks:
                    g_hidden, *g_head = grad_fn(losses[task], [out.hidden, *heads[task]])
                    at_hidden.append(g_hidden)
                    head_grads += [g.ravel() for g in g_head]
                trunk_grads = list(trunk_vjp(params, out.trunk, np.stack(at_hidden)))
                if mode.pipeline:
                    for i, task in enumerate(tasks):
                        ema[task] = trunk_grads[i] = ema_update(ema[task], trunk_grads[i],
                                                                beta_e[task])
                if mode.pipeline and len(tasks) == 2:
                    g_tilde = balance_gradients(*trunk_grads)
                else:  # plain joint sum, or the single task's gradient
                    g_tilde = sum(trunk_grads[1:], trunk_grads[0])
                step = np.concatenate([g_tilde, *head_grads])
                opt.step(params.flat[:step.size], step, decay_e)
                if not np.isfinite(params.flat).all():
                    raise _diverged(epoch, batch.t)

            # epoch-end evaluation on both splits; the train losses are the next day's check
            # for the epoch's last step
            evals = {split: _split_metrics(params, batches, loss_cfg, tasks)
                     for split, batches in (("train", train_batches), ("valid", valid_batches))}
        if not all(map(math.isfinite, evals["train"][0].values())):
            raise _diverged(epoch, train_batches[-1].t)
        for split, (split_losses, ic, ric) in evals.items():
            for task in tasks:
                hist[(split, task)].append(split_losses[task])
                log.append(EpochRecord(epoch, split, task, split_losses[task], converge[task],
                                       beta_e[task], decay_e, ic, ric))

        # the converge rate is always computed (it documents overfitting even in
        # ew mode) but only the adaptive modes feed it back into beta/decay
        for task in tasks:
            converge[task] = converge_ratio(hist[("train", task)], hist[("valid", task)],
                                            epoch + 1, cfg.loss_window)

        # the best epoch has the highest finite valid IC; epoch 1 stands in until one exists
        score = evals["valid"][1]
        if np.isfinite(score) and score > best_ic + 1e-12:
            best_ic, stale = score, 0
        else:
            stale += 1
        if stale == 0 or epoch == 1:
            best_epoch, best_snapshot = epoch, params.flat.copy()
        if stale >= cfg.patience:
            break

    params.flat[...] = best_snapshot
    return FitResult(params=params, best_epoch=best_epoch, epochs_run=epoch,
                     epoch_log=log, k_counts=k_counts)
