import gc
import json
import math
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from momrank.autodiff import Tensor, gradients
from momrank.data import (StockPanel, compute_return, fraction_split_spec, gen_synthetic,
                          normalize_features, split, trading_days, window_ok)
from momrank.errors import ContractError, TrainingError
from momrank.metrics import day_ics
from momrank.losses import (SCORE_SCALE, RankLossConfig, classification_loss, day_labels,
                            mse_loss)
from momrank.model import Architecture, forward, init_params, trunk_vjp
from momrank.momentum import MomentumConfig
from momrank import model, training
import oracles
from oracles import sigmoid_np
from momrank.training import (CLS, MODE_EW, MODE_STL, N_CLASSES, REG, TrainConfig,
                              _GroupOptimizer, _batch_losses, _split_metrics, adapted_beta,
                              adapted_decay, balance_gradients, balanced_parts, build_batches,
                              class_labels_for, converge_ratio, ema_update, fit, log_grad)


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


# ---- converge rate ----

def test_converge_rate_early_epochs_are_one():
    hist = [1.0] * 30
    assert converge_ratio(hist, hist, 5, 6) == 1.0
    assert converge_ratio(hist, hist, 11, 6) == 1.0
    # window 1 at epoch 2: the earlier window (epochs 1..0) is empty, and no mean is taken
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert converge_ratio([1.0, 0.5], [1.0, 2.0], 2, 1) == 1.0


def test_converge_rate_healthy_and_overfit():
    b = 2
    # baseline window mean 1.0; recent train 0.8 (down 0.2), valid 0.9 (down 0.1)
    train = [1.0, 1.0, 1.0, 0.8]
    valid = [1.0, 1.0, 1.0, 0.9]
    assert converge_ratio(train, valid, 5, b) == pytest.approx(0.5)
    valid_up = [1.0, 1.0, 1.0, 1.1]
    assert converge_ratio(train, valid_up, 5, b) == pytest.approx(-0.5)
    assert converge_ratio(train, [1.0, float("nan"), 1.0, 0.9], 5, b) == 1.0  # NaN in the window


def test_converge_rate_clamped_and_floored():
    b = 2
    train = [1.0, 1.0, 1.0, 1.0]       # no train change -> floor 1e-8
    valid = [1.0, 1.0, 1.0, 0.9]
    assert converge_ratio(train, valid, 5, b) == -5.0  # clamped
    valid_up = [1.0, 1.0, 1.0, 1.2]
    assert converge_ratio(train, valid_up, 5, b) == 5.0


def test_converge_rate_uses_available_history_at_boundary():
    b = 6
    train = list(np.linspace(2.0, 1.0, 11))
    valid = list(np.linspace(2.0, 1.5, 11))
    v = converge_ratio(train, valid, 12, b)  # needs epochs -< only 11 available
    assert np.isfinite(v) and v != 1.0
    assert converge_ratio(train[:10], valid, 12, b) == 1.0  # shorter than epoch - 1


def test_converge_rate_window_rule_on_hand_made_histories():
    # epoch e compares epoch e-1 with the mean of epochs max(1, e-2w)..e-w-1; 1 for e < 2w
    train = [4.0, 3.0, 2.5, 2.0]
    valid = [4.0, 3.5, 3.5, 4.5]
    assert converge_ratio(train, valid, 3, 2) == 1.0
    # at e = 2w = 4 the earlier window is epoch 1 alone: (v3 - v1) / (t3 - t1)
    assert converge_ratio(train, valid, 4, 2) == pytest.approx((3.5 - 4.0) / (2.5 - 4.0))
    assert converge_ratio(train, [4.0, 3.5, 12.0, 4.5], 4, 2) == -5.0  # clipped
    train = [10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.5, 1.0]
    valid = [10.0, 9.5, 9.0, 8.5, 8.0, 7.5, 7.0, 6.5, 6.0, 5.5, 7.0]
    assert converge_ratio(train, valid, 11, 6) == 1.0
    # at e = 12 the earlier window is epochs 1-5, compared with epoch 11
    want = (7.0 - np.mean(valid[:5])) / (1.0 - np.mean(train[:5]))
    assert converge_ratio(train, valid, 12, 6) == pytest.approx(want)


# ---- beta / decay adaptation ----

def test_adapted_beta_at_zero():
    assert adapted_beta(0.5, 0.0) == pytest.approx(0.5 ** 0.5, abs=1e-12)
    assert adapted_beta(0.5, 0.0) == pytest.approx(0.70711, abs=1e-5)


def test_adapted_beta_at_one():
    assert adapted_beta(0.5, 1.0) == pytest.approx(0.5 ** sigmoid(1.0), abs=1e-12)
    assert adapted_beta(0.5, 1.0) == pytest.approx(0.60246, abs=1e-4)


def test_adapted_beta_bounds_and_monotonicity():
    beta = 0.5
    grid = np.linspace(-5.0, 5.0, 101)
    vals = [adapted_beta(beta, v) for v in grid]
    assert all(beta < b < 1.0 for b in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))  # decreasing in the rate
    assert adapted_beta(beta, -50.0) == pytest.approx(1.0, abs=1e-12)


def test_adapted_decay():
    assert adapted_decay(1e-3, 0.0) == pytest.approx(5e-4)
    assert adapted_decay(1e-3, 50.0) == pytest.approx(0.0, abs=1e-12)
    assert adapted_decay(1e-3, -50.0) == pytest.approx(1e-3, abs=1e-12)
    grid = np.linspace(-5, 5, 50)
    vals = [adapted_decay(1e-3, v) for v in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1e-3 for v in vals)


def test_scalar_logistic_equals_the_array_logistic_bitwise():
    grid = np.concatenate([np.linspace(-5.0, 5.0, 20_001), np.linspace(-800.0, 800.0, 1_601),
                           [0.0, -0.0, 1e-300, -1e-300]])
    want = sigmoid_np(grid)
    got = np.array([training._logistic(float(x)) for x in grid])
    np.testing.assert_array_equal(got, want)
    assert training._logistic(800.0) == 1.0 and training._logistic(-800.0) == 0.0  # no overflow


# ---- EMA ----

def test_ema_update_examples():
    assert ema_update(np.array([2.0]), np.array([0.0]), 0.5)[0] == 1.0
    np.testing.assert_allclose(ema_update(np.array([2.0]), np.array([0.0]), 0.999999),
                               [2.0], atol=1e-5)
    np.testing.assert_allclose(ema_update(np.array([2.0]), np.array([0.0]), 1e-9),
                               [0.0], atol=1e-8)


def test_ema_first_call_adopts_gradient():
    g = np.array([1.0, -2.0])
    np.testing.assert_array_equal(ema_update(None, g, 0.5), g)


# ---- balancing ----

def test_balance_identical_directions():
    g = np.array([1.0, 2.0])
    np.testing.assert_allclose(balance_gradients(g, g), 2.0 * g)


def test_balance_hand_example():
    out = balance_gradients(np.array([3.0, 4.0]), np.array([0.0, 1.0]))
    np.testing.assert_allclose(out, [3.0, 9.0])


def test_balance_opposite_unit_vectors_cancel():
    g = np.array([1.0, 0.0])
    np.testing.assert_allclose(balance_gradients(g, -g), [0.0, 0.0], atol=1e-15)


def test_balance_zero_norm_guard():
    g = np.array([3.0, 4.0])
    out = balance_gradients(g, np.zeros(2))
    np.testing.assert_allclose(out, g)
    np.testing.assert_allclose(balance_gradients(np.zeros(2), np.zeros(2)), np.zeros(2))


def test_balanced_parts_have_equal_norms():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b = rng.normal(size=8), rng.normal(size=8) * rng.uniform(0.01, 100)
        pa, pb = balanced_parts(a, b)
        target = max(np.linalg.norm(a), np.linalg.norm(b))
        assert np.linalg.norm(pa) == pytest.approx(target, abs=1e-9)
        assert np.linalg.norm(pb) == pytest.approx(target, abs=1e-9)
        total = balance_gradients(a, b)
        assert np.linalg.norm(total) <= 2.0 * target + 1e-12


# ---- log-gradient ----

def test_log_grad_is_scaled_gradient():
    x = Tensor(np.array([1.0, 0.0]))
    loss = (x * x).sum()  # L = 1, dL/dx = (2, 0)
    (g,) = log_grad(loss, [x])
    np.testing.assert_allclose(g, [2.0 / (1.0 + 1e-8), 0.0], atol=1e-9)


def test_log_grad_epsilon_floor_at_zero_loss():
    x = Tensor(np.array([0.0]))
    loss = (x * x).sum()  # L = 0, plain grad 0; the floor keeps it finite
    (g,) = log_grad(loss, [x])
    assert np.isfinite(g).all() and g[0] == 0.0
    x2 = Tensor(np.array([1e-6]))
    (g2,) = log_grad((x2 * x2).sum(), [x2])
    # scale is 1/(L+1e-8): ~ 2e-6/(1e-12+1e-8)
    assert g2[0] == pytest.approx(2e-6 / (1e-12 + 1e-8), rel=1e-6)


def test_log_grad_nonfinite_loss_raises():
    x = Tensor(np.array([np.inf]))
    with pytest.raises(TrainingError):
        log_grad((x * x).sum(), [x])


# ---- optimizer ----

def test_sgd_step_formula():
    opt = _GroupOptimizer("sgd", 2, lr=0.1)
    out = opt.step(np.array([1.0, -1.0]), np.array([0.5, 0.5]), decay=0.0)
    np.testing.assert_allclose(out, [0.95, -1.05])


def test_sgd_decoupled_decay():
    opt = _GroupOptimizer("sgd", 1, lr=0.1)
    out = opt.step(np.array([2.0]), np.array([0.0]), decay=0.5)
    np.testing.assert_allclose(out, [2.0 - 0.1 * 0.5 * 2.0])


def test_adam_decay_shrinks_params_without_gradient():
    opt = _GroupOptimizer("adam", 1, lr=0.01)
    p = np.array([5.0])
    for _ in range(10):
        p = opt.step(p, np.zeros(1), decay=0.1)
    assert 0 < p[0] < 5.0


def test_adam_updates_moments_in_place():
    opt = _GroupOptimizer("adam", 3, lr=0.01)
    m, v = opt.m, opt.v
    g = np.array([1.0, -2.0, 0.5])
    opt.step(np.zeros(3), g, decay=0.0)
    opt.step(np.zeros(3), 2.0 * g, decay=0.0)
    assert opt.m is m and opt.v is v
    np.testing.assert_array_equal(m, 0.9 * ((1.0 - 0.9) * g) + (1.0 - 0.9) * (2.0 * g))
    np.testing.assert_array_equal(v, 0.999 * ((1.0 - 0.999) * g * g)
                                  + (1.0 - 0.999) * (2.0 * g) * (2.0 * g))


def test_adam_in_place_step_equals_the_expression_bitwise():
    rng = np.random.default_rng(12)
    flat = rng.normal(size=200)
    want_flat = flat.copy()
    opt, want = _GroupOptimizer("adam", 200, lr=2e-3), oracles.AdamByExpression(200, lr=2e-3)
    work = opt._work
    for step in range(5):
        grad = rng.normal(size=200) * 10.0 ** (step - 2)
        decay = 0.05 * (step + 1)
        assert opt.step(flat, grad, decay) is flat
        want.step(want_flat, grad, decay)
        np.testing.assert_array_equal(flat, want_flat)
        np.testing.assert_array_equal(opt.m, want.m)
        np.testing.assert_array_equal(opt.v, want.v)
    assert opt._work is work  # the two temporaries are allocated once


@pytest.mark.parametrize("kind", ["adam", "sgd"])
@pytest.mark.parametrize("n_groups", [3, 2])  # both heads; stl steps trunk and reg_head only
def test_one_buffer_step_equals_per_group_steps(kind, n_groups):
    # the oracle is the per-group path: one optimizer per group, each on its own buffer
    params = init_params(Architecture(window=3, n_features=2, hidden=(6, 5), n_classes=5), seed=1)
    groups = [params.trunk_tensors(), params.reg_tensors(), params.cls_tensors()]
    sizes = [sum(t.data.size for t in group) for group in groups][:n_groups]
    bounds = np.cumsum([0] + sizes)
    buffers = [params.flat[lo:hi].copy() for lo, hi in zip(bounds, bounds[1:])]
    group_opts = [_GroupOptimizer(kind, size, lr=1e-2) for size in sizes]
    opt = _GroupOptimizer(kind, bounds[-1], lr=1e-2)
    rest = params.flat[bounds[-1]:].copy()
    rng = np.random.default_rng(4)
    for step in range(6):
        grads = [rng.normal(size=size) * 10.0 ** (step - 3) for size in sizes]
        decay = 0.02 * step
        for group_opt, buffer, grad in zip(group_opts, buffers, grads):
            group_opt.step(buffer, grad, decay)
        grad = np.concatenate(grads)
        opt.step(params.flat[:grad.size], grad, decay)
        np.testing.assert_array_equal(params.flat[:bounds[-1]], np.concatenate(buffers))
    np.testing.assert_array_equal(params.flat[bounds[-1]:], rest)


# ---- batches / config ----

def small_mom_cfg():
    return MomentumConfig(gap=1, length=1)


def train_days(panel, window=2, loss_cfg=RankLossConfig()):
    """The usable days of a momentum-labelled panel."""
    return build_batches(panel, "train", TrainConfig(window=window), small_mom_cfg(), loss_cfg)


def test_build_batches_filters_days():
    panel = gen_synthetic(20, 6, 0.5, seed=0)
    batches = train_days(panel, window=3)
    # labels need anchor t+2 <= 19 and span >= 2; window needs t >= 2; y needs t <= 18
    ts = [b.t for b in batches]
    assert min(ts) >= 2 and max(ts) <= 17
    for b in batches:
        assert b.rows.size >= 2
        assert b.feats.shape == (b.rows.size, 3, panel.n_features)


def test_batches_keep_memory_of_the_split_size_not_times_the_window():
    panel = normalize_features(gen_synthetic(60, 200, 0.5, seed=4))
    tracemalloc.start()
    try:
        batches = train_days(panel, window=20)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(batches) >= 30
    assert kept <= 3 * panel.features.nbytes
    assert peak <= 4 * panel.features.nbytes


def test_train_config_validation():
    with pytest.raises(ContractError):
        TrainConfig(mode="nope")
    with pytest.raises(ContractError):
        TrainConfig(lr=0.0)
    with pytest.raises(ContractError):
        TrainConfig(beta=1.0)
    with pytest.raises(ContractError):
        TrainConfig(optimizer="rmsprop")
    for hidden in ((8, 4, 2), (8,)):
        with pytest.raises(ContractError, match="train.hidden"):
            TrainConfig(hidden=hidden)


def test_train_config_rejects_non_positive_hidden_size():
    for hidden in ((0, 4), (8, -1)):
        with pytest.raises(ContractError, match="train.hidden sizes must be >= 1"):
            TrainConfig(hidden=hidden)


# ---- graphs are freed by reference counting ----

@pytest.mark.parametrize("ranking", ["ndcg", "pairwise"])
def test_training_graph_leaves_nothing_for_the_cycle_collector(ranking):
    params = init_params(Architecture(window=3, n_features=2, hidden=(6, 6), n_classes=5), seed=0)
    rng = np.random.default_rng(0)
    feats, y, labels = rng.normal(size=(12, 3, 2)), rng.normal(size=12), rng.integers(0, 5, 12)
    loss_cfg = RankLossConfig(ranking=ranking)
    gc.collect()
    gc.disable()
    try:
        out = forward(params, feats)
        reg = mse_loss(out.pred_return, y)
        cls = classification_loss(out.class_logits, day_labels(labels, 5, loss_cfg), loss_cfg)
        reg.backward()
        cls.backward()
        del out, reg, cls
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_fit_leaves_nothing_for_the_cycle_collector():
    train, valid = tiny_panels()
    cfg = TrainConfig(lr=1e-3, epochs=2, window=2, hidden=(6, 6))
    gc.collect()
    gc.disable()
    try:
        result = fit(train, valid, small_mom_cfg(), RankLossConfig(), cfg, seed=5)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert result.epochs_run == 2


# ---- evaluation builds no graph ----

def split_metrics_recording(params, batches, loss_cfg, tasks):
    """``_split_metrics`` with the graph of every day's losses recorded: the oracle."""
    loss_sums = dict.fromkeys(tasks, 0.0)
    ics, rics = [], []
    for batch in batches:
        out, losses = _batch_losses(params, batch, loss_cfg, tasks)
        assert all(losses[task]._prev for task in tasks)
        for task in tasks:
            loss_sums[task] += losses[task].item()
        ic, ric = day_ics(out.pred_return.data, batch.y, [batch.y.size])
        ics.append(ic[0])
        rics.append(ric[0])
    finite_ics = [v for v in ics if np.isfinite(v)]
    finite_rics = [v for v in rics if np.isfinite(v)]
    ic = float(np.mean(finite_ics)) if finite_ics else float("nan")
    ric = float(np.mean(finite_rics)) if finite_rics else float("nan")
    return {task: total / len(batches) for task, total in loss_sums.items()}, ic, ric


@pytest.mark.parametrize("ranking,tasks,task", [("ndcg", (REG, CLS), "momentum"),
                                                ("pairwise", (REG, CLS), "momentum"),
                                                ("ndcg", (REG, CLS), "rise_fall"),
                                                ("ndcg", (REG,), "momentum")])
def test_split_metrics_without_graph_equals_recorded_graph(ranking, tasks, task):
    train, valid = tiny_panels(n_dates=12)
    loss_cfg = RankLossConfig(ranking=ranking)
    cfg = TrainConfig(lr=1e-2, epochs=2, window=2, hidden=(6, 6), task=task)
    params = fit(train, valid, small_mom_cfg(), loss_cfg, cfg, seed=7).params
    for name, panel in (("train", train), ("valid", valid)):
        batches = build_batches(panel, name, cfg, small_mom_cfg(), loss_cfg)
        assert batches
        want = split_metrics_recording(params, batches, loss_cfg, tasks)
        assert all(np.isfinite(v) for v in [*want[0].values(), want[1], want[2]])
        assert _split_metrics(params, batches, loss_cfg, tasks) == want


def test_epoch_eval_and_predict_build_no_graph(monkeypatch):
    train, valid = tiny_panels(n_dates=12)
    seen = []

    def spy_losses(*args):
        out, losses = _batch_losses(*args)
        seen.append(out.pred_return)
        seen.extend(losses.values())
        return out, losses

    monkeypatch.setattr(training, "_batch_losses", spy_losses)
    cfg = TrainConfig(lr=1e-2, epochs=1, window=2, hidden=(6, 6))
    params = fit(train, valid, small_mom_cfg(), RankLossConfig(), cfg, seed=7).params
    steps = 3 * len(train_days(train))
    assert len(seen) > 2 * steps  # one epoch of steps, then evaluation on both splits
    assert all(t._prev for t in seen[:steps])
    assert not any(t._prev or t._backward for t in seen[steps:])

    predicted = []

    def spy_forward(*args):
        out = forward(*args)
        predicted.extend([out.pred_return, out.class_logits])
        return out

    monkeypatch.setattr(model, "forward", spy_forward)
    model.predict_panel(params, valid)
    assert predicted and not any(t._prev or t._backward for t in predicted)

# ---- fit: oracle equivalence, determinism, modes ----

def tiny_panels(n_dates=8, n_tickers=5, seed=42):
    panel = gen_synthetic(20, n_tickers, 0.8, seed=seed)
    return panel.subpanel(0, n_dates), panel.subpanel(n_dates, min(20, n_dates + 6))


def test_ew_mode_matches_hand_rolled_joint_loop():
    train, valid = tiny_panels(n_dates=8)
    mom_cfg = small_mom_cfg()
    loss_cfg = RankLossConfig()
    cfg = TrainConfig(mode=MODE_EW, lr=0.05, epochs=1, optimizer="sgd", decay=0.0,
                      window=1, hidden=(6, 6), patience=1)
    result = fit(train, valid, mom_cfg, loss_cfg, cfg, seed=3)

    # independent reference: plain joint training, same data and init
    batches = build_batches(train, "train", cfg, mom_cfg, loss_cfg)
    assert len(batches) >= 2
    arch = Architecture(window=1, n_features=train.n_features, hidden=(6, 6),
                        trunk="mlp", n_classes=5)
    ref = init_params(arch, seed=3)
    tensors = ref.trunk_tensors() + ref.reg_tensors() + ref.cls_tensors()
    for b in batches:
        out = forward(ref, b.feats)
        joint = mse_loss(out.pred_return, b.y) + classification_loss(
            out.class_logits, b.labels, loss_cfg)
        grads = gradients(joint, tensors)
        for tensor, grad in zip(tensors, grads):
            tensor.data = tensor.data - 0.05 * grad

    got = result.params.all_named()
    want = ref.all_named()
    for name in want:
        np.testing.assert_allclose(got[name].data, want[name].data, atol=1e-9, err_msg=name)


CQB_MODES = {  # mode -> (tasks, adapt beta, adapt decay): the training docstring's table
    "full": ((REG, CLS), True, True),
    "stl": ((REG,), True, True),
    "fixed_beta": ((REG, CLS), False, True),
    "fixed_decay": ((REG, CLS), True, False),
}


@pytest.mark.parametrize("mode", list(CQB_MODES))
def test_fit_matches_the_hand_rolled_cqb_loop(mode):
    # loss_window=2 over 8 epochs: V leaves 1 from epoch 4 on and feeds beta and decay
    tasks, adapt_beta, adapt_decay = CQB_MODES[mode]
    train, valid = tiny_panels(n_dates=8)
    loss_cfg = RankLossConfig()
    hyper = {"lr": 0.05, "beta": 0.5, "decay": 0.05, "epochs": 8, "loss_window": 2}
    cfg = TrainConfig(mode=mode, optimizer="sgd", window=2, hidden=(6, 6), patience=30, **hyper)
    result = fit(train, valid, small_mom_cfg(), loss_cfg, cfg, seed=3)

    ref = init_params(Architecture(window=2, n_features=train.n_features, hidden=(6, 6),
                                   n_classes=5), seed=3)
    records = oracles.cqb_fit_by_hand(ref, train_days(train), train_days(valid), loss_cfg,
                                      tasks, adapt_beta=adapt_beta, adapt_decay=adapt_decay,
                                      **hyper)
    assert sum(any(v != 1.0 for v in r["converge"].values()) for r in records) >= 4
    if len(tasks) == 2:  # the tasks' rates differ, so decay must average them
        assert any(len(set(r["converge"].values())) == 2 for r in records)
    got = [(r.loss, r.converge, r.beta, r.decay) for r in result.epoch_log]
    want = []
    for r in result.epoch_log:
        rec = records[r.epoch - 1]
        want.append((rec["loss"][(r.split, r.task)], rec["converge"][r.task],
                     rec["beta"][r.task], rec["decay"]))
    assert len(result.epoch_log) == 8 * 2 * len(tasks)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(result.params.flat, records[result.best_epoch - 1]["flat"],
                               rtol=1e-12, atol=1e-12)


def test_fit_train_classification_loss_is_half_ce_half_exp_minus_ndcg():
    # a 1-epoch fit logs the mean train-day loss at the parameters it returns
    panel = normalize_features(gen_synthetic(60, 12, 0.8, seed=5))
    train, valid, _ = split(panel, fraction_split_spec(panel, 0.6, 0.2))
    cfg = TrainConfig(lr=1e-2, epochs=1, window=2, hidden=(6, 6))
    result = fit(train, valid, small_mom_cfg(), RankLossConfig(), cfg, seed=3)
    (got,) = [r.loss for r in result.epoch_log if r.split == "train" and r.task == CLS]
    levels_of = class_labels_for(train, "momentum", small_mom_cfg())
    day_losses, ndcgs = [], []
    for b in train_days(train):
        levels = levels_of[b.t, b.rows]
        logp = oracles.log_softmax(forward(result.params, b.feats).class_logits).data
        ce = -logp[np.arange(levels.size), levels].mean()
        scores = SCORE_SCALE * (np.exp(logp) * np.arange(5)).sum(axis=1)
        k = oracles.adaptive_k(*oracles.level_groups(levels, 5, 0.2))
        ndcg = 1.0 if levels.min() == levels.max() else (
            oracles.dcg_at_k(oracles.smooth_ranks(scores), levels, k)
            / oracles.dcg_at_k(oracles.exact_ranks(levels), levels, k))
        ndcgs.append(ndcg)
        day_losses.append(0.5 * ce + 0.5 * math.exp(-ndcg))
    assert len(day_losses) >= 20 and min(ndcgs) < 0.9
    assert got == pytest.approx(np.mean(day_losses), rel=1e-12)


def test_fit_deterministic_logs():
    train, valid = tiny_panels()
    cfg = TrainConfig(lr=1e-3, epochs=3, window=2, hidden=(6, 6), patience=30)
    a = fit(train, valid, small_mom_cfg(), RankLossConfig(), cfg, seed=11)
    b = fit(train, valid, small_mom_cfg(), RankLossConfig(), cfg, seed=11)
    assert a.epoch_log == b.epoch_log
    assert a.best_epoch == b.best_epoch
    for name, tensor in a.params.all_named().items():
        np.testing.assert_array_equal(tensor.data, b.params.all_named()[name].data)


@pytest.mark.parametrize("mode", ["full", "ew", "stl"])
def test_fit_builds_one_optimizer_and_steps_it_once_per_day(monkeypatch, mode):
    made, steps = [], []

    class CountingOptimizer(_GroupOptimizer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

        def step(self, flat, grad, decay):
            steps.append(flat)
            return super().step(flat, grad, decay)

    monkeypatch.setattr(training, "_GroupOptimizer", CountingOptimizer)
    train, valid = tiny_panels()
    cfg = TrainConfig(mode=mode, lr=1e-3, epochs=2, window=2, hidden=(6, 6))
    params = fit(train, valid, small_mom_cfg(), RankLossConfig(), cfg, seed=5).params
    days = len(train_days(train))
    assert len(made) == 1 and len(steps) == 2 * days
    n_cls = params.cls_head["w"].data.size + params.cls_head["b"].data.size
    want = params.flat.size - (n_cls if mode == "stl" else 0)  # stl: the prefix before cls_head
    assert made[0].m.size == want
    assert all(flat.size == want and np.shares_memory(flat, params.flat) for flat in steps)


def test_fit_stl_leaves_classification_head_untouched():
    train, valid = tiny_panels()
    cfg = TrainConfig(mode=MODE_STL, lr=1e-3, epochs=2, window=2, hidden=(6, 6))
    result = fit(train, valid, small_mom_cfg(), RankLossConfig(), cfg, seed=5)
    fresh = init_params(result.params.arch, seed=5)
    for name in ("w", "b"):
        np.testing.assert_array_equal(result.params.cls_head[name].data,
                                      fresh.cls_head[name].data)
    assert any(not np.array_equal(result.params.trunk[n].data, fresh.trunk[n].data)
               for n in result.params.trunk)
    # stl logs only regression rows and records no ranking depths
    assert {r.task for r in result.epoch_log} == {"regression"}
    assert result.k_counts == {}


def test_fit_rise_fall_task_uses_two_classes():
    train, valid = tiny_panels()
    cfg = TrainConfig(task="rise_fall", lr=1e-3, epochs=2, window=2, hidden=(6, 6))
    result = fit(train, valid, small_mom_cfg(), RankLossConfig(), cfg, seed=6)
    assert result.params.arch.n_classes == 2
    assert result.params.cls_head["w"].data.shape == (6, 2)


def test_fit_records_k_and_epochs():
    train, valid = tiny_panels()
    cfg = TrainConfig(lr=1e-3, epochs=2, window=2, hidden=(6, 6))
    result = fit(train, valid, small_mom_cfg(), RankLossConfig(), cfg, seed=7)
    assert sum(result.k_counts.values()) >= 2  # one k per usable training day
    epochs_logged = {r.epoch for r in result.epoch_log}
    assert epochs_logged == {1, 2}
    splits = {(r.epoch, r.split, r.task) for r in result.epoch_log}
    assert (1, "train", "classification") in splits and (2, "valid", "regression") in splits


def test_fit_early_stops_on_stale_validation():
    train, _ = tiny_panels()
    # flat-price validation: returns are all zero, so the daily IC is undefined
    # and the early-stop score can never improve
    t, n = 8, train.n_tickers
    flat = StockPanel(trading_days(t), list(train.tickers),
                      np.full((t, n), 50.0),
                      np.random.default_rng(0).normal(size=(t, n, train.n_features)),
                      np.ones((t, n), dtype=bool))
    cfg = TrainConfig(lr=1e-3, epochs=50, window=2, hidden=(6, 6), patience=3)
    result = fit(train, flat, small_mom_cfg(), RankLossConfig(), cfg, seed=8)
    assert result.epochs_run == 3
    assert result.best_epoch == 1
    # with no finite valid IC, the first epoch's parameters stand in
    first = fit(train, flat, small_mom_cfg(), RankLossConfig(), replace(cfg, epochs=1), seed=8)
    assert result.params.flat.tobytes() == first.params.flat.tobytes()


def test_fit_no_usable_days_raises():
    panel = gen_synthetic(20, 5, 0.5, seed=1)
    short = panel.subpanel(0, 20)
    cfg = TrainConfig(lr=1e-3, epochs=1, window=30, hidden=(4, 4))  # window longer than panel
    with pytest.raises(TrainingError):
        fit(short, short, small_mom_cfg(), RankLossConfig(), cfg, seed=0)


def test_fit_labels_each_split_once_on_the_refusal_path_too(monkeypatch):
    train, valid = tiny_panels()
    short = train.subpanel(0, 2)  # 2 dates: the window and the next-day return never meet
    labelled = []

    def spy_labels(panel, task, mom_cfg):
        labelled.append(panel)
        return class_labels_for(panel, task, mom_cfg)

    monkeypatch.setattr(training, "class_labels_for", spy_labels)
    cfg = TrainConfig(lr=1e-2, epochs=1, window=2, hidden=(6, 6))
    for train_p, valid_p, refused in ((train, valid, None), (train, short, "valid"),
                                      (short, valid, "train")):
        labelled.clear()
        if refused is None:
            fit(train_p, valid_p, small_mom_cfg(), RankLossConfig(), cfg, seed=0)
        else:
            with pytest.raises(TrainingError, match=rf"^no usable day in the {refused} split: "):
                fit(train_p, valid_p, small_mom_cfg(), RankLossConfig(), cfg, seed=0)
        # the train split is built first and a refusal stops before the next split
        want = [train_p] if refused == "train" else [train_p, valid_p]
        assert [id(p) for p in labelled] == [id(p) for p in want]


def test_a_step_that_leaves_non_finite_weights_is_reported_at_its_day(monkeypatch):
    train, valid = tiny_panels()
    first, second = (b.t for b in train_days(train)[:2])
    step = _GroupOptimizer.step

    def overflowing_step(self, flat, grad, decay):
        step(self, flat, grad, decay)
        flat[-1] = np.inf  # only the head's last bias: the next day's losses would be inf
        return flat

    monkeypatch.setattr(_GroupOptimizer, "step", overflowing_step)
    cfg = TrainConfig(lr=1e-2, epochs=1, window=2, hidden=(6, 6))
    with pytest.raises(TrainingError, match=rf"^training diverged at epoch 1, day index {first}$"):
        fit(train, valid, small_mom_cfg(), RankLossConfig(), cfg, seed=0)
    assert second > first


# ---- fit on panels with random missing cells ----

@st.composite
def masked_panels(draw):
    """A 30-date panel of 5-9 names with random missing cells.

    Besides the drawn share of missing cells, up to 4 drawn dates keep a
    single name (fewer than 2 names) and up to 4 drawn names miss one date,
    which breaks every window over it.
    """
    seed = draw(st.integers(0, 2**16))
    panel = gen_synthetic(30, draw(st.integers(5, 9)), 0.7, seed=seed)
    valid = np.random.default_rng(seed).random(panel.valid.shape) >= draw(st.floats(0.0, 0.4))
    for t in draw(st.lists(st.integers(0, 29), max_size=4)):
        valid[t, 1:] = False
    for i in draw(st.lists(st.integers(0, panel.n_tickers - 1), max_size=4)):
        valid[draw(st.integers(0, 29)), i] = False
    return StockPanel(panel.dates, panel.tickers, np.where(valid, panel.close, np.nan),
                      np.where(valid[..., None], panel.features, np.nan), valid)


def assert_close_or_both_nan(got, want):
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0, equal_nan=True)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(masked_panels(), st.sampled_from(["full", "stl"]), st.sampled_from(["ndcg", "pairwise"]))
def test_fit_on_masked_panels_matches_the_per_day_oracles(panel, mode, ranking):
    panel = normalize_features(panel)
    train, valid, test = split(panel, fraction_split_spec(panel, 0.6, 0.2))
    loss_cfg = RankLossConfig(ranking=ranking)
    cfg = TrainConfig(mode=mode, lr=1e-2, epochs=1, window=2, hidden=(6, 6))
    days = {name: oracles.usable_days_by_day(part, 2, class_labels_for(part, "momentum",
                                                                       small_mom_cfg()))
            for name, part in (("train", train), ("valid", valid))}
    refused = [name for name, usable in days.items() if not usable]
    if refused:  # the train split is built first, so its refusal wins
        with pytest.raises(TrainingError, match=rf"^no usable day in the {refused[0]} split: "):
            fit(train, valid, small_mom_cfg(), loss_cfg, cfg, seed=3)
        return
    result = fit(train, valid, small_mom_cfg(), loss_cfg, cfg, seed=3)
    tasks = training.MODES[mode].tasks
    for split_name, part in (("train", train), ("valid", valid)):
        batches = train_days(part, loss_cfg=loss_cfg)
        assert [b.t for b in batches] == days[split_name]
        want_losses, want_ic, want_ric = oracles.split_metrics_by_day(
            result.params, batches, loss_cfg, tasks, _batch_losses)
        rows = {r.task: r for r in result.epoch_log if r.split == split_name}
        for task in tasks:
            assert_close_or_both_nan(rows[task].loss, want_losses[task])
            assert_close_or_both_nan(rows[task].ic, want_ic)
            assert_close_or_both_nan(rows[task].rank_ic, want_ric)
    for part in (train, valid, test):
        scores = model.predict_panel(result.params, part)
        np.testing.assert_array_equal(scores, oracles.predict_by_day(result.params, part))
        np.testing.assert_array_equal(np.isnan(scores), ~window_ok(part, 2))


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(masked_panels(), st.integers(1, 4))
def test_batch_windows_and_targets_equal_the_per_name_gathers(panel, window):
    y = compute_return(panel)
    labels = class_labels_for(panel, "momentum", small_mom_cfg())
    if not oracles.usable_days_by_day(panel, window, labels):
        with pytest.raises(TrainingError, match="^no usable day in the train split: "):
            train_days(panel, window)
        return
    for b in train_days(panel, window):
        want = np.stack([panel.features[b.t - window + 1: b.t + 1, i] for i in b.rows])
        assert b.feats.tobytes() == want.tobytes() and b.feats.shape == want.shape
        assert b.y.tobytes() == oracles.standardize(y[b.t, b.rows]).tobytes()


# ---- a step through the fused nodes against the composed graphs ----

@pytest.mark.parametrize("n", [2, 3, 50, 63, 64, 65, 130, 500])
@pytest.mark.parametrize("task,ranking", [("momentum", "ndcg"), ("momentum", "pairwise"),
                                          ("rise_fall", "ndcg")])
def test_a_steps_task_gradients_equal_the_composed_graphs_bitwise(n, task, ranking):
    # fit's path: each task's log-loss back to the trunk's output and its head, then one
    # stacked trunk VJP; the oracle: each task's log-loss through the composed layers
    width = N_CLASSES[task]
    params = init_params(Architecture(window=3, n_features=2, hidden=(6, 5), n_classes=width),
                         seed=n)
    rng = np.random.default_rng(n)
    feats, y = rng.normal(size=(n, 3, 2)), rng.normal(size=n)
    loss_cfg = RankLossConfig(ranking=ranking)
    levels = rng.integers(0, width, n)
    levels[:2] = (0, width - 1)
    labels = day_labels(levels, width, loss_cfg)
    heads = {REG: params.reg_tensors(), CLS: params.cls_tensors()}
    out = forward(params, feats)
    losses = {REG: mse_loss(out.pred_return, y),
              CLS: classification_loss(out.class_logits, labels, loss_cfg)}
    ref = oracles.composed_forward(params, feats)
    ref_losses = {REG: oracles.composed_mse_loss(ref.pred_return, y),
                  CLS: oracles.composed_classification_loss(ref.class_logits, labels, loss_cfg)}
    at_hidden = []
    for task_name in (REG, CLS):
        np.testing.assert_array_equal(losses[task_name].data, ref_losses[task_name].data)
        g_hidden, *g_head = log_grad(losses[task_name], [out.hidden, *heads[task_name]])
        want = log_grad(ref_losses[task_name], params.trunk_tensors() + heads[task_name])
        for got, expected in zip(g_head, want[4:]):
            np.testing.assert_array_equal(got, expected)
        at_hidden.append((g_hidden, np.concatenate([g.ravel() for g in want[:4]])))
    trunk = trunk_vjp(params, out.trunk, np.stack([g for g, _ in at_hidden]))
    for row, (_, expected) in zip(trunk, at_hidden):
        np.testing.assert_array_equal(row, expected)


def count_tensors(monkeypatch):
    """A list that grows by one for each Tensor built until the test ends."""
    built, init = [], Tensor.__init__

    def counting_init(tensor, *args, **kwargs):
        built.append(None)
        init(tensor, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    return built


@pytest.mark.parametrize("mode,per_step,per_eval_day", [("full", 16, 12), ("stl", 9, 7)])
def test_graph_size_per_training_step_and_evaluation_day(monkeypatch, mode, per_step,
                                                         per_eval_day):
    # full: trunk, regression head 3, classification head 2, MSE, log-probabilities, ranking
    # scores, exp(-NDCG), cross-entropy, their mix, and loss + 1e-8 and its log per task
    train, valid = tiny_panels(n_dates=12)
    cfg = TrainConfig(mode=mode, lr=1e-2, epochs=1, window=2, hidden=(6, 6))
    steps = len(build_batches(train, "train", cfg, small_mom_cfg(), RankLossConfig()))
    eval_days = steps + len(build_batches(valid, "valid", cfg, small_mom_cfg(),
                                          RankLossConfig()))
    built = count_tensors(monkeypatch)
    fit(train, valid, small_mom_cfg(), RankLossConfig(), cfg, seed=7)
    assert steps >= 5
    assert len(built) == 8 + per_step * steps + per_eval_day * eval_days  # 8 parameters


@pytest.mark.parametrize("mode,task,ranking", [("full", "momentum", "ndcg"),
                                               ("ew", "rise_fall", "pairwise"),
                                               ("stl", "momentum", "ndcg")])
def test_the_library_needs_none_of_the_composed_ops(monkeypatch, mode, task, ranking):
    # the ops oracles attaches to Tensor serve the reference graphs only
    for name in oracles.COMPOSED_OPS:
        monkeypatch.delattr(Tensor, name)
    train, valid = tiny_panels(n_dates=12)
    cfg = TrainConfig(mode=mode, task=task, lr=1e-2, epochs=2, window=2, hidden=(6, 6))
    result = fit(train, valid, small_mom_cfg(), RankLossConfig(ranking=ranking), cfg, seed=7)
    assert np.isfinite(model.predict_panel(result.params, valid)[-3:]).any()
    with pytest.raises(TypeError):
        Tensor(1.0) * 2.0


# ---- fit: every mode pinned against recorded values ----

# Values in fit_modes_reference.json were recorded with the branch-per-mode
# `fit` that preceded the mode table; regenerate only when training semantics
# are meant to change (`python tests/test_training.py`).
MODE_REFERENCE = Path(__file__).with_name("fit_modes_reference.json")
MODE_CASES = {  # name -> (TrainConfig overrides, RankLossConfig overrides)
    "full": ({}, {}),
    "ew": ({"mode": "ew"}, {}),
    "stl": ({"mode": "stl"}, {}),
    "fixed_beta": ({"mode": "fixed_beta"}, {}),
    "fixed_decay": ({"mode": "fixed_decay"}, {}),
    "rise_fall": ({"task": "rise_fall"}, {}),
    "pairwise": ({}, {"ranking": "pairwise"}),
}


def mode_case_summary(case):
    """Epoch log, best epoch, k histogram and parameters of one small fit.

    ``loss_window=1`` over 4 epochs makes the converge rate leave 1 from epoch
    3 on, so the feedback into beta and decay is exercised.
    """
    train_kw, loss_kw = MODE_CASES[case]
    train, valid = tiny_panels()
    cfg = TrainConfig(lr=1e-2, decay=1e-2, epochs=4, loss_window=1, window=2,
                      hidden=(6, 6), patience=30, **train_kw)
    result = fit(train, valid, small_mom_cfg(), RankLossConfig(**loss_kw), cfg, seed=13)
    return {
        "best_epoch": result.best_epoch,
        "k_counts": {str(k): c for k, c in result.k_counts.items()},
        "log": [[r.epoch, r.split, r.task, r.loss, r.converge, r.beta, r.decay, r.ic, r.rank_ic]
                for r in result.epoch_log],
        "params": {name: t.data.ravel().tolist() for name, t in result.params.all_named().items()},
    }


@pytest.mark.parametrize("case", list(MODE_CASES))
def test_fit_mode_semantics_match_reference(case):
    want = json.loads(MODE_REFERENCE.read_text())[case]
    got = mode_case_summary(case)
    assert got["best_epoch"] == want["best_epoch"]
    assert got["k_counts"] == want["k_counts"]
    assert [row[:3] for row in got["log"]] == [row[:3] for row in want["log"]]
    np.testing.assert_allclose(np.array([row[3:] for row in got["log"]]),
                               np.array([row[3:] for row in want["log"]]),
                               rtol=1e-12, atol=0.0, equal_nan=True)
    assert got["params"].keys() == want["params"].keys()
    for name, values in want["params"].items():
        np.testing.assert_allclose(got["params"][name], values, rtol=1e-12, atol=0.0,
                                   err_msg=name)


if __name__ == "__main__":
    MODE_REFERENCE.write_text(json.dumps({case: mode_case_summary(case) for case in MODE_CASES},
                                         indent=1) + "\n")
