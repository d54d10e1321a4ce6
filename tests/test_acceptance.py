"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Expensive sanity runs (planted-signal learning, overfitting
mitigation) sit at the end. Apart from the finite-difference gradient
checker in ``oracles.py`` and its adapter that runs the library's smooth-rank
kernel in input order, the module is self-contained.
"""

import itertools
import math
import time

import numpy as np
import pytest

from momrank.autodiff import Tensor
from momrank.backtest import cumulative_return, run_topn
from momrank.cli import main
from momrank.data import (StockPanel, compute_return, fraction_split_spec, gen_synthetic,
                          normalize_features, split, trading_days)
from momrank.losses import (RankLossConfig, adaptive_ks, classification_loss, cross_entropy,
                            day_labels, log_softmax, make_rank_batch, mse_loss, ndcg_loss,
                            pairwise_loss)
from momrank.metrics import day_ics, day_precisions, evaluate_predictions
from momrank.model import Architecture, forward, init_params, predict_panel
from momrank.momentum import (LEVEL_BOUNCE, LEVEL_NEGATIVE, LEVEL_POSITIVE, LEVEL_SINK,
                              LEVEL_VOLATILE, MomentumConfig, _classify_lines)
from momrank.training import (TrainConfig, adapted_beta, adapted_decay, balanced_parts,
                              build_batches, fit)
from momrank.autodiff import gradients
from oracles import approx_ndcg_at_k, check_gradient
from oracles import sorted_kernel_ranks as _smooth_ranks


def ok(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


# ------------------------------------------------------------------ 1
def test_criterion_1_gradient_correctness():
    t0 = time.time()
    tol = 1e-4

    y = np.random.default_rng(100).normal(size=8)
    for seed in range(25):
        point = np.random.default_rng(200 + seed).normal(size=8)
        assert check_gradient(lambda x: mse_loss(x, y), point) < tol

    labels = day_labels(np.random.default_rng(101).integers(0, 5, size=6), 5, RankLossConfig())
    for seed in range(25):
        point = np.random.default_rng(300 + seed).normal(size=30)
        assert check_gradient(lambda x: cross_entropy(log_softmax(x.reshape(6, 5)), labels),
                              point) < tol

    target = np.random.default_rng(102).normal(size=8)
    for seed in range(25):
        point = np.random.default_rng(400 + seed).normal(size=8)
        assert check_gradient(lambda x: pairwise_loss(x, target), point) < tol

    gains = np.random.default_rng(103).integers(0, 5, size=8)
    cfg = RankLossConfig()

    def ndcg_fn(x):
        return ndcg_loss(make_rank_batch(x, gains, 5, cfg), cfg.gain)

    for seed in range(25):
        point = np.random.default_rng(500 + seed).normal(size=8) * 2.0
        assert check_gradient(ndcg_fn, point) < tol

    elapsed = time.time() - t0
    assert elapsed < 10.0
    ok(1, f"analytic gradients of mse/cross-entropy/pairwise/ndcg losses match "
          f"central differences < {tol} at 25 points each ({elapsed:.1f}s)")


# ------------------------------------------------------------------ 2
def test_criterion_2_adaptive_k_oracle():
    rng = np.random.default_rng(7)
    days = []
    while len(days) < 1000:
        sizes = rng.integers(0, 101, size=5).tolist()
        if sum(sizes) == 0:
            continue
        days.append((sizes, int(rng.integers(1, 201))))
    ks = adaptive_ks(np.array([sizes for sizes, _ in days]),
                     np.array([threshold for _, threshold in days]))
    for (sizes, threshold), k in zip(days, ks.tolist()):
        # brute-force prefix scan over the level-sorted list
        running, oracle = 0, sum(sizes)
        for s in sizes:
            running += s
            if running >= threshold:
                oracle = running
                break
        assert k == oracle
        assert k in np.cumsum(sizes).tolist()  # whole-group boundary: no split
    ok(2, "adaptive k equals the brute-force prefix oracle on 1000 random "
          "group-size vectors and never splits a level group")


# ------------------------------------------------------------------ 3
def test_criterion_3_approx_ndcg_fidelity():
    rng = np.random.default_rng(11)
    cfg = RankLossConfig()

    def oracle(scores, levels, k):
        gains = [2.0 ** w - 1.0 for w in levels]
        n = len(scores)
        pred = sorted(range(n), key=lambda i: (-scores[i], i))
        ideal = sorted(range(n), key=lambda i: (-gains[i], i))
        dcg = sum(gains[pred[r - 1]] / math.log2(1 + r) for r in range(1, k + 1))
        idcg = sum(gains[ideal[r - 1]] / math.log2(1 + r) for r in range(1, k + 1))
        return dcg / idcg if idcg > 0 else 1.0

    worst = 0.0
    for _ in range(500):
        n = 20
        levels = rng.integers(0, 5, size=n)
        scores = rng.permutation(np.arange(n, dtype=np.float64)) * 10.0  # gaps >= 10
        batch = make_rank_batch(Tensor(scores), levels, 5, cfg)
        smooth = approx_ndcg_at_k(batch, cfg.gain).item()
        if levels.max() == levels.min():
            assert smooth == 1.0
            continue
        gap = abs(smooth - oracle(scores.tolist(), levels.tolist(), batch.k))
        worst = max(worst, gap)
        assert gap < 0.05

    for _ in range(100):
        levels = rng.integers(0, 5, size=20)
        order = sorted(range(20), key=lambda i: (-levels[i], i))
        scores = np.empty(20)
        scores[order] = np.arange(20, 0, -1, dtype=np.float64) * 10.0  # ideal with gaps 10
        batch = make_rank_batch(Tensor(scores), levels, 5, cfg)
        assert approx_ndcg_at_k(batch, cfg.gain).item() >= 0.99
    ok(3, f"smooth NDCG@k within 0.05 of the exact oracle on 500 gap-10 days "
          f"(worst {worst:.4f}) and >= 0.99 for 100 ideal orderings")


# ------------------------------------------------------------------ 4
def test_criterion_4_rank_sum_identity():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        scores = rng.normal(size=n) * rng.uniform(0.01, 100.0)
        total = _smooth_ranks(scores).sum()
        assert abs(total - n * (n + 1) / 2.0) < 1e-9
    ok(4, "sum of smooth ranks equals n(n+1)/2 within 1e-9 on 1000 random score vectors")


# ------------------------------------------------------------------ 5
def test_criterion_5_balancing_mechanics():
    beta = 0.5
    grid = np.linspace(-5.0, 5.0, 201)
    vals = [adapted_beta(beta, v) for v in grid]
    assert all(beta < b < 1.0 for b in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert abs(adapted_beta(beta, 0.0) - beta ** 0.5) < 1e-12

    rng = np.random.default_rng(17)
    for _ in range(200):
        a = rng.normal(size=12) * rng.uniform(0.01, 50)
        b = rng.normal(size=12) * rng.uniform(0.01, 50)
        pa, pb = balanced_parts(a, b)
        target = max(np.linalg.norm(a), np.linalg.norm(b))
        assert abs(np.linalg.norm(pa) - target) < 1e-9
        assert abs(np.linalg.norm(pb) - target) < 1e-9

    decay = 1e-3
    assert adapted_decay(decay, 0.0) == decay / 2.0
    ok(5, "adapted forgetting rate lies in (beta, 1), strictly falls with the converge "
          "rate, hits beta^0.5 at 0; balanced parts share the max norm; decay(0) = decay/2")


# ------------------------------------------------------------------ 6
def test_criterion_6_plain_joint_training_equivalence():
    base = gen_synthetic(20, 5, 0.7, seed=21)
    train_p = base.subpanel(0, 3)  # 3 days x 5 stocks
    valid_p = base.subpanel(3, 9)
    mom_cfg = MomentumConfig(gap=1, length=1)
    loss_cfg = RankLossConfig()
    lr = 0.05
    cfg = TrainConfig(mode="ew", lr=lr, epochs=1, optimizer="sgd", decay=0.0,
                      window=1, hidden=(6, 6), patience=1)
    result = fit(train_p, valid_p, mom_cfg, loss_cfg, cfg, seed=23)

    batches = build_batches(train_p, "train", cfg, mom_cfg, loss_cfg)
    assert len(batches) == 1 and batches[0].rows.size == 5
    arch = Architecture(window=1, n_features=train_p.n_features, hidden=(6, 6),
                        trunk="mlp", n_classes=5)
    ref = init_params(arch, seed=23)
    tensors = ref.trunk_tensors() + ref.reg_tensors() + ref.cls_tensors()
    for batch in batches:
        out = forward(ref, batch.feats)
        joint = mse_loss(out.pred_return, batch.y) + classification_loss(
            out.class_logits, batch.labels, loss_cfg)
        for tensor, grad in zip(tensors, gradients(joint, tensors)):
            tensor.data = tensor.data - lr * grad

    worst = 0.0
    for name, tensor in result.params.all_named().items():
        diff = np.abs(tensor.data - ref.all_named()[name].data).max()
        worst = max(worst, float(diff))
    assert worst < 1e-9
    ok(6, f"one equal-weight epoch matches the hand-rolled plain joint loop on a "
          f"3-day x 5-stock panel (max parameter gap {worst:.2e})")


# ------------------------------------------------------------------ 7
def test_criterion_7_planted_signal_learning():
    t0 = time.time()
    panel = normalize_features(gen_synthetic(250, 50, 0.6, seed=7, n_features=4))
    train_p, valid_p, test_p = split(panel, fraction_split_spec(panel, 0.6, 0.2))

    cfg = TrainConfig(mode="full", epochs=50, patience=50)
    result = fit(train_p, valid_p, MomentumConfig(), RankLossConfig(), cfg, seed=7)
    rep = evaluate_predictions(predict_panel(result.params, test_p), test_p,
                               precision_ns=(10,))
    assert rep.ic >= 0.10
    assert rep.rank_ic >= 0.10

    stl_cfg = TrainConfig(mode="stl", epochs=50, patience=50)
    stl = fit(train_p, valid_p, MomentumConfig(), RankLossConfig(), stl_cfg, seed=7)
    stl_rep = evaluate_predictions(predict_panel(stl.params, test_p), test_p,
                                   precision_ns=(10,))
    assert stl_rep.ic >= 0.08

    elapsed = time.time() - t0
    assert elapsed < 300.0
    ok(7, f"planted-signal run reaches test IC {rep.ic:.3f} / RankIC {rep.rank_ic:.3f} "
          f"(full) and IC {stl_rep.ic:.3f} (regression-only) in {elapsed:.0f}s")


# ------------------------------------------------------------------ 8
def test_criterion_8_overfitting_mitigation():
    """Shifted synthetic panel: the signal channel carries weight 0.25 in the
    train split and 0.9 in valid/test, so fitting the training noise shows up
    as a validation-loss rebound. The full pipeline (plain steps so the
    EMA/decay brakes act on step magnitude) must end epoch 60 no worse than
    the equal-weight baseline ever got (+5%) and rebound strictly less,
    averaged over 5 seeds."""

    def valid_reg_curve(result):
        return np.array([r.loss for r in result.epoch_log
                         if r.split == "valid" and r.task == "regression"])

    def rebound(curve):
        m = int(np.argmin(curve))
        return float(curve[m:].max() - curve[m])

    def run(seed, mode):
        panel = gen_synthetic(150, 25, 0.25, seed=seed, n_features=4,
                              shift_after=90, shifted_signal_strength=0.9)
        panel = normalize_features(panel)
        train_p, valid_p, _ = split(panel, fraction_split_spec(panel, 0.6, 0.2))
        cfg = TrainConfig(mode=mode, epochs=60, patience=60, optimizer="sgd", lr=3e-3,
                          decay=0.2, window=5, hidden=(32, 32))
        return valid_reg_curve(fit(train_p, valid_p, MomentumConfig(), RankLossConfig(),
                                   cfg, seed=seed))

    full_at_60, ew_min, full_rebound, ew_rebound = [], [], [], []
    for seed in (1, 2, 3, 4, 5):
        full = run(seed, "full")
        ew = run(seed, "ew")
        assert full.size == 60 and ew.size == 60
        full_at_60.append(full[-1])
        ew_min.append(ew.min())
        full_rebound.append(rebound(full))
        ew_rebound.append(rebound(ew))

    mean_full_60 = float(np.mean(full_at_60))
    bound = float(np.mean(ew_min)) * 1.05
    assert mean_full_60 <= bound
    assert float(np.mean(full_rebound)) < float(np.mean(ew_rebound))
    ok(8, f"across 5 seeds the full pipeline ends epoch 60 at {mean_full_60:.3f} "
          f"<= {bound:.3f} (equal-weight minimum +5%) and rebounds "
          f"{np.mean(full_rebound):.3f} < {np.mean(ew_rebound):.3f}")


# ------------------------------------------------------------------ 9
def test_criterion_9_metric_identities():
    rng = np.random.default_rng(31)
    y = rng.normal(size=20)
    assert day_ics(y.copy(), y, [20])[0][0] == pytest.approx(1.0, abs=1e-12)
    assert day_ics(np.exp(y), y, [20])[1][0] == pytest.approx(1.0, abs=1e-12)
    pred = rng.normal(size=20)
    top = np.argsort(-pred, kind="stable")[:19]
    precisions = day_precisions(pred, y, [20], [19, 20])
    assert precisions[19][0] == pytest.approx(100.0 * (y[top] > 0).mean(), abs=1e-12)
    assert np.isnan(precisions[20][0])  # a top 20 of 20 names would ignore the scores
    ic = day_ics(np.array([1.0, 3.0, 2.0]), np.array([1.0, 2.0, 3.0]), [3])[0][0]
    assert ic == pytest.approx(0.5)
    ok(9, "IC(pred=y)=1, RankIC under exp transform=1, precision@n is the positive share "
          "of the n top-scored names and undefined on a day of n names, and the 3-point IC "
          "oracle gives 0.5")


# ------------------------------------------------------------------ 10
def test_criterion_10_backtest_identities():
    close = np.full((12, 6), 33.0)
    flat = StockPanel(trading_days(12), [f"S{i:03d}" for i in range(6)], close,
                      np.zeros((12, 6, 1)), np.ones((12, 6), dtype=bool))
    scores = np.random.default_rng(37).normal(size=(12, 6))
    assert cumulative_return(run_topn(flat, scores, top_n=3)) == 0.0

    market = gen_synthetic(40, 8, 0.0, seed=41)
    y = compute_return(market)
    ledger = run_topn(market, np.random.default_rng(42).normal(size=y.shape), top_n=8)
    index_daily = np.nanmean(y[:-1], axis=1)
    assert np.abs(ledger.daily_return - index_daily).max() < 1e-12

    wins = 0
    for seed in range(20):
        p = gen_synthetic(60, 20, 0.0, seed=seed)
        ret = compute_return(p)
        foresight = np.where(np.isfinite(ret), ret, np.nan)
        rand = np.random.default_rng(900 + seed).normal(size=ret.shape)
        wins += (cumulative_return(run_topn(p, foresight, top_n=4))
                 > cumulative_return(run_topn(p, rand, top_n=4)))
    assert wins >= 18
    ok(10, f"constant prices give exactly 0, full-pool matches the equal-weight index "
           f"< 1e-12, perfect foresight beats random in {wins}/20 seeded runs")


# ------------------------------------------------------------------ 11
def test_criterion_11_momentum_rule_oracle():
    def oracle(signs):
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

    swap = {LEVEL_BOUNCE: LEVEL_SINK, LEVEL_SINK: LEVEL_BOUNCE,
            LEVEL_POSITIVE: LEVEL_NEGATIVE, LEVEL_NEGATIVE: LEVEL_POSITIVE,
            LEVEL_VOLATILE: LEVEL_VOLATILE}
    patterns = list(itertools.product((-1, 0, 1), repeat=7))
    lines = np.array(patterns, dtype=np.float64).T  # one line per column
    got = _classify_lines(lines, 0.0)
    negated = _classify_lines(-lines, 0.0)
    for pattern, level, level_of_negation in zip(patterns, got, negated):
        assert level == oracle(pattern), pattern
        assert level_of_negation == swap[level], pattern
    assert len(patterns) == got.size == 3 ** 7
    ok(11, "all 2187 sign patterns match the rule-table oracle; negation swaps "
           "bounce/sink and positive/negative and fixes volatile")


# ------------------------------------------------------------------ 12
def test_criterion_12_training_determinism(tmp_path):
    args = ["train", "--set", "data.n_dates=40", "--set", "data.n_tickers=8",
            "--set", "data.n_features=3", "--set", "train.epochs=3",
            "--set", "train.window=2", "--set", "train.hidden=6,6",
            "--set", "momentum.gap=1", "--set", "momentum.length=1",
            "--set", "train.lr=1e-3"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out-dir", str(out_a)]) == 0
    assert main(args + ["--out-dir", str(out_b)]) == 0
    log_a = (out_a / "epochs.csv").read_bytes()
    log_b = (out_b / "epochs.csv").read_bytes()
    assert log_a == log_b
    assert (out_a / "checkpoint.json").read_bytes() == (out_b / "checkpoint.json").read_bytes()
    ok(12, "two train runs with the same config and seed emit byte-identical epoch logs")
