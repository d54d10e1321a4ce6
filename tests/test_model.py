import json

import numpy as np
import pytest

import oracles
from momrank.autodiff import gradients
from momrank.errors import ContractError, NumericError
from momrank.model import (Architecture, forward, init_params, load_checkpoint, predict_panel,
                           save_checkpoint, trunk_vjp, write_json)
from momrank.data import gen_synthetic, window_ok
from momrank.losses import mse_loss


def small_arch(**kw):
    base = dict(window=3, n_features=2, hidden=(8, 8), trunk="mlp", n_classes=5)
    base.update(kw)
    return Architecture(**base)


def test_init_deterministic():
    a = init_params(small_arch(), seed=4)
    b = init_params(small_arch(), seed=4)
    for (na, ta), (nb, tb) in zip(a.all_named().items(), b.all_named().items()):
        assert na == nb
        np.testing.assert_array_equal(ta.data, tb.data)


def test_init_seed_changes_params():
    a = init_params(small_arch(), seed=1)
    b = init_params(small_arch(), seed=2)
    assert any(not np.array_equal(ta.data, tb.data)
               for ta, tb in zip(a.all_named().values(), b.all_named().values()))


def test_parameter_count_formula():
    arch = small_arch(window=5, n_features=4, hidden=(64, 64))
    params = init_params(arch, seed=0)
    d_in = 5 * 4
    expected = (d_in + 1) * 64 + (64 + 1) * 64 + (64 + 1) * 1 + (64 + 1) * 5
    assert params.flat.size == expected


def test_zero_width_layer_rejected():
    with pytest.raises(ContractError):
        small_arch(hidden=(0, 8))


@pytest.mark.parametrize("field", ["window", "n_features", "hidden", "n_classes"])
def test_boolean_sizes_rejected(field):
    value = (8, True) if field == "hidden" else True
    with pytest.raises(ContractError, match="^architecture sizes must be integers"):
        small_arch(**{field: value})


def test_hidden_other_than_two_sizes_rejected():
    for hidden in ((8, 4, 2), (8,), ()):
        with pytest.raises(ContractError, match="two layer sizes"):
            small_arch(hidden=hidden)


def test_forward_shapes_single_stock():
    params = init_params(small_arch(), seed=0)
    out = forward(params, np.zeros((1, 3, 2)))
    assert out.pred_return.shape == (1,)
    assert out.class_logits.shape == (1, 5)


def test_forward_zero_weights_outputs_bias():
    params = init_params(small_arch(), seed=0)
    for t in params.trunk_tensors() + params.reg_tensors() + params.cls_tensors():
        t.data[:] = 0.0
    feats = np.random.default_rng(0).normal(size=(4, 3, 2))
    out = forward(params, feats)
    np.testing.assert_array_equal(out.pred_return.data, np.zeros(4))
    assert np.ptp(out.pred_return.data) == 0.0


def test_forward_permutation_equivariant():
    params = init_params(small_arch(), seed=7)
    feats = np.random.default_rng(1).normal(size=(6, 3, 2))
    perm = np.random.default_rng(2).permutation(6)
    base = forward(params, feats)
    permuted = forward(params, feats[perm])
    np.testing.assert_allclose(permuted.pred_return.data, base.pred_return.data[perm])
    np.testing.assert_allclose(permuted.class_logits.data, base.class_logits.data[perm])


def test_forward_softmax_rows_normalized():
    params = init_params(small_arch(), seed=3)
    feats = np.random.default_rng(3).normal(size=(5, 3, 2))
    logits = forward(params, feats).class_logits.data
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(probs.sum(axis=1), np.ones(5), atol=1e-9)


def test_forward_nonfinite_input_names_stock():
    params = init_params(small_arch(), seed=0)
    feats = np.zeros((3, 3, 2))
    feats[1, 0, 0] = np.nan
    with pytest.raises(NumericError) as exc:
        forward(params, feats)
    assert "1" in str(exc.value)


def test_head_partition_regression_ignores_cls_head():
    params = init_params(small_arch(), seed=5)
    feats = np.random.default_rng(4).normal(size=(4, 3, 2))
    y = np.random.default_rng(5).normal(size=4)
    out = forward(params, feats)
    loss = mse_loss(out.pred_return, y)
    cls_grads = gradients(loss, params.cls_tensors())
    assert all(np.all(g == 0) for g in cls_grads)
    trunk_grads = gradients(loss, params.trunk_tensors())
    assert any(np.any(g != 0) for g in trunk_grads)


def test_window_ok_and_predict_panel():
    p = gen_synthetic(30, 6, 0.5, seed=11)
    p.valid[10, 1] = False
    arch = small_arch(window=4, n_features=p.n_features)
    params = init_params(arch, seed=0)
    ok = window_ok(p, 4)
    assert not ok[:3].any()
    assert not ok[10:14, 1].any() and ok[14, 1]
    scores = predict_panel(params, p)
    assert np.isnan(scores[:3]).all()
    assert np.isfinite(scores[4:, 0]).all()
    assert np.isnan(scores[12, 1])


def window_ok_loop(valid, window):
    """The per-date loop ``window_ok`` replaced; the oracle for its mask."""
    t_total, n = valid.shape
    ok = np.zeros((t_total, n), dtype=bool)
    for t in range(window - 1, t_total):
        ok[t] = valid[t - window + 1: t + 1].all(axis=0)
    return ok


@pytest.mark.parametrize("drop", [0.0, 0.05, 0.3, 1.0])
def test_window_ok_matches_per_date_loop(drop):
    p = gen_synthetic(40, 7, 0.5, seed=2)
    p.valid[:] = np.random.default_rng(int(drop * 100)).random(p.valid.shape) >= drop
    for window in (1, 2, 5, p.n_dates - 1, p.n_dates, p.n_dates + 1, p.n_dates + 3):
        np.testing.assert_array_equal(window_ok(p, window), window_ok_loop(p.valid, window))


def test_checkpoint_roundtrip(tmp_path):
    params = init_params(small_arch(), seed=9)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, params, extra={"note": "x"})
    loaded, extra = load_checkpoint(path)
    assert extra == {"note": "x"}
    assert loaded.arch == params.arch
    for name, tensor in params.all_named().items():
        np.testing.assert_array_equal(loaded.all_named()[name].data, tensor.data)


def json_dump_text(payload):
    """What ``write_json`` must write: json's own indented, key-sorted dump."""
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def checkpoint_payload():
    params = init_params(small_arch(hidden=(16, 8)), seed=4)
    return {"format": "momrank-checkpoint-v1", "arch": {"window": 3, "hidden": [16, 8]},
            "params": {name: {"shape": list(t.data.shape), "data": t.data.ravel().tolist()}
                       for name, t in params.all_named().items()},
            "extra": {"k_counts": {"9": 3, "10": 1}, "best_epoch": 2}}


JSON_PAYLOADS = {
    "checkpoint": checkpoint_payload,
    "report_with_nan": lambda: {"config": {"seed": "7"}, "split": "test", "report": {
        "ic": float("nan"), "rank_ic": 0.25, "precision_at": {"10": float("nan")},
        "k_histogram": {"3": 2}, "n_days": 4}},
    "int_keys": lambda: {"k_counts": {9: 1, 10: 2}, "floats": {10: [0.5, -0.0], 9: [1e300]}},
    "non_finite_and_nested": lambda: {"x": [float("nan"), float("inf"), -float("inf"), 1.5],
                                      "nested": [[1.0, 2.0], [], [3, 4.0], (0.25,), "a"],
                                      "np": [np.float64(2.5), np.float64(1e-7)]},
    "string_spelled_like_a_stand_in": lambda: {"s": "\0" + "0", "t": "a\"\0", "v": [1.0]},
}


@pytest.mark.parametrize("case", sorted(JSON_PAYLOADS))
def test_write_json_writes_json_dumps_bytes(tmp_path, case):
    payload = JSON_PAYLOADS[case]()
    path = tmp_path / "out.json"
    write_json(path, payload)
    assert path.read_bytes() == json_dump_text(payload).encode("utf-8")


def test_checkpoint_with_non_finite_value_names_file_and_parameter(tmp_path):
    path = tmp_path / "ckpt.json"
    for bad in (float("nan"), float("inf")):
        save_checkpoint(path, init_params(small_arch(), seed=9), extra={})
        blob = json.loads(path.read_text())
        blob["params"]["cls_head.w"]["data"][1] = bad
        path.write_text(json.dumps(blob))
        with pytest.raises(ContractError, match=r"parameter cls_head.w holds a non-finite value"):
            load_checkpoint(path)


def test_checkpoint_shape_mismatch_names_file_and_parameter(tmp_path):
    params = init_params(small_arch(hidden=(8, 4)), seed=9)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, params, extra={})
    blob = json.loads(path.read_text())
    blob["params"]["trunk.w1"]["shape"] = [4, 8]  # same 32 values, transposed shape
    path.write_text(json.dumps(blob))
    with pytest.raises(ContractError) as exc:
        load_checkpoint(path)
    assert str(path) in str(exc.value) and "trunk.w1" in str(exc.value)


def _tamper(change):
    def corrupt(text):
        blob = json.loads(text)
        change(blob)
        return json.dumps(blob).encode()
    return corrupt


MALFORMED_CHECKPOINTS = {
    "truncated_json": lambda text: text[:-20].encode(),
    "not_utf8": lambda text: b"\xff\xfe" + text.encode(),
    "not_an_object": lambda text: b"[1, 2]",
    "no_arch": _tamper(lambda b: b.pop("arch")),
    "no_params": _tamper(lambda b: b.pop("params")),
    "missing_arch_field": _tamper(lambda b: b["arch"].pop("window")),
    "unknown_arch_field": _tamper(lambda b: b["arch"].update(depth=3)),
    "rnn_trunk": _tamper(lambda b: b["arch"].update(trunk="rnn")),
    "hidden_not_a_list": _tamper(lambda b: b["arch"].update(hidden=8)),
    "float_window": _tamper(lambda b: b["arch"].update(window=3.0)),
    "bool_window": _tamper(lambda b: b["arch"].update(window=True)),
    "bool_hidden": _tamper(lambda b: b["arch"].update(hidden=[8, True])),
    "param_without_data": _tamper(lambda b: b["params"]["trunk.b0"].pop("data")),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
def test_malformed_checkpoint_raises_contract_error_naming_file(tmp_path, case):
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, init_params(small_arch(), seed=9), extra={})
    path.write_bytes(MALFORMED_CHECKPOINTS[case](path.read_text(encoding="utf-8")))
    with pytest.raises(ContractError) as exc:
        load_checkpoint(path)
    assert str(exc.value).startswith(f"{path}: ")


def test_parameters_view_one_flat_buffer(tmp_path):
    params = init_params(small_arch(), seed=3)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, params, extra={})
    loaded, _ = load_checkpoint(path)
    loaded.flat[...] = params.flat
    for p in (params, loaded):
        assert isinstance(p.flat, np.ndarray) and p.flat.dtype == np.float64
        # laid out trunk, reg_head, cls_head, each tensor's values in order
        tensors = p.trunk_tensors() + p.reg_tensors() + p.cls_tensors()
        np.testing.assert_array_equal(p.flat, np.concatenate([t.data.ravel() for t in tensors]))
        assert all(np.shares_memory(t.data, p.flat) for t in tensors)
    np.testing.assert_array_equal(loaded.flat, params.flat)
    snapshot = params.flat.copy()
    params.trunk["w0"].data[0, 0] += 1.0  # a write through a tensor lands in the buffer
    assert params.flat[0] == snapshot[0] + 1.0
    params.flat[...] = snapshot
    assert params.trunk["w0"].data[0, 0] == snapshot[0]


# ---- the trunk node and its stacked VJP against the composed layers, bitwise ----

TRUNK_NS = [2, 3, 50, 63, 64, 65, 130, 500]
TRUNK_ARCHS = [(20, 4, (64, 64)), (3, 2, (6, 5)), (2, 1, (1, 3))]  # window, features, hidden


def trunk_case(n, window, n_features, hidden, tasks=2):
    arch = Architecture(window=window, n_features=n_features, hidden=hidden, n_classes=5)
    params = init_params(arch, seed=n)
    rng = np.random.default_rng(n)
    return (params, rng.normal(size=(n, window, n_features)),
            rng.normal(size=(tasks, n, hidden[1])))


@pytest.mark.parametrize("n", TRUNK_NS)
@pytest.mark.parametrize("window,n_features,hidden", TRUNK_ARCHS)
def test_trunk_node_matches_the_composed_layers_bitwise(n, window, n_features, hidden):
    params, feats, (weights,) = trunk_case(n, window, n_features, hidden, tasks=1)
    out, ref = forward(params, feats), oracles.composed_forward(params, feats)
    assert out.hidden._prev == tuple(params.trunk_tensors())  # one node over the trunk
    for got, want in ((out.hidden, ref.hidden), (out.pred_return, ref.pred_return),
                      (out.class_logits, ref.class_logits)):
        np.testing.assert_array_equal(got.data, want.data)
    tensors = params.trunk_tensors() + params.reg_tensors()
    got = gradients((out.hidden * weights).sum() + out.pred_return.sum(), tensors)
    want = gradients((ref.hidden * weights).sum() + ref.pred_return.sum(), tensors)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("n", TRUNK_NS)
@pytest.mark.parametrize("window,n_features,hidden", TRUNK_ARCHS)
def test_stacked_trunk_vjp_equals_each_tasks_composed_backward_bitwise(n, window, n_features,
                                                                       hidden):
    params, feats, cotangents = trunk_case(n, window, n_features, hidden)
    got = trunk_vjp(params, forward(params, feats).trunk, cotangents)
    assert got.shape == (2, sum(t.data.size for t in params.trunk_tensors()))
    for row, cotangent in zip(got, cotangents):
        ref = oracles.composed_forward(params, feats)
        want = gradients((ref.hidden * cotangent).sum(), params.trunk_tensors())
        np.testing.assert_array_equal(row, np.concatenate([g.ravel() for g in want]))
        assert np.abs(row).max() > 0
