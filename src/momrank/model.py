"""Two-head network: shared trunk plus regression and classification heads.

The trunk, an MLP over the flattened feature window, embeds one stock; a
linear head predicts the next-day return and another produces the class
logits. Parameters are partitioned into three disjoint groups (trunk,
regression head, classification head) so the trainer can route gradients per
task. All of them live in one flat float64 buffer, laid out trunk, regression
head, classification head, and every parameter's ``data`` is a view into it,
so one optimizer step updates every parameter in place.

The trunk is one autodiff node over its four parameters: a plain numpy
forward that keeps its input and both hidden layers, and a closed-form
backward, ``trunk_vjp``, that serves several tasks' cotangents in one call.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from .autodiff import Tensor, no_grad
from .data import StockPanel, window_ok
from .errors import ContractError, NumericError

TRUNK_MLP = "mlp"  # the one trunk; kept as a checkpoint arch field


@dataclass(frozen=True)
class Architecture:
    window: int
    n_features: int
    hidden: tuple[int, int]
    n_classes: int
    trunk: str = TRUNK_MLP

    def __post_init__(self):
        sizes = (self.window, self.n_features, *self.hidden, self.n_classes)
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in sizes):
            raise ContractError(f"architecture sizes must be integers, got {sizes}")
        if self.window < 1 or self.n_features < 1:
            raise ContractError("window and n_features must be >= 1")
        if len(self.hidden) != 2:
            raise ContractError(f"hidden needs exactly two layer sizes, got {self.hidden}")
        if any(h < 1 for h in self.hidden):
            raise ContractError(f"zero-width layer in hidden sizes {self.hidden}")
        if self.trunk != TRUNK_MLP:
            raise ContractError(f"unknown trunk kind {self.trunk!r}")
        if self.n_classes < 2:
            raise ContractError("need at least 2 classes")


@dataclass
class BackboneParams:
    arch: Architecture
    trunk: dict[str, Tensor]
    reg_head: dict[str, Tensor]
    cls_head: dict[str, Tensor]
    flat: np.ndarray  # trunk, reg_head, cls_head in order; every tensor's data views it

    def trunk_tensors(self) -> list[Tensor]:
        return list(self.trunk.values())

    def reg_tensors(self) -> list[Tensor]:
        return list(self.reg_head.values())

    def cls_tensors(self) -> list[Tensor]:
        return list(self.cls_head.values())

    def all_named(self) -> dict[str, Tensor]:
        out = {}
        for group, tensors in (("trunk", self.trunk), ("reg_head", self.reg_head),
                               ("cls_head", self.cls_head)):
            for name, tensor in tensors.items():
                out[f"{group}.{name}"] = tensor
        return out


@dataclass
class BatchOutput:
    pred_return: Tensor   # (n,)
    class_logits: Tensor  # (n, n_classes)
    hidden: Tensor        # (n, hidden[1]): the trunk node, both heads' input
    trunk: tuple[np.ndarray, np.ndarray, np.ndarray]  # its input x, layers h0 and h, for the VJP


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_params(arch: Architecture, seed: int) -> BackboneParams:
    """Deterministic parameter initialization from the seed."""
    rng = np.random.Generator(np.random.Philox(seed))
    h0, h1 = arch.hidden
    groups = {"trunk": {"w0": _glorot(rng, arch.window * arch.n_features, h0), "b0": np.zeros(h0),
                        "w1": _glorot(rng, h0, h1), "b1": np.zeros(h1)},
              "reg_head": {"w": _glorot(rng, h1, 1), "b": np.zeros(1)},
              "cls_head": {"w": _glorot(rng, h1, arch.n_classes), "b": np.zeros(arch.n_classes)}}
    flat = np.concatenate([a.ravel() for arrays in groups.values() for a in arrays.values()])
    tensors, offset = {}, 0
    for group, arrays in groups.items():
        tensors[group] = {}
        for name, a in arrays.items():
            tensors[group][name] = Tensor(flat[offset: offset + a.size].reshape(a.shape))
            offset += a.size
    return BackboneParams(arch, **tensors, flat=flat)


def forward(params: BackboneParams, day_features: np.ndarray) -> BatchOutput:
    """Score one trading day's cross-section.

    ``day_features`` is [stocks, window, features]; each stock is embedded
    independently, so outputs are permutation-equivariant in the stock axis.
    """
    arch = params.arch
    feats = np.asarray(day_features, dtype=np.float64)
    if feats.ndim != 3 or feats.shape[1] != arch.window or feats.shape[2] != arch.n_features:
        raise ContractError(
            f"day features must be [stocks, {arch.window}, {arch.n_features}], got {feats.shape}")
    if not np.isfinite(feats).all():
        rows = np.flatnonzero(~np.isfinite(feats).all(axis=(1, 2)))
        raise NumericError(f"non-finite features for stock rows {rows.tolist()}")
    n = feats.shape[0]
    x = feats.reshape(n, arch.window * arch.n_features)
    theta = params.trunk
    h0 = np.tanh(x @ theta["w0"].data + theta["b0"].data)
    h = np.tanh(h0 @ theta["w1"].data + theta["b1"].data)
    trunk = (x, h0, h)

    def backward(out):
        grad = trunk_vjp(params, trunk, out.grad[None])
        for tensor, g in zip(theta.values(), _views(grad, theta.values())):
            tensor.accumulate_grad(g[0])

    hidden = Tensor(h, tuple(theta.values()), backward)
    pred = (hidden @ params.reg_head["w"] + params.reg_head["b"]).reshape(n)
    logits = hidden @ params.cls_head["w"] + params.cls_head["b"]
    return BatchOutput(pred_return=pred, class_logits=logits, hidden=hidden, trunk=trunk)


def trunk_vjp(params: BackboneParams, trunk: tuple, cotangents: np.ndarray) -> np.ndarray:
    """Trunk parameter gradients for stacked cotangents of the trunk's output.

    ``trunk`` is a forward's ``BatchOutput.trunk`` and ``cotangents`` is
    [tasks, n, hidden[1]]; the result is [tasks, trunk size] in
    ``params.flat`` order. Each row equals, bitwise, what a backward pass
    through the composed layers h0 = tanh(x @ w0 + b0), h = tanh(h0 @ w1 + b1)
    leaves on w0, b0, w1, b1: every expression is the one those nodes run, in
    their order, and each task's slice of a stacked matmul is that task's matmul.
    """
    x, h0, h = trunk
    theta = params.trunk.values()
    g1 = cotangents * (1.0 - h * h)
    g0 = (g1 @ params.trunk["w1"].data.T) * (1.0 - h0 * h0)
    grad = np.empty((len(cotangents), sum(t.data.size for t in theta)))
    w0, b0, w1, b1 = _views(grad, theta)
    np.matmul(x.T, g0, out=w0)
    np.sum(g0, axis=1, out=b0)
    np.matmul(h0.T, g1, out=w1)
    np.sum(g1, axis=1, out=b1)
    return grad


def _views(rows: np.ndarray, tensors) -> list[np.ndarray]:
    """Each tensor's columns of [tasks, group size] rows, shaped [tasks, *tensor shape]."""
    views, offset = [], 0
    for tensor in tensors:
        views.append(rows[:, offset: offset + tensor.data.size].reshape(
            len(rows), *tensor.data.shape))
        offset += tensor.data.size
    return views


def ticker_major(panel: StockPanel) -> np.ndarray:
    """The panel's features as one C-contiguous [N, T, F] copy: each ticker's dates in a row."""
    return np.ascontiguousarray(panel.features.transpose(1, 0, 2))


def day_window(features: np.ndarray, t: int, window: int, rows: np.ndarray) -> np.ndarray:
    """Feature windows [len(rows), window, F] of the given ticker rows at date t, copied
    from a split's ``ticker_major`` features into one C-contiguous array."""
    return features[rows, t - window + 1: t + 1]


def predict_panel(params: BackboneParams, panel: StockPanel) -> np.ndarray:
    """Regression-head scores for every scoreable cell; NaN elsewhere."""
    arch = params.arch
    scores = np.full((panel.n_dates, panel.n_tickers), np.nan)
    ok = window_ok(panel, arch.window)
    features = ticker_major(panel)
    with no_grad():
        for t in range(arch.window - 1, panel.n_dates):
            rows = np.flatnonzero(ok[t])
            if rows.size == 0:
                continue
            out = forward(params, day_window(features, t, arch.window, rows))
            scores[t, rows] = out.pred_return.data
    return scores


def save_checkpoint(path, params: BackboneParams, extra: dict) -> None:
    """Write parameters as JSON named arrays with shapes (portable, diffable)."""
    write_json(path, {
        "format": "momrank-checkpoint-v1",
        "arch": asdict(params.arch),
        "params": {name: {"shape": list(t.data.shape), "data": t.data.reshape(-1).tolist()}
                   for name, t in params.all_named().items()},
        "extra": extra,
    })


def write_json(path, payload: dict) -> None:
    """Write an artifact as indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path) -> tuple[BackboneParams, dict]:
    """Parameters and the ``extra`` map of a checkpoint; any defect names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            blob = json.load(fh)
    except ValueError as exc:  # invalid JSON or UTF-8
        raise ContractError(f"{path}: not a JSON checkpoint ({exc})") from None
    if not isinstance(blob, dict) or blob.get("format") != "momrank-checkpoint-v1":
        raise ContractError(f"{path}: not a momrank checkpoint")
    for key in ("arch", "params"):
        if not isinstance(blob.get(key), dict):
            raise ContractError(f"{path}: missing or malformed {key!r}")
    arch_kw = dict(blob["arch"])
    want_fields = {f.name for f in fields(Architecture)}
    unknown, missing = set(arch_kw) - want_fields, want_fields - set(arch_kw)
    if unknown or missing:
        raise ContractError(f"{path}: arch fields unknown {sorted(unknown)}, "
                            f"missing {sorted(missing)}")
    try:
        arch_kw["hidden"] = tuple(arch_kw["hidden"])
        arch = Architecture(**arch_kw)
    except (ContractError, TypeError) as exc:
        raise ContractError(f"{path}: bad arch: {exc}") from None
    params = init_params(arch, seed=0)
    named = params.all_named()
    if set(named) != set(blob["params"]):
        raise ContractError(f"{path}: parameter names do not match architecture")
    for name, spec in blob["params"].items():
        try:
            shape = tuple(spec["shape"])
            arr = np.asarray(spec["data"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise ContractError(f"{path}: parameter {name} is malformed ({exc!r})") from None
        want = named[name].data.shape
        if shape != want or arr.size != named[name].data.size:
            raise ContractError(f"{path}: parameter {name} has shape {shape} "
                                f"and {arr.size} values, architecture expects {want}")
        if not np.isfinite(arr).all():
            raise ContractError(f"{path}: parameter {name} holds a non-finite value")
        named[name].data[...] = arr.reshape(want)
    return params, blob.get("extra", {})
