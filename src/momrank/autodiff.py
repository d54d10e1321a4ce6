"""Reverse-mode automatic differentiation over dense float64 arrays.

A small tape-free engine in the classic define-by-run style: every operation
returns a new ``Tensor`` holding the forward value plus a closure that routes
the output gradient to the operands. ``backward()`` walks the graph once in
reverse topological order, so each node's gradient is accumulated exactly once
per call. Rank is capped at 2 (scalars, vectors, matrices); elementwise ops
broadcast under numpy rules within that limit, and broadcast gradients are
summed back down to the operand shape.

Every ``backward()`` call first zeroes the gradients of the nodes reachable
from its root, so successive calls on different roots of a shared graph do not
contaminate each other. Gradient accumulation across fan-out happens inside a
single call via ``+=``.

A backward closure receives its own node as its argument (``backward(out)``)
and captures only its operands, never the node it belongs to. Links therefore
point from outputs to inputs only, the graph is acyclic, and reference
counting frees a whole graph, n x n intermediates included, as soon as its
root is dropped, without waiting for the cyclic garbage collector.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import GraphError, NumericError, ShapeError

__all__ = ["Tensor", "gradients", "check_gradient", "sigmoid_np"]


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


def _as_array(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim > 2:
        raise ShapeError(f"rank-{arr.ndim} tensor unsupported (max rank 2): shape {arr.shape}")
    return arr


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _check_broadcast(a: np.ndarray, b: np.ndarray, op: str) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: operand shapes {a.shape} and {b.shape} do not broadcast") from None


class Tensor:
    """One node of the computation graph: a float64 value and its gradient slot."""

    __slots__ = ("data", "grad", "_prev", "_backward")

    def __init__(self, data, _prev: tuple = ()):
        self.data = _as_array(data)
        self.grad = np.zeros_like(self.data)
        self._prev = _prev
        self._backward: Callable[[Tensor], None] | None = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise GraphError(f"item() needs a scalar, got shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"

    # ---- elementwise binary ops (broadcasting, rank <= 2) ----

    def __add__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        _check_broadcast(self.data, other.data, "add")
        out = Tensor(self.data + other.data, (self, other))

        def backward(out):
            self.grad += _unbroadcast(out.grad, self.data.shape)
            other.grad += _unbroadcast(out.grad, other.data.shape)

        out._backward = backward
        return out

    def __sub__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        _check_broadcast(self.data, other.data, "sub")
        out = Tensor(self.data - other.data, (self, other))

        def backward(out):
            self.grad += _unbroadcast(out.grad, self.data.shape)
            other.grad -= _unbroadcast(out.grad, other.data.shape)

        out._backward = backward
        return out

    def __mul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        _check_broadcast(self.data, other.data, "mul")
        out = Tensor(self.data * other.data, (self, other))

        def backward(out):
            self.grad += _unbroadcast(out.grad * other.data, self.data.shape)
            other.grad += _unbroadcast(out.grad * self.data, other.data.shape)

        out._backward = backward
        return out

    def __truediv__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        _check_broadcast(self.data, other.data, "div")
        out = Tensor(self.data / other.data, (self, other))

        def backward(out):
            self.grad += _unbroadcast(out.grad / other.data, self.data.shape)
            other.grad -= _unbroadcast(out.grad * self.data / (other.data * other.data),
                                       other.data.shape)

        out._backward = backward
        return out

    def __neg__(self):
        out = Tensor(-self.data, (self,))

        def backward(out):
            self.grad -= out.grad

        out._backward = backward
        return out

    def __radd__(self, other):
        return Tensor(other) + self

    def __rsub__(self, other):
        return Tensor(other) - self

    def __rmul__(self, other):
        return Tensor(other) * self

    def __rtruediv__(self, other):
        return Tensor(other) / self

    def __pow__(self, exponent: float):
        if isinstance(exponent, Tensor):
            raise GraphError("power supports constant exponents only")
        c = float(exponent)
        out = Tensor(self.data ** c, (self,))

        def backward(out):
            self.grad += out.grad * c * self.data ** (c - 1.0)

        out._backward = backward
        return out

    def __matmul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        if self.data.ndim != 2 or other.data.ndim != 2 or self.data.shape[1] != other.data.shape[0]:
            raise ShapeError(
                f"matmul: incompatible shapes {self.data.shape} and {other.data.shape}")
        out = Tensor(self.data @ other.data, (self, other))

        def backward(out):
            self.grad += out.grad @ other.data.T
            other.grad += self.data.T @ out.grad

        out._backward = backward
        return out

    # ---- elementwise unary ops ----

    def exp(self):
        out = Tensor(np.exp(self.data), (self,))

        def backward(out):
            self.grad += out.grad * out.data

        out._backward = backward
        return out

    def log(self):
        with np.errstate(invalid="ignore", divide="ignore"):
            out = Tensor(np.log(self.data), (self,))

        def backward(out):
            self.grad += out.grad / self.data

        out._backward = backward
        return out

    def tanh(self):
        out = Tensor(np.tanh(self.data), (self,))

        def backward(out):
            self.grad += out.grad * (1.0 - out.data * out.data)

        out._backward = backward
        return out

    def sigmoid(self):
        out = Tensor(sigmoid_np(self.data), (self,))

        def backward(out):
            self.grad += out.grad * out.data * (1.0 - out.data)

        out._backward = backward
        return out

    def relu(self):
        out = Tensor(np.where(self.data > 0, self.data, 0.0), (self,))

        def backward(out):
            self.grad += out.grad * (self.data > 0)

        out._backward = backward
        return out

    # ---- reductions and shape ops ----

    def sum(self, axis: int | None = None, keepdims: bool = False):
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims), (self,))

        def backward(out):
            g = out.grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self.grad += np.broadcast_to(g, self.data.shape)

        out._backward = backward
        return out

    def mean(self, axis: int | None = None, keepdims: bool = False):
        count = self.data.size if axis is None else self.data.shape[axis]
        out = Tensor(self.data.mean(axis=axis, keepdims=keepdims), (self,))

        def backward(out):
            g = out.grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self.grad += np.broadcast_to(g, self.data.shape) / count

        out._backward = backward
        return out

    def max(self, axis: int | None = None, keepdims: bool = False):
        out = Tensor(self.data.max(axis=axis, keepdims=keepdims), (self,))

        def backward(out):
            peak = self.data.max(axis=axis, keepdims=True)
            mask = (self.data == peak).astype(np.float64)
            mask /= mask.sum(axis=axis, keepdims=True)  # ties share the gradient
            g = out.grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self.grad += mask * g

        out._backward = backward
        return out

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        new = self.data.reshape(shape)
        if new.ndim > 2:
            raise ShapeError(f"reshape to rank-{new.ndim} unsupported: {new.shape}")
        out = Tensor(new, (self,))

        def backward(out):
            self.grad += out.grad.reshape(self.data.shape)

        out._backward = backward
        return out

    # ---- traversal ----

    def backward(self) -> None:
        """Fill the gradients of every node reachable from this scalar root.

        Gradients inside the reachable subgraph are zeroed first, so the call
        is self-contained; nodes outside the subgraph are untouched.
        """
        if self.data.size != 1:
            raise GraphError(f"backward root must be scalar, got shape {self.data.shape}")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))
        for node in topo:
            node.grad = np.zeros_like(node.data)
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node)


def gradients(loss: Tensor, params: Sequence[Tensor]) -> list[np.ndarray]:
    """Gradient of a scalar loss w.r.t. each parameter (zeros if unreachable)."""
    for p in params:
        p.grad = np.zeros_like(p.data)
    loss.backward()
    return [p.grad.copy() for p in params]


def check_gradient(fn: Callable[[Tensor], Tensor], point, step: float = 1e-5) -> float:
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
