"""Reverse-mode automatic differentiation over dense float64 arrays.

A small tape-free engine in the classic define-by-run style: every operation
returns a new ``Tensor`` holding the forward value plus a closure that routes
the output gradient to the operands. ``backward()`` walks the graph once in
reverse topological order, so each node's gradient is accumulated exactly once
per call. Rank is capped at 2 (scalars, vectors, matrices). An operand that is
not a Tensor (a numpy array or a Python number) is a constant: it becomes no
node and gets no gradient.

The engine's own ops are the ones the library's graphs use: broadcasting add
(a broadcast gradient is summed back down to the operand shape), matmul,
reshape and log. Everything else is a fused node: a Tensor built with its
value, its operands and a closed-form backward, as the model's trunk and each
loss term are. Such a node is as cheap as one op however much it computes.

Gradients are allocated on demand. A node's gradient slot starts empty, and
``backward()`` empties the slots of the nodes reachable from its root, so
successive calls on different roots of a shared graph do not contaminate each
other. A closure runs only if its node received a gradient, and it hands each
operand its contribution through ``accumulate_grad``: the first contribution
is adopted as the operand's gradient and later ones are added as
``grad + g``, a new array, so an adopted array that two operands share is
never written to. Reading ``grad`` on a node that no backward reached gives
zeros.

Inside ``no_grad()`` ops compute their values and record neither operands nor
closures, so evaluation builds no graph (the ``torch.no_grad`` idiom of
Paszke et al., 2017). The mode is process-wide and restored on exit.

A backward closure receives its own node as its argument (``backward(out)``)
and captures only its operands, never the node it belongs to. Links therefore
point from outputs to inputs only, the graph is acyclic, and reference
counting frees a whole graph, n x n intermediates included, as soon as its
root is dropped, without waiting for the cyclic garbage collector.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

from .errors import GraphError, ShapeError

__all__ = ["Tensor", "gradients", "no_grad"]

_recording = True  # False inside no_grad()


@contextmanager
def no_grad():
    """Within the block, ops compute values and record no parents or closures."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


def _as_array(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim > 2:
        raise ShapeError(f"rank-{arr.ndim} tensor unsupported (max rank 2): shape {arr.shape}")
    return arr


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand shape."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _operand(value) -> tuple[np.ndarray, Tensor | None]:
    """A Tensor's data and the Tensor, or a constant's array and None."""
    if isinstance(value, Tensor):
        return value.data, value
    return _as_array(value), None


def _elementwise(op: str, left, right, ufunc, d_left, d_right) -> Tensor:
    """``ufunc(left, right)`` as a node; ``d_left(g, x, y)`` is the left operand's
    contribution for output gradient g before unbroadcasting, ``d_right`` the right's."""
    x, x_node = _operand(left)
    y, y_node = _operand(right)
    try:
        value = ufunc(x, y)
    except ValueError:
        raise ShapeError(f"{op}: operand shapes {x.shape} and {y.shape} do not broadcast") from None

    def backward(out):
        g = out.grad
        if x_node is not None:
            x_node.accumulate_grad(_unbroadcast(d_left(g, x, y), x.shape))
        if y_node is not None:
            y_node.accumulate_grad(_unbroadcast(d_right(g, x, y), y.shape))

    return Tensor(value, _nodes(x_node, y_node), backward)


def _matmul(left, right) -> Tensor:
    x, x_node = _operand(left)
    y, y_node = _operand(right)
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {x.shape} and {y.shape}")

    def backward(out):
        if x_node is not None:
            x_node.accumulate_grad(out.grad @ y.T)
        if y_node is not None:
            y_node.accumulate_grad(x.T @ out.grad)

    return Tensor(x @ y, _nodes(x_node, y_node), backward)


def _nodes(a: Tensor | None, b: Tensor | None) -> tuple:
    if a is None:
        return () if b is None else (b,)
    return (a,) if b is None else (a, b)


def _grad_same(g, x, y):
    """An added operand's contribution for output gradient g, before unbroadcasting."""
    return g


class Tensor:
    """One node of the computation graph: a float64 value and its gradient slot.

    ``_prev`` holds the operand nodes and ``_backward`` the closure that routes
    this node's gradient to them; both are empty for leaves and for every node
    made inside ``no_grad()``.
    """

    __slots__ = ("data", "_grad", "_prev", "_backward")
    __array_ufunc__ = None  # numpy never takes a Tensor for an array operand

    def __init__(self, data, _prev: tuple = (),
                 _backward: Callable[[Tensor], None] | None = None):
        self.data = _as_array(data)
        self._grad = None
        if _recording:
            self._prev, self._backward = _prev, _backward
        else:
            self._prev, self._backward = (), None

    @property
    def grad(self) -> np.ndarray:
        """Gradient from the last backward pass that reached this node, else zeros.

        The array may be shared with other nodes or be a read-only broadcast
        view; copy it before writing (``gradients`` returns copies).
        """
        return np.zeros_like(self.data) if self._grad is None else self._grad

    def accumulate_grad(self, g) -> None:
        """Add one contribution: adopt the first, then ``grad + g`` (never in place)."""
        self._grad = g if self._grad is None else self._grad + g

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise GraphError(f"item() needs a scalar, got shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"

    # ---- ops ----

    def __add__(self, other):
        return _elementwise("add", self, other, np.add, _grad_same, _grad_same)

    def __matmul__(self, other):
        return _matmul(self, other)

    def log(self):
        def backward(out):
            self.accumulate_grad(out.grad / self.data)

        with np.errstate(invalid="ignore", divide="ignore"):
            return Tensor(np.log(self.data), (self,), backward)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        new = self.data.reshape(shape)
        if new.ndim > 2:
            raise ShapeError(f"reshape to rank-{new.ndim} unsupported: {new.shape}")

        def backward(out):
            self.accumulate_grad(out.grad.reshape(self.data.shape))

        return Tensor(new, (self,), backward)

    # ---- traversal ----

    def backward(self) -> None:
        """Fill the gradients of every node reachable from this scalar root.

        The reachable nodes' gradients are emptied first, so the call is
        self-contained; nodes outside the subgraph are untouched.
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
            node._grad = None
        self._grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node._grad is not None:
                node._backward(node)


def gradients(loss: Tensor, params: Sequence[Tensor]) -> list[np.ndarray]:
    """Gradient of a scalar loss w.r.t. each tensor asked for (zeros if unreachable).

    Each tensor asked for is a leaf of the walk: the backward pass fills its
    gradient and goes no further, so nothing behind it is computed or written.
    ``fit`` asks for the trunk's output and one head's parameters, and applies
    the trunk's VJP to both tasks at once. A tensor that reaches the loss only
    through another tensor asked for gets no gradient along that path.
    """
    links = [(p, p._prev, p._backward) for p in params]
    for p in params:
        p._grad, p._prev, p._backward = None, (), None
    try:
        loss.backward()
    finally:
        for p, prev, backward in links:
            p._prev, p._backward = prev, backward
    return [p.grad.copy() for p in params]
