import numpy as np
import pytest

from momrank import losses
from momrank.autodiff import Tensor, gradients, no_grad
from momrank.errors import GraphError, NumericError, ShapeError
from momrank.losses import GAIN_STANDARD, RankLossConfig, make_rank_batch, ndcg_loss
from oracles import check_gradient, log_softmax, relu_node, sigmoid_np


def sigmoid(x):
    """The logistic function composed from the ops ``oracles`` attaches to Tensor."""
    return 1.0 / ((-x).exp() + 1.0)


def test_forward_square():
    x = Tensor(3.0)
    assert (x * x).item() == 9.0


def test_forward_matmul_shape():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.ones((3, 1)))
    assert (a @ b).shape == (2, 1)


def test_shape_mismatch_names_both_shapes():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.ones((4, 5)))
    with pytest.raises(ShapeError) as exc:
        _ = a + b
    assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)


def test_matmul_inner_mismatch():
    with pytest.raises(ShapeError):
        _ = Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 3)))


def test_rank3_rejected():
    with pytest.raises(ShapeError):
        Tensor(np.ones((2, 2, 2)))


def test_backward_square():
    x = Tensor(3.0)
    y = x * x
    y.backward()
    assert x.grad == pytest.approx(6.0)


def test_backward_constant_wrt_x():
    x = Tensor(3.0)
    c = Tensor(5.0)
    y = c * c
    (g,) = gradients(y, [x])
    assert g == 0.0


def test_backward_nonscalar_root_rejected():
    x = Tensor(np.ones(3))
    with pytest.raises(GraphError):
        (x * x).backward()


def test_fanout_accumulates():
    x = Tensor(2.0)
    y = x * x + x  # dy/dx = 2x + 1
    y.backward()
    assert x.grad == pytest.approx(5.0)


def test_backward_linearity_of_sum():
    rng = np.random.default_rng(0)
    v = rng.normal(size=4)
    x = Tensor(v)
    l1 = (x * x).sum()
    l2 = sigmoid(x).sum()
    g1 = gradients(l1, [x])[0]
    g2 = gradients(l2, [x])[0]
    x2 = Tensor(v)
    both = (x2 * x2).sum() + sigmoid(x2).sum()
    g12 = gradients(both, [x2])[0]
    np.testing.assert_allclose(g1 + g2, g12, rtol=0, atol=1e-15)


def test_repeated_backward_is_self_contained():
    x = Tensor(np.array([1.0, 2.0]))
    loss = (x * x).sum()
    loss.backward()
    first = x.grad.copy()
    loss.backward()
    np.testing.assert_array_equal(first, x.grad)


def test_determinism_bit_identical():
    rng = np.random.default_rng(3)
    v = rng.normal(size=6)

    def run():
        x = Tensor(v.copy())
        loss = sigmoid(x.tanh() * 2.0 + 1.0).mean()
        loss.backward()
        return loss.item(), x.grad.copy()

    a_val, a_grad = run()
    b_val, b_grad = run()
    assert a_val == b_val
    np.testing.assert_array_equal(a_grad, b_grad)


def test_broadcast_bias_gradient():
    a = Tensor(np.arange(6.0).reshape(2, 3))
    b = Tensor(np.array([1.0, 2.0, 3.0]))
    out = (a + b).sum()
    out.backward()
    np.testing.assert_array_equal(b.grad, np.array([2.0, 2.0, 2.0]))


def test_check_gradient_quadratic_exact():
    err = check_gradient(lambda x: (x * x).sum(), np.array([1.0, -2.0, 0.5]), step=1e-5)
    assert err < 1e-6


def test_check_gradient_zero_function():
    err = check_gradient(lambda x: (x * 0.0).sum(), np.array([1.0, 2.0]))
    assert err == 0.0


def test_check_gradient_composed_sigmoid_softmax():
    rng = np.random.default_rng(11)
    point = rng.normal(size=8)

    def fn(x):
        return sigmoid(log_softmax(x.reshape(2, 4))).mean()

    assert check_gradient(fn, point) < 1e-4


def test_check_gradient_nonfinite_raises():
    with pytest.raises(NumericError):
        check_gradient(lambda x: (x.log()).sum(), np.array([-1.0]))


@pytest.mark.parametrize("seed", range(10))
def test_primitives_match_finite_differences(seed):
    point = np.random.default_rng(seed).normal(size=9) * 2.0
    w_data = np.random.default_rng(seed + 100).normal(size=(3, 2))

    def fn(x):
        m = x.reshape(3, 3)
        w = Tensor(w_data)
        h = (m @ w).tanh()
        s = sigmoid(h) * 3.0 + (h * h) / 2.0
        e = (s.exp() + 1.0).log()
        cols = relu_node(m).sum(axis=0).tanh()
        return e.mean() + (cols.sum() - m.mean()) * 0.1 + (m * m).sum() * 0.01

    assert check_gradient(fn, point) < 1e-4


def test_relu_and_division_gradients():
    point = np.array([0.7, -0.3, 1.9, -2.2])

    def fn(x):
        return (relu_node(x) / (x * x + 1.0)).sum()

    assert check_gradient(fn, point) < 1e-6


def test_gradients_stops_at_each_tensor_asked_for():
    x = Tensor(np.array([1.0, -2.0, 0.5]))
    y = x * x
    loss = (y * 3.0).sum() + x.sum()  # x reaches the loss directly and through y
    gy, gx = gradients(loss, [y, x])
    np.testing.assert_array_equal(gy, [3.0, 3.0, 3.0])
    np.testing.assert_array_equal(gx, [1.0, 1.0, 1.0])  # the direct path only
    assert y._prev == (x, x) and y._backward is not None  # the links are put back
    x._grad = None
    (gy,) = gradients((y * 3.0).sum(), [y])
    np.testing.assert_array_equal(gy, [3.0, 3.0, 3.0])
    assert x._grad is None  # nothing behind y was computed
    (gx,) = gradients(loss, [x])  # without y asked for, the walk passes through it
    np.testing.assert_array_equal(gx, 6.0 * x.data + 1.0)
    with pytest.raises(GraphError):
        gradients(y, [y])  # a non-scalar root
    assert y._prev == (x, x) and y._backward is not None


def test_gradients_zero_for_unreachable_params():
    x = Tensor(1.0)
    unused = Tensor(np.ones(3))
    unused.accumulate_grad(np.full(3, 7.0))  # stale gradient must be cleared
    loss = x * x
    gx, gu = gradients(loss, [x, unused])
    assert gx == pytest.approx(2.0)
    np.testing.assert_array_equal(gu, np.zeros(3))


def test_sigmoid_np_stability():
    assert sigmoid_np(800.0) == 1.0
    assert sigmoid_np(-800.0) == pytest.approx(0.0, abs=1e-300)
    np.testing.assert_allclose(sigmoid_np(np.array([0.0, 1.0])), [0.5, 1 / (1 + np.exp(-1.0))])



# ---- gradients on demand ----

def central_differences(fn, point, step=1e-6):
    numeric = np.empty(point.size)
    for i in range(point.size):
        bumped = point.copy()
        bumped[i] = point[i] + step
        hi = fn(bumped)
        bumped[i] = point[i] - step
        numeric[i] = (hi - fn(bumped)) / (2.0 * step)
    return numeric


@pytest.mark.parametrize("adopted_first", [True, False])
def test_adopted_gradient_shared_by_two_operands_is_never_written(adopted_first):
    # s = a + b hands one output-gradient array to both a and b; b * b adds a
    # second contribution to b. When that one arrives after the adopted one, an
    # in-place add would change a's gradient as well.
    a_data, b_data = np.array([0.3, -1.2, 0.8]), np.array([1.1, 0.4, -0.6])
    c = np.array([2.0, -1.0, 0.5])

    def loss_of(a, b):
        shared, own = ((a + b) * c).sum(), (b * b).sum()
        return shared + own if adopted_first else own + shared

    a, b = Tensor(a_data.copy()), Tensor(b_data.copy())
    loss_of(a, b).backward()
    np.testing.assert_array_equal(a.grad, c)
    np.testing.assert_allclose(b.grad, c + 2.0 * b_data, rtol=0, atol=1e-15)
    fd_a = central_differences(lambda v: loss_of(Tensor(v), Tensor(b_data)).item(), a_data)
    fd_b = central_differences(lambda v: loss_of(Tensor(a_data), Tensor(v)).item(), b_data)
    np.testing.assert_allclose(a.grad, fd_a, rtol=0, atol=1e-8)
    np.testing.assert_allclose(b.grad, fd_b, rtol=0, atol=1e-8)


def test_grad_reads_zeros_until_a_backward_reaches_the_node():
    x, unused = Tensor(np.array([1.0, 2.0])), Tensor(np.ones((2, 2)))
    assert x._grad is None and unused._grad is None  # nothing allocated at creation
    np.testing.assert_array_equal(unused.grad, np.zeros((2, 2)))
    (x * x).sum().backward()
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])
    assert unused._grad is None


def test_constant_operands_become_no_nodes():
    x = Tensor(np.array([1.0, -2.0]))
    for out in (x + 1.0, 1.0 + x, x - np.ones(2), np.ones(2) - x, x * 2.0, 2.0 * x,
                x / 4.0, 4.0 / x, np.ones((3, 2)) @ x.reshape(2, 1),
                x.reshape(1, 2) @ np.ones((2, 3))):
        assert len(out._prev) == 1
    (np.ones((1, 2)) @ (x * 3.0).reshape(2, 1) + np.array([[5.0]])).sum().backward()
    np.testing.assert_array_equal(x.grad, [3.0, 3.0])


# ---- no-graph mode ----

def every_op(x, w):
    """One output of each op, for x of shape (2, 3) > 0 and w of shape (3, 2)."""
    v = x.reshape(6)
    return [x + w.reshape(2, 3), 1.0 + x, x + 1.0, x - 1.0, 1.0 - x, x * x, 2.0 * x, x * 2.0,
            x / (x + 1.0), 1.0 / x, -x, x @ w, np.ones((2, 2)) @ x, x @ np.ones((3, 2)),
            x.exp(), x.log(), x.tanh(), x.sum(), x.sum(axis=1),
            x.mean(), losses.log_softmax(x), x.reshape(3, 2),
            ndcg_loss(make_rank_batch(v, np.array([0, 1, 2, 3, 4, 4]), 5, RankLossConfig()),
                      GAIN_STANDARD)]


def test_no_grad_records_no_parents_and_no_closure():
    rng = np.random.default_rng(2)
    x, w = Tensor(rng.uniform(0.5, 2.0, (2, 3))), Tensor(rng.normal(size=(3, 2)))
    recorded = every_op(x, w)
    assert all(out._prev and out._backward is not None for out in recorded)
    with no_grad():
        bare = every_op(x, w)
    for graph, plain in zip(recorded, bare):
        assert plain._prev == () and plain._backward is None
        np.testing.assert_array_equal(plain.data, graph.data)


def test_no_grad_restores_on_exception_and_nests():
    x = Tensor(np.array([1.0, 2.0]))
    with pytest.raises(RuntimeError):
        with no_grad():
            raise RuntimeError("inside")
    assert (x * x)._prev == (x, x)
    with no_grad():
        with no_grad():
            assert (x * x)._prev == ()
        assert (x * x)._prev == ()  # the inner block restores "off", not "on"
    assert (x * x)._backward is not None
