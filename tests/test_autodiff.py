"""Gradient checks for every autodiff op, and the generic ops the tests
keep in `oracles.py`, against central finite differences."""

import numpy as np
import pytest
import scipy.sparse as sp

from mhcr import autodiff as ad
from mhcr import training
from mhcr.errors import ShapeError

from conftest import assert_grad_close, finite_difference, micro_batch
from oracles import (
    concat_rows,
    exp,
    gather_rows,
    log,
    matmul,
    mean,
    mul,
    row_dot,
    row_normalize,
    scale,
    softplus,
    spmm,
    sub,
    tensor_sum,
    transpose,
)

rng = np.random.default_rng(42)


def scalar_loss(t: ad.Tensor) -> ad.Tensor:
    return mean(mul(t, t))


@pytest.mark.parametrize(
    "op,shape",
    [
        (exp, (3, 4)),
        (softplus, (3, 4)),
        (row_normalize, (4, 5)),
        (transpose, (3, 4)),
    ],
)
def test_unary_gradients(op, shape):
    x = rng.normal(size=shape)
    x_t = ad.Tensor(x, requires_grad=True)
    scalar_loss(op(x_t)).backward()
    numeric = finite_difference(lambda: float(scalar_loss(op(ad.Tensor(x))).data), x)
    assert_grad_close(x_t.grad, numeric, op.__name__)


def test_log_gradient():
    x = rng.uniform(0.5, 3.0, size=(3, 4))
    x_t = ad.Tensor(x, requires_grad=True)
    scalar_loss(log(x_t)).backward()
    numeric = finite_difference(lambda: float(scalar_loss(log(ad.Tensor(x))).data), x)
    assert_grad_close(x_t.grad, numeric, "log")


def test_matmul_gradients_both_sides():
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    a_t, b_t = ad.Tensor(a, requires_grad=True), ad.Tensor(b, requires_grad=True)
    scalar_loss(matmul(a_t, b_t)).backward()

    def value():
        return float(scalar_loss(matmul(ad.Tensor(a), ad.Tensor(b))).data)

    num_a = finite_difference(value, a)
    num_b = finite_difference(value, b)
    assert_grad_close(a_t.grad, num_a, "matmul/a")
    assert_grad_close(b_t.grad, num_b, "matmul/b")


def test_spmm_gradient():
    matrix = sp.random(5, 4, density=0.5, random_state=1, format="csr")
    x = rng.normal(size=(4, 3))
    x_t = ad.Tensor(x, requires_grad=True)
    scalar_loss(spmm(matrix, x_t)).backward()
    numeric = finite_difference(lambda: float(scalar_loss(spmm(matrix, ad.Tensor(x))).data), x)
    assert_grad_close(x_t.grad, numeric, "spmm")


def test_add_mul_reject_unequal_shapes():
    a = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    for op in (ad.add, mul, row_dot):
        for shape in [(3, 1), (4,), ()]:
            with pytest.raises(ShapeError):
                op(a, ad.Tensor(rng.normal(size=shape)))
    with pytest.raises(ShapeError):  # a later term of an n-ary add
        ad.add(a, a, ad.Tensor(rng.normal(size=(4, 3))))


def test_nary_add_matches_nested_two_term_adds():
    terms = [rng.normal(size=(3, 4)) for _ in range(3)]
    weights = rng.normal(size=(3, 4))
    results = []
    for combine in (lambda a, b, c: ad.add(a, b, c), lambda a, b, c: ad.add(ad.add(a, b), c)):
        leaves = [ad.Tensor(t.copy(), requires_grad=True) for t in terms]
        out = combine(*leaves)
        tensor_sum(mul(out, ad.constant(weights))).backward()
        results.append([out.data] + [t.grad for t in leaves])
    assert all(a.tobytes() == b.tobytes() for a, b in zip(*results))
    assert results[0][0].tobytes() == ((terms[0] + terms[1]) + terms[2]).tobytes()

    def f():
        return float(scalar_loss(ad.add(*(ad.Tensor(t) for t in terms))).data)

    leaves = [ad.Tensor(t, requires_grad=True) for t in terms]
    scalar_loss(ad.add(*leaves)).backward()
    for name, t, leaf in zip("abc", terms, leaves):
        assert_grad_close(leaf.grad, finite_difference(f, t), f"add/{name}")


def test_nary_add_of_one_term_is_that_term():
    x = ad.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    assert ad.add(x) is x


def test_gather_rows_accumulates_duplicates():
    x = rng.normal(size=(5, 3))
    idx = np.array([0, 2, 2, 4])
    x_t = ad.Tensor(x, requires_grad=True)
    scalar_loss(gather_rows(x_t, idx)).backward()
    numeric = finite_difference(lambda: float(scalar_loss(gather_rows(ad.Tensor(x), idx)).data), x)
    assert_grad_close(x_t.grad, numeric, "gather_rows")


@pytest.mark.parametrize("idx", [[4, 0, 2], [3, 1, 1, 4, 3, 3], [], [2]])
def test_gather_rows_backward_equals_add_at(idx):
    x = rng.normal(size=(6, 3))
    idx = np.array(idx, dtype=np.int64)
    g = rng.normal(size=(idx.size, 3))
    (grad,) = gather_rows(ad.Tensor(x, requires_grad=True), idx)._backward(g)
    dense = np.zeros_like(x)
    ad.add_rows(dense, *grad)
    expected = np.zeros_like(x)
    np.add.at(expected, idx, g)
    assert np.array_equal(dense, expected)


@pytest.mark.parametrize("idx", [[4, 0, 2], [3, 1, 1, 4, 3, 3], [5, 0, 2] * 30, [], [2]])
def test_add_rows_equals_adding_the_dense_scatter(idx):
    out = rng.normal(size=(6, 3))
    idx = np.array(idx, dtype=np.int64)
    g = rng.normal(size=(idx.size, 3)) * 10.0 ** rng.integers(-8, 8, size=(idx.size, 1))
    scatter = np.zeros_like(out)
    np.add.at(scatter, idx, g)
    expected = out + scatter
    ad.add_rows(out, idx, g)
    assert np.array_equal(out, expected)


def test_concat_rows_gradient():
    a = rng.normal(size=(2, 3))
    b = rng.normal(size=(4, 3))
    a_t, b_t = ad.Tensor(a, requires_grad=True), ad.Tensor(b, requires_grad=True)
    scalar_loss(concat_rows([a_t, b_t])).backward()

    def f():
        return float(scalar_loss(concat_rows([ad.Tensor(a), ad.Tensor(b)])).data)

    assert_grad_close(a_t.grad, finite_difference(f, a), "concat/a")
    assert_grad_close(b_t.grad, finite_difference(f, b), "concat/b")


def test_sum_axis_and_mean_gradients():
    x = rng.normal(size=(4, 3))
    x_t = ad.Tensor(x, requires_grad=True)
    loss = mean(exp(tensor_sum(x_t, axis=1)))
    loss.backward()
    numeric = finite_difference(
        lambda: float(mean(exp(tensor_sum(ad.Tensor(x), axis=1))).data), x
    )
    assert_grad_close(x_t.grad, numeric, "sum-axis")


def test_row_dot_gradient():
    a = rng.normal(size=(4, 3))
    b = rng.normal(size=(4, 3))
    a_t, b_t = ad.Tensor(a, requires_grad=True), ad.Tensor(b, requires_grad=True)
    mean(softplus(row_dot(a_t, b_t))).backward()

    def f():
        return float(mean(softplus(row_dot(ad.Tensor(a), ad.Tensor(b)))).data)

    assert_grad_close(a_t.grad, finite_difference(f, a), "row_dot/a")
    assert_grad_close(b_t.grad, finite_difference(f, b), "row_dot/b")


def test_reused_tensor_accumulates_both_paths():
    x = rng.normal(size=(3, 3))
    x_t = ad.Tensor(x, requires_grad=True)
    out = ad.add(matmul(x_t, x_t), x_t)
    scalar_loss(out).backward()
    numeric = finite_difference(
        lambda: float(scalar_loss(ad.add(matmul(ad.Tensor(x), ad.Tensor(x)), ad.Tensor(x))).data), x
    )
    assert_grad_close(x_t.grad, numeric, "reuse")


def test_leaf_gradients_are_owned_buffers():
    # x feeds two parents; y reaches the loss once, through an add
    x = rng.normal(size=(3, 3))
    weights = rng.normal(size=(3, 3))
    x_t = ad.Tensor(x, requires_grad=True)
    y_t = ad.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    doubled = ad.add(x_t, x_t)
    flipped = transpose(x_t)
    summed = ad.add(ad.add(doubled, flipped), y_t)
    loss = tensor_sum(mul(summed, ad.constant(weights)))
    loss.backward()
    assert np.array_equal(x_t.grad, 2.0 * weights + weights.T)
    assert np.array_equal(y_t.grad, weights)

    for leaf in (x_t, y_t):
        others = [t for t in (x_t, y_t, doubled, flipped, summed, loss) if t is not leaf]
        before = [(t.data.copy(), t.grad.copy()) for t in others]
        data_before = leaf.data.copy()
        leaf.grad[...] = 123.0
        assert np.array_equal(leaf.data, data_before)
        for t, (data, grad) in zip(others, before):
            assert np.array_equal(t.data, data)
            assert np.array_equal(t.grad, grad)


def test_scale_and_python_operators():
    x = rng.normal(size=(2, 2))
    x_t = ad.Tensor(x, requires_grad=True)
    out = ad.add(scale(sub(scale(x_t, 3.0), x_t), 0.5), x_t)
    scalar_loss(out).backward()
    numeric = finite_difference(
        lambda: float(scalar_loss(
            ad.add(scale(sub(scale(ad.Tensor(x), 3.0), ad.Tensor(x)), 0.5), ad.Tensor(x))
        ).data),
        x,
    )
    assert_grad_close(x_t.grad, numeric, "operators")


def test_softplus_is_stable_for_large_inputs():
    x = ad.Tensor(np.array([[800.0, -800.0]]))
    out = softplus(x)
    assert np.isfinite(out.data).all()
    assert out.data[0, 0] == pytest.approx(800.0)
    assert out.data[0, 1] == pytest.approx(0.0, abs=1e-12)


def test_row_normalize_zero_row_maps_to_zero():
    x = ad.Tensor(np.array([[0.0, 0.0], [3.0, 4.0]]), requires_grad=True)
    out = row_normalize(x)
    assert np.allclose(out.data[0], 0.0)
    assert np.allclose(np.linalg.norm(out.data[1]), 1.0)


def test_backward_requires_scalar():
    x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        scale(x, 2.0).backward()


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))


def test_no_graph_is_built_without_requires_grad():
    a = ad.Tensor(np.ones((2, 2)))
    out = matmul(a, a)
    assert out._backward is None and out._parents == ()


def test_no_closure_hands_back_its_upstream_gradient(micro):
    # the tape keeps the first gradient a tensor is handed and adds later
    # ones into it in place, so a dense gradient must not alias `g`
    ds, _, cfg, views = micro
    params = training.init_parameters(cfg, ds.num_users, ds.num_items, views.modality_dims)
    result = training.forward(params, views, cfg, batch=micro_batch(), mode="train", rng=0)
    aliased, calls = [], []

    def checked(node, backward):
        def wrapped(g):
            grads = backward(g)
            calls.append(node)
            for parent, grad in zip(node._parents, grads):
                if isinstance(grad, np.ndarray) and np.shares_memory(grad, g):
                    aliased.append((node.shape, parent.shape))
            return grads

        return wrapped

    seen, stack, recorded = set(), [result.total], 0
    while stack:
        node = stack.pop()
        if id(node) in seen or node._backward is None:
            continue
        seen.add(id(node))
        node._backward = checked(node, node._backward)
        recorded += 1
        stack.extend(node._parents)
    training.backward_and_step(result.total, params, training.Adam(params.tensors(), 1e-3))
    assert len(calls) == recorded > 0
    assert aliased == []
