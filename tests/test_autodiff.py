"""Tape mechanics and per-op gradients against the finite-difference oracle."""

import numpy as np
import pytest
from chain_oracle import (
    clamp,
    exp,
    hstack,
    log,
    mul,
    reduce_mean,
    reduce_sum,
    relu,
    shift,
    sigmoid,
    transpose,
    weighted_bce_sum,
)

import moltiers.autodiff as ad
from moltiers.autodiff import Tensor
from moltiers.optim import SGD, Adam


def rand(rng, rows, cols, lo=-1.0, hi=1.0):
    return rng.uniform(lo, hi, size=(rows, cols))


def test_tensor_wraps_values_as_2d_float64():
    t = Tensor([[1, 2], [3, 4]])
    assert t.values.dtype == np.float64
    assert t.shape == (2, 2)
    row = Tensor([1.0, 2.0, 3.0])
    assert row.shape == (1, 3)


def test_tensor_rejects_higher_rank():
    with pytest.raises(ValueError, match="tensors are 2-D; got array of ndim 3"):
        Tensor(np.zeros((2, 2, 2)))


def test_constant_vs_parameter():
    c = ad.constant([[1.0]])
    p = ad.parameter([[1.0]])
    assert not c.tracked
    assert p.tracked


def test_constant_and_parameter_copy_their_input():
    source = np.ones((2, 2))
    tensors = [ad.constant(source), ad.parameter(source)]
    source[0, 0] = 5.0
    for tensor in tensors:
        assert np.array_equal(tensor.values, np.ones((2, 2)))


@pytest.mark.parametrize("optimizer", [SGD, Adam])
def test_optimizer_update_leaves_the_source_array_alone(optimizer):
    source = np.ones((2, 2))
    p = ad.parameter(source)
    ad.backward(reduce_sum(p))
    optimizer([p], 0.5).step()
    assert not np.array_equal(p.values, source)
    assert np.array_equal(source, np.ones((2, 2)))


def test_transpose_keeps_the_layout_of_a_copy():
    # a C-ordered input transposes to an F-ordered view; a C-ordered copy
    # would hand BLAS a different layout and change results at ulp level
    x = ad.constant(np.arange(6.0).reshape(2, 3))
    out = transpose(x).values
    assert x.values.flags.c_contiguous
    assert out.flags.f_contiguous
    assert np.array_equal(out, x.values.T)


def test_matmul_forward_and_shape_error():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[1.0], [1.0]])
    out = ad.matmul(a, b)
    assert np.array_equal(out.values, [[3.0], [7.0]])
    with pytest.raises(ValueError, match=r"matmul of \(2, 1\) by \(2, 2\)"):
        ad.matmul(b, ad.matmul(a, a))


def test_add_broadcasts_scalar_only():
    a = Tensor([[1.0, 2.0]])
    s = Tensor([[10.0]])
    assert np.array_equal(ad.add(a, s).values, [[11.0, 12.0]])
    with pytest.raises(ValueError, match="only scalar-vs-matrix broadcast"):
        ad.add(a, Tensor([[1.0], [2.0]]))


def test_sigmoid_saturates_but_stays_finite():
    big = Tensor([[1e6, -1e6]])
    out = sigmoid(big).values
    assert np.all(np.isfinite(out))
    assert out[0, 0] > 0.999999
    assert out[0, 1] < 0.000001


def test_log_floors_small_inputs():
    out = log(Tensor([[0.0, 1e-30]]))
    assert np.all(np.isfinite(out.values))
    assert out.values[0, 0] == pytest.approx(np.log(1e-12))


def test_clamp_forward():
    out = clamp(Tensor([[-5.0, 0.5, 5.0]]), -1.0, 1.0)
    assert np.array_equal(out.values, [[-1.0, 0.5, 1.0]])


def test_hstack_concatenates_columns():
    a = Tensor([[1.0], [2.0]])
    b = Tensor([[3.0, 4.0], [5.0, 6.0]])
    out = hstack([a, b])
    assert np.array_equal(out.values, [[1.0, 3.0, 4.0], [2.0, 5.0, 6.0]])
    with pytest.raises(ValueError, match="hstack row mismatch"):
        hstack([a, Tensor([[1.0]])])


def test_backward_requires_scalar_loss():
    x = ad.parameter([[1.0, 2.0]])
    y = ad.scale(x, 2.0)
    with pytest.raises(RuntimeError, match="backward needs a scalar 1x1 loss"):
        ad.backward(y)
    # the failed call must still clear the tape
    assert ad.tape_size() == 0
    assert x.grad is None


def test_backward_clears_tape():
    x = ad.parameter([[3.0]])
    loss = reduce_sum(mul(x, x))
    assert ad.tape_size() > 0
    ad.backward(loss)
    assert ad.tape_size() == 0
    assert x.grad[0, 0] == pytest.approx(6.0)


def test_backward_on_empty_tape_fails():
    with pytest.raises(RuntimeError, match="empty computation tape"):
        ad.backward(ad.parameter([[1.0]]))


def test_no_grad_records_nothing():
    x = ad.parameter([[1.0]])
    with ad.no_grad():
        y = mul(x, x)
    assert ad.tape_size() == 0
    assert y.values[0, 0] == 1.0


def _two_outputs(x):
    """(2x, 3x) as one record whose vjp logs the gradients it receives."""
    received = []

    def vjp(g_double, g_triple):
        received.append((g_double, g_triple))
        grad = np.zeros_like(x.values)
        if g_double is not None:
            grad = grad + 2.0 * g_double
        if g_triple is not None:
            grad = grad + 3.0 * g_triple
        return (grad,)

    outputs = (ad.wrap(x.values * 2.0), ad.wrap(x.values * 3.0))
    ad._record(outputs, (x,), vjp)
    return outputs, received


@pytest.mark.parametrize("used", [(0,), (1,), (0, 1)])
def test_a_two_output_record_gets_one_gradient_per_output(used):
    x = ad.parameter([[1.0, -2.0]])
    outputs, received = _two_outputs(x)
    assert ad.tape_size() == 1
    assert all(out.tracked for out in outputs)
    terms = [reduce_sum(outputs[k]) for k in used]
    loss = terms[0] if len(terms) == 1 else ad.add(*terms)
    ad.backward(loss)
    (grads,) = received
    for k, grad in enumerate(grads):
        if k in used:
            assert np.array_equal(grad, np.ones((1, 2)))
        else:
            assert grad is None  # no later record reached this output
    assert np.array_equal(x.grad, np.full((1, 2), sum((2.0, 3.0)[k] for k in used)))


def test_a_record_none_of_whose_outputs_is_reached_is_skipped():
    x = ad.parameter([[1.0]])
    _, received = _two_outputs(x)
    ad.backward(reduce_sum(x))
    assert received == []
    assert np.array_equal(x.grad, [[1.0]])


def test_no_grad_records_no_multi_output_op():
    square = [ad.parameter(np.ones((2, 2))) for _ in range(3)]
    rows = ad.parameter(np.ones((3, 1)))
    with ad.no_grad():
        outputs, _ = _two_outputs(ad.parameter([[1.0]]))
        features = ad.parameter(np.ones((3, 2)))
        outputs += ad.gcn_stack(np.eye(3), features, square[:1], square[1:], 10.0)
        outputs += ad.tiered_decode(
            rows, rows, ad.parameter([[1.0]]), np.eye(3), np.ones((3, 1)),
            ad.parameter(np.ones((3, 3))), ad.parameter(np.ones((3, 2))),
        )
    assert ad.tape_size() == 0
    assert len(outputs) == 6
    assert not any(out.tracked for out in outputs)


def test_a_backward_that_raises_leaves_the_tape_empty():
    x = ad.parameter([[1.0]])
    out = ad.wrap(x.values * 2.0)

    def failing(g):
        raise FloatingPointError("vjp failed")

    ad._record((out,), (x,), failing)
    with pytest.raises(FloatingPointError):
        ad.backward(reduce_sum(out))
    assert ad.tape_size() == 0


def test_grad_accumulates_over_shared_use():
    # f = sum(x*x + 3x) -> df/dx = 2x + 3
    x = ad.parameter([[2.0, -1.0]])
    loss = reduce_sum(ad.add(mul(x, x), ad.scale(x, 3.0)))
    ad.backward(loss)
    assert np.allclose(x.grad, [[7.0, 1.0]])


def test_glorot_uniform_bounds_and_determinism():
    limit = np.sqrt(6.0 / (20 + 30))
    w1 = ad.glorot_uniform(np.random.default_rng(7), 20, 30)
    w2 = ad.glorot_uniform(np.random.default_rng(7), 20, 30)
    assert w1.shape == (20, 30)
    assert np.max(np.abs(w1)) <= limit
    assert np.array_equal(w1, w2)


# per-op gradient checks; rel. error budget 1e-4, typical results ~1e-9

UNARY_OPS = [
    ("sigmoid", lambda x: reduce_sum(sigmoid(x))),
    ("relu", lambda x: reduce_sum(relu(x))),
    ("exp", lambda x: reduce_sum(exp(x))),
    ("log", lambda x: reduce_sum(log(shift(sigmoid(x), 0.5)))),
    ("transpose", lambda x: reduce_sum(ad.matmul(transpose(x), x))),
    ("mean", lambda x: reduce_mean(mul(x, x))),
    ("scale-shift", lambda x: reduce_sum(shift(ad.scale(x, -1.7), 0.3))),
]


@pytest.mark.parametrize("name,f", UNARY_OPS, ids=[n for n, _ in UNARY_OPS])
def test_unary_gradients(name, f):
    rng = np.random.default_rng(11)
    # offset from 0 so relu has no kink at sample points
    x = ad.parameter(rand(rng, 3, 4) + np.sign(rand(rng, 3, 4)) * 0.1)
    assert ad.grad_check(f, x) < 1e-4


def test_clamp_gradient_interior_and_blocked():
    x = ad.parameter([[0.5, 3.0]])
    ad.backward(reduce_sum(clamp(x, -1.0, 1.0)))
    assert np.array_equal(x.grad, [[1.0, 0.0]])


def test_matmul_gradient():
    rng = np.random.default_rng(3)
    a = ad.parameter(rand(rng, 4, 3))
    b = ad.constant(rand(rng, 3, 5))
    assert ad.grad_check(lambda t: reduce_sum(ad.matmul(t, b)), a) < 1e-4


def test_weighted_bce_sum_gradient_at_interior_points():
    rng = np.random.default_rng(13)
    target = (rand(rng, 5, 5) > 0.0).astype(np.float64)
    weights = rand(rng, 5, 5, lo=0.0, hi=2.0)
    x = ad.parameter(rand(rng, 5, 5, lo=0.05, hi=0.95))
    assert ad.grad_check(lambda p: weighted_bce_sum(p, target, weights), x) < 1e-4


def test_weighted_bce_sum_checks_shapes():
    probs = ad.constant(np.full((3, 3), 0.5))
    with pytest.raises(ValueError, match="weighted BCE"):
        weighted_bce_sum(probs, np.zeros((3, 2)), np.ones((3, 3)))
    with pytest.raises(ValueError, match="weighted BCE"):
        weighted_bce_sum(probs, np.zeros((3, 3)), np.ones((2, 3)))


def test_hstack_gradient_routes_columns():
    a = ad.parameter([[1.0, 2.0]])
    b = ad.parameter([[3.0]])
    weights = ad.constant([[1.0], [10.0], [100.0]])
    ad.backward(reduce_sum(ad.matmul(hstack([a, b]), weights)))
    assert np.array_equal(a.grad, [[1.0, 10.0]])
    assert np.array_equal(b.grad, [[100.0]])


def test_composite_gcn_like_gradient():
    rng = np.random.default_rng(5)
    abar = ad.constant(rand(rng, 6, 6, lo=0.0, hi=0.5))
    h = ad.constant(rand(rng, 6, 4))
    w = ad.parameter(rand(rng, 4, 4))

    def f(wt):
        out = relu(ad.matmul(ad.matmul(abar, h), wt))
        return reduce_sum(sigmoid(ad.matmul(out, transpose(out))))

    assert ad.grad_check(f, w) < 1e-4


def test_grad_check_rejects_bad_step():
    x = ad.parameter([[1.0]])
    with pytest.raises(ValueError):
        ad.grad_check(lambda t: reduce_sum(t), x, h=0.5)
