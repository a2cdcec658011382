"""Convolution stacks and the symmetric adjacency normalization."""

import numpy as np
import pytest
from chain_oracle import reduce_sum

import moltiers.autodiff as ad
from moltiers.gnn import (
    LOG_STD_CLAMP,
    GnnStack,
    gnn_forward,
    gnn_forward_variational,
    normalize_adjacency,
)
from moltiers.models import TieredGaeParams, TieredVgaeParams


def propagator(adjacency):
    """The constant a forward pass takes for ``adjacency``."""
    return ad.constant(normalize_adjacency(adjacency))


def test_normalize_two_node_path():
    # A + I is all ones, both degrees 2, so every entry becomes 1/2
    out = normalize_adjacency(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(out, 0.5)


def test_normalize_triangle():
    A = np.ones((3, 3)) - np.eye(3)
    out = normalize_adjacency(A)
    assert np.allclose(out, 1.0 / 3.0)


def test_normalize_single_node_and_identity():
    assert np.allclose(normalize_adjacency(np.zeros((1, 1))), 1.0)
    # no edges at all: self-loops make it the identity
    assert np.allclose(normalize_adjacency(np.zeros((4, 4))), np.eye(4))


def test_normalize_three_node_path_by_hand():
    A = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    s = 1.0 / np.sqrt(6.0)
    expected = np.array([
        [0.5, s, 0.0],
        [s, 1.0 / 3.0, s],
        [0.0, s, 0.5],
    ])
    assert np.allclose(normalize_adjacency(A), expected, atol=1e-12)


def test_normalize_accepts_weighted_input():
    out = normalize_adjacency(np.array([[0.0, 2.0], [2.0, 0.0]]))
    assert np.allclose(out, np.array([[1 / 3, 2 / 3], [2 / 3, 1 / 3]]))


def test_normalize_output_is_symmetric_with_bounded_spectrum():
    rng = np.random.default_rng(77)
    for _ in range(10):
        n = rng.integers(2, 9)
        A = (rng.random((n, n)) < 0.4).astype(float)
        A = np.triu(A, 1)
        A = A + A.T
        out = normalize_adjacency(A)
        assert np.allclose(out, out.T, atol=1e-12)
        eigenvalues = np.linalg.eigvalsh(out)
        assert eigenvalues.min() >= -1.0 - 1e-9
        assert eigenvalues.max() <= 1.0 + 1e-9


def test_normalize_input_validation():
    with pytest.raises(ValueError, match="square"):
        normalize_adjacency(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="symmetric"):
        normalize_adjacency(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="non-negative"):
        normalize_adjacency(np.array([[0.0, -1.0], [-1.0, 0.0]]))


def test_gcn_stack_shapes_and_activations():
    rng = np.random.default_rng(0)
    stack = TieredGaeParams.init(rng, (8, 8, 8), depth=3).encoders[0]
    # two relu trunk layers, then the one linear head
    assert len(stack.trunk) == 2
    assert len(stack.heads) == 1
    assert [weight.shape for weight in stack.weights()] == [(16, 8), (8, 8), (8, 8)]
    assert stack.input_dim == 16
    with pytest.raises(ValueError, match="depth"):
        TieredGaeParams.init(rng, (4, 4, 4), 0)


def test_stack_rejects_non_chaining_dimensions():
    a = ad.parameter(np.zeros((4, 3)))
    b = ad.parameter(np.zeros((5, 2)))
    head = ad.parameter(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="do not chain"):
        GnnStack([a, b], [head])
    with pytest.raises(ValueError, match="do not chain"):
        GnnStack([a], [head])
    with pytest.raises(ValueError, match="at least one head"):
        GnnStack([a], [])


def test_single_linear_layer_forward_matches_numpy():
    rng = np.random.default_rng(5)
    A = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    X = rng.standard_normal((3, 4))
    W = rng.standard_normal((4, 2))
    stack = GnnStack([], [ad.parameter(W)])
    out = gnn_forward(stack, propagator(A), ad.constant(X))
    expected = normalize_adjacency(A) @ X @ W
    assert np.allclose(out.values, expected, atol=1e-12)
    ad.backward(reduce_sum(out))


def test_relu_hidden_layer_blocks_negative_channels():
    A = np.zeros((2, 2))
    X = np.ones((2, 1))
    hidden = ad.parameter(np.array([[-1.0]]))
    out_layer = ad.parameter(np.array([[1.0]]))
    out = gnn_forward(GnnStack([hidden], [out_layer]), propagator(A), ad.constant(X))
    assert np.allclose(out.values, 0.0)
    ad.backward(reduce_sum(out))


def test_forward_shape_validation():
    rng = np.random.default_rng(1)
    stack = TieredGaeParams.init(rng, (4, 4, 4), 2).encoders[1]
    A = np.zeros((3, 3))
    with pytest.raises(ad.ShapeError, match="rows"):
        gnn_forward(stack, propagator(A), ad.constant(np.zeros((2, 4))))
    with pytest.raises(ad.ShapeError, match="width"):
        gnn_forward(stack, propagator(A), ad.constant(np.zeros((3, 5))))


def test_each_forward_rejects_the_other_flavour_before_recording():
    rng = np.random.default_rng(4)
    stack = TieredGaeParams.init(rng, (4, 4, 4), 2).encoders[1]
    variational = TieredVgaeParams.init(rng, (4, 4, 4), 2).encoders[1]
    A, X = propagator(np.zeros((2, 2))), ad.constant(np.ones((2, 4)))
    with pytest.raises(ValueError, match="head count 2, expected 1"):
        gnn_forward(variational, A, X)
    with pytest.raises(ValueError, match="head count 1, expected 2"):
        gnn_forward_variational(stack, A, X)
    assert ad.tape_size() == 0


def test_variational_stack_structure():
    rng = np.random.default_rng(2)
    stack = TieredVgaeParams.init(rng, (6, 3, 3), depth=3).encoders[1]
    assert len(stack.trunk) == 2
    assert [head.shape for head in stack.heads] == [(3, 3), (3, 3)]
    assert stack.input_dim == 6
    assert len(stack.weights()) == 4
    # depth 1 keeps only the two heads
    shallow = TieredVgaeParams.init(rng, (6, 3, 3), 1).encoders[1]
    assert shallow.trunk == []
    assert [head.shape for head in shallow.heads] == [(6, 3), (6, 3)]
    assert shallow.input_dim == 6


def test_variational_head_validation():
    trunk = [ad.parameter(np.zeros((4, 3)))]
    good = ad.parameter(np.zeros((3, 2)))
    bad_in = ad.parameter(np.zeros((5, 2)))
    bad_out = ad.parameter(np.zeros((3, 6)))
    with pytest.raises(ValueError, match="do not chain"):
        GnnStack(trunk, [bad_in, good])
    with pytest.raises(ValueError, match="same shape"):
        GnnStack(trunk, [good, bad_out])


def test_variational_forward_returns_positive_std():
    rng = np.random.default_rng(3)
    stack = TieredVgaeParams.init(rng, (4, 3, 3), 2).encoders[1]
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    X = rng.standard_normal((2, 4))
    mean, std = gnn_forward_variational(stack, propagator(A), ad.constant(X))
    assert mean.shape == (2, 3)
    assert std.shape == (2, 3)
    assert np.all(std.values > 0.0)
    ad.backward(reduce_sum(ad.add(mean, std)))


def test_log_std_is_clamped_before_exp():
    # a huge log-std weight must saturate at exp(LOG_STD_CLAMP), not overflow
    huge = ad.parameter(np.full((1, 1), 1e6))
    mean_head = ad.parameter(np.ones((1, 1)))
    stack = GnnStack([], [mean_head, huge])
    A = np.zeros((1, 1))
    _, std = gnn_forward_variational(stack, propagator(A), ad.constant(np.ones((1, 1))))
    assert np.allclose(std.values, np.exp(LOG_STD_CLAMP))
    tiny = ad.parameter(np.full((1, 1), -1e6))
    stack = GnnStack([], [mean_head, tiny])
    _, std = gnn_forward_variational(stack, propagator(A), ad.constant(np.ones((1, 1))))
    assert np.allclose(std.values, np.exp(-LOG_STD_CLAMP))


def test_forward_is_deterministic_for_fixed_seed():
    A = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    X = np.arange(48.0).reshape(3, 16)
    runs = []
    for _ in range(2):
        stack = TieredGaeParams.init(np.random.default_rng(9), (5, 5, 5), 3).encoders[0]
        out = gnn_forward(stack, propagator(A), ad.constant(X))
        runs.append(out.values.copy())
        ad.backward(reduce_sum(out))
    assert np.array_equal(runs[0], runs[1])
