"""Membership-weighted pooling against a brute-force double loop."""

import numpy as np
import pytest
from chain_oracle import mul, reduce_sum

import moltiers.autodiff as ad
from moltiers.autodiff import ShapeError
from moltiers.grouping import build_membership, partition
from moltiers.models import MoleculeData
from moltiers.pooling import diff_group_pool


def brute_force_pool(adjacency, embeddings, membership):
    """Entry-by-entry sums, no matrix algebra."""
    n, g = membership.shape
    d = embeddings.shape[1]
    coarse_adj = np.zeros((g, g))
    for a in range(g):
        for b in range(g):
            total = 0.0
            for i in range(n):
                for j in range(n):
                    total += membership[i, a] * adjacency[i, j] * membership[j, b]
            coarse_adj[a, b] = total
    coarse_feat = np.zeros((g, d))
    for a in range(g):
        for k in range(d):
            coarse_feat[a, k] = sum(
                membership[i, a] * embeddings[i, k] for i in range(n)
            )
    return coarse_adj, coarse_feat


def test_four_node_path_pooled_in_halves():
    # nodes 0-1 in group 0, nodes 2-3 in group 1; one edge inside each group,
    # one edge (1,2) crossing between them
    A = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [1.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 1.0],
        [0.0, 0.0, 1.0, 0.0],
    ])
    M = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    Z = np.array([[1.0], [2.0], [3.0], [4.0]])
    result = diff_group_pool(A, ad.constant(Z), M)
    # diagonal counts both directions of the intra-group edge
    assert np.allclose(result.adjacency, np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(result.features.values, np.array([[3.0], [7.0]]))


def test_matches_brute_force_on_random_inputs():
    rng = np.random.default_rng(321)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        g = int(rng.integers(1, n + 1))
        d = int(rng.integers(1, 5))
        A = rng.random((n, n))
        A = (A + A.T) / 2
        M = rng.random((n, g))
        Z = rng.standard_normal((n, d))
        result = diff_group_pool(A, ad.constant(Z), M)
        expected_adj, expected_feat = brute_force_pool(A, Z, M)
        assert np.allclose(result.adjacency, expected_adj, atol=1e-12)
        assert np.allclose(result.features.values, expected_feat, atol=1e-12)


def test_identity_membership_is_a_no_op():
    rng = np.random.default_rng(11)
    A = rng.random((5, 5))
    A = (A + A.T) / 2
    Z = rng.standard_normal((5, 3))
    result = diff_group_pool(A, ad.constant(Z), np.eye(5))
    assert np.array_equal(result.adjacency, A)
    assert np.array_equal(result.features.values, Z)


def test_all_ones_membership_sums_everything():
    rng = np.random.default_rng(12)
    A = rng.random((6, 6))
    A = (A + A.T) / 2
    Z = rng.standard_normal((6, 4))
    M = np.ones((6, 1))
    result = diff_group_pool(A, ad.constant(Z), M)
    assert result.adjacency.shape == (1, 1)
    assert result.adjacency[0, 0] == (M.T @ A @ M)[0, 0]
    assert np.allclose(result.adjacency[0, 0], A.sum(), atol=1e-12)
    assert np.array_equal(result.features.values, M.T @ Z)


def test_binary_membership_reduces_to_group_sums(vanillin):
    gs = partition(vanillin)
    M = build_membership(gs, vanillin.num_atoms)
    Z = np.random.default_rng(13).standard_normal((vanillin.num_atoms, 3))
    result = diff_group_pool(MoleculeData.from_graph(vanillin).adjacency, ad.constant(Z), M)
    for column, group in enumerate(gs):
        expected = Z[list(group.atoms)].sum(axis=0)
        assert np.allclose(result.features.values[column], expected, atol=1e-12)


def test_pooled_adjacency_stays_symmetric():
    rng = np.random.default_rng(14)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        A = rng.random((n, n))
        A = A + A.T
        M = rng.random((n, 3))
        result = diff_group_pool(A, ad.constant(np.zeros((n, 2))), M)
        assert np.allclose(result.adjacency, result.adjacency.T, atol=1e-12)


def test_gradient_flows_through_features_only():
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    M = np.array([[1.0], [1.0]])
    Z = ad.parameter([[2.0, -1.0], [0.5, 3.0]])
    result = diff_group_pool(A, Z, M)
    loss = reduce_sum(result.features)
    ad.backward(loss)
    # d(sum M^T Z)/dZ = M 1^T: all ones here
    assert np.allclose(Z.grad, 1.0)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(15)
    A = rng.random((4, 4))
    A = (A + A.T) / 2
    M = rng.random((4, 2))
    base = rng.standard_normal((4, 3))
    weights = rng.standard_normal((2, 3))

    def loss_value(z_values):
        z = ad.parameter(z_values)
        pooled = diff_group_pool(A, z, M).features
        loss = reduce_sum(mul(pooled, ad.constant(weights)))
        value = loss.values[0, 0]
        ad.backward(loss)
        return value, z.grad

    _, grad = loss_value(base)
    h = 1e-6
    for i in range(4):
        for k in range(3):
            bumped = base.copy()
            bumped[i, k] += h
            up, _ = loss_value(bumped)
            bumped[i, k] -= 2 * h
            down, _ = loss_value(bumped)
            numeric = (up - down) / (2 * h)
            assert abs(grad[i, k] - numeric) < 1e-6


def test_shape_validation():
    Z = ad.constant(np.zeros((3, 2)))
    with pytest.raises(ShapeError, match="square"):
        diff_group_pool(np.zeros((3, 2)), Z, np.zeros((3, 1)))
    with pytest.raises(ShapeError, match="membership"):
        diff_group_pool(np.zeros((3, 3)), Z, np.zeros((4, 1)))
    with pytest.raises(ShapeError, match="embeddings"):
        diff_group_pool(np.zeros((4, 4)), Z, np.zeros((4, 1)))

