"""Membership-weighted graph coarsening.

Pooling contracts node embeddings and adjacency through a fixed membership
matrix M: features become M^T Z and adjacency M^T A M. M is data, not a
parameter, so gradients flow through the embeddings only. With a binary
row-stochastic M the pooled features are exact group sums and the pooled
adjacency counts intra-group edge weight on the diagonal and cross-group
weight off it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor


@dataclass
class CoarsenedGraph:
    """Result of one pooling step: coarse adjacency (plain data) and coarse
    features (a tensor, so gradients keep flowing)."""

    adjacency: np.ndarray
    features: Tensor


def diff_group_pool(
    adjacency: np.ndarray, embeddings: Tensor, membership: np.ndarray
) -> CoarsenedGraph:
    """Pool one graph: features M^T Z, adjacency M^T A M.

    ``membership`` rows must match the node count of ``adjacency`` and
    ``embeddings``; the result has one row per group.
    """
    adjacency = np.asarray(adjacency, dtype=np.float64)
    membership = np.asarray(membership, dtype=np.float64)
    n = adjacency.shape[0]
    if adjacency.ndim != 2 or adjacency.shape != (n, n):
        raise ShapeError(f"adjacency must be square, got {adjacency.shape}")
    if membership.ndim != 2 or membership.shape[0] != n:
        raise ShapeError(f"membership is {membership.shape}, expected {n} rows")
    if embeddings.shape[0] != n:
        raise ShapeError(f"embeddings have {embeddings.shape[0]} rows for {n} nodes")

    coarse_adjacency = membership.T @ adjacency @ membership
    coarse_features = ad.matmul(ad.constant(membership.T), embeddings)
    return CoarsenedGraph(coarse_adjacency, coarse_features)

