"""Membership-weighted graph coarsening, the one definition the pipeline runs.

Pooling contracts node embeddings and adjacency through a fixed membership
matrix M: features become M^T Z (:func:`pool_rows`, which the encoder runs
on one molecule or a padded stack) and adjacency M^T A M
(:func:`coarse_adjacency`, which builds ``MoleculeData``'s group tier);
:func:`diff_group_pool` composes the two. M is data, not a parameter, so
gradients flow through the embeddings only. With a binary row-stochastic M
the pooled features are exact group sums and the pooled adjacency counts
intra-group edge weight on the diagonal and cross-group weight off it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


@dataclass
class CoarsenedGraph:
    """Result of one pooling step: coarse adjacency (plain data) and coarse
    features (a tensor, so gradients keep flowing)."""

    adjacency: np.ndarray
    features: Tensor


def coarse_adjacency(adjacency: np.ndarray, membership: np.ndarray) -> np.ndarray:
    """M^T A M: one row and column per group."""
    return membership.T @ adjacency @ membership


def pool_rows(membership: np.ndarray, rows: Tensor) -> Tensor:
    """M^T Z, one row per group: one recorded ``autodiff.matmul`` over a view
    of M^T for one graph, one unrecorded ``np.matmul`` for a padded stack."""
    if rows.values.ndim == 3:
        return ad.wrap(np.matmul(membership.transpose(0, 2, 1), rows.values))
    return ad.matmul(ad.wrap(membership.T), rows)


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
        raise ValueError(f"adjacency must be square, got {adjacency.shape}")
    if membership.ndim != 2 or membership.shape[0] != n:
        raise ValueError(f"membership is {membership.shape}, expected {n} rows")
    if embeddings.shape[0] != n:
        raise ValueError(f"embeddings have {embeddings.shape[0]} rows for {n} nodes")
    coarse = coarse_adjacency(adjacency, membership)
    return CoarsenedGraph(coarse, pool_rows(membership, embeddings))
