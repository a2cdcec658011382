"""The reconstruction loss spelled out in primitive tape ops.

This is the loss as it was before the edge BCE became the single op
``weighted_bce_sum``: the ``np.triu`` pair mask and ten records for the
edge term. Tests use it as the oracle that the fused op must match bit for
bit, values and gradients alike. :func:`edge_loss_weights` is the loss
weights' computation as it was before one builder made the pair weights
for both the step and the total: the reference for those two floats.
"""

import numpy as np
from chain_oracle import log, mul, reduce_mean, reduce_sum, shift, sub

import moltiers.autodiff as ad


def chain_reconstruction_loss(
    edge_probs, feature_recon, ends, features, feature_weight=0.1, edge_weights=None
):
    """``edge_weights``, which the models pass from a molecule's constants,
    is ignored: the chain derives the weights from the adjacency of the
    (2, U) bond index ``ends`` itself."""
    n = features.shape[0]
    adjacency = bond_adjacency(ends, n)
    upper = np.triu(np.ones((n, n)), k=1)
    positives = float((adjacency * upper).sum())
    negatives = float(upper.sum() - positives)
    pos_weight = negatives / positives if positives > 0 else 1.0
    pair_weights = upper * (1.0 + (pos_weight - 1.0) * adjacency)
    total_weight = float(pair_weights.sum())

    if total_weight > 0:
        target = ad.constant(adjacency)
        complement = ad.constant(1.0 - adjacency)
        log_p = log(edge_probs)
        log_not_p = log(shift(ad.scale(edge_probs, -1.0), 1.0))
        per_pair = ad.scale(
            ad.add(mul(target, log_p), mul(complement, log_not_p)), -1.0
        )
        edge_term = ad.scale(
            reduce_sum(mul(ad.constant(pair_weights), per_pair)), 1.0 / total_weight
        )
    else:
        edge_term = ad.constant(0.0)

    difference = sub(feature_recon, ad.constant(features))
    feature_term = reduce_mean(mul(difference, difference))
    return ad.add(edge_term, ad.scale(feature_term, float(feature_weight)))


def edge_loss_weights(adjacency):
    """(pos_weight, total_weight) over the pairs i < j through a float
    ``upper`` mask, without the 0/1 check."""
    upper = (~np.tri(adjacency.shape[0], dtype=bool)).astype(np.float64)  # i < j
    positives = float((adjacency * upper).sum())
    negatives = float(upper.sum() - positives)
    pos_weight = negatives / positives if positives > 0 else 1.0
    return pos_weight, float((upper * (1.0 + (pos_weight - 1.0) * adjacency)).sum())


def bond_adjacency(ends, n):
    """The n x n 0/1 adjacency of a (2, U) bond index, by scalar stores."""
    adjacency = np.zeros((n, n))
    for i, j in zip(*ends):
        adjacency[i, j] = adjacency[j, i] = 1.0
    return adjacency


def bond_index(adjacency):
    """The (2, U) bond index of a symmetric 0/1 adjacency, each bond (i, j)
    with i < j."""
    return np.array(np.nonzero(np.triu(adjacency, 1)))
