"""The tiered encoders as they were before GAE and VGAE shared one tier walk.

``encode_tiered`` and ``encode_tiered_variational`` each walked the three
tiers themselves, with a ``reparameterize`` that checked the noise shape and
a ``kl_standard_normal`` that checked the stats' shapes before the fused
ops did. Tests use these copies as the oracle the shared walk in
``moltiers.models`` must match bit for bit. The molecule tier, a graph of
one node, runs over the unit propagator [[1.0]].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from moltiers import autodiff as ad
from moltiers.autodiff import Tensor
from moltiers.gnn import gnn_forward, gnn_forward_variational
from moltiers.models import (
    MoleculeData,
    NoiseSource,
    TieredEmbeddings,
    TieredGaeParams,
    TieredVgaeParams,
)

UNIT = np.ones((1, 1))


@dataclass
class TierStats:
    """Posterior statistics of one variational tier."""

    mean: Tensor
    std: Tensor


def _constants(data: MoleculeData) -> tuple[Tensor, Tensor, Tensor]:
    """Constant tensors of the features and of the two pooling matrices,
    copied from the molecule's ``features``, ``node_to_group`` and
    ``group_to_graph``."""
    return (
        ad.constant(data.features),
        ad.constant(data.node_to_group.T),
        ad.constant(data.group_to_graph.T),
    )


def encode_tiered(params: TieredGaeParams, data: MoleculeData) -> TieredEmbeddings:
    """Encode one molecule: GNN, pool to groups, GNN, pool to the molecule,
    GNN. Propagators are the molecule's constants; the feature and pooling
    tensors are built here."""
    features, atoms_to_groups, groups_to_molecule = _constants(data)
    node = gnn_forward(params.encoders[0], data.atom_propagator(), features)
    group = gnn_forward(params.encoders[1], data.group_propagator, ad.matmul(atoms_to_groups, node))
    graph = gnn_forward(
        params.encoders[2], ad.constant(UNIT), ad.matmul(groups_to_molecule, group)
    )
    return TieredEmbeddings(node, group, graph, data)


def reparameterize(mean: Tensor, std: Tensor, noise: np.ndarray) -> Tensor:
    """Sample mean + std * noise with gradients through mean and std."""
    if noise.shape != mean.shape:
        raise ValueError(f"noise shape {noise.shape} does not match {mean.shape}")
    return ad.reparameterize(mean, std, noise)


def encode_tiered_variational(
    params: TieredVgaeParams, data: MoleculeData, noise: NoiseSource
) -> tuple[TieredEmbeddings, list[TierStats]]:
    """Variational encoding. Pooling consumes posterior means, so only the
    sampled embeddings (fed to the decoder) depend on the noise; with zero
    noise every sample equals its mean."""
    stats: list[TierStats] = []
    samples: list[Tensor] = []
    propagators = (data.atom_propagator(), data.group_propagator, ad.constant(UNIT))
    features, *pools = _constants(data)
    for tier, stack in enumerate(params.encoders):
        mean, std = gnn_forward_variational(stack, propagators[tier], features)
        stats.append(TierStats(mean, std))
        samples.append(reparameterize(mean, std, noise(mean.shape)))
        if tier < 2:
            features = ad.matmul(pools[tier], mean)
    return TieredEmbeddings(samples[0], samples[1], samples[2], data), stats


def kl_standard_normal(mean: Tensor, std: Tensor) -> Tensor:
    """KL(N(mean, std^2) || N(0, 1)) summed over all entries:
    1/2 * sum(mean^2 + std^2 - 1 - ln std^2)."""
    if mean.shape != std.shape:
        raise ValueError(f"mean {mean.shape} and std {std.shape} differ")
    return ad.kl_standard_normal(mean, std)
