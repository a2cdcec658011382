"""Tiered graph autoencoders: encoders, decoder, losses and metrics.

The encoder alternates graph convolutions with membership pooling across
three tiers, yielding per-atom, per-group and whole-molecule embeddings.
The decoder broadcasts group and molecule embeddings back to the atoms,
concatenates all three tiers and reconstructs adjacency through a bilinear
product (kept symmetric) plus node features through a linear head. The
variational flavor predicts a mean and std per tier, pools means so coarse
tiers see deterministic inputs, and samples with reparameterized noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .gnn import (
    GnnStack,
    VariationalGnnStack,
    degree_scale,
    gcn_stack,
    gnn_forward,
    gnn_forward_variational,
    normalize_adjacency,
    scale_adjacency,
    variational_gcn_stack,
)
from .grouping import GroupSet, build_membership, graph_membership, partition
from .molgraph import NODE_FEATURE_DIM, MolecularGraph

NoiseSource = Callable[[tuple[int, int]], np.ndarray]


def zero_noise(shape: tuple[int, int]) -> np.ndarray:
    return np.zeros(shape)


def gaussian_noise(rng: np.random.Generator) -> NoiseSource:
    return lambda shape: rng.standard_normal(shape)


@dataclass
class MoleculeData:
    """Everything the models need for one molecule, computed once.

    Besides the graph and its partition this holds every constant the
    encoder and decoder read: the atom degree scale, the group- and
    molecule-tier propagators, and the feature, pooling and broadcast
    tensors. The only n x n array kept is ``adjacency``; the atom-tier
    propagator is rebuilt from it on each pass (see :meth:`atom_propagator`).
    """

    graph: MolecularGraph
    group_set: GroupSet
    adjacency: np.ndarray
    features: np.ndarray
    node_to_group: np.ndarray
    group_to_graph: np.ndarray
    atom_scale: np.ndarray = field(init=False)
    group_propagator: Tensor = field(init=False)
    molecule_propagator: Tensor = field(init=False)
    atom_features: Tensor = field(init=False)
    atoms_to_groups: Tensor = field(init=False)
    groups_to_molecule: Tensor = field(init=False)
    groups_to_atoms: Tensor = field(init=False)
    molecule_to_atoms: Tensor = field(init=False)

    def __post_init__(self):
        self.atom_scale = degree_scale(self.adjacency)
        group_adjacency = self.node_to_group.T @ self.adjacency @ self.node_to_group
        molecule_adjacency = self.group_to_graph.T @ group_adjacency @ self.group_to_graph
        self.group_propagator = ad.constant(normalize_adjacency(group_adjacency))
        self.molecule_propagator = ad.constant(normalize_adjacency(molecule_adjacency))
        self.atom_features = ad.constant(self.features)
        self.atoms_to_groups = ad.constant(self.node_to_group.T)
        self.groups_to_molecule = ad.constant(self.group_to_graph.T)
        self.groups_to_atoms = ad.constant(self.node_to_group)
        self.molecule_to_atoms = ad.constant(np.ones((self.num_atoms, 1)))

    @classmethod
    def from_graph(cls, graph: MolecularGraph) -> "MoleculeData":
        group_set = partition(graph)
        node_to_group = build_membership(group_set, graph.num_atoms)
        return cls(
            graph=graph,
            group_set=group_set,
            adjacency=graph.adjacency,
            features=graph.node_features,
            node_to_group=node_to_group,
            group_to_graph=graph_membership(len(group_set)),
        )

    def atom_propagator(self) -> Tensor:
        """The atom tier's normalized adjacency, rebuilt on every call from
        the already checked degree scale.

        Kept for every molecule of a dataset, this n x n array would make
        memory grow with the square of molecule size (see the README).
        """
        return ad.constant(scale_adjacency(self.adjacency, self.atom_scale))

    @property
    def name(self) -> str:
        return self.graph.name

    @property
    def num_atoms(self) -> int:
        return self.graph.num_atoms

    @property
    def num_groups(self) -> int:
        return len(self.group_set)


@dataclass
class TieredEmbeddings:
    """Per-tier embeddings of one molecule: node rows, group rows and a
    single molecule row."""

    node: Tensor
    group: Tensor
    graph: Tensor
    data: MoleculeData


@dataclass
class TierStats:
    """Posterior statistics of one variational tier."""

    mean: Tensor
    std: Tensor


def _check_dims(dims: Sequence[int]) -> tuple[int, int, int]:
    dims = tuple(int(d) for d in dims)
    if len(dims) != 3 or any(d < 1 for d in dims):
        raise ValueError(f"dims must be three positive integers, got {dims}")
    return dims


@dataclass
class TieredGaeParams:
    """Deterministic model: three encoder stacks plus the two decoder heads.

    ``pair_decoder`` is the bilinear matrix for edge logits; it is
    initialized symmetric and training re-symmetrizes it after every step.
    ``feature_decoder`` maps concatenated embeddings back to node features.
    """

    encoders: tuple[GnnStack, GnnStack, GnnStack]
    pair_decoder: Tensor
    feature_decoder: Tensor
    dims: tuple[int, int, int]
    depth: int
    input_dim: int

    @classmethod
    def init(
        cls,
        rng: np.random.Generator,
        dims: Sequence[int] = (16, 16, 16),
        depth: int = 3,
        input_dim: int = NODE_FEATURE_DIM,
    ) -> "TieredGaeParams":
        dims = _check_dims(dims)
        encoders = (
            gcn_stack(rng, input_dim, dims[0], depth),
            gcn_stack(rng, dims[0], dims[1], depth),
            gcn_stack(rng, dims[1], dims[2], depth),
        )
        total = sum(dims)
        pair = ad.glorot_uniform(rng, total, total)
        pair_decoder = ad.parameter((pair + pair.T) / 2.0)
        feature_decoder = ad.parameter(ad.glorot_uniform(rng, total, input_dim))
        return cls(encoders, pair_decoder, feature_decoder, dims, depth, input_dim)

    def trainable(self) -> list[Tensor]:
        params = []
        for stack in self.encoders:
            params.extend(stack.weights())
        params.append(self.pair_decoder)
        params.append(self.feature_decoder)
        return params

    def symmetrize_pair_decoder(self) -> None:
        values = self.pair_decoder.values
        self.pair_decoder.values = (values + values.T) / 2.0


@dataclass
class TieredVgaeParams:
    """Variational model: variational stacks per tier, same decoder heads."""

    encoders: tuple[VariationalGnnStack, VariationalGnnStack, VariationalGnnStack]
    pair_decoder: Tensor
    feature_decoder: Tensor
    dims: tuple[int, int, int]
    depth: int
    input_dim: int

    @classmethod
    def init(
        cls,
        rng: np.random.Generator,
        dims: Sequence[int] = (16, 16, 16),
        depth: int = 3,
        input_dim: int = NODE_FEATURE_DIM,
    ) -> "TieredVgaeParams":
        dims = _check_dims(dims)
        encoders = (
            variational_gcn_stack(rng, input_dim, dims[0], depth),
            variational_gcn_stack(rng, dims[0], dims[1], depth),
            variational_gcn_stack(rng, dims[1], dims[2], depth),
        )
        total = sum(dims)
        pair = ad.glorot_uniform(rng, total, total)
        pair_decoder = ad.parameter((pair + pair.T) / 2.0)
        feature_decoder = ad.parameter(ad.glorot_uniform(rng, total, input_dim))
        return cls(encoders, pair_decoder, feature_decoder, dims, depth, input_dim)

    def trainable(self) -> list[Tensor]:
        params = []
        for stack in self.encoders:
            params.extend(stack.weights())
        params.append(self.pair_decoder)
        params.append(self.feature_decoder)
        return params

    def symmetrize_pair_decoder(self) -> None:
        values = self.pair_decoder.values
        self.pair_decoder.values = (values + values.T) / 2.0


# ---------------------------------------------------------------------------
# Encoding


def encode_tiered(params: TieredGaeParams, data: MoleculeData) -> TieredEmbeddings:
    """Encode one molecule: GNN, pool to groups, GNN, pool to the molecule,
    GNN. Propagators and pooling matrices are the molecule's constants."""
    node = gnn_forward(params.encoders[0], data.atom_propagator(), data.atom_features)
    group = gnn_forward(
        params.encoders[1], data.group_propagator, ad.matmul(data.atoms_to_groups, node)
    )
    graph = gnn_forward(
        params.encoders[2], data.molecule_propagator, ad.matmul(data.groups_to_molecule, group)
    )
    return TieredEmbeddings(node, group, graph, data)


def reparameterize(mean: Tensor, std: Tensor, noise: np.ndarray) -> Tensor:
    """Sample mean + std * noise with gradients through mean and std."""
    if noise.shape != mean.shape:
        raise ad.ShapeError(f"noise shape {noise.shape} does not match {mean.shape}")
    return ad.add(mean, ad.mul(std, ad.constant(noise)))


def encode_tiered_variational(
    params: TieredVgaeParams, data: MoleculeData, noise: NoiseSource
) -> tuple[TieredEmbeddings, list[TierStats]]:
    """Variational encoding. Pooling consumes posterior means, so only the
    sampled embeddings (fed to the decoder) depend on the noise; with zero
    noise every sample equals its mean."""
    stats: list[TierStats] = []
    samples: list[Tensor] = []
    propagators = (data.atom_propagator(), data.group_propagator, data.molecule_propagator)
    pools = (data.atoms_to_groups, data.groups_to_molecule)
    features = data.atom_features
    for tier, stack in enumerate(params.encoders):
        mean, std = gnn_forward_variational(stack, propagators[tier], features)
        stats.append(TierStats(mean, std))
        samples.append(reparameterize(mean, std, noise(mean.shape)))
        if tier < 2:
            features = ad.matmul(pools[tier], mean)
    return TieredEmbeddings(samples[0], samples[1], samples[2], data), stats


# ---------------------------------------------------------------------------
# Decoding and losses


def _broadcast_embeddings(embeddings: TieredEmbeddings) -> Tensor:
    """Concatenate node rows with group and molecule rows broadcast down to
    the atoms through the membership matrices."""
    data = embeddings.data
    group_rows = ad.matmul(data.groups_to_atoms, embeddings.group)
    graph_rows = ad.matmul(data.molecule_to_atoms, embeddings.graph)
    return ad.hstack([embeddings.node, group_rows, graph_rows])


def decode(params, embeddings: TieredEmbeddings) -> tuple[Tensor, Tensor]:
    """Reconstruct (edge probabilities, node features).

    Edge probabilities are sigmoid(Z Theta Z^T) over the tier-concatenated
    rows; the diagonal carries no information and is ignored by the loss.
    """
    combined = _broadcast_embeddings(embeddings)
    logits = ad.matmul(ad.matmul(combined, params.pair_decoder), ad.transpose(combined))
    return ad.sigmoid(logits), ad.matmul(combined, params.feature_decoder)


def decode_with_graph_vector(
    params, embeddings: TieredEmbeddings, graph_vector: np.ndarray
) -> np.ndarray:
    """Edge probabilities with the molecule-tier rows replaced by a fixed
    vector: the frame for inspecting points along a latent interpolation."""
    vector = np.asarray(graph_vector, dtype=np.float64).reshape(1, -1)
    if vector.shape[1] != embeddings.graph.shape[1]:
        raise ad.ShapeError(
            f"graph vector has width {vector.shape[1]}, expected {embeddings.graph.shape[1]}"
        )
    data = embeddings.data
    with ad.no_grad():
        group_rows = ad.matmul(data.groups_to_atoms, embeddings.group)
        graph_rows = ad.constant(np.repeat(vector, data.num_atoms, axis=0))
        combined = ad.hstack([embeddings.node, group_rows, graph_rows])
        logits = ad.matmul(ad.matmul(combined, params.pair_decoder), ad.transpose(combined))
        return ad.sigmoid(logits).values


def reconstruction_loss(
    edge_probs: Tensor,
    feature_recon: Tensor,
    adjacency: np.ndarray,
    features: np.ndarray,
    feature_weight: float = 0.1,
) -> Tensor:
    """Weighted edge BCE plus scaled feature MSE.

    The BCE averages over unordered off-diagonal pairs with each true edge
    weighted by (#non-edges / #edges), normalized by total weight, so an
    all-0.5 prediction scores exactly ln 2. The feature term is a plain mean
    squared error over the whole feature matrix, scaled by
    ``feature_weight``.
    """
    n = adjacency.shape[0]
    if edge_probs.shape != (n, n):
        raise ad.ShapeError(f"edge probabilities are {edge_probs.shape}, expected {(n, n)}")
    if feature_recon.shape != features.shape:
        raise ad.ShapeError(
            f"feature reconstruction is {feature_recon.shape}, expected {features.shape}"
        )

    upper = np.triu(np.ones((n, n)), k=1)
    positives = float((adjacency * upper).sum())
    negatives = float(upper.sum() - positives)
    pos_weight = negatives / positives if positives > 0 else 1.0
    pair_weights = upper * (1.0 + (pos_weight - 1.0) * adjacency)
    total_weight = float(pair_weights.sum())

    if total_weight > 0:
        target = ad.constant(adjacency)
        complement = ad.constant(1.0 - adjacency)
        log_p = ad.log(edge_probs)
        log_not_p = ad.log(ad.shift(ad.scale(edge_probs, -1.0), 1.0))
        per_pair = ad.scale(
            ad.add(ad.mul(target, log_p), ad.mul(complement, log_not_p)), -1.0
        )
        edge_term = ad.scale(
            ad.reduce_sum(ad.mul(ad.constant(pair_weights), per_pair)), 1.0 / total_weight
        )
    else:
        edge_term = ad.constant(0.0)

    difference = ad.sub(feature_recon, ad.constant(features))
    feature_term = ad.reduce_mean(ad.mul(difference, difference))
    return ad.add(edge_term, ad.scale(feature_term, float(feature_weight)))


def kl_standard_normal(mean: Tensor, std: Tensor) -> Tensor:
    """KL(N(mean, std^2) || N(0, 1)) summed over all entries:
    1/2 * sum(mean^2 + std^2 - 1 - ln std^2)."""
    if mean.shape != std.shape:
        raise ad.ShapeError(f"mean {mean.shape} and std {std.shape} differ")
    variance = ad.mul(std, std)
    inside = ad.sub(ad.add(ad.mul(mean, mean), variance), ad.shift(ad.log(variance), 1.0))
    return ad.scale(ad.reduce_sum(inside), 0.5)


def gae_loss(params: TieredGaeParams, data: MoleculeData, feature_weight: float = 0.1) -> Tensor:
    """Full forward pass to the reconstruction loss of one molecule."""
    embeddings = encode_tiered(params, data)
    edge_probs, feature_recon = decode(params, embeddings)
    return reconstruction_loss(
        edge_probs, feature_recon, data.adjacency, data.features, feature_weight
    )


def vgae_losses(
    params: TieredVgaeParams,
    data: MoleculeData,
    noise: NoiseSource,
    feature_weight: float = 0.1,
) -> tuple[Tensor, Tensor]:
    """One-sample (reconstruction loss, total KL over tiers) for a molecule."""
    embeddings, stats = encode_tiered_variational(params, data, noise)
    edge_probs, feature_recon = decode(params, embeddings)
    recon = reconstruction_loss(
        edge_probs, feature_recon, data.adjacency, data.features, feature_weight
    )
    kl_total = kl_standard_normal(stats[0].mean, stats[0].std)
    for tier_stats in stats[1:]:
        kl_total = ad.add(kl_total, kl_standard_normal(tier_stats.mean, tier_stats.std))
    return recon, kl_total


def elbo(
    params: TieredVgaeParams,
    data: MoleculeData,
    noise: NoiseSource,
    beta: float = 1.0,
    feature_weight: float = 0.1,
) -> Tensor:
    """Single-sample evidence lower bound (to maximize):
    -reconstruction_loss - beta * KL."""
    recon, kl_total = vgae_losses(params, data, noise, feature_weight)
    return ad.scale(ad.add(recon, ad.scale(kl_total, float(beta))), -1.0)


# ---------------------------------------------------------------------------
# Latent-space utilities and metrics


def interpolate_latent(start: np.ndarray, end: np.ndarray, steps: int) -> list[np.ndarray]:
    """Evenly spaced points from start to end, endpoints included."""
    start = np.asarray(start, dtype=np.float64).reshape(-1)
    end = np.asarray(end, dtype=np.float64).reshape(-1)
    if start.shape != end.shape:
        raise ValueError(f"endpoint dims differ: {start.shape} vs {end.shape}")
    if steps < 2:
        raise ValueError(f"steps must be at least 2, got {steps}")
    return [
        (1.0 - alpha) * start + alpha * end
        for alpha in np.linspace(0.0, 1.0, steps)
    ]


def edge_auc(edge_probs: np.ndarray, adjacency: np.ndarray) -> float:
    """Ranking AUC of predicted edge probabilities on unordered pairs,
    computed by brute force over every (edge, non-edge) pair; ties count
    one half."""
    n = adjacency.shape[0]
    pos_scores = []
    neg_scores = []
    for i in range(n):
        for j in range(i + 1, n):
            if adjacency[i, j] > 0:
                pos_scores.append(edge_probs[i, j])
            else:
                neg_scores.append(edge_probs[i, j])
    if not pos_scores or not neg_scores:
        return 1.0
    wins = 0.0
    for p in pos_scores:
        for q in neg_scores:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos_scores) * len(neg_scores))


def mean_edge_auc(params, dataset: Sequence[MoleculeData]) -> float:
    """Mean per-molecule edge AUC; variational models decode their means."""
    if not dataset:
        raise ValueError("empty dataset")
    scores = []
    with ad.no_grad():
        for data in dataset:
            if isinstance(params, TieredVgaeParams):
                embeddings, _ = encode_tiered_variational(params, data, zero_noise)
            else:
                embeddings = encode_tiered(params, data)
            edge_probs, _ = decode(params, embeddings)
            scores.append(edge_auc(edge_probs.values, data.adjacency))
    return float(np.mean(scores))
