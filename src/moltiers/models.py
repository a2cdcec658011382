"""Tiered graph autoencoders: encoders, decoder, losses and metrics.

The encoder alternates graph convolutions with membership pooling across
three tiers, yielding per-atom, per-group and whole-molecule embeddings.
The decoder broadcasts group and molecule embeddings back to the atoms,
concatenates all three tiers and reconstructs adjacency through a bilinear
product (kept symmetric) plus node features through a linear head. The
variational flavor predicts a mean and std per tier, pools means so coarse
tiers see deterministic inputs, and samples with reparameterized noise in
training; inference reads the means. A molecule's constants hold its bonds,
not an n x n adjacency, and a training step writes its n x n arrays into the
run's :class:`moltiers.autodiff.Workspace`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, ClassVar, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, _tri, kl_standard_normal
from .gnn import GnnStack, gnn_forward, gnn_forward_variational, normalize_adjacency
from .grouping import build_membership, graph_membership, partition
from .molgraph import NODE_FEATURE_DIM, MolecularGraph, featurize_nodes
from .pooling import coarse_adjacency, pool_rows

NoiseSource = Callable[[tuple[int, int]], np.ndarray]


def zero_noise(shape: tuple[int, int]) -> np.ndarray:
    return np.zeros(shape)


def gaussian_noise(rng: np.random.Generator) -> NoiseSource:
    return lambda shape: rng.standard_normal(shape)


class MoleculeData:
    """Everything the models need for one molecule, computed once from its
    graph, the constructor's only argument.

    Besides the graph and its partition this holds, each once, every
    constant the encoder, decoder and loss read: the (2, U) bond index
    ``ends``, each bond's lower atom first, the features, the two memberships
    the encoder pools through, the atom degree scale, the group propagator,
    the broadcast column and the loss's edge weights. No n x n array is kept:
    the loss, evaluation and :meth:`atom_propagator` read the bonds.
    """

    def __init__(self, graph: MolecularGraph):
        self.graph = graph
        self.group_set = partition(graph)
        self.ends = np.sort(graph._bond_ends(), axis=0)
        self.features = featurize_nodes(graph, self.ends)
        self.node_to_group = build_membership(self.group_set, graph.num_atoms)
        self.group_to_graph = graph_membership(len(self.group_set))
        # The row sums of A + I are small integers, exact in any summation order.
        self.atom_scale = 1.0 / np.sqrt(np.bincount(self.ends.ravel(), minlength=graph.num_atoms) + 1)
        adjacency = np.zeros((self.num_atoms, self.num_atoms))  # for the group tier only
        adjacency[self.ends, self.ends[::-1]] = 1.0
        group_adjacency = coarse_adjacency(adjacency, self.node_to_group)
        self.group_propagator = ad.wrap(normalize_adjacency(group_adjacency))
        self.molecule_to_atoms = np.ones((self.num_atoms, 1))

    @classmethod
    def from_graph(cls, graph: MolecularGraph) -> "MoleculeData":
        return cls(graph)

    @cached_property
    def edge_weights(self) -> tuple[float, float]:
        """:func:`edge_loss_weights`, on first use: embedding has no loss."""
        return edge_loss_weights(self.ends, self.num_atoms)

    def atom_propagator(self) -> Tensor:
        """The atom tier's normalized adjacency, rebuilt on every call from
        the bonds and degree scale, in a training run's workspace while it records.

        Kept for every molecule of a dataset, this n x n array would make
        memory grow with the square of molecule size (see the README).
        """
        square = ad.scratch("atom propagator", (self.num_atoms, self.num_atoms))
        return ad.wrap(_scatter_propagator(square, *self.ends, self.atom_scale))

    @property
    def name(self) -> str:
        return self.graph.name

    @property
    def num_atoms(self) -> int:
        return self.graph.num_atoms

    @property
    def num_groups(self) -> int:
        return len(self.group_set)


def _scatter_propagator(propagator: np.ndarray, rows, cols, scale: np.ndarray, index=()) -> np.ndarray:
    """scale (A + I) scale's bits over ``propagator``: zeros, s_i s_j at each bond (i, j) both
    ways and s_i^2 on the diagonal; ``index`` leads the bonds into a (B, n, n) stack."""
    propagator.fill(0.0)
    values = scale[(*index, rows)] * scale[(*index, cols)]
    propagator[(*index, rows, cols)] = propagator[(*index, cols, rows)] = values
    propagator.reshape(*propagator.shape[:-2], -1)[..., :: propagator.shape[-1] + 1] = scale * scale
    return propagator


class _MoleculeBatch:
    """Molecules zero-padded to the most atoms and groups among them and
    stacked: :class:`MoleculeData`'s attributes with a leading batch axis, the
    atom propagator scattered from every member's bonds at once. Padded rows
    have zero features, propagator rows and membership, so they stay exactly
    0 in every tier. Inference only: a stack pools with ``np.matmul``."""

    def __init__(self, molecules: Sequence[MoleculeData]):
        atoms = np.array([data.num_atoms for data in molecules])
        groups = np.array([data.num_groups for data in molecules])
        size, n, g = len(molecules), atoms.max(), groups.max()
        group_tier, atom_scale = np.zeros((size, g, g)), np.zeros((size, n))
        self.features = np.zeros((size, n, molecules[0].features.shape[1]))
        self.node_to_group = np.zeros((size, n, g))
        for k, data in enumerate(molecules):
            atom_scale[k, : atoms[k]] = data.atom_scale
            self.features[k, : atoms[k]] = data.features
            group_tier[k, : groups[k], : groups[k]] = data.group_propagator.values
            self.node_to_group[k, : atoms[k], : groups[k]] = data.node_to_group
        rows, cols = np.concatenate([data.ends for data in molecules], axis=1)
        bonds = [data.ends.shape[1] for data in molecules]
        member = np.repeat(np.arange(size), bonds)
        square = _scatter_propagator(np.empty((size, n, n)), rows, cols, atom_scale, (member,))
        # For evaluation: the stacked bond index, and each member's (pair
        # count, first bond, past its last bond) in it.
        self.bonds = (member, rows, cols)
        self.spans = [(a * (a - 1) // 2, stop - u, stop)
                      for a, u, stop in zip(atoms.tolist(), bonds, np.cumsum(bonds).tolist())]
        self._atom_propagator = ad.wrap(square)
        self.group_propagator = ad.wrap(group_tier)
        self.group_to_graph = (np.arange(g)[:, None] < groups[:, None, None]).astype(np.float64)
        self.molecule_to_atoms = (np.arange(n)[:, None] < atoms[:, None, None]).astype(np.float64)

    def atom_propagator(self) -> Tensor:
        return self._atom_propagator


@dataclass
class TieredEmbeddings:
    """Per-tier embeddings of one molecule: node rows, group rows and a
    single molecule row."""

    node: Tensor
    group: Tensor
    graph: Tensor
    data: MoleculeData


def param_spec(
    variational: bool, dims: Sequence[int], depth: int
) -> list[tuple[str, tuple[int, int]]]:
    """Format-v1 weight names and shapes, in the order init draws them,
    which is also the order of ``trainable()`` and so the layout of the
    optimizer's flat vector. Per tier t: depth - 1 relu layers, then one
    linear layer (GAE, ``tier{t}.layer{k}``) or, after ``tier{t}.trunk{k}``,
    the ``tier{t}.mean`` and ``tier{t}.log_std`` heads (VGAE); then
    ``decoder.pair`` and ``decoder.feature``. The atom tier reads and the
    feature decoder writes ``NODE_FEATURE_DIM`` node features."""
    dims = tuple(dims)
    if len(dims) != 3 or min(dims) < 1:
        raise ValueError(f"dims must be three positive integers, got {dims}")
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    trunk = "trunk" if variational else "layer"
    heads = ("mean", "log_std") if variational else (f"layer{depth - 1}",)
    spec = []
    for tier, (d_in, d_out) in enumerate(zip((NODE_FEATURE_DIM, *dims[:2]), dims), start=1):
        fan_in = [d_in] + [d_out] * (depth - 1)
        spec += [(f"tier{tier}.{trunk}{k}", (fan_in[k], d_out)) for k in range(depth - 1)]
        spec += [(f"tier{tier}.{head}", (fan_in[-1], d_out)) for head in heads]
    total = sum(dims)
    return spec + [("decoder.pair", (total, total)), ("decoder.feature", (total, NODE_FEATURE_DIM))]


@dataclass
class TieredParams:
    """Three encoder stacks plus the two decoder heads; ``variational``
    picks what ends each stack (see :func:`param_spec`).

    ``pair_decoder`` is the bilinear matrix for edge logits; it is
    initialized symmetric and training re-symmetrizes it after every step.
    ``feature_decoder`` maps concatenated embeddings back to node features.
    """

    encoders: tuple[GnnStack, GnnStack, GnnStack]
    pair_decoder: Tensor
    feature_decoder: Tensor
    dims: tuple[int, int, int]
    depth: int
    variational: ClassVar[bool]

    @classmethod
    def init(
        cls, rng: np.random.Generator, dims: Sequence[int] = (16, 16, 16), depth: int = 3
    ) -> "TieredParams":
        """Glorot-uniform weights drawn in spec order; the pair decoder
        starts as the symmetric part of its draw."""
        dims = tuple(int(d) for d in dims)
        spec = param_spec(cls.variational, dims, depth)
        weights = {name: ad.glorot_uniform(rng, *shape) for name, shape in spec}
        pair = weights["decoder.pair"]
        weights["decoder.pair"] = (pair + pair.T) / 2.0
        return cls.from_weights({name: ad.parameter(w) for name, w in weights.items()}, dims, depth)

    @classmethod
    def from_weights(
        cls, weights: dict[str, Tensor], dims: tuple[int, int, int], depth: int
    ) -> "TieredParams":
        """Params over ``weights`` keyed by spec name."""
        spec = param_spec(cls.variational, dims, depth)
        tensors = [weights[name] for name, _ in spec]
        per_tier = (len(tensors) - 2) // 3
        encoders = tuple(
            GnnStack(
                tensors[start : start + depth - 1], tensors[start + depth - 1 : start + per_tier]
            )
            for start in range(0, 3 * per_tier, per_tier)
        )
        return cls(encoders, tensors[-2], tensors[-1], dims, depth)

    def trainable(self) -> list[Tensor]:
        """Every weight in spec order."""
        weights = [weight for stack in self.encoders for weight in stack.weights()]
        return weights + [self.pair_decoder, self.feature_decoder]

    def named_weights(self) -> dict[str, Tensor]:
        spec = param_spec(self.variational, self.dims, self.depth)
        return dict(zip((name for name, _ in spec), self.trainable()))

    def symmetrize_pair_decoder(self) -> None:
        """In place, so the decoder stays a view of the optimizer's vector."""
        values = self.pair_decoder.values
        values[...] = (values + values.T) * 0.5  # exactly / 2.0


class TieredGaeParams(TieredParams):
    """Deterministic model: each tier ends in one linear layer."""

    variational = False


class TieredVgaeParams(TieredParams):
    """Variational model: each tier ends in linear mean and log-std heads."""

    variational = True


# ---------------------------------------------------------------------------
# Encoding

def _encode(params, data: MoleculeData, noise: NoiseSource | None):
    """GNN, pool to groups, GNN, pool to the molecule, GNN, over the constants
    of a molecule or a padded batch. A VGAE tier gives (mean, std) and its
    mean is pooled; its embedding is a reparameterized sample with ``noise``,
    else the mean. Returns the embeddings and the per-tier (mean, std) pairs,
    if any."""
    if noise is not None and not params.variational:
        raise ValueError("a deterministic model draws no noise")
    # gnn_forward and gnn_forward_variational are read from this module's
    # globals on every call, where perfbench's tracer rebinds them.
    # The molecule tier, one node, has the propagator (0 + 1) / sqrt(1 * 1) = 1: it runs with none.
    propagators = (data.atom_propagator(), data.group_propagator, None)
    features = ad.wrap(data.features)
    embeddings, stats = [], []
    for tier, stack in enumerate(params.encoders):
        if not params.variational:
            pooled = embedding = gnn_forward(stack, propagators[tier], features)
        else:
            pooled, std = gnn_forward_variational(stack, propagators[tier], features)
            stats.append((pooled, std))
            embedding = ad.reparameterize(pooled, std, noise(pooled.shape)) if noise else pooled
        embeddings.append(embedding)
        if tier < 2:
            features = pool_rows((data.node_to_group, data.group_to_graph)[tier], pooled)
    return TieredEmbeddings(*embeddings, data), stats


def encode_tiered(params: TieredParams, data: MoleculeData) -> TieredEmbeddings:
    """Deterministic embeddings of a molecule (see :func:`_encode`): the GAE's
    tiers, or each VGAE tier's posterior mean."""
    return _encode(params, data, None)[0]


def encode_tiered_variational(
    params: TieredVgaeParams, data: MoleculeData, noise: NoiseSource
) -> tuple[TieredEmbeddings, list[tuple[Tensor, Tensor]]]:
    """Variational encoding: the sampled embeddings and each tier's
    (mean, std). Pooling consumes posterior means, so only the samples (fed
    to the decoder) depend on the noise; with zero noise every sample is
    its mean + 0.0."""
    return _encode(params, data, noise)


# ---------------------------------------------------------------------------
# Decoding and losses


def decode(params, embeddings: TieredEmbeddings) -> tuple[Tensor, Tensor]:
    """Reconstruct (edge probabilities, node features) from the node rows and
    the group and molecule rows broadcast down to the atoms. Edge
    probabilities are sigmoid(Z Theta Z^T) over the tier-concatenated rows;
    the diagonal carries no information and is ignored by the loss."""
    emb, data = embeddings, embeddings.data
    return ad.tiered_decode(
        emb.node, emb.group, emb.graph, data.node_to_group, data.molecule_to_atoms,
        params.pair_decoder, params.feature_decoder,
    )


def edge_loss_weights(ends: np.ndarray, n: int) -> tuple[float, float]:
    """(pos_weight, total_weight) of the edge loss over the pairs i < j of n
    atoms with the (2, U) bonds ``ends``, each (i, j) with i < j: a bond
    weighs #non-bonds / #bonds (1 without bonds), a non-bond 1."""
    positives = ends.shape[1]
    negatives = n * (n - 1) // 2 - positives
    pos_weight = negatives / positives if positives > 0 else 1.0
    pair_weights = np.ones((n, n))
    pair_weights[ends[0], ends[1]] = (pos_weight - 1.0) + 1.0  # a dense 0/1 target's bits
    np.copyto(pair_weights, 0.0, where=_tri(n, 0))
    return pos_weight, float(pair_weights.sum())


def reconstruction_loss(
    edge_probs: Tensor,
    feature_recon: Tensor,
    ends: np.ndarray,
    features: np.ndarray,
    feature_weight: float = 0.1,
    edge_weights: tuple[float, float] | None = None,
) -> Tensor:
    """Weighted edge BCE over the bonds ``ends``, as ``MoleculeData`` keeps them, plus scaled feature MSE.

    The BCE averages over unordered off-diagonal pairs with each true edge
    weighted by (#non-edges / #edges), normalized by total weight, so an
    all-0.5 prediction scores exactly ln 2. The feature term is a plain mean
    squared error over the whole feature matrix, scaled by
    ``feature_weight``. ``edge_weights`` are :func:`edge_loss_weights` of
    the bonds, computed here when not given.
    """
    n = features.shape[0]
    if edge_probs.shape != (n, n):
        raise ValueError(f"edge probabilities are {edge_probs.shape}, expected {(n, n)}")
    if feature_recon.shape != features.shape:
        raise ValueError(
            f"feature reconstruction is {feature_recon.shape}, expected {features.shape}"
        )

    pos_weight, total_weight = edge_weights or edge_loss_weights(ends, n)
    return ad.edge_feature_loss(
        edge_probs, feature_recon, ends, pos_weight, total_weight, features, feature_weight
    )


def gae_loss(params: TieredGaeParams, data: MoleculeData, feature_weight: float = 0.1) -> Tensor:
    """Full forward pass to the reconstruction loss of one molecule."""
    embeddings = encode_tiered(params, data)
    edge_probs, feature_recon = decode(params, embeddings)
    return reconstruction_loss(
        edge_probs, feature_recon, data.ends, data.features, feature_weight, data.edge_weights
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
        edge_probs, feature_recon, data.ends, data.features, feature_weight, data.edge_weights
    )
    kl_total = kl_standard_normal(*stats[0])
    for tier_stats in stats[1:]:
        kl_total = ad.add(kl_total, kl_standard_normal(*tier_stats))
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


def _pairs(matrix: np.ndarray) -> np.ndarray:
    """Entries i < j of a square matrix, or of each in a stack, by j then i:
    a molecule's pairs are the first n(n-1)/2 of its zero-padded slice's."""
    return matrix.swapaxes(-1, -2)[..., _tri(matrix.shape[-1], -1)]


def edge_auc(edge_probs: np.ndarray, ends: np.ndarray) -> float:
    """:func:`_rank_auc` of edge probabilities over the pairs i < j, the
    bonds ``ends`` (each (i, j) with i < j) against the rest. The pairs are
    taken by i and then j: a contiguous gather, faster than :func:`_pairs`'
    strided one at the sizes that run alone."""
    pair_scores = edge_probs[_tri(edge_probs.shape[0], 0, True)]  # i < j
    return _rank_auc(pair_scores, edge_probs[ends[0], ends[1]])


def _rank_auc(pair_scores: np.ndarray, bond_scores: np.ndarray) -> float:
    """Share of (bond, non-bond) pairs whose bond scores higher, ties counting
    one half; 1.0 without both. ``pair_scores`` holds every pair's score, the
    bonds' among them, and is sorted in place. Exact, and blind to the
    scores' order: a bond's left and right insertion points among all pairs
    count the non-bonds below it and not above it twice, plus its fellow
    bonds, which add U^2 over the U bonds, so the win count is half the
    summed points less U^2. NaNs sort last, so one test finds any."""
    pair_scores.sort()
    if pair_scores.size and np.isnan(pair_scores[-1]):
        raise ValueError("edge probabilities contain NaN")
    bonds, non_bonds = bond_scores.size, pair_scores.size - bond_scores.size
    if not bonds or not non_bonds:
        return 1.0
    counts = pair_scores.searchsorted(bond_scores, "left")
    counts += pair_scores.searchsorted(bond_scores, "right")
    return float((counts.sum() - bonds * bonds) / 2 / (bonds * non_bonds))


_EVAL_BATCH_CELLS = 16_384  # padded cells B * n_max**2 of one evaluation batch, at most


def _size_buckets(dataset: Sequence[MoleculeData]) -> list[list[int]]:
    """Dataset indices by atom count, cut where a run's B * n_max**2 would
    pass _EVAL_BATCH_CELLS; a molecule over it on its own is a run of one."""
    buckets: list[list[int]] = []
    for index in sorted(range(len(dataset)), key=lambda i: dataset[i].num_atoms):
        n = dataset[index].num_atoms
        if not buckets or (len(buckets[-1]) + 1) * n * n > _EVAL_BATCH_CELLS:
            buckets.append([])
        buckets[-1].append(index)
    return buckets


def mean_edge_auc(params, dataset: Sequence[MoleculeData]) -> float:
    """Mean per-molecule edge AUC; variational models decode their means.
    A size bucket of two or more runs as one padded batch, each member scored
    on the prefix of its row of one :func:`_pairs` gather and its slice of one
    bond gather. A NaN probability raises for the first such molecule in
    dataset order."""
    if not dataset:
        raise ValueError("empty dataset")
    scores, failures = np.empty(len(dataset)), {}
    with ad.no_grad():
        for bucket in _size_buckets(dataset):
            members = [dataset[index] for index in bucket]
            batch = members[0] if len(bucket) == 1 else _MoleculeBatch(members)
            edge_probs = decode(params, encode_tiered(params, batch))[0].values
            if len(bucket) == 1:
                calls = [(edge_auc, edge_probs, batch.ends)]
            else:
                pairs, bond_scores = _pairs(edge_probs), edge_probs[batch.bonds]
                calls = [(_rank_auc, row[:count], bond_scores[start:stop])
                         for row, (count, start, stop) in zip(pairs, batch.spans)]
            for index, (score, *args) in zip(bucket, calls):
                try:
                    scores[index] = score(*args)
                except ValueError as err:
                    failures[index] = err
    if failures:
        first, err = min(failures.items())
        raise ValueError(f"molecule {dataset[first].name!r}: {err}") from err
    return float(np.mean(scores))
