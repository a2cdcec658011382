"""Per-molecule constants: the cached encoder path against the per-call
reference, and what MoleculeData keeps.

The reference rebuilds every propagator with ``normalize_adjacency`` on raw
adjacencies and pools with ``diff_group_pool``, as each training step once
did. The cached path must reproduce it bit for bit, gradients included.
"""

import sys

import numpy as np
import pytest

import moltiers.autodiff as ad
from moltiers import gnn
from moltiers.gnn import gnn_forward, gnn_forward_variational, normalize_adjacency
from moltiers.models import (
    MoleculeData,
    TieredGaeParams,
    TieredVgaeParams,
    encode_tiered,
    encode_tiered_variational,
    gae_loss,
    kl_standard_normal,
    reconstruction_loss,
    reparameterize,
    vgae_losses,
    zero_noise,
)
from moltiers.pooling import diff_group_pool
from moltiers.train import TrainConfig, train_gae, train_vgae


@pytest.fixture(scope="module")
def corpus_data(corpus_graphs):
    return [MoleculeData.from_graph(graph) for graph in corpus_graphs]


def _propagator(adjacency):
    return ad.constant(normalize_adjacency(adjacency))


def reference_encode(params, data):
    node = gnn_forward(params.encoders[0], _propagator(data.adjacency), ad.constant(data.features))
    groups = diff_group_pool(data.adjacency, node, data.node_to_group)
    group = gnn_forward(params.encoders[1], _propagator(groups.adjacency), groups.features)
    molecule = diff_group_pool(groups.adjacency, group, data.group_to_graph)
    graph = gnn_forward(params.encoders[2], _propagator(molecule.adjacency), molecule.features)
    return node, group, graph


def reference_encode_variational(params, data):
    """Zero-noise variational encoding: (samples, means, stds) per tier, in
    the tape order of the encoder (sampling before pooling)."""
    adjacency, features = data.adjacency, ad.constant(data.features)
    memberships = (data.node_to_group, data.group_to_graph)
    samples, means, stds = [], [], []
    for tier, stack in enumerate(params.encoders):
        mean, std = gnn_forward_variational(stack, _propagator(adjacency), features)
        means.append(mean)
        stds.append(std)
        samples.append(reparameterize(mean, std, zero_noise(mean.shape)))
        if tier < 2:
            coarse = diff_group_pool(adjacency, mean, memberships[tier])
            adjacency, features = coarse.adjacency, coarse.features
    return samples, means, stds


def reference_loss(params, data, node, group, graph):
    group_rows = ad.matmul(ad.constant(data.node_to_group), group)
    graph_rows = ad.matmul(ad.constant(np.ones((data.num_atoms, 1))), graph)
    combined = ad.hstack([node, group_rows, graph_rows])
    logits = ad.matmul(ad.matmul(combined, params.pair_decoder), ad.transpose(combined))
    feature_recon = ad.matmul(combined, params.feature_decoder)
    return reconstruction_loss(ad.sigmoid(logits), feature_recon, data.adjacency, data.features)


def reference_kl(means, stds):
    total = kl_standard_normal(means[0], stds[0])
    for mean, std in zip(means[1:], stds[1:]):
        total = ad.add(total, kl_standard_normal(mean, std))
    return total


def gradients(params, loss):
    for tensor in params.trainable():
        tensor.grad = None
    ad.backward(loss)
    grads = [tensor.grad for tensor in params.trainable()]
    for tensor in params.trainable():
        tensor.grad = None
    return grads


def assert_same_arrays(first, second):
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def _written_out(adjacency):
    with_loops = adjacency + np.eye(adjacency.shape[0])
    inv_sqrt_degree = 1.0 / np.sqrt(with_loops.sum(axis=1))
    return inv_sqrt_degree[:, None] * with_loops * inv_sqrt_degree[None, :]


def test_propagators_are_the_written_out_formula(corpus_data):
    # pins normalize_adjacency, which the references below use, to
    # D^-1/2 (A + I) D^-1/2 in one fixed order of operations, so that a
    # change shared by the cached and reference paths cannot pass unseen
    for data in corpus_data:
        groups = data.node_to_group.T @ data.adjacency @ data.node_to_group
        molecule = data.group_to_graph.T @ groups @ data.group_to_graph
        for adjacency, cached in (
            (data.adjacency, data.atom_propagator()),
            (groups, data.group_propagator),
            (molecule, data.molecule_propagator),
        ):
            assert np.array_equal(normalize_adjacency(adjacency), _written_out(adjacency))
            assert np.array_equal(cached.values, _written_out(adjacency))


def test_cached_gae_path_is_bit_identical_to_per_call_reference(corpus_data):
    params = TieredGaeParams.init(np.random.default_rng(3))
    for data in corpus_data:
        with ad.no_grad():
            cached = encode_tiered(params, data)
            expected = reference_encode(params, data)
        assert_same_arrays(
            [cached.node.values, cached.group.values, cached.graph.values],
            [tensor.values for tensor in expected],
        )

        reference = reference_loss(params, data, *reference_encode(params, data))
        reference_value = reference.values.copy()
        reference_grads = gradients(params, reference)
        loss = gae_loss(params, data)
        assert np.array_equal(loss.values, reference_value), data.name
        assert_same_arrays(gradients(params, loss), reference_grads)


def test_cached_vgae_path_is_bit_identical_to_per_call_reference(corpus_data):
    params = TieredVgaeParams.init(np.random.default_rng(4))
    for data in corpus_data:
        with ad.no_grad():
            cached, stats = encode_tiered_variational(params, data, zero_noise)
            samples, means, stds = reference_encode_variational(params, data)
        assert_same_arrays(
            [cached.node.values, cached.group.values, cached.graph.values],
            [sample.values for sample in samples],
        )
        assert_same_arrays([s.mean.values for s in stats], [m.values for m in means])
        assert_same_arrays([s.std.values for s in stats], [s.values for s in stds])

        samples, means, stds = reference_encode_variational(params, data)
        recon = reference_loss(params, data, *samples)
        kl = reference_kl(means, stds)
        reference_values = (recon.values.copy(), kl.values.copy())
        reference_grads = gradients(params, ad.add(recon, kl))
        recon, kl = vgae_losses(params, data, zero_noise)
        assert np.array_equal(recon.values, reference_values[0]), data.name
        assert np.array_equal(kl.values, reference_values[1]), data.name
        assert_same_arrays(gradients(params, ad.add(recon, kl)), reference_grads)


def _count_calls(monkeypatch, function):
    """Count calls to ``function`` through every moltiers module binding."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("moltiers") and getattr(module, function.__name__, None) is function:
            monkeypatch.setattr(module, function.__name__, counting)
    return calls


@pytest.mark.parametrize("train", [train_gae, train_vgae])
def test_training_steps_neither_normalize_nor_validate(monkeypatch, corpus_data, train):
    counts = {}
    for epochs in (1, 5):
        with monkeypatch.context() as patch:
            normalize = _count_calls(patch, gnn.normalize_adjacency)
            validate = _count_calls(patch, gnn.degree_scale)
            train(corpus_data[:4], TrainConfig(dims=(4, 4, 4), depth=2, epochs=epochs))
        counts[epochs] = (len(normalize), len(validate))
    assert counts[1] == counts[5]


def test_molecule_data_keeps_no_square_array_besides_adjacency(corpus_data):
    for data in corpus_data:
        square = (data.num_atoms, data.num_atoms)
        assert data.features.shape != square  # else the check below is ambiguous
        for name, value in vars(data).items():
            values = value.values if isinstance(value, ad.Tensor) else value
            if isinstance(values, np.ndarray) and name != "adjacency":
                assert values.shape != square, (data.name, name)
