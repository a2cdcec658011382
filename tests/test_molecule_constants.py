"""Per-molecule constants: the cached encoder path against the per-call
reference, and what MoleculeData keeps.

The reference rebuilds the atom and group propagators with
``normalize_adjacency`` on raw adjacencies, runs the molecule tier, a graph
of one node, over the unit propagator [[1.0]], pools with the membership
algebra written out (M^T A M and M^T Z, not ``moltiers.pooling``, which the
encoder runs) and computes the loss with the primitive op chain, as each
training step once did. The
cached path and the fused edge loss must reproduce it bit for bit,
gradients included.
"""

import sys

import numpy as np
import pytest
from chain_oracle import assert_same_bits, hstack, sigmoid, transpose
from loss_oracle import chain_reconstruction_loss
from read_path_oracle import adjacency as graph_adjacency

import moltiers.autodiff as ad
from moltiers import gnn, models, pooling
from moltiers.gnn import gnn_forward, gnn_forward_variational, normalize_adjacency
from moltiers.models import (
    TieredGaeParams,
    TieredVgaeParams,
    encode_tiered,
    encode_tiered_variational,
    gae_loss,
    gaussian_noise,
    kl_standard_normal,
    mean_edge_auc,
    vgae_losses,
    zero_noise,
)
from moltiers.train import TrainConfig, train_gae, train_vgae


def _propagator(adjacency):
    return ad.constant(normalize_adjacency(adjacency))


UNIT = np.ones((1, 1))  # the molecule tier's propagator: one node, A + I = [[1]]


def _pooled(adjacency, rows, membership):
    """M^T A M and M^T Z, written out."""
    return membership.T @ adjacency @ membership, ad.matmul(ad.constant(membership.T), rows)


def reference_encode(params, data):
    adjacency = graph_adjacency(data.graph)
    node = gnn_forward(params.encoders[0], _propagator(adjacency), ad.constant(data.features))
    groups, group_rows = _pooled(adjacency, node, data.node_to_group)
    group = gnn_forward(params.encoders[1], _propagator(groups), group_rows)
    _, molecule_rows = _pooled(groups, group, data.group_to_graph)
    graph = gnn_forward(params.encoders[2], ad.constant(UNIT), molecule_rows)
    return node, group, graph


def reference_encode_variational(params, data):
    """Zero-noise variational encoding: (samples, means, stds) per tier, in
    the tape order of the encoder (sampling before pooling)."""
    adjacency, features = graph_adjacency(data.graph), ad.constant(data.features)
    memberships = (data.node_to_group, data.group_to_graph)
    samples, means, stds = [], [], []
    for tier, stack in enumerate(params.encoders):
        propagator = _propagator(adjacency) if tier < 2 else ad.constant(UNIT)
        mean, std = gnn_forward_variational(stack, propagator, features)
        means.append(mean)
        stds.append(std)
        samples.append(ad.reparameterize(mean, std, zero_noise(mean.shape)))
        if tier < 2:
            adjacency, features = _pooled(adjacency, mean, memberships[tier])
    return samples, means, stds


def reference_loss(params, data, node, group, graph):
    group_rows = ad.matmul(ad.constant(data.node_to_group), group)
    graph_rows = ad.matmul(ad.constant(np.ones((data.num_atoms, 1))), graph)
    combined = hstack([node, group_rows, graph_rows])
    logits = ad.matmul(ad.matmul(combined, params.pair_decoder), transpose(combined))
    feature_recon = ad.matmul(combined, params.feature_decoder)
    return chain_reconstruction_loss(
        sigmoid(logits), feature_recon, data.ends, data.features
    )


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
        assert_same_bits(a, b)


def _written_out(adjacency):
    with_loops = adjacency + np.eye(adjacency.shape[0])
    inv_sqrt_degree = 1.0 / np.sqrt(with_loops.sum(axis=1))
    return inv_sqrt_degree[:, None] * with_loops * inv_sqrt_degree[None, :]


def test_propagators_are_the_written_out_formula(monkeypatch, corpus_data):
    # pins normalize_adjacency, which the references below use, to
    # D^-1/2 (A + I) D^-1/2 in one fixed order of operations, so that a
    # change shared by the cached and reference paths cannot pass unseen;
    # the molecule tier runs with no propagator, which the references below
    # stand in for with exactly [[1.0]]
    calls = _record_calls(monkeypatch, gnn.gnn_forward)
    params = TieredGaeParams.init(np.random.default_rng(2))
    for data in corpus_data:
        atoms = graph_adjacency(data.graph)
        groups = data.node_to_group.T @ atoms @ data.node_to_group
        for adjacency, cached in (
            (atoms, data.atom_propagator()),
            (groups, data.group_propagator),
        ):
            assert_same_bits(normalize_adjacency(adjacency), _written_out(adjacency))
            assert_same_bits(cached.values, _written_out(adjacency))
        del calls[:]
        encode_tiered(params, data)
        assert calls[2][1] is None


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
        assert_same_bits(loss.values, reference_value, data.name)
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
        assert_same_arrays([mean.values for mean, _ in stats], [m.values for m in means])
        assert_same_arrays([std.values for _, std in stats], [s.values for s in stds])

        samples, means, stds = reference_encode_variational(params, data)
        recon = reference_loss(params, data, *samples)
        kl = reference_kl(means, stds)
        reference_values = (recon.values.copy(), kl.values.copy())
        reference_grads = gradients(params, ad.add(recon, kl))
        recon, kl = vgae_losses(params, data, zero_noise)
        assert_same_bits(recon.values, reference_values[0], data.name)
        assert_same_bits(kl.values, reference_values[1], data.name)
        assert_same_arrays(gradients(params, ad.add(recon, kl)), reference_grads)


@pytest.mark.parametrize("train", [train_gae, train_vgae])
def test_training_traces_match_the_primitive_chain_loss(monkeypatch, corpus_data, train):
    config = TrainConfig(epochs=3)
    params, trace = train(corpus_data, config)
    monkeypatch.setattr(models, "reconstruction_loss", chain_reconstruction_loss)
    chain_params, chain_trace = train(corpus_data, config)
    assert trace == chain_trace
    assert_same_arrays(
        [tensor.values for tensor in params.trainable()],
        [tensor.values for tensor in chain_params.trainable()],
    )


def _record_calls(monkeypatch, function):
    """Record the positional arguments of each call to ``function`` through
    every moltiers module binding."""
    calls = []

    def recording(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("moltiers") and getattr(module, function.__name__, None) is function:
            monkeypatch.setattr(module, function.__name__, recording)
    return calls


@pytest.mark.parametrize("train", [train_gae, train_vgae])
def test_training_steps_neither_normalize_nor_validate(monkeypatch, corpus_data, train):
    counts = {}
    for epochs in (1, 5):
        with monkeypatch.context() as patch:
            # normalize_adjacency is the one function that validates an adjacency
            normalize = _record_calls(patch, gnn.normalize_adjacency)
            train(corpus_data[:4], TrainConfig(dims=(4, 4, 4), depth=2, epochs=epochs))
        counts[epochs] = len(normalize)
    assert counts[1] == counts[5]


def test_molecule_data_keeps_no_square_array_besides_adjacency(corpus_data):
    for data in corpus_data:
        square = (data.num_atoms, data.num_atoms)
        assert data.features.shape != square  # else the check below is ambiguous
        for name, value in vars(data).items():
            values = value.values if isinstance(value, ad.Tensor) else value
            if isinstance(values, np.ndarray):
                assert values.shape != square, (data.name, name)


def test_steps_and_evaluation_leave_a_molecule_only_its_edge_weights(corpus_graphs):
    """A GAE step, a VGAE step and evaluation, in a padded batch and as a run
    of one, add the cached edge weights to a molecule and nothing else: no
    label or adjacency array of n^2 entries is kept."""
    rng = np.random.default_rng(8)
    gae, vgae = TieredGaeParams.init(rng), TieredVgaeParams.init(rng)
    built = set(vars(models.MoleculeData(corpus_graphs[0])))
    batched = [models.MoleculeData(graph) for graph in corpus_graphs[:4]]
    for dataset in (batched, [models.MoleculeData(corpus_graphs[5])]):
        for data in dataset:
            ad.backward(gae_loss(gae, data))
            ad.backward(ad.add(*vgae_losses(vgae, data, gaussian_noise(rng))))
        assert len(models._size_buckets(dataset)) == 1
        for params in (gae, vgae):
            mean_edge_auc(params, dataset)
        for data in dataset:
            assert set(vars(data)) == built | {"edge_weights"}, data.name


def test_molecule_data_keeps_each_array_once(monkeypatch, corpus_data):
    # the atom tier reads the molecule's own features, and no pooling matrix
    # is kept beside the memberships it would be the transpose of
    calls = _record_calls(monkeypatch, gnn.gnn_forward)
    params = TieredGaeParams.init(np.random.default_rng(5))
    for data in corpus_data:
        del calls[:]
        encode_tiered(params, data)
        _, _, features = calls[0]
        assert np.shares_memory(features.values, data.features), data.name
        if data.num_groups == 1:  # a 1 x 1 membership is its own transpose
            continue
        transposes = (data.node_to_group.T, data.group_to_graph.T)
        for name, value in vars(data).items():
            values = value.values if isinstance(value, ad.Tensor) else value
            if isinstance(values, np.ndarray):
                assert not any(np.array_equal(values, t) for t in transposes), (data.name, name)


def test_the_pipeline_pools_through_the_pooling_module(monkeypatch, corpus_data, corpus_graphs):
    # criterion 3 and tests/test_pooling.py check diff_group_pool, which is
    # exactly the two functions the encoder and from_graph call
    assert models.pool_rows is pooling.pool_rows
    assert models.coarse_adjacency is pooling.coarse_adjacency
    rows = _record_calls(monkeypatch, pooling.pool_rows)
    adjacencies = _record_calls(monkeypatch, pooling.coarse_adjacency)
    normalized = _record_calls(monkeypatch, gnn.normalize_adjacency)
    data = corpus_data[0]
    pooling.diff_group_pool(graph_adjacency(data.graph), ad.constant(data.features), data.node_to_group)
    assert (len(rows), len(adjacencies)) == (1, 1)

    del rows[:], adjacencies[:]
    models.MoleculeData.from_graph(corpus_graphs[0])
    # the group tier only: the molecule tier of one node has no adjacency
    assert len(adjacencies) == len(normalized) == 1 and not rows

    rng = np.random.default_rng(6)
    gae, vgae = TieredGaeParams.init(rng), TieredVgaeParams.init(rng)
    steps = (
        lambda: gae_loss(gae, data),
        lambda: ad.add(*vgae_losses(vgae, data, gaussian_noise(rng))),
    )
    for step in steps:
        del rows[:]
        ad.backward(step())
        assert [pooled.values.ndim for _, pooled in rows] == [2, 2]

    del rows[:]
    buckets = models._size_buckets(corpus_data)
    mean_edge_auc(gae, corpus_data)
    expected = [3 if len(bucket) > 1 else 2 for bucket in buckets for _ in range(2)]
    assert [pooled.values.ndim for _, pooled in rows] == expected


def test_atom_propagator_wraps_the_fresh_array_without_a_copy(monkeypatch, corpus_data):
    built = []
    scatter = models._scatter_propagator

    def recording(*args):
        built.append(scatter(*args))
        return built[-1]

    monkeypatch.setattr(models, "_scatter_propagator", recording)
    propagator = corpus_data[0].atom_propagator()
    assert propagator.values is built[0]
    assert not propagator.tracked
