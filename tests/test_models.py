"""Tiered autoencoder forward passes, losses and latent utilities.

Closed-form targets: an all-0.5 edge prediction costs exactly ln 2, the KL
of N(0,1) against the prior is 0, and a deterministic encoder is the
variational one with unit std and zero noise.
"""

from unittest import mock

import encode_oracle
import loss_oracle
import numpy as np
import pytest
from chain_oracle import assert_same_bits, reduce_sum
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from loss_oracle import bond_adjacency, bond_index, chain_reconstruction_loss
from test_read_path import ring_system_graphs

import moltiers.autodiff as ad
from moltiers import models
from moltiers.gnn import GnnStack
from moltiers.models import (
    MoleculeData,
    TieredEmbeddings,
    TieredGaeParams,
    TieredVgaeParams,
    decode,
    edge_auc,
    edge_loss_weights,
    elbo,
    encode_tiered,
    encode_tiered_variational,
    gae_loss,
    gaussian_noise,
    interpolate_latent,
    kl_standard_normal,
    mean_edge_auc,
    reconstruction_loss,
    vgae_losses,
    zero_noise,
)
from moltiers.molgraph import MolecularGraph
from moltiers.smiles import parse_smiles


@pytest.fixture
def vanillin_data(vanillin):
    return MoleculeData.from_graph(vanillin)


@pytest.fixture
def ethanol_data():
    return MoleculeData.from_graph(parse_smiles("CCO", name="ethanol"))


def small_params(dims=(3, 3, 3), depth=2, seed=0):
    return TieredGaeParams.init(np.random.default_rng(seed), dims, depth)


def test_molecule_data_bundles_everything(vanillin_data):
    d = vanillin_data
    assert d.num_atoms == 19
    assert d.num_groups == 4
    adjacency = bond_adjacency(d.ends, d.num_atoms)
    assert adjacency.shape == (19, 19)
    assert np.array_equal(adjacency, adjacency.T)
    assert set(np.unique(adjacency)) == {0.0, 1.0}
    assert d.features.shape == (19, 16)
    assert d.node_to_group.shape == (19, 4)
    assert d.group_to_graph.shape == (4, 1)
    assert d.name == "vanillin"


def test_param_init_shapes_and_counts():
    params = TieredGaeParams.init(np.random.default_rng(0))
    assert params.dims == (16, 16, 16)
    assert params.depth == 3
    assert params.pair_decoder.shape == (48, 48)
    assert params.feature_decoder.shape == (48, 16)
    # 3 stacks of 3 layers plus the two decoder heads
    assert len(params.trainable()) == 11

    vparams = TieredVgaeParams.init(np.random.default_rng(0))
    # per tier: 2 trunk layers, mean head, log-std head
    assert len(vparams.trainable()) == 14


def test_pair_decoder_starts_symmetric():
    for cls in (TieredGaeParams, TieredVgaeParams):
        params = cls.init(np.random.default_rng(3))
        values = params.pair_decoder.values
        assert np.array_equal(values, values.T)
        params.pair_decoder.values = np.arange(48.0 * 48).reshape(48, 48)
        params.symmetrize_pair_decoder()
        values = params.pair_decoder.values
        assert np.array_equal(values, values.T)


def test_dims_validation():
    rng = np.random.default_rng(0)
    for bad in ((4, 4), (4, 4, 4, 4), (4, 0, 4), (4, -1, 4)):
        with pytest.raises(ValueError, match="three positive integers"):
            TieredGaeParams.init(rng, bad)


def test_encode_tiered_shapes(vanillin_data):
    params = small_params(dims=(5, 4, 3))
    emb = encode_tiered(params, vanillin_data)
    assert emb.node.shape == (19, 5)
    assert emb.group.shape == (4, 4)
    assert emb.graph.shape == (1, 3)
    ad.backward(reduce_sum(emb.graph))


def test_single_group_molecule_encodes():
    data = MoleculeData.from_graph(parse_smiles("CC(=O)O", name="acetic"))
    assert data.num_groups == 1
    params = small_params()
    loss = gae_loss(params, data)
    assert loss.shape == (1, 1)
    assert np.isfinite(loss.values[0, 0])
    ad.backward(loss)


def test_decode_concatenates_tiers_through_memberships(ethanol_data):
    # identity feature decoder exposes the broadcast matrix directly
    n, g = ethanol_data.num_atoms, ethanol_data.num_groups
    node = ad.constant(np.full((n, 2), 1.0))
    group = ad.constant(np.arange(2.0 * g).reshape(g, 2) + 10.0)
    graph = ad.constant(np.array([[100.0, 200.0]]))
    emb = TieredEmbeddings(node, group, graph, ethanol_data)
    params = small_params(dims=(2, 2, 2))
    params.feature_decoder = ad.parameter(np.eye(6))
    _, recon = decode(params, emb)
    expected = np.hstack([
        np.full((n, 2), 1.0),
        ethanol_data.node_to_group @ group.values,
        np.repeat([[100.0, 200.0]], n, axis=0),
    ])
    assert np.allclose(recon.values, expected, atol=1e-12)


def test_zero_embeddings_decode_to_half(ethanol_data):
    n, g = ethanol_data.num_atoms, ethanol_data.num_groups
    emb = TieredEmbeddings(
        ad.constant(np.zeros((n, 2))),
        ad.constant(np.zeros((g, 2))),
        ad.constant(np.zeros((1, 2))),
        ethanol_data,
    )
    params = small_params(dims=(2, 2, 2))
    probs, _ = decode(params, emb)
    assert np.all(probs.values == 0.5)


def test_edge_probabilities_are_symmetric(vanillin_data):
    params = small_params(dims=(4, 4, 4), seed=8)
    probs, _ = decode(params, encode_tiered(params, vanillin_data))
    assert np.allclose(probs.values, probs.values.T, atol=1e-12)
    assert np.all(probs.values > 0)
    assert np.all(probs.values < 1)


def test_uninformative_prediction_costs_ln2(ethanol_data):
    n = ethanol_data.num_atoms
    probs = ad.constant(np.full((n, n), 0.5))
    recon = ad.constant(ethanol_data.features)
    loss = reconstruction_loss(probs, recon, ethanol_data.ends, ethanol_data.features)
    assert abs(loss.values[0, 0] - np.log(2.0)) < 1e-12


def test_reconstruction_loss_closed_form_three_node_path():
    # 2 edges, 1 non-edge: positive weight 1/2, so total weight 2
    A = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    X = np.zeros((3, 2))
    p = 0.8
    probs = ad.constant(np.full((3, 3), p))
    recon = ad.constant(np.full((3, 2), 0.5))
    loss = reconstruction_loss(probs, recon, bond_index(A), X, feature_weight=0.1)
    edge_term = (2 * 0.5 * -np.log(p) + 1.0 * -np.log(1 - p)) / 2.0
    feature_term = 0.1 * 0.25
    assert abs(loss.values[0, 0] - (edge_term + feature_term)) < 1e-12


def test_reconstruction_loss_shape_validation(ethanol_data):
    n = ethanol_data.num_atoms
    good_probs = ad.constant(np.full((n, n), 0.5))
    good_recon = ad.constant(ethanol_data.features)
    with pytest.raises(ValueError, match="edge probabilities are"):
        reconstruction_loss(
            ad.constant(np.full((n + 1, n + 1), 0.5)),
            good_recon,
            ethanol_data.ends,
            ethanol_data.features,
        )
    with pytest.raises(ValueError, match="feature reconstruction is"):
        reconstruction_loss(
            good_probs,
            ad.constant(np.zeros((n, 3))),
            ethanol_data.ends,
            ethanol_data.features,
        )


# floored (0, 1e-13, 1 - 1e-16, 1) and ordinary probabilities
EDGE_PROBABILITIES = (0.0, 1e-13, 0.3, 0.5, 1.0 - 1e-16, 1.0)


@st.composite
def loss_cases(draw):
    """A symmetric 0/1 adjacency and an unrelated probability matrix of the
    same size."""
    n = draw(st.integers(1, 40))
    bits = np.triu(draw(arrays(bool, (n, n))), k=1)
    adjacency = (bits | bits.T).astype(np.float64)
    probability = st.one_of(st.sampled_from(EDGE_PROBABILITIES), st.floats(0.0, 1.0))
    probs = draw(arrays(np.float64, (n, n), elements=probability))
    return probs, adjacency


def _loss_and_gradient(loss_fn, probs, adjacency):
    n = adjacency.shape[0]
    edge_probs = ad.parameter(probs)
    features = np.zeros((n, 2))
    loss = loss_fn(edge_probs, ad.constant(np.full((n, 2), 0.5)), bond_index(adjacency), features)
    value = loss.values.copy()
    if ad.tape_size():
        ad.backward(loss)
    return value, edge_probs.grad


def _extremes(n):
    return np.resize(np.array(EDGE_PROBABILITIES), (n, n))


@given(loss_cases())
@example((_extremes(1), np.zeros((1, 1))))
@example((_extremes(5), np.zeros((5, 5))))
@example((_extremes(5), np.ones((5, 5)) - np.eye(5)))
def test_reconstruction_loss_equals_primitive_chain(case):
    probs, adjacency = case
    value, grad = _loss_and_gradient(reconstruction_loss, probs, adjacency)
    expected_value, expected_grad = _loss_and_gradient(chain_reconstruction_loss, probs, adjacency)
    assert_same_bits(value, expected_value)
    if expected_grad is None:  # no pair carries weight: the chain's edge term is a constant
        assert_same_bits(grad, np.zeros_like(probs))  # and the loss gives an exact zero
    else:
        assert_same_bits(grad, expected_grad)


@st.composite
def zero_one_matrices(draw):
    """A 0/1 matrix, symmetric with a zero diagonal or arbitrary."""
    n = draw(st.integers(1, 40))
    bits = draw(arrays(bool, (n, n)))
    if draw(st.booleans()):
        bits = np.triu(bits, k=1)
        bits = bits | bits.T
    return bits.astype(np.float64)


@given(zero_one_matrices())
@example(np.zeros((1, 1)))
@example(np.zeros((2, 2)))
@example(np.ones((2, 2)) - np.eye(2))
@example(np.zeros((7, 7)))
@example(np.ones((7, 7)) - np.eye(7))
@example(np.ones((7, 7)))
def test_edge_loss_weights_match_the_reference_and_the_step_pair_weights(adjacency):
    """The two floats of the bonds i < j have the reference's bits on the
    whole matrix, which reads only those, and are the weights the loss hands
    to the fused op from a symmetric adjacency's bonds."""
    n = adjacency.shape[0]
    weights = edge_loss_weights(bond_index(adjacency), n)
    expected = loss_oracle.edge_loss_weights(adjacency)
    assert [type(w) for w in weights] == [float, float]
    assert [w.hex() for w in weights] == [w.hex() for w in expected]
    if not np.array_equal(adjacency, np.triu(adjacency, 1) + np.triu(adjacency, 1).T):
        return  # not the adjacency of a bond index
    with mock.patch.object(ad, "edge_feature_loss", wraps=ad.edge_feature_loss) as fused:
        with ad.no_grad():
            reconstruction_loss(
                ad.constant(np.full((n, n), 0.5)), ad.constant(np.zeros((n, 2))),
                bond_index(adjacency), np.zeros((n, 2)),
            )
    pos_weight, total_weight = fused.call_args.args[3:5]
    assert [pos_weight.hex(), total_weight.hex()] == [w.hex() for w in weights]


def test_the_pair_masks_are_np_tri_built_once_per_atom_count_and_read_only():
    for n in (1, 2, 7, 12):
        for k, invert in ((0, False), (-1, False), (0, True)):
            mask = models._tri(n, k, invert)
            expected = np.tri(n, k=k, dtype=bool)
            assert_same_bits(mask, ~expected if invert else expected)
            assert models._tri(n, k, invert) is mask
            with pytest.raises(ValueError, match="read-only"):
                mask[0, 0] = True
            with pytest.raises(ValueError, match="read-only"):
                mask |= True


def test_kl_closed_forms():
    zero = kl_standard_normal(ad.constant(np.zeros((2, 3))), ad.constant(np.ones((2, 3))))
    assert abs(zero.values[0, 0]) < 1e-12
    # unit mean, unit std: 1/2 per entry
    shifted = kl_standard_normal(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))
    assert abs(shifted.values[0, 0] - 3.0) < 1e-12
    # mean 0, std 2: 1/2 (4 - 1 - ln 4)
    wide = kl_standard_normal(ad.constant(np.zeros((1, 1))), ad.constant(np.full((1, 1), 2.0)))
    assert abs(wide.values[0, 0] - 0.5 * (3.0 - np.log(4.0))) < 1e-12


def test_kl_nonnegative_on_random_stats():
    rng = np.random.default_rng(55)
    for _ in range(20):
        mean = ad.constant(rng.standard_normal((3, 4)))
        std = ad.constant(np.exp(rng.standard_normal((3, 4))))
        kl = kl_standard_normal(mean, std)
        assert kl.values[0, 0] >= 0.0


def test_reparameterize_is_mean_plus_std_times_noise():
    mean = ad.constant([[1.0, 2.0]])
    std = ad.constant([[0.5, 3.0]])
    noise = np.array([[2.0, -1.0]])
    sample = ad.reparameterize(mean, std, noise)
    assert np.array_equal(sample.values, [[2.0, -1.0]])
    with pytest.raises(ValueError, match="sample of mean"):
        ad.reparameterize(mean, std, np.zeros((2, 2)))


def test_noise_sources():
    assert np.array_equal(zero_noise((2, 3)), np.zeros((2, 3)))
    a = gaussian_noise(np.random.default_rng(7))((3, 2))
    b = gaussian_noise(np.random.default_rng(7))((3, 2))
    assert np.array_equal(a, b)
    assert a.shape == (3, 2)


def deterministic_twin(gae):
    """Variational params that replay a deterministic model exactly: the
    trunk is every layer but the last, the mean head is the last layer and
    the log-std head is all zeros, so std is 1 everywhere."""
    encoders = []
    for stack in gae.encoders:
        last = stack.heads[0]
        log_std = ad.parameter(np.zeros(last.shape))
        encoders.append(GnnStack(stack.trunk, [last, log_std]))
    return TieredVgaeParams(
        encoders=tuple(encoders),
        pair_decoder=gae.pair_decoder,
        feature_decoder=gae.feature_decoder,
        dims=gae.dims,
        depth=gae.depth,
    )


def test_unit_std_zero_noise_reproduces_deterministic_loss(vanillin_data):
    gae = small_params(dims=(4, 4, 4), depth=3, seed=21)
    with ad.no_grad():
        expected = gae_loss(gae, vanillin_data).values[0, 0]
        twin = deterministic_twin(gae)
        recon, kl = vgae_losses(twin, vanillin_data, zero_noise)
    assert abs(recon.values[0, 0] - expected) <= 1e-9
    # std 1 everywhere, nonzero means: the KL is strictly positive
    assert kl.values[0, 0] > 0.0


def test_variational_encoding_with_zero_noise_equals_means(ethanol_data):
    params = TieredVgaeParams.init(np.random.default_rng(4), (3, 3, 3), 2)
    with ad.no_grad():
        emb, stats = encode_tiered_variational(params, ethanol_data, zero_noise)
    assert np.array_equal(emb.node.values, stats[0][0].values)
    assert np.array_equal(emb.group.values, stats[1][0].values)
    assert np.array_equal(emb.graph.values, stats[2][0].values)
    assert all(np.all(std.values > 0) for _, std in stats)


def test_elbo_is_negated_penalized_loss(ethanol_data):
    params = TieredVgaeParams.init(np.random.default_rng(6), (3, 3, 3), 2)
    with ad.no_grad():
        recon, kl = vgae_losses(params, ethanol_data, zero_noise)
        bound = elbo(params, ethanol_data, zero_noise, beta=0.25)
    expected = -(recon.values[0, 0] + 0.25 * kl.values[0, 0])
    assert abs(bound.values[0, 0] - expected) < 1e-12


@settings(max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), molecules=st.lists(st.integers(0, 29), min_size=1, max_size=4))
def test_vgae_inference_embeddings_are_the_posterior_means(corpus_data, seed, molecules):
    """``encode_tiered`` reads each VGAE tier's mean with no sample drawn, on
    one molecule or a padded batch. A zero-noise sample is that mean + 0.0:
    its bits, but for -0.0, which becomes +0.0."""
    params = TieredVgaeParams.init(np.random.default_rng(seed))
    members = [corpus_data[index] for index in molecules]
    data = members[0] if len(members) == 1 else models._MoleculeBatch(members)
    with ad.no_grad():
        with mock.patch.object(ad, "reparameterize", side_effect=AssertionError("sampled")):
            means = encode_tiered(params, data)
        samples, stats = encode_tiered_variational(params, data, zero_noise)
    tiers = zip((means.node, means.group, means.graph), (samples.node, samples.group, samples.graph))
    for (mean, sample), (posterior_mean, _) in zip(tiers, stats):
        assert_same_bits(mean.values, posterior_mean.values)
        assert_same_bits(mean.values + 0.0, sample.values)


def test_a_deterministic_model_given_noise_raises(ethanol_data):
    params, records = small_params(), ad.tape_size()
    with pytest.raises(ValueError, match="a deterministic model draws no noise"):
        encode_tiered_variational(params, ethanol_data, zero_noise)
    with pytest.raises(ValueError, match="a deterministic model draws no noise"):
        vgae_losses(params, ethanol_data, gaussian_noise(np.random.default_rng(0)))
    assert ad.tape_size() == records  # raised before recording anything


def test_noisy_sample_changes_decoder_input_only(ethanol_data):
    params = TieredVgaeParams.init(np.random.default_rng(8), (3, 3, 3), 2)
    with ad.no_grad():
        _, stats_zero = encode_tiered_variational(params, ethanol_data, zero_noise)
        _, stats_noisy = encode_tiered_variational(
            params, ethanol_data, gaussian_noise(np.random.default_rng(1))
        )
    # pooling consumes means, so posterior statistics ignore the noise draw
    for a, b in zip(stats_zero, stats_noisy):
        assert np.array_equal(a[0].values, b[0].values)
        assert np.array_equal(a[1].values, b[1].values)


def _oracle_encode(params, data, noise):
    if noise is None:
        return encode_oracle.encode_tiered(params, data), []
    embeddings, stats = encode_oracle.encode_tiered_variational(params, data, noise)
    return embeddings, [(tier.mean, tier.std) for tier in stats]


def _shared_encode(params, data, noise):
    if noise is None:
        return encode_tiered(params, data), []
    return encode_tiered_variational(params, data, noise)


def _encoding(encode, kl, params, data, seed):
    """Dtype, shape and bytes of each tier's embedding, (mean, std) and KL,
    the tape length after decode + loss, and every weight's gradient."""
    noise = gaussian_noise(np.random.default_rng(seed)) if params.variational else None
    embeddings, stats = encode(params, data, noise)
    kls = [kl(mean, std) for mean, std in stats]
    loss = reconstruction_loss(*decode(params, embeddings), data.ends, data.features)
    for term in kls:
        loss = ad.add(loss, term)
    tensors = [embeddings.node, embeddings.group, embeddings.graph, *sum(stats, ()), *kls]
    tape = ad.tape_size()
    for weight in params.trainable():
        weight.grad = None
    ad.backward(loss)
    arrays = [t.values for t in tensors] + [w.grad for w in params.trainable()]
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays], tape


@settings(max_examples=60)
@given(
    variational=st.booleans(),
    depth=st.integers(1, 3),
    dims=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
    molecule=st.integers(0, 29),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_shared_tier_walk_matches_the_separate_encoders(
    corpus_data, variational, depth, dims, molecule, seed
):
    model = TieredVgaeParams if variational else TieredGaeParams
    params = model.init(np.random.default_rng(seed), dims, depth)
    data = corpus_data[molecule]
    expected = _encoding(_oracle_encode, encode_oracle.kl_standard_normal, params, data, seed)
    assert _encoding(_shared_encode, kl_standard_normal, params, data, seed) == expected


def permuted(graph, perm):
    """``graph`` with atom i renumbered perm[i]."""
    olds = sorted(range(graph.num_atoms), key=lambda old: perm[old])  # the old index of each new atom
    moved = [[values[old] for old in olds] for values in (graph.elements, graph.charges, graph.aromatic)]
    pairs = [(perm[i], perm[j]) for i, j in graph.pairs]
    return MolecularGraph(*moved, pairs, graph.orders, name=graph.name)


def _molecule_embedding_and_tier_kl(params, data):
    embeddings, stats = encode_tiered_variational(params, data, zero_noise)
    kl = [kl_standard_normal(*tier).item() for tier in stats]
    return embeddings.graph.values, np.array(kl)


@settings(max_examples=5)
@given(seed=st.integers(0, 2**32 - 1))
def test_vgae_molecule_embedding_and_tier_kl_are_permutation_invariant(corpus_graphs, seed):
    rng = np.random.default_rng(seed)
    params = TieredVgaeParams.init(rng, (8, 8, 8), 2)
    with ad.no_grad():
        for graph in corpus_graphs:
            base = _molecule_embedding_and_tier_kl(params, MoleculeData.from_graph(graph))
            perm = rng.permutation(graph.num_atoms)
            moved = _molecule_embedding_and_tier_kl(
                params, MoleculeData.from_graph(permuted(graph, perm))
            )
            assert np.abs(moved[0] - base[0]).max() <= 1e-9, graph.name
            # the KL of an untrained model reaches 1e8 (std up to e^10), so
            # its bound is relative
            np.testing.assert_allclose(moved[1], base[1], rtol=1e-9, err_msg=graph.name)


def test_edge_auc_hand_cases():
    A = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    perfect = np.array([[0.0, 0.9, 0.1], [0.9, 0.0, 0.8], [0.1, 0.8, 0.0]])
    assert edge_auc(perfect, bond_index(A)) == 1.0
    inverted = np.array([[0.0, 0.1, 0.9], [0.1, 0.0, 0.2], [0.9, 0.2, 0.0]])
    assert edge_auc(inverted, bond_index(A)) == 0.0
    flat = np.full((3, 3), 0.5)
    assert edge_auc(flat, bond_index(A)) == 0.5
    # one of two rankings wrong
    mixed = np.array([[0.0, 0.9, 0.5], [0.9, 0.0, 0.2], [0.5, 0.2, 0.0]])
    assert edge_auc(mixed, bond_index(A)) == 0.5
    # no non-edges in a triangle: vacuous ranking
    triangle = np.ones((3, 3)) - np.eye(3)
    assert edge_auc(flat, bond_index(triangle)) == 1.0


def brute_force_edge_auc(edge_probs, adjacency):
    """Oracle: compares every edge with every non-edge over the pairs i < j;
    ties count one half."""
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


# few distinct values force ties, including saturated 0/1 probabilities
TIED_PROBABILITIES = (0.0, 1e-300, 0.1, 0.25, 0.5, 0.75, 1.0 - 1e-16, 1.0)


@st.composite
def auc_cases(draw):
    """A symmetric 0/1 adjacency and an unrelated, hence asymmetric,
    probability matrix of the same size."""
    n = draw(st.integers(1, 30))
    bits = np.triu(draw(arrays(bool, (n, n))), k=1)
    adjacency = (bits | bits.T).astype(np.float64)
    probs = draw(arrays(np.float64, (n, n), elements=st.sampled_from(TIED_PROBABILITIES)))
    return probs, adjacency


@given(auc_cases())
@example((np.full((1, 1), 0.5), np.zeros((1, 1))))
@example((np.full((4, 4), 0.5), np.zeros((4, 4))))
@example((np.full((4, 4), 0.5), np.ones((4, 4)) - np.eye(4)))
def test_edge_auc_equals_brute_force(case):
    probs, adjacency = case
    assert edge_auc(probs, bond_index(adjacency)) == brute_force_edge_auc(probs, adjacency)


def ring_system_bonds(graph):
    """The (2, U) bond index, each bond's lower atom first, of a drawn ring
    system's (atom count, bonds either way round)."""
    count, edges = graph
    return count, np.sort(np.array(edges, dtype=np.intp).reshape(-1, 2).T, axis=0)


@settings(max_examples=25)
@given(ring_system_graphs(), st.integers(0, 2**32 - 1), st.integers(0, 2))
def test_edge_auc_over_ring_system_bonds_equals_brute_force(graph, seed, decimals):
    # rounding to 0-2 decimals forces ties, between bonds and across them
    n, ends = ring_system_bonds(graph)
    probs = np.round(np.random.default_rng(seed).random((n, n)), decimals)
    assert edge_auc(probs, ends) == brute_force_edge_auc(probs, bond_adjacency(ends, n))


def test_edge_auc_of_one_and_two_atoms_is_vacuous():
    no_bonds = np.zeros((2, 0), dtype=np.intp)
    assert edge_auc(np.full((1, 1), 0.5), no_bonds) == 1.0
    assert edge_auc(np.full((2, 2), 0.5), no_bonds) == 1.0
    assert edge_auc(np.full((2, 2), 0.5), np.array([[0], [1]])) == 1.0
    with pytest.raises(ValueError, match="NaN"):  # the one pair is read, bond or not
        edge_auc(np.array([[0.5, np.nan], [0.5, 0.5]]), no_bonds)


def test_edge_auc_rejects_nan():
    A = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    probs = np.full((3, 3), 0.5)
    probs[0, 2] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        edge_auc(probs, bond_index(A))


@pytest.mark.parametrize("where", [(0, 0), (1, 1), (1, 0), (2, 0), (2, 1)])
def test_edge_auc_reads_no_nan_on_or_below_the_diagonal(where):
    ends = np.array([[0, 1], [1, 2]])
    probs = np.array([[0.0, 0.9, 0.1], [0.2, 0.0, 0.8], [0.3, 0.4, 0.0]])
    probs[where] = np.nan
    assert edge_auc(probs, ends) == 1.0


@given(ring_system_graphs())
@example((1, []))
@example((2, []))
@example((7, []))
@example((2, [(1, 0)]))
@example((3, [(0, 1), (1, 2), (2, 0)]))
def test_edge_loss_weights_of_ring_system_bonds_have_the_dense_references_bits(graph):
    n, ends = ring_system_bonds(graph)
    weights = edge_loss_weights(ends, n)
    expected = loss_oracle.edge_loss_weights(bond_adjacency(ends, n))
    assert [w.hex() for w in weights] == [w.hex() for w in expected]


def test_mean_edge_auc_names_the_molecule_with_nan_scores(ethanol_data, vanillin_data):
    params = small_params()
    params.pair_decoder.values = np.full(params.pair_decoder.shape, np.nan)
    with pytest.raises(ValueError, match="molecule 'vanillin': edge probabilities contain NaN"):
        mean_edge_auc(params, [vanillin_data, ethanol_data])


def test_mean_edge_auc_requires_data():
    with pytest.raises(ValueError, match="empty"):
        mean_edge_auc(small_params(), [])


def test_interpolate_latent_spacing():
    start = np.array([0.0, 0.0])
    end = np.array([1.0, 2.0])
    points = interpolate_latent(start, end, 5)
    assert len(points) == 5
    assert np.array_equal(points[0], start)
    assert np.array_equal(points[-1], end)
    assert np.allclose(points[2], [0.5, 1.0])
    two = interpolate_latent(start, end, 2)
    assert np.array_equal(two[0], start) and np.array_equal(two[1], end)
    with pytest.raises(ValueError, match="at least 2"):
        interpolate_latent(start, end, 1)
    with pytest.raises(ValueError, match="dims differ"):
        interpolate_latent(start, np.zeros(3), 4)
