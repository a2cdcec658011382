"""Batched evaluation against the per-molecule oracle.

``mean_edge_auc`` runs each size bucket of two or more molecules as one
zero-padded stack. Padding changes the order of BLAS sums, so probabilities
agree with a molecule decoded alone to 1e-12, not bit for bit; a bucket of
one, and so every molecule over the bucket budget, runs the per-molecule path
and matches it byte for byte. The counting core ``models._rank_auc`` is
wrapped to see what each molecule is scored on; a batch member is scored from
the prefix of its row of one pair gather and its slice of one bond gather, a
run of one through ``edge_auc``.
"""

import copy
import random
from unittest import mock

import eval_oracle
import numpy as np
import pytest
from chain_oracle import assert_same_bits
from loss_oracle import bond_adjacency
from hypothesis import given, settings
from hypothesis import strategies as st

import moltiers.autodiff as ad
from moltiers import models
from moltiers.models import (
    MoleculeData,
    TieredGaeParams,
    TieredVgaeParams,
    decode,
    _rank_auc as rank_auc,
    edge_auc,
    encode_tiered,
    mean_edge_auc,
)
from moltiers.smiles import parse_smiles

TOLERANCE = 1e-12
BUDGET = models._EVAL_BATCH_CELLS


@pytest.fixture(scope="module")
def molecules(corpus_data, perfbench_gen):
    """The corpus, then generated backbones from about 20 to 150 atoms; the
    last two are over the bucket budget on their own."""
    generated = []
    for seed, target in enumerate((20, 28, 40, 56, 72, 90, 135, 150)):
        text = perfbench_gen.backbone(random.Random(seed), target, 15, count_hydrogens=True)
        generated.append(MoleculeData.from_graph(parse_smiles(text, name=f"backbone-{target}")))
    assert [data.num_atoms ** 2 > BUDGET for data in generated][-2:] == [True, True]
    return list(corpus_data) + generated


def alone(params, data):
    """Edge probabilities of one molecule on the per-molecule path."""
    with ad.no_grad():
        return decode(params, encode_tiered(params, data))[0].values


def batched(params, members):
    """Edge probabilities of ``members`` as one padded batch."""
    with ad.no_grad():
        return decode(params, encode_tiered(params, models._MoleculeBatch(members)))[0].values


def scored_runs(params, dataset, decimals=None):
    """(mean_edge_auc, each bucket's decoded probabilities, [(dataset index,
    whether it ran alone, pair scores, bond scores, score)] per call of the
    counting core, which sorts the pair scores: they are copied before. The
    core runs a bucket at a time, its members in order, so the
    calls follow ``_size_buckets``. With ``decimals`` the decoded
    probabilities are rounded, to force ties."""
    decoded, calls = [], []

    def rounding_decode(params, embeddings):
        edge_probs, features = decode(params, embeddings)
        if decimals is not None:
            edge_probs = ad.wrap(np.round(edge_probs.values, decimals))
        decoded.append(edge_probs.values.copy())
        return edge_probs, features

    def recording_core(pair_scores, bond_scores):
        copies = pair_scores.copy(), bond_scores.copy()
        score = rank_auc(pair_scores, bond_scores)
        calls.append((*copies, score))
        return score

    with mock.patch.object(models, "decode", rounding_decode), mock.patch.object(
        models, "_rank_auc", recording_core
    ):
        mean = mean_edge_auc(params, dataset)
    buckets = models._size_buckets(dataset)
    order = [(index, len(bucket) == 1) for bucket in buckets for index in bucket]
    assert len(calls) == len(order)  # each molecule scored once
    return mean, decoded, [(*run, *call) for run, call in zip(order, calls)]


def near_tie_bound(probs, adjacency):
    """The most an AUC can move when probabilities move by up to
    TOLERANCE: the share of (edge, non-edge) pairs within 2 * TOLERANCE."""
    upper = ~np.tri(*adjacency.shape, dtype=bool)
    scores, is_edge = probs[upper], adjacency[upper] > 0
    pos, neg = scores[is_edge], scores[~is_edge]
    if not pos.size or not neg.size:
        return 0.0
    return float((np.abs(pos[:, None] - neg[None, :]) <= 2 * TOLERANCE).sum()) / (pos.size * neg.size)


models_and_data = st.fixed_dictionaries({
    "variational": st.booleans(),
    "dims": st.tuples(*[st.integers(1, 6)] * 3),
    "depth": st.integers(1, 3),
    "seed": st.integers(0, 2**16),
    "picks": st.lists(st.integers(0, 37), min_size=1, max_size=12),
})


def build(case, molecules):
    params_class = TieredVgaeParams if case["variational"] else TieredGaeParams
    params = params_class.init(np.random.default_rng(case["seed"]), case["dims"], case["depth"])
    return params, [molecules[pick] for pick in case["picks"]]


@settings(max_examples=40, derandomize=True, database=None)
@given(case=models_and_data)
def test_each_molecule_is_scored_on_its_own_slice_within_tolerance_of_the_oracle(
    molecules, case
):
    params, dataset = build(case, molecules)
    mean, _, calls = scored_runs(params, dataset)

    for index, ran_alone, scores, bonds, _ in calls:
        data = dataset[index]
        own = alone(params, data)
        assert ran_alone or data.num_atoms ** 2 <= BUDGET
        if ran_alone:  # through edge_auc, which takes the pairs by i, then j
            upper = ~np.tri(data.num_atoms, dtype=bool)
            assert_same_bits(scores, own[upper], data.name)
            assert_same_bits(bonds, own[data.ends[0], data.ends[1]], data.name)
        else:  # its own pairs and bonds only: its slices of the batch's gathers
            assert bonds.shape == (data.ends.shape[1],)
            bond_error = np.abs(bonds - own[data.ends[0], data.ends[1]]).max(initial=0.0)
            assert bond_error <= TOLERANCE, data.name
            expected = models._pairs(own)
            assert scores.shape == expected.shape
            assert scores.size == data.num_atoms * (data.num_atoms - 1) // 2
            assert np.abs(scores - expected).max(initial=0.0) <= TOLERANCE, data.name

    # the mean is over the molecules' AUCs in dataset order, each molecule once
    score_of = {index: score for index, *_, score in calls}
    assert sorted(score_of) == list(range(len(dataset)))
    assert_same_bits(mean, np.float64(np.mean([score_of[i] for i in range(len(dataset))])))

    # the oracle differs by at most the share of its near-tied pairs
    assert abs(mean - eval_oracle.mean_edge_auc(params, dataset)) <= np.mean(
        [near_tie_bound(alone(params, data), bond_adjacency(data.ends, data.num_atoms))
         for data in dataset]
    ) + 1e-15


@settings(max_examples=40, derandomize=True, database=None)
@given(case=models_and_data, decimals=st.sampled_from([None, 1, 2, 3]))
def test_each_member_scores_the_bits_of_edge_auc_on_its_own_slice(molecules, case, decimals):
    params, dataset = build(case, molecules)
    mean, decoded, calls = scored_runs(params, dataset, decimals)

    buckets = models._size_buckets(dataset)
    assert len(decoded) == len(buckets)
    expected = {}
    for bucket, probs in zip(buckets, decoded):
        for index, member_probs in zip(bucket, probs.reshape(len(bucket), *probs.shape[-2:])):
            n = dataset[index].num_atoms
            expected[index] = edge_auc(member_probs[:n, :n], dataset[index].ends)
    assert_same_bits([score for *_, score in calls], [expected[index] for index, *_ in calls])
    assert_same_bits(mean, np.float64(np.mean([expected[i] for i in range(len(dataset))])))


def test_a_molecules_pairs_are_the_prefix_of_its_padded_gather():
    n_max = 9
    rows, cols = np.indices((n_max, n_max))
    codes = 100.0 * rows + cols
    gathered = models._pairs(np.stack([codes, codes + 0.5]))
    assert gathered.shape == (2, n_max * (n_max - 1) // 2)
    for n in range(1, n_max + 1):
        prefix = gathered[0, : n * (n - 1) // 2]
        assert sorted(prefix) == sorted(100.0 * i + j for j in range(n) for i in range(j))
        assert_same_bits(prefix, models._pairs(codes[:n, :n]))
    assert_same_bits(gathered[1], gathered[0] + 0.5)


@settings(max_examples=30, derandomize=True, database=None)
@given(picks=st.lists(st.integers(0, 37), min_size=2, max_size=12))
def test_the_stacked_atom_propagator_has_each_members_bytes(molecules, picks):
    members = [molecules[pick] for pick in picks]
    stacked = models._MoleculeBatch(members).atom_propagator().values
    n_max = max(data.num_atoms for data in members)
    assert stacked.shape == (len(members), n_max, n_max)
    for member, data in zip(stacked, members):
        n = data.num_atoms
        assert_same_bits(member[:n, :n], data.atom_propagator().values, data.name)
        padding = np.ones((n_max, n_max), dtype=bool)
        padding[:n, :n] = False
        assert_same_bits(member[padding], np.zeros(padding.sum()), data.name)  # +0.0


@settings(max_examples=30, derandomize=True, database=None)
@given(case=models_and_data, mates=st.lists(st.integers(0, 35), min_size=1, max_size=6))
def test_a_molecules_probabilities_do_not_depend_on_its_batch_mates(molecules, case, mates):
    params, dataset = build(case, molecules)
    first, others = dataset[0], [molecules[m] for m in mates]
    if first.num_atoms ** 2 > BUDGET:
        first = molecules[0]
    n = first.num_atoms
    with_mates = batched(params, [first, *dataset[1:]])[0, :n, :n]
    with_others = batched(params, [*others, first])[-1, :n, :n]
    assert np.abs(with_mates - with_others).max() <= TOLERANCE
    assert np.abs(with_mates - alone(params, first)).max() <= TOLERANCE


@settings(max_examples=30, derandomize=True, database=None)
@given(case=models_and_data, bad=st.sets(st.integers(0, 11), min_size=1))
def test_the_nan_error_names_the_first_bad_molecule_in_dataset_order(molecules, case, bad):
    params, dataset = build(case, molecules)
    bad = sorted(k for k in bad if k < len(dataset)) or [len(dataset) - 1]
    dataset = [copy.copy(data) for data in dataset]
    for k in bad:
        dataset[k] = copy.copy(dataset[k])
        shape = dataset[k].group_propagator.shape
        dataset[k].group_propagator = ad.constant(np.full(shape, np.nan))
        dataset[k].graph = copy.copy(dataset[k].graph)
        dataset[k].graph.name = f"bad-{k}"
    with pytest.raises(ValueError) as batched_error:
        mean_edge_auc(params, dataset)
    with pytest.raises(ValueError) as oracle_error:
        eval_oracle.mean_edge_auc(params, dataset)
    assert str(batched_error.value) == str(oracle_error.value)
    assert str(batched_error.value) == f"molecule 'bad-{bad[0]}': edge probabilities contain NaN"


def test_buckets_are_size_ordered_runs_within_the_budget(molecules):
    dataset = molecules[::-1]
    buckets = models._size_buckets(dataset)
    order = [index for bucket in buckets for index in bucket]
    assert order == sorted(range(len(dataset)), key=lambda i: dataset[i].num_atoms)
    for bucket, following in zip(buckets, buckets[1:] + [None]):
        largest = max(dataset[i].num_atoms for i in bucket)
        assert len(bucket) == 1 or len(bucket) * largest**2 <= BUDGET
        if following:  # cut only where the next molecule would pass the budget
            assert (len(bucket) + 1) * dataset[following[0]].num_atoms ** 2 > BUDGET
    assert [len(bucket) for bucket in models._size_buckets(molecules[:30])] == [30]
