"""Batched evaluation against the per-molecule oracle.

``mean_edge_auc`` runs each size bucket of two or more molecules as one
zero-padded stack. Padding changes the order of BLAS sums, so probabilities
agree with a molecule decoded alone to 1e-12, not bit for bit; a bucket of
one, and so every molecule over the bucket budget, runs the per-molecule path
and matches it byte for byte. ``models.edge_auc`` is wrapped to see what each
molecule is scored on.
"""

import copy
import random
from unittest import mock

import eval_oracle
import numpy as np
import pytest
from chain_oracle import assert_same_bits
from hypothesis import given, settings
from hypothesis import strategies as st

import moltiers.autodiff as ad
from moltiers import models
from moltiers.models import (
    MoleculeData,
    TieredGaeParams,
    TieredVgaeParams,
    decode,
    edge_auc,
    encode_for_inference,
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
        return decode(params, encode_for_inference(params, data))[0].values


def batched(params, members):
    """Edge probabilities of ``members`` as one padded batch."""
    with ad.no_grad():
        return decode(params, encode_for_inference(params, models._MoleculeBatch(members)))[0].values


def scored_runs(params, dataset):
    """(mean_edge_auc, [(probs, adjacency, score)] per edge_auc call)."""
    calls = []

    def recording_edge_auc(probs, adjacency):
        score = edge_auc(probs, adjacency)
        calls.append((probs.copy(), adjacency, score))
        return score

    with mock.patch.object(models, "edge_auc", recording_edge_auc):
        return mean_edge_auc(params, dataset), calls


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
    mean, calls = scored_runs(params, dataset)

    by_adjacency = {id(data.adjacency): data for data in dataset}
    seen = set()
    for probs, adjacency, _ in calls:
        data = by_adjacency[id(adjacency)]
        assert probs.shape == (data.num_atoms, data.num_atoms)
        expected = alone(params, data)
        if data.num_atoms ** 2 > BUDGET:
            assert_same_bits(probs, expected, data.name)
        else:
            assert np.abs(probs - expected).max() <= TOLERANCE, data.name
        seen.add(id(adjacency))
    assert seen == set(by_adjacency)

    # the mean is over the slices' AUCs in dataset order, each molecule once
    score_of = {id(adjacency): score for _, adjacency, score in calls}
    assert len(calls) == len(dataset)
    assert_same_bits(mean, np.float64(np.mean([score_of[id(d.adjacency)] for d in dataset])))

    # the oracle differs by at most the share of its near-tied pairs
    assert abs(mean - eval_oracle.mean_edge_auc(params, dataset)) <= np.mean(
        [near_tie_bound(alone(params, data), data.adjacency) for data in dataset]
    ) + 1e-15


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
        dataset[k].molecule_propagator = ad.constant(np.full((1, 1), np.nan))
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
