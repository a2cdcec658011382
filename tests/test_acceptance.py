"""Eight gated acceptance checks over the full pipeline.

Each test prints a single pass/fail line (run with ``pytest -s`` to see them
all) and then asserts, so a red run still shows every verdict reached. The
slow pieces - two full training runs on the bundled corpus plus a repeat for
the determinism check - are shared through module fixtures.
"""

import time
from collections import Counter

import numpy as np
import pytest

import moltiers.autodiff as ad
from moltiers.gnn import GnnStack
from moltiers.grouping import (
    AROMATIC_RING,
    COMPONENT,
    FUNCTIONAL_GROUP,
    build_membership,
    check_bond_consistency,
    partition,
)
from moltiers.models import (
    MoleculeData,
    TieredGaeParams,
    TieredVgaeParams,
    decode,
    elbo,
    encode_tiered,
    encode_tiered_variational,
    gae_loss,
    mean_edge_auc,
    vgae_losses,
    zero_noise,
)
from moltiers.molgraph import MolecularGraph
from moltiers.pooling import diff_group_pool
from moltiers.smiles import parse_smiles
from moltiers.train import TrainConfig, gae_trace_csv, train_gae, train_vgae

VANILLIN = "O=Cc1ccc(O)c(OC)c1"


def report(number, label, passed, detail):
    print(f"criterion {number} ({label}): {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {number} ({label}): {detail}"


@pytest.fixture(scope="module")
def corpus_data(corpus_graphs):
    return [MoleculeData.from_graph(g) for g in corpus_graphs]


@pytest.fixture(scope="module")
def gae_run(corpus_data):
    config = TrainConfig(epochs=200, seed=42)
    start = time.perf_counter()
    params, trace = train_gae(corpus_data, config)
    seconds = time.perf_counter() - start
    return {"config": config, "params": params, "trace": trace, "seconds": seconds}


def test_criterion_1_vanillin_partition():
    start = time.perf_counter()
    graph = parse_smiles(VANILLIN, name="vanillin")
    group_set = partition(graph)
    membership = build_membership(group_set, graph.num_atoms)
    seconds = time.perf_counter() - start

    elements = [
        Counter(graph.elements[i] for i in group.atoms) for group in group_set
    ]
    expected = [
        (FUNCTIONAL_GROUP, Counter({"C": 1, "H": 1, "O": 1})),   # carbonyl
        (FUNCTIONAL_GROUP, Counter({"O": 1, "H": 1})),           # hydroxyl
        (FUNCTIONAL_GROUP, Counter({"O": 1, "C": 1, "H": 3})),   # methoxy
        (AROMATIC_RING, Counter({"C": 6, "H": 3})),              # benzene core
    ]
    composition_ok = sorted(
        zip((group.kind for group in group_set), elements),
        key=lambda pair: sorted(pair[1].items()),
    ) == sorted(expected, key=lambda pair: sorted(pair[1].items()))

    membership_ok = (
        membership.shape == (19, 4)
        and set(np.unique(membership)) == {0.0, 1.0}
        and np.all(membership.sum(axis=1) == 1.0)
    )
    passed = (
        len(group_set) == 4 and composition_ok and membership_ok and seconds < 1.0
    )
    report(
        1,
        "vanillin partition",
        passed,
        f"{len(group_set)} groups, membership {membership.shape}, {seconds:.3f}s",
    )


def test_criterion_2_membership_invariants(corpus_graphs):
    start = time.perf_counter()
    row_sum_dev = 0.0
    column_mismatch = 0
    empty_groups = 0
    structural_violations = 0
    heavy_ok = all(
        sum(1 for element in g.elements if element != "H") <= 25 for g in corpus_graphs
    )
    for graph in corpus_graphs:
        group_set = partition(graph)
        membership = build_membership(group_set, graph.num_atoms)
        row_sum_dev = max(row_sum_dev, np.abs(membership.sum(axis=1) - 1.0).max())
        empty_groups += sum(1 for group in group_set if not group.atoms)
        counts = Counter(group.kind for group in group_set)
        total = (
            counts[FUNCTIONAL_GROUP] + counts[AROMATIC_RING] + counts[COMPONENT]
        )
        if membership.shape[1] != total or total != len(group_set):
            column_mismatch += 1
        structural_violations += sum(
            1
            for v in check_bond_consistency(graph, group_set)
            if v.rule in ("multiple-bond", "same-ring")
        )
    seconds = time.perf_counter() - start
    passed = (
        len(corpus_graphs) == 30
        and heavy_ok
        and row_sum_dev <= 1e-12
        and empty_groups == 0
        and column_mismatch == 0
        and structural_violations == 0
        and seconds < 5.0
    )
    report(
        2,
        "membership invariants",
        passed,
        f"30 molecules, worst row-sum dev {row_sum_dev:.2e}, "
        f"{structural_violations} violations, {seconds:.3f}s",
    )


def brute_force_pool(adjacency, embeddings, membership):
    n, g = membership.shape
    d = embeddings.shape[1]
    coarse_adj = np.zeros((g, g))
    for i in range(g):
        for j in range(g):
            for u in range(n):
                for v in range(n):
                    coarse_adj[i, j] += (
                        membership[u, i] * adjacency[u, v] * membership[v, j]
                    )
    coarse_feat = np.zeros((g, d))
    for i in range(g):
        for k in range(d):
            for u in range(n):
                coarse_feat[i, k] += membership[u, i] * embeddings[u, k]
    return coarse_adj, coarse_feat


def test_criterion_3_pooling_algebra(corpus_data):
    rng = np.random.default_rng(3)
    worst = 0.0
    for data in corpus_data:
        Z = rng.standard_normal((data.num_atoms, 3))
        pooled = diff_group_pool(data.adjacency, ad.constant(Z), data.node_to_group)
        ref_adj, ref_feat = brute_force_pool(data.adjacency, Z, data.node_to_group)
        worst = max(worst, np.abs(pooled.adjacency - ref_adj).max())
        worst = max(worst, np.abs(pooled.features.values - ref_feat).max())
    brute_ok = worst <= 1e-12

    # special cases on integer-valued inputs, where float sums are exact in
    # any order, so the claims can be checked with plain equality
    A = corpus_data[0].adjacency
    n = A.shape[0]
    Z_int = rng.integers(-5, 6, size=(n, 4)).astype(np.float64)
    identity = diff_group_pool(A, ad.constant(Z_int), np.eye(n))
    identity_ok = np.array_equal(identity.adjacency, A) and np.array_equal(
        identity.features.values, Z_int
    )
    ones = diff_group_pool(A, ad.constant(Z_int), np.ones((n, 1)))
    ones_ok = ones.adjacency[0, 0] == A.sum() and np.array_equal(
        ones.features.values, Z_int.sum(axis=0, keepdims=True)
    )

    # with a binary single-membership matrix, pooling is exactly sum pooling
    # over each group's member rows
    sum_ok = True
    for data in corpus_data:
        M = data.node_to_group
        if not np.all((M == 0.0) | (M == 1.0)):
            continue
        Z_int = rng.integers(-5, 6, size=(data.num_atoms, 4)).astype(np.float64)
        pooled = diff_group_pool(data.adjacency, ad.constant(Z_int), M)
        for column, group in enumerate(data.group_set):
            expected = Z_int[list(group.atoms)].sum(axis=0)
            if not np.array_equal(pooled.features.values[column], expected):
                sum_ok = False

    passed = brute_ok and identity_ok and ones_ok and sum_ok
    report(
        3,
        "pooling algebra",
        passed,
        f"brute-force dev {worst:.2e}, identity {identity_ok}, "
        f"ones {ones_ok}, sum-pooling {sum_ok}",
    )


class FrozenNoise:
    """A fixed noise draw per tier, replayed identically on every forward."""

    def __init__(self, seed, shapes):
        rng = np.random.default_rng(seed)
        self.draws = [rng.standard_normal(shape) for shape in shapes]
        self.calls = 0

    def __call__(self, shape):
        draw = self.draws[self.calls % len(self.draws)]
        self.calls += 1
        if draw.shape != shape:
            raise ValueError(f"noise draw {draw.shape} requested as {shape}")
        return draw


def test_criterion_4_gradient_oracle():
    start = time.perf_counter()
    data = MoleculeData.from_graph(parse_smiles("C", name="methane"))
    assert data.num_atoms == 5

    params = TieredGaeParams.init(np.random.default_rng(13), (4, 4, 4), 2)
    gae_worst = max(
        ad.grad_check(lambda _t: gae_loss(params, data), tensor)
        for tensor in params.trainable()
    )

    vparams = TieredVgaeParams.init(np.random.default_rng(13), (4, 4, 4), 2)
    noise = FrozenNoise(5, [(5, 4), (data.num_groups, 4), (1, 4)])
    vgae_worst = max(
        ad.grad_check(lambda _t: elbo(vparams, data, noise), tensor)
        for tensor in vparams.trainable()
    )
    seconds = time.perf_counter() - start
    passed = gae_worst < 1e-4 and vgae_worst < 1e-4 and seconds < 30.0
    report(
        4,
        "gradient oracle",
        passed,
        f"max rel err gae {gae_worst:.2e}, vgae {vgae_worst:.2e}, {seconds:.1f}s",
    )


def test_criterion_5_training_smoke(gae_run, corpus_data):
    trace = gae_run["trace"]
    ratio = trace[-1] / trace[0]
    auc = mean_edge_auc(gae_run["params"], corpus_data)
    seconds = gae_run["seconds"]
    passed = ratio <= 0.5 and auc > 0.9 and seconds < 300.0
    report(
        5,
        "training smoke test",
        passed,
        f"loss {trace[0]:.4f} -> {trace[-1]:.4f} (ratio {ratio:.3f}), "
        f"edge AUC {auc:.4f}, {seconds:.1f}s",
    )


def deterministic_twin(gae):
    """Rebuild the deterministic model as a variational one with unit std:
    all but the last layer become the trunk, the last layer becomes the mean
    head and the log-std head is zero."""
    encoders = []
    for stack in gae.encoders:
        last = stack.heads[0]
        encoders.append(GnnStack(stack.trunk, [last, ad.parameter(np.zeros(last.shape))]))
    return TieredVgaeParams(
        encoders=tuple(encoders),
        pair_decoder=gae.pair_decoder,
        feature_decoder=gae.feature_decoder,
        dims=gae.dims,
        depth=gae.depth,
    )


def test_criterion_6_vgae_sanity(corpus_data):
    config = TrainConfig(epochs=300, seed=42)
    _, trace = train_vgae(corpus_data, config)
    improved = trace[-1].elbo > trace[0].elbo
    kl_ok = all(row.kl >= 0.0 for row in trace)

    # unit std + zero noise must replay the deterministic forward
    gae = TieredGaeParams.init(np.random.default_rng(7))
    twin = deterministic_twin(gae)
    equivalence_dev = 0.0
    with ad.no_grad():
        for data in corpus_data[:5]:
            expected_probs, _ = decode(gae, encode_tiered(gae, data))
            expected_loss = gae_loss(gae, data).item()
            embeddings, _ = encode_tiered_variational(twin, data, zero_noise)
            twin_probs, _ = decode(twin, embeddings)
            recon, _ = vgae_losses(twin, data, zero_noise)
            equivalence_dev = max(
                equivalence_dev,
                np.abs(twin_probs.values - expected_probs.values).max(),
                abs(recon.item() - expected_loss),
            )
    passed = improved and kl_ok and equivalence_dev <= 1e-9
    report(
        6,
        "vgae sanity",
        passed,
        f"elbo {trace[0].elbo:.3f} -> {trace[-1].elbo:.3f}, KL >= 0 {kl_ok}, "
        f"unit-std replay dev {equivalence_dev:.2e}",
    )


def permute_graph(graph, perm):
    olds = sorted(range(graph.num_atoms), key=lambda old: perm[old])  # the old index of each new atom
    moved = [[values[old] for old in olds] for values in (graph.elements, graph.charges, graph.aromatic)]
    pairs = [(perm[i], perm[j]) for i, j in graph.pairs]
    return MolecularGraph(*moved, pairs, graph.orders, name=graph.name)


def test_criterion_7_permutation_invariance(corpus_graphs):
    names = {"vanillin", "cysteine", "furfural", "methyl-pyruvate", "crotonic-acid"}
    fixtures = [g for g in corpus_graphs if g.name in names]
    assert len(fixtures) == 5
    params = TieredGaeParams.init(np.random.default_rng(123))
    rng = np.random.default_rng(42)
    loss_dev = z3_dev = 0.0
    with ad.no_grad():
        for graph in fixtures:
            base = MoleculeData.from_graph(graph)
            base_loss = gae_loss(params, base).item()
            base_z3 = encode_tiered(params, base).graph.values
            for _ in range(10):
                permuted = permute_graph(graph, rng.permutation(graph.num_atoms))
                data = MoleculeData.from_graph(permuted)
                loss_dev = max(loss_dev, abs(gae_loss(params, data).item() - base_loss))
                z3 = encode_tiered(params, data).graph.values
                z3_dev = max(z3_dev, np.abs(z3 - base_z3).max())
    passed = loss_dev <= 1e-9 and z3_dev <= 1e-9
    report(
        7,
        "permutation invariance",
        passed,
        f"50 permutations, loss dev {loss_dev:.2e}, Z3 dev {z3_dev:.2e}",
    )


def test_criterion_8_determinism(gae_run, corpus_data):
    first_csv = gae_trace_csv(gae_run["trace"]).encode("utf-8")
    _, trace_again = train_gae(corpus_data, gae_run["config"])
    second_csv = gae_trace_csv(trace_again).encode("utf-8")
    passed = first_csv == second_csv
    report(
        8,
        "determinism",
        passed,
        f"{len(first_csv)} CSV bytes, identical {passed}",
    )
