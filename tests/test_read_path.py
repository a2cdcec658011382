"""The linear read path against the per-edge, per-core and per-atom versions
it replaced: ring bases, functional groups, aromatic rings, the whole
partition, ring and conjugation flags and node features must match them
exactly, and so must the adjacency and features that
``MoleculeData.from_graph`` builds from the bond endpoints. Ring perception
must search ring bonds only, and connectivity must come from the ring count,
with no component walk for a connected molecule."""

import random
import re

import pytest
import read_path_oracle as oracle
from chain_oracle import assert_same_bits
from hypothesis import example, given
from hypothesis import strategies as st

from moltiers import cycles
from moltiers.grouping import detect_aromatic_rings, identify_functional_groups, partition
from moltiers.models import MoleculeData
from moltiers.molgraph import Atom, Bond, MolecularGraph, featurize_nodes, load_molecules
from moltiers.smiles import parse_smiles


@st.composite
def ring_system_graphs(draw):
    """Ring systems grown from one ring by fused, spiro and bridged ears,
    joined by long chains, with pendant chains and isolated nodes; node
    labels, edge order and edge direction are shuffled."""
    edges: set[tuple[int, int]] = set()
    count = 0

    def path(start, end, inner):
        nonlocal count
        nodes = [start] + list(range(count, count + inner)) + [end]
        count += inner
        for a, b in zip(nodes, nodes[1:]):
            edges.add((min(a, b), max(a, b)))

    previous = None
    for _ in range(draw(st.integers(1, 4))):
        size = draw(st.integers(3, 8))
        first = count
        count += 1
        path(first, first, size - 1)
        system = list(range(first, count))
        for _ in range(draw(st.integers(0, 3))):
            kind = draw(st.sampled_from(("fused", "spiro", "bridged")))
            if kind == "fused":
                x, y = draw(st.sampled_from(sorted(e for e in edges if e[0] in system)))
                path(x, y, draw(st.integers(1, 6)))
            elif kind == "spiro":
                x = draw(st.sampled_from(system))
                path(x, x, draw(st.integers(2, 7)))
            else:
                x, y = draw(st.lists(st.sampled_from(system), min_size=2, max_size=2, unique=True))
                inner = draw(st.integers(0 if (min(x, y), max(x, y)) not in edges else 1, 3))
                path(x, y, inner)
            system = list(range(first, count))
        if previous is not None:
            path(draw(st.sampled_from(previous)), draw(st.sampled_from(system)), draw(st.integers(0, 30)))
        for _ in range(draw(st.integers(0, 2))):
            tip = count
            count += 1
            path(draw(st.sampled_from(system)), tip, draw(st.integers(0, 5)))
        previous = system
    count += draw(st.integers(0, 3))  # isolated nodes

    labels = draw(st.permutations(range(count)))
    relabelled = [(labels[a], labels[b]) for a, b in edges]
    relabelled = draw(st.permutations(relabelled))
    flips = draw(st.lists(st.booleans(), min_size=len(relabelled), max_size=len(relabelled)))
    return count, [(b, a) if flip else (a, b) for (a, b), flip in zip(relabelled, flips)]


@given(ring_system_graphs())
def test_cycle_basis_matches_the_all_edges_search(graph):
    num_nodes, edges = graph
    assert cycles.shortest_cycle_basis(num_nodes, edges) == oracle.shortest_cycle_basis(num_nodes, edges)


def assert_read_path_matches_oracle(graph):
    edges = [bond.endpoints for bond in graph.bonds]
    assert list(graph.rings) == oracle.shortest_cycle_basis(graph.num_atoms, edges)
    assert identify_functional_groups(graph) == oracle.identify_functional_groups(graph)
    assert detect_aromatic_rings(graph) == oracle.detect_aromatic_rings(graph)
    groups, expected_groups = partition(graph), oracle.partition(graph)
    assert [(g.kind, g.atoms) for g in groups] == [(g.kind, g.atoms) for g in expected_groups]
    ring_atoms, flags = oracle.ring_flags(graph)
    assert graph.ring_atoms == ring_atoms
    assert [(bond.in_ring, bond.conjugated) for bond in graph.bonds] == flags
    features, expected = featurize_nodes(graph), oracle.featurize_nodes(graph)
    assert features.dtype == expected.dtype and features.shape == expected.shape
    assert features.tobytes() == expected.tobytes()


def test_corpus_read_path_matches_oracle(corpus_graphs):
    for graph in corpus_graphs:
        assert_read_path_matches_oracle(graph)


@given(st.integers(0, 2**32 - 1), st.integers(20, 190), st.sampled_from((8, 15, 40)))
def test_backbone_read_path_matches_oracle(perfbench_gen, seed, target, phenylene_every):
    rng = random.Random(seed)
    text = perfbench_gen.backbone(rng, target, phenylene_every, count_hydrogens=True)
    assert_read_path_matches_oracle(parse_smiles(text))


@given(st.integers(0, 2**32 - 1))
def test_library_read_path_matches_oracle(perfbench_gen, seed):
    text = perfbench_gen._library_smiles(random.Random(seed))
    assert_read_path_matches_oracle(parse_smiles(text))


def assert_dense_arrays_match_oracle(graph):
    """``from_graph``'s adjacency and features, and the graph's properties,
    have the bits of the arrays a graph used to store."""
    adjacency, features = oracle.adjacency(graph), oracle.dense_featurize_nodes(graph)
    data = MoleculeData.from_graph(graph)
    assert_same_bits(data.adjacency, adjacency)
    assert_same_bits(data.features, features)
    assert_same_bits(graph.adjacency, adjacency)
    assert_same_bits(graph.node_features, features)


def test_corpus_dense_arrays_match_the_stored_oracle(corpus_graphs):
    for graph in corpus_graphs:
        assert_dense_arrays_match_oracle(graph)


def test_a_graph_without_bonds_has_zero_degree_arrays():
    graph = MolecularGraph([Atom("Cl", formal_charge=-1)], [])
    assert_dense_arrays_match_oracle(graph)
    assert graph.adjacency.shape == (1, 1) and graph.node_features[0, 13:15].tolist() == [0.0, 0.0]


@given(st.integers(0, 2**32 - 1), st.integers(100, 190))
def test_backbone_dense_arrays_match_the_stored_oracle(perfbench_gen, seed, target):
    text = perfbench_gen.backbone(random.Random(seed), target, 15, count_hydrogens=True)
    assert_dense_arrays_match_oracle(parse_smiles(text))


@given(st.integers(0, 2**32 - 1))
def test_library_dense_arrays_match_the_stored_oracle(perfbench_gen, seed):
    text = perfbench_gen._library_smiles(random.Random(seed))
    assert_dense_arrays_match_oracle(parse_smiles(text))


@pytest.mark.parametrize("chain", [20, 40])
def test_ring_perception_searches_ring_bonds_only(monkeypatch, chain):
    """Two phenylenes joined by a long chain: one BFS per ring bond, none
    for the chain's bridges or the C-H bonds."""
    calls = []
    search = cycles._bfs_path

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(cycles, "_bfs_path", counted)
    graph = parse_smiles("Cc1ccc(cc1)" + "C" * chain + "c1ccc(cc1)C")
    ring_bonds = sum(bond.in_ring for bond in graph.bonds)
    assert ring_bonds == 12
    assert len(calls) == ring_bonds < graph.num_bonds



def reachable_from_atom_0(num_nodes, edges):
    adjacency = [[] for _ in range(num_nodes)]
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    seen, stack = {0}, [0]
    while stack:
        for nbr in adjacency[stack.pop()]:
            if nbr not in seen:
                seen.add(nbr)
                stack.append(nbr)
    return len(seen)


@given(ring_system_graphs())
@example((4, [(0, 1), (1, 2), (2, 0)]))
@example((5, [(3, 1), (1, 2), (2, 3), (0, 4)]))
@example((3, [(0, 1), (1, 2)]))
def test_connectivity_comes_from_the_ring_count(graph):
    """All-carbon graphs; an isolated node makes a draw disconnected."""
    num_nodes, edges = graph
    atoms = [Atom("C") for _ in range(num_nodes)]
    bonds = [Bond(a, b, "single") for a, b in edges]
    reachable = reachable_from_atom_0(num_nodes, edges)
    if reachable == num_nodes:
        built = MolecularGraph(atoms, bonds)
        assert built.ring_count == len(edges) - num_nodes + 1
    else:
        message = f"disconnected ({reachable} of {num_nodes} atoms reachable)"
        with pytest.raises(ValueError, match=re.escape(message)):
            MolecularGraph(atoms, bonds)


def test_a_connected_molecule_walks_no_components(monkeypatch, corpus_path):
    """Building every corpus molecule never calls ``components``; a
    disconnected graph calls it once, for its error message."""
    calls = []
    walk = MolecularGraph.components

    def counted(self, nodes):
        calls.append(self)
        return walk(self, nodes)

    monkeypatch.setattr(MolecularGraph, "components", counted)
    records = load_molecules(corpus_path)
    assert len(records) == 30 and all(r.graph is not None for r in records)
    assert calls == []
    with pytest.raises(ValueError, match="disconnected"):
        MolecularGraph([Atom("C"), Atom("C"), Atom("O")], [Bond(0, 1, "single")])
    assert len(calls) == 1
