"""The linear read path against the per-edge, per-core and per-atom versions
it replaced: ring bases, functional groups, aromatic rings, the whole
partition, the ring and conjugation flags that ``check_bond_consistency``
reports and node features must match them exactly, and so must the adjacency, features, degree scale and membership
that ``MoleculeData.from_graph`` builds from the bond endpoints and the
groups. Ring perception must search ring bonds only, and connectivity must
come from the ring count, with no component walk for a connected molecule."""

import random
import re

import pytest
import read_path_oracle as oracle
from chain_oracle import assert_same_bits
from hypothesis import example, given
from hypothesis import strategies as st

from moltiers import cycles
from moltiers.grouping import (
    COMPONENT,
    Group,
    build_membership,
    detect_aromatic_rings,
    identify_functional_groups,
    partition,
)
from moltiers.models import MoleculeData
from moltiers.molgraph import MolecularGraph, featurize_nodes, load_molecules
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
    basis = cycles.shortest_cycle_basis(oracle.neighbor_lists(num_nodes, edges), edges)
    assert basis == oracle.shortest_cycle_basis(num_nodes, edges)


def assert_read_path_matches_oracle(graph):
    assert list(graph.rings) == oracle.shortest_cycle_basis(graph.num_atoms, graph.pairs)
    assert identify_functional_groups(graph) == oracle.identify_functional_groups(graph)
    assert detect_aromatic_rings(graph) == oracle.detect_aromatic_rings(graph)
    groups, expected_groups = partition(graph), oracle.partition(graph)
    assert [(g.kind, g.atoms) for g in groups] == [(g.kind, g.atoms) for g in expected_groups]
    ring_atoms, flags = oracle.ring_flags(graph)
    assert graph.ring_atoms == ring_atoms
    assert oracle.bond_flags(graph) == [(order != "single", *f) for order, f in zip(graph.orders, flags)]
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
    """``from_graph``'s adjacency and features, and ``featurize_nodes`` on
    the graph alone, have the bits of the arrays a graph used to store."""
    adjacency, features = oracle.adjacency(graph), oracle.dense_featurize_nodes(graph)
    data = MoleculeData.from_graph(graph)
    assert_same_bits(data.adjacency, adjacency)
    assert_same_bits(data.features, features)
    assert_same_bits(featurize_nodes(graph), features)


def test_corpus_dense_arrays_match_the_stored_oracle(corpus_graphs):
    for graph in corpus_graphs:
        assert_dense_arrays_match_oracle(graph)


def test_a_graph_without_bonds_has_zero_degree_arrays():
    graph = MolecularGraph(["Cl"], [-1], [False], [], [])
    assert_dense_arrays_match_oracle(graph)
    data = MoleculeData.from_graph(graph)
    assert data.adjacency.shape == (1, 1) and data.features[0, 13:15].tolist() == [0.0, 0.0]


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
    """Two phenylenes joined by a long chain share no atom, so each is the
    only cycle through its bonds and no BFS runs. A naphthalene with the
    chain: one BFS per ring bond, none for the chain's bridges or the C-H
    bonds."""
    calls = []
    search = cycles._bfs_path

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(cycles, "_bfs_path", counted)
    graph = parse_smiles("Cc1ccc(cc1)" + "C" * chain + "c1ccc(cc1)C")
    assert sum(in_ring for _, in_ring, _ in oracle.bond_flags(graph)) == 12 and graph.ring_count == 2
    assert calls == []
    graph = parse_smiles("Cc1ccc2ccccc2c1" + "C" * chain)
    ring_bonds = sum(in_ring for _, in_ring, _ in oracle.bond_flags(graph))
    assert ring_bonds == 11
    assert len(calls) == ring_bonds < graph.num_bonds


def atoms_reached_from_atom_0(num_nodes, edges):
    adjacency = oracle.neighbor_lists(num_nodes, edges)
    seen, stack = {0}, [0]
    while stack:
        for nbr in adjacency[stack.pop()]:
            if nbr not in seen:
                seen.add(nbr)
                stack.append(nbr)
    return seen


@given(ring_system_graphs())
@example((4, [(0, 1), (1, 2), (2, 0)]))
@example((5, [(3, 1), (1, 2), (2, 3), (0, 4)]))
@example((3, [(0, 1), (1, 2)]))
def test_connectivity_comes_from_the_ring_count(graph):
    """All-carbon graphs; an isolated node makes a draw disconnected."""
    num_nodes, edges = graph
    fields = oracle.carbon_fields(num_nodes, edges)
    reachable = len(atoms_reached_from_atom_0(num_nodes, edges))
    if reachable == num_nodes:
        built = MolecularGraph(*fields)
        assert built.ring_count == len(edges) - num_nodes + 1
    else:
        message = f"disconnected ({reachable} of {num_nodes} atoms reachable)"
        with pytest.raises(ValueError, match=re.escape(message)):
            MolecularGraph(*fields)


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
        MolecularGraph(["C", "C", "O"], [0] * 3, [False] * 3, [(0, 1)], ["single"])
    assert len(calls) == 1


PYRENE = "c1cc2ccc3cccc4ccc(c1)c2c34"
CORONENE = "c1cc2ccc3ccc4ccc5ccc6ccc1c7c2c3c4c5c67"


def carbon_skeleton(num_nodes, edges):
    """An all-carbon molecule on a drawn graph: each part that atom 0 does
    not reach is joined to atom 0 by one more single bond, at its smallest atom."""
    edges = list(edges)
    while len(reached := atoms_reached_from_atom_0(num_nodes, edges)) < num_nodes:
        edges.append((0, min(set(range(num_nodes)) - reached)))
    return MolecularGraph(*oracle.carbon_fields(num_nodes, edges))


def assert_constants_match_oracle(graph):
    """``atom_scale`` has the row-sum degree scale's bits, and the membership
    those of the scalar-write loop."""
    data = MoleculeData.from_graph(graph)
    assert_same_bits(data.atom_scale, oracle.degree_scale(data.adjacency))
    assert_same_bits(data.node_to_group, oracle.build_membership(data.group_set, graph.num_atoms))


@given(ring_system_graphs())
def test_constants_of_ring_system_skeletons_match_oracle(graph):
    assert_constants_match_oracle(carbon_skeleton(*graph))


@given(ring_system_graphs())
def test_ring_flags_of_ring_system_skeletons_match_oracle(graph):
    """Edges come shuffled and flipped, so ring bonds point both ways round
    their rings."""
    graph = carbon_skeleton(*graph)
    assert oracle.bond_flags(graph) == [(False, *flags) for flags in oracle.ring_flags(graph)[1]]


def test_constants_of_the_corpus_and_polycyclic_aromatics_match_oracle(corpus_graphs):
    polycyclic = [parse_smiles(PYRENE), parse_smiles(CORONENE)]
    # Their inner carbons sit in three rings, so their rows hold 1/3.
    for graph in polycyclic:
        assert max(sum(atom in g.atoms for g in partition(graph)) for atom in graph.ring_atoms) == 3
    for graph in corpus_graphs + polycyclic:
        assert_constants_match_oracle(graph)


@st.composite
def group_sets(draw):
    """(groups, atom count): overlapping groups of up to 12 atoms that cover
    every atom, the last one gathering whatever the others missed."""
    num_atoms = draw(st.integers(1, 12))
    groups = draw(st.lists(st.sets(st.integers(0, num_atoms - 1), min_size=1), max_size=6))
    missed = set(range(num_atoms)).difference(*groups)
    groups += [missed] if missed else []
    return [Group(COMPONENT, tuple(sorted(g))) for g in groups], num_atoms


@given(group_sets())
def test_membership_matches_the_scalar_write_loop(drawn):
    group_set, num_atoms = drawn
    expected = oracle.build_membership(group_set, num_atoms)
    assert_same_bits(build_membership(group_set, num_atoms), expected)
