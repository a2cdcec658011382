"""Cycle basis extraction: sizes, GF(2) independence, frozen small graphs."""

import random

from read_path_oracle import neighbor_lists

from moltiers.cycles import shortest_cycle_basis


def cycle_edge_set(cycle):
    edges = set()
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        edges.add((min(a, b), max(a, b)))
    return frozenset(edges)


def random_connected_graph(rng, n, extra_edges):
    """Random spanning tree plus `extra_edges` chords; cyclomatic number is
    exactly extra_edges."""
    edges = set()
    nodes = list(range(n))
    rng.shuffle(nodes)
    for k in range(1, n):
        other = rng.choice(nodes[:k])
        a, b = nodes[k], other
        edges.add((min(a, b), max(a, b)))
    candidates = [
        (i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges
    ]
    rng.shuffle(candidates)
    edges.update(candidates[:extra_edges])
    return sorted(edges)


def test_tree_has_empty_basis():
    path = [(0, 1), (1, 2)]
    assert shortest_cycle_basis(neighbor_lists(3, path), path) == []
    assert shortest_cycle_basis(neighbor_lists(1, []), []) == []


def test_triangle():
    triangle = [(0, 1), (1, 2), (2, 0)]
    assert shortest_cycle_basis(neighbor_lists(3, triangle), triangle) == [(1, 2, 0)]


def test_hexagon():
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]
    assert shortest_cycle_basis(neighbor_lists(6, edges), edges) == [(1, 2, 3, 4, 5, 0)]


def test_fused_hexagons_give_two_six_cycles():
    naphthalene = [
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),
        (5, 6), (6, 7), (7, 8), (8, 9), (9, 0),
    ]
    basis = shortest_cycle_basis(neighbor_lists(10, naphthalene), naphthalene)
    assert basis == [(1, 2, 3, 4, 5, 0), (6, 7, 8, 9, 0, 5)]
    # neither basis member is the 10-cycle around the perimeter
    assert all(len(c) == 6 for c in basis)


def test_complete_graph_basis_is_all_triangles():
    k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    basis = shortest_cycle_basis(neighbor_lists(4, k4), k4)
    assert len(basis) == 3
    assert all(len(c) == 3 for c in basis)


def test_basis_size_matches_cyclomatic_number():
    rng = random.Random(901)
    for _ in range(25):
        n = rng.randint(4, 12)
        extra = rng.randint(0, min(5, n * (n - 1) // 2 - (n - 1)))
        edges = random_connected_graph(rng, n, extra)
        basis = shortest_cycle_basis(neighbor_lists(n, edges), edges)
        assert len(basis) == len(edges) - n + 1


def test_disconnected_graph_counts_every_component():
    # a triangle and a square interleaved with an isolated node 1:
    # U - N + C = 7 - 8 + 3
    edges = [(0, 2), (2, 5), (5, 0), (3, 4), (4, 6), (6, 7), (7, 3)]
    basis = shortest_cycle_basis(neighbor_lists(8, edges), edges)
    assert {cycle_edge_set(list(c)) for c in basis} == {
        frozenset({(0, 2), (2, 5), (0, 5)}),
        frozenset({(3, 4), (4, 6), (6, 7), (3, 7)}),
    }
    rng = random.Random(907)
    for _ in range(10):
        n_a, n_b = rng.randint(3, 8), rng.randint(3, 8)
        first = random_connected_graph(rng, n_a, rng.randint(0, 2))
        second = random_connected_graph(rng, n_b, rng.randint(0, 2))
        edges = first + [(a + n_a, b + n_a) for a, b in second]
        n = n_a + n_b + 1  # the last node is isolated
        assert len(shortest_cycle_basis(neighbor_lists(n, edges), edges)) == len(edges) - n + 3


def test_basis_members_are_closed_walks_over_real_edges():
    rng = random.Random(902)
    for _ in range(15):
        n = rng.randint(5, 10)
        edges = random_connected_graph(rng, n, 4)
        edge_set = set(edges)
        for cycle in shortest_cycle_basis(neighbor_lists(n, edges), edges):
            assert len(cycle) == len(set(cycle))
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                assert (min(a, b), max(a, b)) in edge_set


def test_basis_is_independent_over_gf2():
    rng = random.Random(903)
    for _ in range(15):
        n = rng.randint(5, 10)
        edges = random_connected_graph(rng, n, 5)
        edge_index = {e: k for k, e in enumerate(edges)}
        vectors = []
        for cycle in shortest_cycle_basis(neighbor_lists(n, edges), edges):
            vec = 0
            for e in cycle_edge_set(cycle):
                vec ^= 1 << edge_index[e]
            vectors.append(vec)
        # gaussian elimination over GF(2); every vector must add a new pivot
        pivots = {}
        for vec in vectors:
            while vec:
                pivot = vec.bit_length() - 1
                if pivot not in pivots:
                    pivots[pivot] = vec
                    break
                vec ^= pivots[pivot]
            assert vec != 0


def test_shorter_cycles_preferred():
    # a square with one diagonal: basis must be the two triangles, not the square
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
    basis = shortest_cycle_basis(neighbor_lists(4, edges), edges)
    assert sorted(len(c) for c in basis) == [3, 3]


def test_deterministic_output():
    rng = random.Random(904)
    for _ in range(10):
        n = rng.randint(5, 9)
        edges = random_connected_graph(rng, n, 3)
        first = shortest_cycle_basis(neighbor_lists(n, edges), edges)
        second = shortest_cycle_basis(neighbor_lists(n, edges), edges)
        assert first == second
