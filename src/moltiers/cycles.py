"""Cycle basis extraction for small undirected graphs.

The basis prefers short cycles. The fundamental cycles of a BFS spanning
forest come first: they span the cycle space, and the union of their edges
is exactly the set of edges that lie on some cycle (any cycle is an XOR of
fundamental cycles, so a bridge is on none). For each of those cycle edges
we then take the shortest cycle through it, by BFS over the cycle edges
with that edge removed, and greedily select independent cycles over GF(2)
until the cycle space is spanned. Fundamental cycles that share no node
(isolated rings) are each the only cycle through their edges, so they are
the basis as they stand, with no search. A node of degree 1 (a molecule's
hydrogens and halogens) lies on no cycle and is never walked, bridges are
never searched, and a forest returns once its walk is done, so the cost
grows with the ring systems, not the molecule.
On molecular graphs this recovers the chemically meaningful small rings,
e.g. the two 6-rings of naphthalene instead of its 10-ring perimeter.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence


def _bfs_path(adj: dict[int, list], src: int, dst: int, banned: int) -> list[int] | None:
    """Shortest path src -> dst that avoids the banned edge, or None."""
    if src == dst:
        return [src]
    parents = {src: -1}
    queue = deque([src])
    while queue:
        node = queue.popleft()
        for nbr, edge_id in adj[node]:
            if edge_id == banned or nbr in parents:
                continue
            parents[nbr] = node
            if nbr == dst:
                path = [dst]
                while path[-1] != src:
                    path.append(parents[path[-1]])
                path.reverse()
                return path
            queue.append(nbr)
    return None


def _fundamental_cycles(
    adj: list[list[tuple[int, int]]], neighbors: Sequence[Sequence[int]], num_edges: int
) -> tuple[list[list[int]], int]:
    """Cycles induced by non-tree edges of a BFS spanning forest, and its tree count.

    ``adj`` holds only the edges between nodes of degree 2 or more. A node
    of degree 1 only ends tree paths, so it is never queued, and one that
    would root a tree passes the root to its one neighbour: the tree paths
    among the other nodes, and so the cycles, stay those of a walk over
    every node.
    """
    num_nodes = len(adj)
    parent = [-2] * num_nodes  # -2 unvisited, -1 root
    parent_edge, depth = [-1] * num_nodes, [0] * num_nodes
    order: list[int] = []
    components = 0
    for root in range(num_nodes):
        if len(neighbors[root]) == 1:
            other = neighbors[root][0]
            if len(neighbors[other]) == 1:  # two nodes joined only to each other
                components += root < other
                continue
            root = other
        if parent[root] != -2:
            continue
        components += 1
        parent[root] = -1
        queue = [root]
        for node in queue:  # the list is the BFS queue
            for nbr, edge_id in adj[node]:
                if parent[nbr] == -2:
                    parent[nbr], parent_edge[nbr], depth[nbr] = node, edge_id, depth[node] + 1
                    queue.append(nbr)
        order += queue
    if num_edges == num_nodes - components:
        return [], components

    cycles = []
    seen_edges = set()
    for node in order:
        for nbr, edge_id in adj[node]:
            if parent_edge[nbr] == edge_id or parent_edge[node] == edge_id or edge_id in seen_edges:
                continue
            seen_edges.add(edge_id)
            # Climb from the deeper end until the two tree paths meet.
            path_a, path_b = [node], [nbr]
            while path_a[-1] != path_b[-1]:
                deeper = path_a if depth[path_a[-1]] >= depth[path_b[-1]] else path_b
                deeper.append(parent[deeper[-1]])
            cycles.append(path_a + path_b[-2::-1])
    return cycles, components


def _cycle_edge_ids(cycle: list[int], edge_ids: dict[tuple[int, int], int]) -> list[int]:
    return [edge_ids[(a, b) if a < b else (b, a)] for a, b in zip(cycle, cycle[1:] + cycle[:1])]


def _as_searched(cycle: list[int], edge_ids: dict[tuple[int, int], int]) -> tuple[int, ...]:
    """The only cycle through its edges, as the search from its lowest-id edge
    (u, v), u < v, finds it: from v the long way round to u."""
    pairs = [(a, b) if a < b else (b, a) for a, b in zip(cycle, cycle[1:] + cycle[:1])]
    u, v = min(pairs, key=edge_ids.__getitem__)
    i = cycle.index(v)
    path = cycle[i:] + cycle[:i]
    return tuple(path if path[1:2] != [u] else [v, *path[:0:-1]])


def shortest_cycle_basis(
    neighbors: Sequence[Sequence[int]], edges: Sequence[tuple[int, int]]
) -> list[tuple[int, ...]]:
    """Return a cycle basis as ordered node tuples, shortest cycles first.

    ``neighbors`` lists each node's neighbours, in the order of ``edges``,
    whose positions number the edges; neither may repeat an edge. The basis
    has exactly U - N + C members (U edges, N nodes, C connected components).
    """
    num_nodes = len(neighbors)
    # Only edges between nodes of degree 2 or more can lie on a cycle.
    edge_ids: dict[tuple[int, int], int] = {}
    adj: list[list[tuple[int, int]]] = [[] for _ in range(num_nodes)]
    for edge_id, (u, v) in enumerate(edges):
        if len(neighbors[u]) > 1 and len(neighbors[v]) > 1:
            edge_ids[(u, v) if u < v else (v, u)] = edge_id
            adj[u].append((v, edge_id))
            adj[v].append((u, edge_id))

    fundamental, components = _fundamental_cycles(adj, neighbors, len(edges))
    if len({node for cycle in fundamental for node in cycle}) == sum(map(len, fundamental)):
        # Cycles that share no node are each the only cycle through their edges.
        return sorted((_as_searched(c, edge_ids) for c in fundamental), key=lambda c: (len(c), c))
    on_cycle = {e for cycle in fundamental for e in _cycle_edge_ids(cycle, edge_ids)}
    # A shortest path avoiding an edge, plus that edge, is a simple cycle, so
    # it uses cycle edges only and the pruned adjacency finds the same path.
    ring_adj = {
        node: [(nbr, e) for nbr, e in adj[node] if e in on_cycle]
        for node in {node for cycle in fundamental for node in cycle}
    }
    candidates = [_bfs_path(ring_adj, v, u, e) for (u, v), e in edge_ids.items() if e in on_cycle]
    candidates.extend(fundamental)

    unique: dict[frozenset[int], tuple[list[int], list[int]]] = {}
    for cycle in candidates:
        ids = _cycle_edge_ids(cycle, edge_ids)
        unique.setdefault(frozenset(ids), (cycle, ids))
    ranked = sorted(unique.values(), key=lambda pair: (len(pair[0]), tuple(pair[0])))

    target = len(edges) - num_nodes + components

    basis: list[tuple[int, ...]] = []
    pivots: dict[int, int] = {}  # pivot edge-id -> reduced bitset
    for cycle, ids in ranked:
        if len(basis) == target:
            break
        vec = 0
        for edge_id in ids:
            vec ^= 1 << edge_id
        while vec:
            pivot = vec.bit_length() - 1
            if pivot not in pivots:
                pivots[pivot] = vec
                basis.append(tuple(cycle))
                break
            vec ^= pivots[pivot]
    if len(basis) != target:
        raise RuntimeError(f"cycle basis incomplete: {len(basis)} of {target}")
    return basis
