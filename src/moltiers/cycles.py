"""Cycle basis extraction for small undirected graphs.

The basis prefers short cycles. The fundamental cycles of a BFS spanning
forest come first: they span the cycle space, and the union of their edges
is exactly the set of edges that lie on some cycle (any cycle is an XOR of
fundamental cycles, so a bridge is on none). For each of those cycle edges
we then take the shortest cycle through it, by BFS over the cycle edges
with that edge removed, and greedily select independent cycles over GF(2)
until the cycle space is spanned. Bridges and the chains they form are
never searched, so the cost grows with the ring systems, not the molecule.
On molecular graphs this recovers the chemically meaningful small rings,
e.g. the two 6-rings of naphthalene instead of its 10-ring perimeter.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence


def _bfs_path(adj: list[list[int]], src: int, dst: int, banned: frozenset[int]) -> list[int] | None:
    """Shortest path src -> dst that avoids the banned edge, or None."""
    if src == dst:
        return [src]
    parents = {src: -1}
    queue = deque([src])
    while queue:
        node = queue.popleft()
        for nbr, edge_id in adj[node]:
            if edge_id in banned or nbr in parents:
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


def _fundamental_cycles(num_nodes: int, adj: list[list[int]]) -> tuple[list[list[int]], int]:
    """Cycles induced by non-tree edges of a BFS spanning forest, and its tree count."""
    parent = [-2] * num_nodes  # -2 unvisited, -1 root
    parent_edge = [-1] * num_nodes
    order: list[int] = []
    components = 0
    for root in range(num_nodes):
        if parent[root] != -2:
            continue
        components += 1
        parent[root] = -1
        queue = deque([root])
        while queue:
            node = queue.popleft()
            order.append(node)
            for nbr, edge_id in adj[node]:
                if parent[nbr] != -2:
                    continue
                parent[nbr] = node
                parent_edge[nbr] = edge_id
                queue.append(nbr)

    tree_edges = {parent_edge[n] for n in range(num_nodes) if parent_edge[n] >= 0}
    cycles = []
    seen_edges = set()
    for node in order:
        for nbr, edge_id in adj[node]:
            if edge_id in tree_edges or edge_id in seen_edges:
                continue
            seen_edges.add(edge_id)
            # Walk both endpoints up to the root, then trim the shared tail.
            path_a = [node]
            while parent[path_a[-1]] >= 0:
                path_a.append(parent[path_a[-1]])
            path_b = [nbr]
            while parent[path_b[-1]] >= 0:
                path_b.append(parent[path_b[-1]])
            in_a = {n: i for i, n in enumerate(path_a)}
            meet = next(i for i, n in enumerate(path_b) if n in in_a)
            junction = path_b[meet]
            cycle = path_a[: in_a[junction] + 1] + path_b[:meet][::-1]
            cycles.append(cycle)
    return cycles, components


def _cycle_edge_ids(cycle: list[int], edge_ids: dict[tuple[int, int], int]) -> list[int]:
    ids = []
    for i, node in enumerate(cycle):
        nxt = cycle[(i + 1) % len(cycle)]
        key = (node, nxt) if node < nxt else (nxt, node)
        ids.append(edge_ids[key])
    return ids


def shortest_cycle_basis(num_nodes: int, edges: Sequence[tuple[int, int]]) -> list[tuple[int, ...]]:
    """Return a cycle basis as ordered node tuples, shortest cycles first.

    The basis has exactly U - N + C members (U edges, N nodes, C connected
    components).
    """
    edge_ids: dict[tuple[int, int], int] = {}
    adj: list[list[int]] = [[] for _ in range(num_nodes)]
    for edge_id, (u, v) in enumerate(edges):
        key = (u, v) if u < v else (v, u)
        if key in edge_ids:
            raise ValueError(f"duplicate edge {key}")
        edge_ids[key] = edge_id
        adj[u].append((v, edge_id))
        adj[v].append((u, edge_id))

    fundamental, components = _fundamental_cycles(num_nodes, adj)
    # A shortest path avoiding an edge, plus that edge, is a simple cycle, so
    # it uses cycle edges only and the pruned adjacency finds the same path.
    on_cycle = {e for cycle in fundamental for e in _cycle_edge_ids(cycle, edge_ids)}
    ring_adj = [[(nbr, e) for nbr, e in row if e in on_cycle] for row in adj]
    candidates = [
        _bfs_path(ring_adj, v, u, frozenset([edge_id]))
        for (u, v), edge_id in edge_ids.items()
        if edge_id in on_cycle
    ]
    candidates.extend(fundamental)

    seen: set[frozenset[int]] = set()
    unique = []
    for cycle in candidates:
        key = frozenset(_cycle_edge_ids(cycle, edge_ids))
        if key not in seen:
            seen.add(key)
            unique.append(cycle)
    unique.sort(key=lambda c: (len(c), tuple(c)))

    target = len(edges) - num_nodes + components

    basis: list[tuple[int, ...]] = []
    pivots: dict[int, int] = {}  # pivot edge-id -> reduced bitset
    for cycle in unique:
        if len(basis) == target:
            break
        vec = 0
        for edge_id in _cycle_edge_ids(cycle, edge_ids):
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
