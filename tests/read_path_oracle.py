"""The read path as it was before it became linear: ring perception that
searches every edge, functional-group absorption that rescans every atom
for every core, and node featurization one atom at a time. Also the
partition and the ring and conjugation flags as they were before the
graph shared one component walk and one unsaturation set: a BFS per use,
a bond-order dict for aromatic rings and per-atom bond lists.

And the dense arrays as a graph built and stored them before it kept no
array: the adjacency from per-bond scalar stores, and node features whose
hydrogen count is ``A @ is_H`` and whose heavy degree is the row sum minus
that count.

Also the ring search's helpers as they were before ring perception
skipped degree-1 nodes (``_bfs_path``, ``_fundamental_cycles`` and
``_cycle_edge_ids``, copied so that the reference does not run the code it
checks), the membership matrix filled one numpy scalar at a time, and the
atom degree scale taken from the row sums of A + I, as ``gnn.degree_scale``
took it before ``MoleculeData`` counted bond ends, and the atom propagator
as ``gnn.scale_adjacency`` built it from that scale over the dense
adjacency, alone or as a zero-padded stack, before it was scattered from
the bonds.

Tests require the library's versions to match these exactly. The three
per-atom helpers stand in for the ``MolecularGraph`` methods the old
featurization called. Each version reads neighbours from lists it builds
from ``graph.pairs`` with ``neighbor_lists``, not from the graph.

And the component walk as it was before it seeded its parts in one pass
over the sorted nodes: ``min`` of the unvisited nodes once per part.

Last, helpers that hand the library's versions their inputs or read their
outputs: the neighbour lists a graph builds from its bonds, the five
constructor lists of an all-carbon molecule, and each bond's multiple-bond,
ring and conjugation facts as ``check_bond_consistency`` reports them. The versions above read a graph's
atoms and bonds as rows zipped from its per-field lists.

And a graph's ``ring_atoms`` and ``unsaturated`` as its constructor stored
them, and its ``_bond_ends()`` as it was built from a stored list of pairs,
before a graph kept each bond end in a per-field list.
"""

from collections import deque, namedtuple
from itertools import chain
from typing import Sequence

import numpy as np

from moltiers.grouping import (
    AROMATIC_RING,
    COMPONENT,
    FUNCTIONAL_GROUP,
    Group,
    check_bond_consistency,
)
from moltiers.molgraph import ELEMENTS, NODE_FEATURE_DIM, MolecularGraph


AtomRow = namedtuple("AtomRow", "element formal_charge aromatic")
BondRow = namedtuple("BondRow", "first second order")


def atom_rows(graph: MolecularGraph) -> list[AtomRow]:
    return [AtomRow(*row) for row in zip(graph.elements, graph.charges, graph.aromatic)]


def bond_rows(graph: MolecularGraph) -> list[BondRow]:
    return [BondRow(i, j, order) for (i, j), order in zip(graph.pairs, graph.orders)]


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
    edge_ids: dict[tuple[int, int], int] = {}
    adj: list[list[int]] = [[] for _ in range(num_nodes)]
    for edge_id, (u, v) in enumerate(edges):
        key = (u, v) if u < v else (v, u)
        if key in edge_ids:
            raise ValueError(f"duplicate edge {key}")
        edge_ids[key] = edge_id
        adj[u].append((v, edge_id))
        adj[v].append((u, edge_id))

    candidates = []
    for (u, v), edge_id in edge_ids.items():
        path = _bfs_path(adj, v, u, frozenset([edge_id]))
        if path is not None:
            candidates.append(path)
    fundamental, components = _fundamental_cycles(num_nodes, adj)
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


def identify_functional_groups(graph: MolecularGraph) -> list[tuple[int, ...]]:
    atoms, bonds, neighbors = atom_rows(graph), bond_rows(graph), neighbor_lists(graph.num_atoms, graph.pairs)
    marked: set[int] = set()

    for i, atom in enumerate(atoms):
        if atom.element not in ("C", "H") and not atom.aromatic:
            marked.add(i)

    for bond in bonds:
        if bond.order in ("double", "triple"):
            for end in (bond.first, bond.second):
                if atoms[end].element == "C":
                    marked.add(end)

    for i, atom in enumerate(atoms):
        if atom.element != "C" or atom.aromatic:
            continue
        orders = [b.order for b in bonds if i in (b.first, b.second)]
        if any(o != "single" for o in orders):
            continue
        hetero_neighbors = sum(
            1 for nbr in neighbors[i] if atoms[nbr].element in ("O", "N", "S")
        )
        if hetero_neighbors >= 2:
            marked.add(i)

    for ring in graph.rings:
        if len(ring) == 3 and any(atoms[i].element not in ("C", "H") for i in ring):
            marked.update(ring)

    # Merge marked atoms that are bonded to each other.
    cores: list[set[int]] = []
    unvisited = set(marked)
    while unvisited:
        seed = min(unvisited)
        core = {seed}
        queue = deque([seed])
        unvisited.discard(seed)
        while queue:
            node = queue.popleft()
            for nbr in neighbors[node]:
                if nbr in unvisited:
                    unvisited.discard(nbr)
                    core.add(nbr)
                    queue.append(nbr)
        cores.append(core)

    groups = []
    for core in cores:
        members = set(core)
        for i, atom in enumerate(atoms):
            if atom.element != "C" or i in marked:
                continue
            heavy = [nbr for nbr in neighbors[i] if atoms[nbr].element != "H"]
            if heavy and all(nbr in core for nbr in heavy):
                members.add(i)
        for member in list(members):
            members.update(
                nbr for nbr in neighbors[member] if atoms[nbr].element == "H"
            )
        groups.append(tuple(sorted(members)))
    groups.sort(key=lambda g: g[0])
    return groups


def detect_aromatic_rings(graph: MolecularGraph) -> list[tuple[int, ...]]:
    neighbors = neighbor_lists(graph.num_atoms, graph.pairs)
    bond_order = {}
    for bond in bond_rows(graph):
        i, j = bond.first, bond.second
        bond_order[(min(i, j), max(i, j))] = bond.order

    results = []
    for ring in graph.rings:
        edges = [
            (min(ring[i], ring[(i + 1) % len(ring)]), max(ring[i], ring[(i + 1) % len(ring)]))
            for i in range(len(ring))
        ]
        if all(bond_order[e] == "aromatic" for e in edges):
            members = set(ring)
            for atom in ring:
                members.update(
                    nbr for nbr in neighbors[atom] if graph.elements[nbr] == "H"
                )
            results.append(tuple(sorted(members)))
    return results


def partition(graph: MolecularGraph) -> list[Group]:
    functional = identify_functional_groups(graph)
    rings = detect_aromatic_rings(graph)

    covered: set[int] = set()
    for group in functional:
        covered.update(group)
    for group in rings:
        covered.update(group)

    leftovers: list[tuple[int, ...]] = []
    neighbors = neighbor_lists(graph.num_atoms, graph.pairs)
    unvisited = set(range(graph.num_atoms)) - covered
    while unvisited:
        seed = min(unvisited)
        component = {seed}
        queue = deque([seed])
        unvisited.discard(seed)
        while queue:
            node = queue.popleft()
            for nbr in neighbors[node]:
                if nbr in unvisited:
                    unvisited.discard(nbr)
                    component.add(nbr)
                    queue.append(nbr)
        leftovers.append(tuple(sorted(component)))
    leftovers.sort(key=lambda g: g[0])

    groups = [Group(FUNCTIONAL_GROUP, g) for g in functional]
    groups += [Group(AROMATIC_RING, g) for g in sorted(rings, key=lambda g: g[0])]
    groups += [Group(COMPONENT, g) for g in leftovers]
    return groups


def ring_flags(graph: MolecularGraph) -> tuple[frozenset[int], list[tuple[bool, bool]]]:
    """``ring_atoms`` and each bond's ``(in_ring, conjugated)``, derived as
    the graph constructor once derived them from its per-atom bond lists."""
    n = graph.num_atoms
    bonds_at = [[] for _ in range(n)]
    for bond in bond_rows(graph):
        i, j = bond.first, bond.second
        bonds_at[i].append(bond)
        bonds_at[j].append(bond)

    ring_edges = set()
    ring_atoms = set()
    for ring in graph.rings:
        ring_atoms.update(ring)
        for i, node in enumerate(ring):
            nxt = ring[(i + 1) % len(ring)]
            ring_edges.add((min(node, nxt), max(node, nxt)))

    multi = [
        any(b.order in ("double", "triple", "aromatic") for b in bonds_at[i])
        for i in range(n)
    ]
    flags = []
    for bond in bond_rows(graph):
        i, j = bond.first, bond.second
        in_ring = (min(i, j), max(i, j)) in ring_edges
        conjugated = bond.order == "single" and multi[i] and multi[j]
        flags.append((in_ring, conjugated))
    return frozenset(ring_atoms), flags


def components(graph: MolecularGraph, nodes) -> list[tuple[int, ...]]:
    neighbors = neighbor_lists(graph.num_atoms, graph.pairs)
    unvisited = set(nodes)
    parts = []
    while unvisited:
        seed = min(unvisited)
        unvisited.discard(seed)
        part = [seed]
        for node in part:
            for nbr in neighbors[node]:
                if nbr in unvisited:
                    unvisited.discard(nbr)
                    part.append(nbr)
        parts.append(tuple(sorted(part)))
    return parts


def atom_in_ring(graph: MolecularGraph, index: int) -> bool:
    return any(index in ring for ring in graph.rings)


def heavy_degree(graph: MolecularGraph, neighbors: list[list[int]], index: int) -> int:
    return sum(1 for nbr in neighbors[index] if graph.elements[nbr] != "H")


def attached_hydrogens(graph: MolecularGraph, neighbors: list[list[int]], index: int) -> int:
    return sum(1 for nbr in neighbors[index] if graph.elements[nbr] == "H")


def featurize_nodes(graph: MolecularGraph) -> np.ndarray:
    n = graph.num_atoms
    neighbors = neighbor_lists(n, graph.pairs)
    features = np.zeros((n, NODE_FEATURE_DIM))
    for i, atom in enumerate(atom_rows(graph)):
        features[i, ELEMENTS.index(atom.element)] = 1.0
        features[i, 11] = 1.0 if atom.aromatic else 0.0
        features[i, 12] = float(atom.formal_charge)
        features[i, 13] = float(heavy_degree(graph, neighbors, i))
        features[i, 14] = float(attached_hydrogens(graph, neighbors, i))
        features[i, 15] = 1.0 if atom_in_ring(graph, i) else 0.0
    return features


def adjacency(graph: MolecularGraph) -> np.ndarray:
    n = graph.num_atoms
    result = np.zeros((n, n))
    for bond in bond_rows(graph):
        i, j = bond.first, bond.second
        result[i, j] = 1.0
        result[j, i] = 1.0
    return result


def dense_featurize_nodes(graph: MolecularGraph) -> np.ndarray:
    atoms = atom_rows(graph)
    features = np.zeros((len(atoms), NODE_FEATURE_DIM))
    features[np.arange(len(atoms)), [ELEMENTS.index(a.element) for a in atoms]] = 1.0
    features[:, 11] = [a.aromatic for a in atoms]
    features[:, 12] = [a.formal_charge for a in atoms]
    stored = adjacency(graph)
    hydrogens = stored @ features[:, 0]  # ELEMENTS[0] is H
    features[:, 13] = stored.sum(axis=1) - hydrogens
    features[:, 14] = hydrogens
    features[list(graph.ring_atoms), 15] = 1.0
    return features


def build_membership(group_set: list[Group], num_atoms: int) -> np.ndarray:
    if not len(group_set):
        raise ValueError("no groups to build a membership matrix from")
    counts = np.zeros(num_atoms)
    for group in group_set:
        for atom in group.atoms:
            if not 0 <= atom < num_atoms:
                raise ValueError(f"group references atom {atom} outside 0..{num_atoms - 1}")
            counts[atom] += 1
    uncovered = np.flatnonzero(counts == 0)
    if uncovered.size:
        raise ValueError(f"atom {int(uncovered[0])} is not covered by any group")

    matrix = np.zeros((num_atoms, len(group_set)))
    for column, group in enumerate(group_set):
        for atom in group.atoms:
            matrix[atom, column] = 1.0 / counts[atom]
    return matrix


def degree_scale(adjacency: np.ndarray) -> np.ndarray:
    """D^-1/2 of A + I as a vector: 1 / sqrt of each row sum of a copy of
    ``adjacency`` with 1.0 added to its diagonal."""
    with_loops = np.array(adjacency, dtype=np.float64)
    with_loops[np.diag_indices_from(with_loops)] += 1.0
    return 1.0 / np.sqrt(with_loops.sum(axis=1))


def atom_propagator(adjacency: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """scale (A + I) scale for a C-ordered ``adjacency`` with a zero diagonal,
    or a (B, n, n) stack of them with (B, n) scales: the rows of A scaled,
    the diagonal set to the scale, then the columns scaled."""
    scaled = adjacency * scale[..., :, None]
    diagonal = scaled.reshape(*scaled.shape[:-2], -1)[..., :: scaled.shape[-1] + 1]  # a view
    diagonal[...] = scale
    scaled *= scale[..., None, :]
    return scaled


def neighbor_lists(num_nodes: int, edges: Sequence[tuple[int, int]]) -> list[list[int]]:
    """Each node's neighbours in edge order, as ``MolecularGraph`` lists them
    for ring perception."""
    neighbors = [[] for _ in range(num_nodes)]
    for a, b in edges:
        neighbors[a].append(b)
        neighbors[b].append(a)
    return neighbors


def carbon_fields(count: int, pairs: Sequence[tuple[int, int]], orders: Sequence[str] | None = None) -> tuple:
    """``MolecularGraph``'s five lists for ``count`` uncharged aliphatic
    carbons joined by ``pairs``, single bonds unless ``orders`` says otherwise."""
    return ["C"] * count, [0] * count, [False] * count, list(pairs), list(orders or ["single"] * len(pairs))


def bond_flags(graph: MolecularGraph) -> list[tuple[bool, bool, bool]]:
    """Each bond's ``(multiple, in_ring, conjugated)``, read from the
    violations of a partition that puts every atom in a group of its own
    and so splits every bond."""
    alone = [Group(COMPONENT, (atom,)) for atom in range(graph.num_atoms)]
    found = {(v.first, v.second, v.rule) for v in check_bond_consistency(graph, alone)}
    return [
        tuple((bond.first, bond.second, rule) in found for rule in ("multiple-bond", "same-ring", "conjugated"))
        for bond in bond_rows(graph)
    ]


def stored_ring_atoms(graph: MolecularGraph) -> frozenset[int]:
    return frozenset(atom for ring in graph.rings for atom in ring)


def stored_unsaturated(graph: MolecularGraph) -> frozenset[int]:
    return frozenset(end for pair, order in zip(graph.pairs, graph.orders) if order != "single" for end in pair)


def bond_ends(graph: MolecularGraph) -> np.ndarray:
    flat = np.fromiter(chain.from_iterable(graph.pairs), np.intp, 2 * len(graph.pairs))
    return flat.reshape(-1, 2).T.copy()
