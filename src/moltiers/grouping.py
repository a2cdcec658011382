"""Partition a molecule into functional groups, aromatic rings and leftovers.

Functional groups are found by marking rules in the spirit of Ertl's
algorithmic perception: heteroatoms, multiply-bonded carbons, acetal-like
carbons and small heterocycles seed the groups, connected marks merge, and
hydrogens plus captive terminal carbons are attached. Aromatic rings come
from the cycle basis; whatever remains falls into connected leftover
components. Every atom lands in at least one group, so the groups induce a
membership matrix whose rows sum to one (an atom in m groups contributes
1/m to each).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Collection
from dataclasses import dataclass
from operator import lt

import numpy as np

from .molgraph import MolecularGraph, components, ring_bonds

FUNCTIONAL_GROUP = "FG"
AROMATIC_RING = "AromaticRing"
COMPONENT = "Component"


@dataclass(frozen=True)
class Group:
    kind: str
    atoms: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in (FUNCTIONAL_GROUP, AROMATIC_RING, COMPONENT):
            raise ValueError(f"unknown group kind {self.kind!r}")
        if not self.atoms:
            raise ValueError("a group cannot be empty")
        if not all(map(lt, self.atoms, self.atoms[1:])):  # strictly ascending
            repeated = len(set(self.atoms)) < len(self.atoms)
            raise ValueError(f"group atoms must {'not repeat' if repeated else 'be sorted'}")


def _with_hydrogens(elements: list[str], neighbors: list[list[int]], atoms: Collection[int]) -> tuple[int, ...]:
    """``atoms`` plus the hydrogens bonded to them, sorted ascending."""
    members = {nbr for atom in atoms for nbr in neighbors[atom] if elements[nbr] == "H"}
    members.update(atoms)
    return tuple(sorted(members))


def detect_aromatic_rings(graph: MolecularGraph, neighbors: list[list[int]]) -> list[tuple[int, ...]]:
    """Rings whose every bond is aromatic, each returned with its attached
    hydrogens, sorted ascending; ``neighbors`` is ``graph.neighbor_lists()``."""
    if not graph.rings:
        return []
    aromatic = {(i, j) for i, j, order in graph._bonds() if order == "aromatic"}
    return [
        _with_hydrogens(graph.elements, neighbors, ring)
        for ring in graph.rings
        if all((a, b) in aromatic or (b, a) in aromatic for a, b in ring_bonds(ring))
    ]


def identify_functional_groups(graph: MolecularGraph, neighbors: list[list[int]]) -> list[tuple[int, ...]]:
    """Functional groups as sorted atom tuples, ordered by smallest member;
    ``neighbors`` is ``graph.neighbor_lists()``.

    Marking rules: (a) non-aromatic heteroatoms; (b) carbons joined by a
    non-aromatic double or triple bond; (c) carbons with only single bonds
    to at least two of O, N, S (acetal pattern); (d) every atom of a
    3-membered heterocycle. Connected marks merge into one group, which then
    absorbs its hydrogens and any terminal carbon whose heavy neighbors all
    lie inside the group (the methyl of a methoxy).
    """
    elements, aromatic = graph.elements, graph.aromatic
    marked = {i for i, e in enumerate(elements) if e not in ("C", "H") and not aromatic[i]}

    marked.update(
        end for i, j, order in graph._bonds() if order in ("double", "triple") for end in (i, j)
        if elements[end] == "C"
    )
    # The acetal rule counts each carbon's O, N and S neighbours from their side,
    # and reads the unsaturated atoms only when some carbon has two.
    hetero_bonds = Counter(
        nbr for i, e in enumerate(elements) if e in ("O", "N", "S") for nbr in neighbors[i]
    )
    acetal = [i for i, count in hetero_bonds.items() if count >= 2 and elements[i] == "C" and not aromatic[i]]
    if acetal:
        unsaturated = graph.unsaturated
        marked.update(i for i in acetal if i not in unsaturated)

    for ring in graph.rings:
        if len(ring) == 3 and any(elements[i] not in ("C", "H") for i in ring):
            marked.update(ring)

    # Merge marked atoms that are bonded to each other.
    cores = [set(part) for part in components(neighbors, marked)]

    # An unmarked carbon joins the core that holds all of its heavy neighbors;
    # cores are disjoint, so one pass over the carbons next to a core finds
    # the one core, if any.
    core_of = {atom: k for k, core in enumerate(cores) for atom in core}
    bordering = {nbr for atom in marked for nbr in neighbors[atom] if elements[nbr] == "C"}
    for i in bordering - marked:
        owners = {core_of.get(nbr) for nbr in neighbors[i] if elements[nbr] != "H"}
        if len(owners) == 1 and None not in owners:
            cores[owners.pop()].add(i)

    groups = [_with_hydrogens(elements, neighbors, core) for core in cores]
    groups.sort(key=lambda g: g[0])
    return groups


def partition(graph: MolecularGraph) -> list[Group]:
    """Partition every atom into functional groups, aromatic rings and
    leftover connected components, in that order, each kind sorted by its
    smallest member. A molecule without functional groups or aromatic rings
    becomes a single component. The graph's neighbour lists are built once
    here, for every rule and walk."""
    neighbors = graph.neighbor_lists()
    functional = identify_functional_groups(graph, neighbors)
    rings = detect_aromatic_rings(graph, neighbors)

    covered = {atom for group in functional + rings for atom in group}
    leftovers = components(neighbors, set(range(graph.num_atoms)) - covered)

    groups = [Group(FUNCTIONAL_GROUP, g) for g in functional]
    groups += [Group(AROMATIC_RING, g) for g in sorted(rings, key=lambda g: g[0])]
    groups += [Group(COMPONENT, g) for g in leftovers]
    return groups


def build_membership(groups: list[Group], num_atoms: int) -> np.ndarray:
    """Node-to-group membership matrix, one row per atom, one column per
    group. An atom in m groups gets 1/m in each of their columns, so every
    row sums to exactly one. Raises ValueError for an uncovered atom."""
    if not groups:
        raise ValueError("no groups to build a membership matrix from")
    atoms = [atom for group in groups for atom in group.atoms]
    if min(atoms) < 0 or max(atoms) >= num_atoms:
        atom = next(atom for atom in atoms if not 0 <= atom < num_atoms)
        raise ValueError(f"group references atom {atom} outside 0..{num_atoms - 1}")
    index = np.array(atoms)
    counts = np.bincount(index, minlength=num_atoms)
    if not counts.all():
        raise ValueError(f"atom {int(counts.argmin())} is not covered by any group")

    columns = np.repeat(np.arange(len(groups)), [len(group.atoms) for group in groups])
    matrix = np.zeros((num_atoms, len(groups)))
    matrix[index, columns] = 1.0 / counts[index]
    return matrix


def graph_membership(num_groups: int) -> np.ndarray:
    """Group-to-graph membership: a single all-ones column."""
    if num_groups < 1:
        raise ValueError(f"need at least one group, got {num_groups}")
    return np.ones((num_groups, 1))


@dataclass(frozen=True)
class Violation:
    """A bond whose endpoints should share a group under ``rule`` but don't."""

    first: int
    second: int
    rule: str


def check_bond_consistency(graph: MolecularGraph, groups: list[Group]) -> list[Violation]:
    """Report bonds that split across groups against the grouping rules:
    multiple or aromatic bonds ("multiple-bond"), conjugated single bonds
    ("conjugated") and ring bonds ("same-ring"). A bond can violate several
    rules at once; one violation is emitted per rule. A single bond is
    conjugated when both its atoms are in ``graph.unsaturated``, and a ring
    bond when its atoms are adjacent in a ring of ``graph.rings``."""
    membership_of: list[set[int]] = [set() for _ in range(graph.num_atoms)]
    for column, group in enumerate(groups):
        for atom in group.atoms:
            membership_of[atom].add(column)
    ring_edges = {pair for ring in graph.rings for pair in ring_bonds(ring)}
    unsaturated = graph.unsaturated

    violations = []
    for (i, j), order in zip(graph.pairs, graph.orders):
        shares_group = bool(membership_of[i] & membership_of[j])
        if shares_group:
            continue
        if order in ("double", "triple", "aromatic"):
            violations.append(Violation(i, j, "multiple-bond"))
        elif i in unsaturated and j in unsaturated:
            violations.append(Violation(i, j, "conjugated"))
        if (i, j) in ring_edges or (j, i) in ring_edges:
            violations.append(Violation(i, j, "same-ring"))
    return violations
