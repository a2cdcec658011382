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

from collections.abc import Collection
from dataclasses import dataclass

import numpy as np

from .molgraph import MolecularGraph, ring_bonds

FUNCTIONAL_GROUP = "FG"
AROMATIC_RING = "AromaticRing"
COMPONENT = "Component"


class CoverageError(ValueError):
    """An atom is not covered by any group."""


@dataclass(frozen=True)
class Group:
    kind: str
    atoms: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in (FUNCTIONAL_GROUP, AROMATIC_RING, COMPONENT):
            raise ValueError(f"unknown group kind {self.kind!r}")
        if not self.atoms:
            raise ValueError("a group cannot be empty")
        if tuple(sorted(self.atoms)) != self.atoms:
            raise ValueError("group atoms must be sorted")


@dataclass
class GroupSet:
    """Ordered groups of one molecule: functional groups first, then
    aromatic rings, then leftover components."""

    groups: list[Group]

    @property
    def kinds(self) -> list[str]:
        return [g.kind for g in self.groups]

    def __len__(self) -> int:
        return len(self.groups)

    def __iter__(self):
        return iter(self.groups)


def _with_hydrogens(graph: MolecularGraph, atoms: Collection[int]) -> tuple[int, ...]:
    """``atoms`` plus the hydrogens bonded to them, sorted ascending."""
    members = set(atoms)
    for atom in atoms:
        members.update(nbr for nbr in graph.neighbors(atom) if graph.atoms[nbr].element == "H")
    return tuple(sorted(members))


def detect_aromatic_rings(graph: MolecularGraph) -> list[tuple[int, ...]]:
    """Rings whose every bond is aromatic, each returned with its attached
    hydrogens, sorted ascending."""
    aromatic = {tuple(sorted(b.endpoints)) for b in graph.bonds if b.order == "aromatic"}
    return [
        _with_hydrogens(graph, ring)
        for ring in graph.rings
        if all(pair in aromatic for pair in ring_bonds(ring))
    ]


def identify_functional_groups(graph: MolecularGraph) -> list[tuple[int, ...]]:
    """Functional groups as sorted atom tuples, ordered by smallest member.

    Marking rules: (a) non-aromatic heteroatoms; (b) carbons joined by a
    non-aromatic double or triple bond; (c) carbons with only single bonds
    to at least two of O, N, S (acetal pattern); (d) every atom of a
    3-membered heterocycle. Connected marks merge into one group, which then
    absorbs its hydrogens and any terminal carbon whose heavy neighbors all
    lie inside the group (the methyl of a methoxy).
    """
    atoms = graph.atoms
    marked: set[int] = set()

    for i, atom in enumerate(atoms):
        if atom.element not in ("C", "H") and not atom.aromatic:
            marked.add(i)

    for bond in graph.bonds:
        if bond.order in ("double", "triple"):
            for end in bond.endpoints:
                if atoms[end].element == "C":
                    marked.add(end)

    for i, atom in enumerate(atoms):
        if atom.element != "C" or atom.aromatic or i in graph.unsaturated:
            continue
        hetero_neighbors = sum(
            1 for nbr in graph.neighbors(i) if atoms[nbr].element in ("O", "N", "S")
        )
        if hetero_neighbors >= 2:
            marked.add(i)

    for ring in graph.rings:
        if len(ring) == 3 and any(atoms[i].element not in ("C", "H") for i in ring):
            marked.update(ring)

    # Merge marked atoms that are bonded to each other.
    cores = [set(part) for part in graph.components(marked)]

    # An unmarked carbon joins the core that holds all of its heavy neighbors;
    # cores are disjoint, so one pass finds the one core, if any.
    core_of = {atom: k for k, core in enumerate(cores) for atom in core}
    for i, atom in enumerate(atoms):
        if atom.element != "C" or i in marked:
            continue
        owners = {core_of.get(nbr) for nbr in graph.neighbors(i) if atoms[nbr].element != "H"}
        if len(owners) == 1 and None not in owners:
            cores[owners.pop()].add(i)

    groups = [_with_hydrogens(graph, core) for core in cores]
    groups.sort(key=lambda g: g[0])
    return groups


def partition(graph: MolecularGraph) -> GroupSet:
    """Partition every atom into functional groups, aromatic rings and
    leftover connected components, in that order, each kind sorted by its
    smallest member. A molecule without functional groups or aromatic rings
    becomes a single component."""
    functional = identify_functional_groups(graph)
    rings = detect_aromatic_rings(graph)

    covered = {atom for group in functional + rings for atom in group}
    leftovers = graph.components(set(range(graph.num_atoms)) - covered)

    groups = [Group(FUNCTIONAL_GROUP, g) for g in functional]
    groups += [Group(AROMATIC_RING, g) for g in sorted(rings, key=lambda g: g[0])]
    groups += [Group(COMPONENT, g) for g in leftovers]
    return GroupSet(groups)


def build_membership(group_set: GroupSet, num_atoms: int) -> np.ndarray:
    """Node-to-group membership matrix, one row per atom, one column per
    group. An atom in m groups gets 1/m in each of their columns, so every
    row sums to exactly one. Raises CoverageError for an uncovered atom."""
    if not len(group_set):
        raise CoverageError("no groups to build a membership matrix from")
    counts = np.zeros(num_atoms)
    for group in group_set:
        for atom in group.atoms:
            if not 0 <= atom < num_atoms:
                raise ValueError(f"group references atom {atom} outside 0..{num_atoms - 1}")
            counts[atom] += 1
    uncovered = np.flatnonzero(counts == 0)
    if uncovered.size:
        raise CoverageError(f"atom {int(uncovered[0])} is not covered by any group")

    matrix = np.zeros((num_atoms, len(group_set)))
    for column, group in enumerate(group_set):
        for atom in group.atoms:
            matrix[atom, column] = 1.0 / counts[atom]
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


def check_bond_consistency(graph: MolecularGraph, group_set: GroupSet) -> list[Violation]:
    """Report bonds that split across groups against the grouping rules:
    multiple or aromatic bonds ("multiple-bond"), conjugated single bonds
    ("conjugated") and ring bonds ("same-ring"). A bond can violate several
    rules at once; one violation is emitted per rule."""
    membership_of: list[set[int]] = [set() for _ in range(graph.num_atoms)]
    for column, group in enumerate(group_set):
        for atom in group.atoms:
            membership_of[atom].add(column)

    violations = []
    for bond in graph.bonds:
        i, j = bond.endpoints
        shares_group = bool(membership_of[i] & membership_of[j])
        if shares_group:
            continue
        if bond.order in ("double", "triple", "aromatic"):
            violations.append(Violation(i, j, "multiple-bond"))
        if bond.conjugated:
            violations.append(Violation(i, j, "conjugated"))
        if bond.in_ring:
            violations.append(Violation(i, j, "same-ring"))
    return violations
