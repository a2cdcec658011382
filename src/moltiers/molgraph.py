"""Molecular graph model and feature matrices.

Hydrogens are explicit nodes: graphs carry every atom, and for a connected
molecule U = N - 1 + R where R is the number of independent rings. Ring
perception (a shortest-cycle basis) runs at construction, over the neighbour
lists the constructor checks; the basis also decides connectivity, having
U - N + C members for C connected components.
A graph holds no array: :class:`moltiers.models.MoleculeData` builds its
adjacency, and :func:`featurize_nodes` its node features, from ``_bond_ends``.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .cycles import shortest_cycle_basis

ELEMENTS = ("H", "B", "C", "N", "O", "F", "P", "S", "Cl", "Br", "I")

#: Standard valences; multi-valent elements list every allowed state.
VALENCES = {
    "H": (1,),
    "B": (3,),
    "C": (4,),
    "N": (3,),
    "O": (2,),
    "F": (1,),
    "P": (3, 5),
    "S": (2, 4, 6),
    "Cl": (1,),
    "Br": (1,),
    "I": (1,),
}

BOND_ORDERS = ("single", "double", "triple", "aromatic")

#: Width of the node feature rows produced by :func:`featurize_nodes`.
NODE_FEATURE_DIM = len(ELEMENTS) + 5
_ELEMENT_COLUMN = {element: column for column, element in enumerate(ELEMENTS)}


def hill_formula(elements: Iterable[str]) -> str:
    """Element summary in Hill order: C, H, then the rest alphabetically."""
    counts = Counter(elements)
    ordered = [e for e in ("C", "H") if e in counts]
    ordered += sorted(e for e in counts if e not in ("C", "H"))
    return "".join(f"{e}{counts[e]}" if counts[e] > 1 else e for e in ordered)


@dataclass(slots=True)
class Atom:
    element: str
    formal_charge: int = 0
    aromatic: bool = False

    def __post_init__(self):
        if self.element not in ELEMENTS:
            raise ValueError(f"unsupported element {self.element!r}")


@dataclass(slots=True)
class Bond:
    first: int
    second: int
    order: str

    def __post_init__(self):
        if self.order not in BOND_ORDERS:
            raise ValueError(f"unsupported bond order {self.order!r}")
        if self.first == self.second:
            raise ValueError(f"bond joins atom {self.first} to itself")


def ring_bonds(ring: tuple[int, ...]) -> list[tuple[int, int]]:
    """The bonds of a ring, in ring order, each as (atom, next atom)."""
    return list(zip(ring, ring[1:] + ring[:1]))


class MolecularGraph:
    """One connected molecule with explicit hydrogens, held as lists.

    Per atom: ``elements``, ``charges`` and ``aromatic`` flags; per bond:
    ``pairs`` (first atom, second atom) and ``orders``. ``atoms`` and
    ``bonds`` are :class:`Atom` and :class:`Bond` views of them, built on
    first access. Construction checks and indexes the bonds, runs ring
    perception over that index and rejects a disconnected graph by its ring
    count. ``fields``, the parser's hand-off, replaces ``atoms`` and
    ``bonds`` by the five lists, elements and orders already checked.
    Treat instances as immutable afterwards.
    """

    def __init__(self, atoms: list[Atom], bonds: list[Bond], name: str = "", smiles: str = "",
                 *, fields: tuple[list, list, list, list, list] | None = None):
        if fields is None:
            atoms, bonds = list(atoms), list(bonds)  # each is read more than once
            fields = ([a.element for a in atoms], [a.formal_charge for a in atoms],
                      [a.aromatic for a in atoms], [(b.first, b.second) for b in bonds],
                      [b.order for b in bonds])
        self.elements, self.charges, self.aromatic, self.pairs, self.orders = fields
        if not self.elements:
            raise ValueError("a molecule needs at least one atom")
        self.name = name
        self.smiles = smiles
        n = len(self.elements)

        self._neighbors = neighbors = [[] for _ in range(n)]
        for i, j in self.pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"bond endpoint out of range: {(i, j)}")
            if j in neighbors[i]:  # an earlier bond joined them
                raise ValueError(f"duplicate bond between atoms {(min(i, j), max(i, j))}")
            neighbors[i].append(j)
            neighbors[j].append(i)

        self.rings = tuple(shortest_cycle_basis(neighbors, self.pairs))
        if len(self.rings) != len(self.pairs) - n + 1:
            reachable = len(self.components(range(n))[0])
            raise ValueError(f"molecular graph is disconnected ({reachable} of {n} atoms reachable)")

        #: Atoms on at least one ring of the basis.
        self.ring_atoms = frozenset(atom for ring in self.rings for atom in ring)
        #: Atoms with a double, triple or aromatic bond.
        self.unsaturated = frozenset(
            end for pair, order in zip(self.pairs, self.orders) if order != "single" for end in pair
        )

    @cached_property
    def atoms(self) -> list[Atom]:
        return [Atom(*atom) for atom in zip(self.elements, self.charges, self.aromatic)]

    @cached_property
    def bonds(self) -> list[Bond]:
        return [Bond(i, j, order) for (i, j), order in zip(self.pairs, self.orders)]

    def components(self, nodes: Iterable[int]) -> list[tuple[int, ...]]:
        """Connected parts of the subgraph induced by ``nodes``, each sorted.
        A part is grown by BFS from its smallest node, and the parts come in
        that order."""
        unvisited = set(nodes)
        parts = []
        while unvisited:
            seed = min(unvisited)
            unvisited.discard(seed)
            part = [seed]
            for node in part:  # the list is the BFS queue
                for nbr in self._neighbors[node]:
                    if nbr in unvisited:
                        unvisited.discard(nbr)
                        part.append(nbr)
            parts.append(tuple(sorted(part)))
        return parts

    # -- simple accessors ---------------------------------------------------

    @property
    def num_atoms(self) -> int:
        return len(self.elements)

    @property
    def num_bonds(self) -> int:
        return len(self.pairs)

    @property
    def ring_count(self) -> int:
        return len(self.rings)

    def neighbors(self, index: int) -> list[int]:
        return self._neighbors[index]

    def formula(self) -> str:
        return hill_formula(self.elements)

    def _bond_ends(self) -> np.ndarray:  # (2, U): each bond's first atom, then its second
        flat = np.fromiter(chain.from_iterable(self.pairs), np.intp, 2 * len(self.pairs))
        return flat.reshape(-1, 2).T.copy()  # C order, so that ravel() is a view

    def __repr__(self) -> str:
        label = self.name or self.smiles or "?"
        return f"MolecularGraph({label}: {self.num_atoms} atoms, {self.num_bonds} bonds)"


def featurize_nodes(graph: MolecularGraph, ends: np.ndarray | None = None) -> np.ndarray:
    """Node feature matrix, one row per atom; ``ends`` is the graph's
    ``_bond_ends()`` if the caller has it already.

    Columns, in order: one-hot element over ELEMENTS (11), aromatic flag,
    formal charge, heavy-atom degree, attached hydrogen count, in-ring flag.
    """
    n = graph.num_atoms
    features = np.zeros((n, NODE_FEATURE_DIM))
    features[np.arange(n), [_ELEMENT_COLUMN[e] for e in graph.elements]] = 1.0
    features[:, 11] = graph.aromatic
    features[:, 12] = graph.charges
    if ends is None:
        ends = graph._bond_ends()
    # Each end counts its other end, exactly; ELEMENTS[0] is H.
    hydrogens = np.bincount(ends.ravel(), features[ends[::-1], 0].ravel(), n)
    features[:, 13] = np.bincount(ends.ravel(), minlength=n) - hydrogens
    features[:, 14] = hydrogens
    features[list(graph.ring_atoms), 15] = 1.0
    return features


@dataclass
class MoleculeRecord:
    """One line of a molecule file: either a parsed graph or a failure."""

    line_number: int
    text: str
    graph: MolecularGraph | None = None
    error: Exception | None = None


def load_molecules(path) -> list[MoleculeRecord]:
    """Read a molecule file: one ``SMILES [name]`` per line; blank lines and
    ``#`` comments are skipped. Parse failures are captured per record, not
    raised."""
    from .smiles import SmilesError, parse_smiles

    records: list[MoleculeRecord] = []
    with open(path, encoding="utf-8") as handle:
        for line_number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(None, 1)
            smiles = parts[0]
            name = parts[1].strip() if len(parts) > 1 else smiles
            record = MoleculeRecord(line_number, line)
            try:
                record.graph = parse_smiles(smiles, name=name)
            except SmilesError as err:
                record.error = err
            records.append(record)
    return records
