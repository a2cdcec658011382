"""Molecular graph model and feature matrices.

Hydrogens are explicit nodes: graphs carry every atom, and for a connected
molecule U = N - 1 + R where R is the number of independent rings. Ring
perception (a shortest-cycle basis) runs at construction, over the neighbour
lists the constructor checks and then drops; the basis also decides
connectivity, having U - N + C members for C connected components.
A graph holds each bond once, no array, and caches nothing:
:class:`moltiers.models.MoleculeData` builds its adjacency, and
:func:`featurize_nodes` its node features, from ``_bond_ends``, and
``ring_atoms``, ``unsaturated`` and ``neighbor_lists()`` are built on each read.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
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


def ring_bonds(ring: tuple[int, ...]) -> list[tuple[int, int]]:
    """The bonds of a ring, in ring order, each as (atom, next atom)."""
    return list(zip(ring, ring[1:] + ring[:1]))


def components(neighbors: list[list[int]], nodes: Iterable[int]) -> list[tuple[int, ...]]:
    """Connected parts of the subgraph of ``neighbors`` induced by ``nodes``,
    each sorted. A part is grown by BFS from its smallest node, and the parts
    come in that order: each seed is the next unvisited node in sorted order."""
    unvisited = set(nodes)
    parts = []
    for seed in sorted(unvisited):
        if seed in unvisited:
            unvisited.discard(seed)
            part = [seed]
            for node in part:  # the list is the BFS queue
                for nbr in neighbors[node]:
                    if nbr in unvisited:
                        unvisited.discard(nbr)
                        part.append(nbr)
            parts.append(tuple(sorted(part)))
    return parts


class MolecularGraph:
    """One connected molecule with explicit hydrogens, held as lists.

    Per atom: ``elements``, ``charges`` and ``aromatic`` flags; per bond:
    ``orders`` and each end's atom in a list of its own, which ``pairs``
    reads back as (first atom, second atom) in constructor order and
    ``neighbor_lists()`` as each atom's neighbours in bond order.
    ``ring_atoms`` and ``unsaturated`` are built on each read. Construction
    copies each input, checks the lengths, elements, bond orders, charges
    (ints) and aromatic flags (bools), then checks and indexes the bonds in
    one pass, naming any bond that is not a pair of atom indices (a bool
    end is none), runs ring perception over that index and rejects a
    disconnected graph by its ring count. Treat instances as immutable
    afterwards.
    """

    def __init__(self, elements: Iterable[str], charges: Iterable[int], aromatic: Iterable[bool],
                 pairs: Iterable[tuple[int, int]], orders: Iterable[str], name: str = "", smiles: str = ""):
        self.elements, self.charges, self.aromatic = list(elements), list(charges), list(aromatic)
        pairs, self.orders = list(map(tuple, pairs)), list(orders)  # a set can hold a pair
        self.name = name
        self.smiles = smiles
        n = len(self.elements)
        if not n:
            raise ValueError("a molecule needs at least one atom")
        if not n == len(self.charges) == len(self.aromatic) or len(pairs) != len(self.orders):
            raise ValueError(f"unequal lengths: {n} elements, {len(self.charges)} charges, {len(self.aromatic)} "
                             f"aromatic flags; {len(pairs)} pairs, {len(self.orders)} orders")
        for values, known, kind in ((self.elements, ELEMENTS, "element"),
                                    (self.orders, BOND_ORDERS, "bond order")):
            if not set(known).issuperset(values):
                raise ValueError(f"unsupported {kind} {next(v for v in values if v not in known)!r}")
        for values, kind, known in ((self.charges, "charge", int), (self.aromatic, "aromatic flag", bool)):
            if set(map(type, values)) != {known}:  # one pass; so a bool is no charge, nor 1 a flag
                atom = next(i for i, value in enumerate(values) if type(value) is not known)
                raise ValueError(f"atom {atom} has {kind} {values[atom]!r}, not of type {known.__name__}")

        neighbors = [[] for _ in range(n)]
        try:
            for i, j in pairs:
                if i == j:
                    raise ValueError(f"bond joins atom {i} to itself")
                if not (0 <= i < n and 0 <= j < n):
                    raise ValueError(f"bond endpoint out of range: {(i, j)}")
                near_i, near_j = neighbors[i], neighbors[j]
                if j in near_i if len(near_i) <= len(near_j) else i in near_j:  # scan the shorter list
                    raise ValueError(f"duplicate bond between atoms {(min(i, j), max(i, j))}")
                near_i.append(j)
                near_j.append(i)
            self._first, self._second = [i for i, _ in pairs], [j for _, j in pairs]
            if bool in set(map(type, self._first)) or bool in set(map(type, self._second)):  # one pass each
                raise TypeError("a bool is no atom index")
        except (TypeError, ValueError) as err:  # a malformed bond stops the loop at itself; a bool end, after it
            indexed = sum(map(len, neighbors)) // 2  # the bonds before it are each indexed twice
            for index, bond in enumerate(pairs[:indexed + 1]):
                if len(bond) != 2 or not all(hasattr(type(end), "__index__") and type(end) is not bool
                                             for end in bond):
                    raise ValueError(f"bond {index} is {bond!r}, not a pair of atom indices") from err
            raise

        self.rings = tuple(shortest_cycle_basis(neighbors, pairs))  # the lists' bond order decides its ties
        if len(self.rings) != len(pairs) - n + 1:
            reachable = len(components(neighbors, range(n))[0])
            raise ValueError(f"molecular graph is disconnected ({reachable} of {n} atoms reachable)")

    def neighbor_lists(self) -> list[list[int]]:
        """Each atom's neighbours in bond order, rebuilt from the bonds on
        every call: build the table once per pass that needs it."""
        neighbors = [[] for _ in self.elements]
        for i, j in zip(self._first, self._second):
            neighbors[i].append(j)
            neighbors[j].append(i)
        return neighbors

    # -- simple accessors ---------------------------------------------------

    @property
    def num_atoms(self) -> int:
        return len(self.elements)

    @property
    def num_bonds(self) -> int:
        return len(self.orders)

    @property
    def ring_count(self) -> int:
        return len(self.rings)

    @property
    def pairs(self) -> list[tuple[int, int]]:
        """Each bond's (first atom, second atom), in constructor order."""
        return list(zip(self._first, self._second))

    @property
    def ring_atoms(self) -> frozenset[int]:
        """Atoms on at least one ring of the basis."""
        return frozenset(chain.from_iterable(self.rings))

    @property
    def unsaturated(self) -> frozenset[int]:
        """Atoms with a double, triple or aromatic bond."""
        return frozenset(end for i, j, order in self._bonds() if order != "single" for end in (i, j))

    def formula(self) -> str:
        return hill_formula(self.elements)

    def _bonds(self) -> Iterator[tuple[int, int, str]]:  # each bond's first atom, second atom and order
        return zip(self._first, self._second, self.orders)

    def _bond_ends(self) -> np.ndarray:  # (2, U): each bond's first atom, then its second
        return np.array((self._first, self._second), np.intp)  # C order, so that ravel() is a view

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
    ``#`` comments are skipped. Parse failures, and lines that are not
    UTF-8, are captured per record, not raised. A leading byte-order mark
    is skipped."""
    from .smiles import SmilesError, parse_smiles

    records: list[MoleculeRecord] = []
    # Bytes that are not UTF-8 decode to lone surrogates, which only their line's record sees.
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as handle:
        for line_number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(None, 1)
            smiles = parts[0]
            name = parts[1].strip() if len(parts) > 1 else smiles
            record = MoleculeRecord(line_number, line)
            try:
                line.encode("utf-8", "surrogateescape").decode("utf-8")  # the strict decode, for its error
                record.graph = parse_smiles(smiles, name=name)
            except (SmilesError, UnicodeDecodeError) as err:
                record.error = err
            records.append(record)
    return records
