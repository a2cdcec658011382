"""Parser for a SMILES subset that yields graphs with explicit hydrogens.

Supported notation:

- organic-subset atoms ``B C N O P S F Cl Br I`` and their aromatic
  lowercase forms ``b c n o p s``;
- bracket atoms ``[NH3+]``, ``[O-]``, ``[nH]``, ``[H]`` carrying an explicit
  hydrogen count and formal charge (hydrogen itself only appears this way);
  as in OpenSMILES, the count takes one digit and the charge at most two,
  so ``[CH12]`` and ``[C+123]`` are rejected;
- bond symbols ``-``, ``=``, ``#``; the default bond is single, or aromatic
  when both endpoints are aromatic atoms;
- branches ``( )`` and ring-closure digits ``0``-``9``.

Stereo markers (``/ \\ @``), isotopes, ring closures beyond 9 (``%``) and
multi-fragment input (``.``) are rejected as unsupported tokens. Every
rejection raises :class:`SmilesError`, which names the offending position
in the string when there is one.

Implicit hydrogens on organic-subset atoms are made explicit as nodes. The
hydrogen count comes from the smallest standard valence that fits the bond
order sum; aromatic atoms use their lowest valence state, and each aromatic
system contributes one shared increment to the bond order sum, which
reproduces e.g. one hydrogen per benzene carbon and none on fused-ring
carbons or thiophene sulfur. Bracket atoms say their hydrogen count
explicitly and are taken at face value, so charged species bypass the
valence check. Nodes are numbered in SMILES traversal order with each
atom's hydrogens inserted immediately after it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import accumulate

from .molgraph import ELEMENTS, VALENCES, MolecularGraph

_ORGANIC = {"B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I"}
_AROMATIC = {"b", "c", "n", "o", "p", "s"}
_BOND_SYMBOLS = {"-": "single", "=": "double", "#": "triple"}
_BOND_VALENCE = {"single": 1, "double": 2, "triple": 3, "aromatic": 1}

_BRACKET = re.compile(
    r"^(?P<element>[A-Z][a-z]?|[bcnops])(?P<hydrogens>H[0-9]?)?"
    r"(?P<charge>\+\+|--|[+-][0-9]{0,2})?$"
)


class SmilesError(ValueError):
    """Unparseable input; ``position`` is the offending index into the text,
    or None when no one character is at fault."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (position {position})"
        super().__init__(message)
        self.position = position


@dataclass(slots=True)
class _ParsedAtom:
    element: str
    aromatic: bool
    position: int
    charge: int = 0
    explicit_hydrogens: int | None = None  # None means: derive from valence
    bond_sum: int = 0  # each bond's order, aromatic ones counting 1
    aromatic_bonds: bool = False


def _parse_bracket(body: str, position: int) -> _ParsedAtom:
    match = _BRACKET.match(body)
    if match is None:
        if body[:1].isdigit():
            raise SmilesError("isotope labels are not supported", position)
        if "@" in body:
            raise SmilesError("stereochemistry markers are not supported", position)
        if re.search(r"H[0-9]{2}|[+-][0-9]{3}", body):
            raise SmilesError("a hydrogen count takes one digit, a charge at most two", position)
        raise SmilesError(f"cannot parse bracket atom '[{body}]'", position)

    symbol = match.group("element")
    aromatic = symbol[0].islower()
    element = symbol.capitalize() if aromatic else symbol
    if element not in ELEMENTS or (aromatic and symbol not in _AROMATIC):
        raise SmilesError(f"element '{symbol}' is not supported", position)

    hydrogens = match.group("hydrogens")
    h_count = 0
    if hydrogens is not None:
        h_count = int(hydrogens[1:]) if len(hydrogens) > 1 else 1
    if element == "H" and h_count:
        raise SmilesError("hydrogen atoms cannot carry hydrogens", position)

    charge_text = match.group("charge") or ""
    if charge_text in ("+", "-"):
        charge = 1 if charge_text == "+" else -1
    elif charge_text in ("++", "--"):
        charge = 2 if charge_text == "++" else -2
    elif charge_text:
        charge = int(charge_text)
    else:
        charge = 0

    return _ParsedAtom(element, aromatic, position, charge, explicit_hydrogens=h_count)


def _implicit_hydrogens(atom: _ParsedAtom) -> int:
    """Hydrogens needed to fill the smallest standard valence that fits.

    The effective bond order sum counts aromatic bonds as 1 plus a single
    shared increment when any are present. Aromatic atoms fill only their
    lowest valence state. Bracket atoms never reach here.
    """
    raw = atom.bond_sum
    total = raw + atom.aromatic_bonds

    states = VALENCES[atom.element]
    # The shared aromatic increment models delocalized bonding; it does not
    # occupy a valence slot, so overflow is judged on the raw sum.
    if raw > states[-1]:
        raise SmilesError(
            f"bond order sum {raw} exceeds the maximum valence {states[-1]} "
            f"of {atom.element}",
            atom.position,
        )
    valence = states[0]
    if not atom.aromatic:
        for valence in states:
            if valence >= total:
                break
    return max(0, valence - total)


def parse_smiles(text: str, name: str = "") -> MolecularGraph:
    """Parse one SMILES string into a connected MolecularGraph.

    Hydrogens are explicit in the result; atoms keep SMILES traversal order
    with generated hydrogens inserted right after their heavy atom.
    """
    if not text:
        raise SmilesError("empty SMILES string")

    atoms: list[_ParsedAtom] = []
    bonds: list[tuple[int, int, str]] = []
    bonded_pairs: set[tuple[int, int]] = set()
    previous: int | None = None
    pending_bond: str | None = None
    pending_position = -1
    branch_stack: list[tuple[int, int]] = []  # (anchor atom, '(' position)
    open_rings: dict[str, tuple[int, str | None, int]] = {}  # digit -> (atom, order, position)

    def add_bond(a: int, b: int, order: str | None, position: int) -> None:
        pair = (a, b) if a < b else (b, a)
        if a == b:
            raise SmilesError("ring closure bonds an atom to itself", position)
        if pair in bonded_pairs:
            raise SmilesError(f"duplicate bond between atoms {pair[0]} and {pair[1]}", position)
        first, second = atoms[a], atoms[b]
        if order is None:
            order = "aromatic" if first.aromatic and second.aromatic else "single"
        bonded_pairs.add(pair)
        bonds.append((a, b, order))
        first.bond_sum += _BOND_VALENCE[order]
        second.bond_sum += _BOND_VALENCE[order]
        if order == "aromatic":
            first.aromatic_bonds = second.aromatic_bonds = True

    def add_atom(parsed: _ParsedAtom) -> None:
        nonlocal previous, pending_bond
        atoms.append(parsed)
        index = len(atoms) - 1
        if previous is not None:
            add_bond(previous, index, pending_bond, parsed.position)
        elif pending_bond is not None:
            raise SmilesError("bond symbol before the first atom", pending_position)
        pending_bond = None
        previous = index

    i = 0
    while i < len(text):
        char = text[i]

        if char in _ORGANIC:
            symbol = text[i:i + 2]
            if symbol != "Cl" and symbol != "Br":
                symbol = char
            add_atom(_ParsedAtom(symbol, False, i))
            i += len(symbol)
        elif char in _AROMATIC:
            add_atom(_ParsedAtom(char.capitalize(), True, i))
            i += 1
        elif char == "(":
            if previous is None:
                raise SmilesError("branch before the first atom", i)
            if pending_bond is not None:
                raise SmilesError("bond symbol before a branch opening", i)
            branch_stack.append((previous, i))
            i += 1
        elif char == ")":
            if pending_bond is not None:
                raise SmilesError("dangling bond symbol before ')'", i)
            if not branch_stack:
                raise SmilesError("unexpected ')'", i)
            anchor, opened = branch_stack.pop()
            if previous == anchor:  # no atom since the '('
                raise SmilesError("empty branch", opened)
            previous = anchor
            i += 1
        elif char in _BOND_SYMBOLS:
            if pending_bond is not None:
                raise SmilesError("two bond symbols in a row", i)
            pending_bond = _BOND_SYMBOLS[char]
            pending_position = i
            i += 1
        elif char.isdigit():
            if previous is None:
                raise SmilesError("ring closure before the first atom", i)
            if char in open_rings:
                open_atom, open_order, open_pos = open_rings.pop(char)
                if open_order is not None and pending_bond is not None and open_order != pending_bond:
                    raise SmilesError(f"conflicting bond orders for ring closure {char}", i)
                add_bond(previous, open_atom, pending_bond or open_order, i)
            else:
                open_rings[char] = (previous, pending_bond, i)
            pending_bond = None
            i += 1
        elif char == "[":
            end = text.find("]", i + 1)
            if end < 0:
                raise SmilesError("unclosed '['", i)
            add_atom(_parse_bracket(text[i + 1:end], i))
            i = end + 1
        elif char == "H":
            raise SmilesError("write hydrogen as a bracket atom [H]", i)
        elif char == ".":
            raise SmilesError("multi-fragment input ('.') is not supported", i)
        elif char in "/\\@":
            raise SmilesError("stereochemistry markers are not supported", i)
        elif char == "%":
            raise SmilesError("ring closures above 9 ('%') are not supported", i)
        elif char == ":":
            raise SmilesError("explicit aromatic bonds (':') are not supported", i)
        elif char.isalpha():
            raise SmilesError(f"element '{char}' is not supported", i)
        else:
            raise SmilesError(f"unexpected character {char!r}", i)

    if pending_bond is not None:
        raise SmilesError("dangling bond symbol at end of input", pending_position)
    if branch_stack:
        raise SmilesError("unclosed '('", branch_stack[-1][1])
    if open_rings:
        digit, (_, _, position) = sorted(open_rings.items())[0]
        raise SmilesError(f"unmatched ring-closure digit {digit}", position)
    if not atoms:
        raise SmilesError("no atoms in input")

    # Assign final indices: heavy atoms in traversal order, hydrogens right
    # after their atom; the hydrogens' bonds come before the parsed ones.
    h_counts = [_implicit_hydrogens(parsed) if parsed.explicit_hydrogens is None
                else parsed.explicit_hydrogens for parsed in atoms]
    final_index = list(accumulate([1 + count for count in h_counts[:-1]], initial=0))
    n = final_index[-1] + 1 + h_counts[-1]
    elements, charges, aromatic = ["H"] * n, [0] * n, [False] * n
    for index, parsed in zip(final_index, atoms):
        elements[index], charges[index], aromatic[index] = parsed.element, parsed.charge, parsed.aromatic
    pairs = [(atom, h) for atom, count in zip(final_index, h_counts) for h in range(atom + 1, atom + 1 + count)]
    orders = ["single"] * len(pairs) + [order for _, _, order in bonds]
    pairs += [(final_index[a], final_index[b]) for a, b, _ in bonds]
    return MolecularGraph(elements, charges, aromatic, pairs, orders, name=name, smiles=text)
