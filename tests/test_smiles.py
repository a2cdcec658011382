"""Parser tests: frozen atom/bond layouts, aromatic perception, error positions."""

import re
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from read_path_oracle import bond_flags

from moltiers.molgraph import ELEMENTS, MolecularGraph
from moltiers.smiles import (
    SmilesError,
    parse_smiles,
)


def atom_tuples(graph):
    return [(i, *atom) for i, atom in enumerate(zip(graph.elements, graph.charges, graph.aromatic))]


def bond_tuples(graph):
    return sorted((i, j, order) for (i, j), order in zip(graph.pairs, graph.orders))


def test_ethanol_atoms_and_bonds():
    g = parse_smiles("CCO", name="ethanol")
    assert g.name == "ethanol"
    assert atom_tuples(g) == [
        (0, "C", 0, False),
        (1, "H", 0, False),
        (2, "H", 0, False),
        (3, "H", 0, False),
        (4, "C", 0, False),
        (5, "H", 0, False),
        (6, "H", 0, False),
        (7, "O", 0, False),
        (8, "H", 0, False),
    ]
    assert bond_tuples(g) == [
        (0, 1, "single"),
        (0, 2, "single"),
        (0, 3, "single"),
        (0, 4, "single"),
        (4, 5, "single"),
        (4, 6, "single"),
        (4, 7, "single"),
        (7, 8, "single"),
    ]


@pytest.mark.parametrize(
    "smiles, formula",
    [
        ("C", "CH4"),
        ("CCO", "C2H6O"),
        ("C=C", "C2H4"),
        ("C#N", "CHN"),
        ("O", "H2O"),
        ("N", "H3N"),
        ("CC(=O)O", "C2H4O2"),
        ("C(C)(C)C", "C4H10"),
        ("ClCCl", "CH2Cl2"),
        ("BrCBr", "CH2Br2"),
        ("IC", "CH3I"),
        ("FC(F)F", "CHF3"),
        ("CS", "CH4S"),
        ("CP", "CH5P"),
        ("B", "H3B"),
    ],
)
def test_implicit_hydrogens_fill_default_valence(smiles, formula):
    assert parse_smiles(smiles).formula() == formula


@pytest.mark.parametrize(
    "smiles, formula, num_atoms",
    [
        ("c1ccccc1", "C6H6", 12),
        ("c1ccco1", "C4H4O", 9),
        ("c1cccs1", "C4H4S", 9),
        ("c1ccc[nH]1", "C4H5N", 10),
        ("c1ccncc1", "C5H5N", 11),
    ],
)
def test_aromatic_ring_hydrogen_counts(smiles, formula, num_atoms):
    g = parse_smiles(smiles)
    assert g.formula() == formula
    assert len(g.elements) == num_atoms
    assert len(g.rings) == 1


def test_benzene_ring_and_bond_orders():
    g = parse_smiles("c1ccccc1")
    assert g.rings == ((2, 4, 6, 8, 10, 0),)
    ring_atoms = set(g.rings[0])
    for i, aromatic in enumerate(g.aromatic):
        assert aromatic == (i in ring_atoms)
    orders = {}
    for order in g.orders:
        orders.setdefault(order, 0)
        orders[order] += 1
    # six ring bonds plus one C-H per carbon
    assert orders == {"aromatic": 6, "single": 6}
    for order, (_, in_ring, _) in zip(g.orders, bond_flags(g)):
        assert in_ring == (order == "aromatic")


def test_bracket_atom_charges_and_hydrogens():
    g = parse_smiles("[NH4+]")
    assert g.formula() == "H4N"
    assert g.charges[0] == 1
    assert g.elements.count("H") == 4

    g = parse_smiles("[O-]")
    assert len(g.elements) == 1
    assert g.charges[0] == -1

    g = parse_smiles("CC(=O)[O-]")
    assert g.formula() == "C2H3O2"
    assert g.charges.count(-1) == 1
    assert sum(g.charges) == -1


def test_bracket_atoms_take_one_hydrogen_digit_and_two_charge_digits():
    """As OpenSMILES writes them; a longer count once built as many hydrogen
    nodes as it said, and a long charge overflowed the feature matrix."""
    assert parse_smiles("[CH9]").elements.count("H") == 9
    assert parse_smiles("[C+12]").charges == [12]
    assert parse_smiles("[C-99]").charges == [-99]
    for text in ("[CH10]", "[C+100]", "[CH4+" + "9" * 400 + "]"):
        with pytest.raises(SmilesError, match=r"^(a hydrogen count takes one digit|cannot parse)"):
            parse_smiles(text)


def test_an_atom_with_many_neighbours_parses_in_linear_time():
    """The duplicate-bond check scans the shorter of the two neighbour
    lists, so 20,000 branches on one atom are no 20,000^2 / 2 list scans
    (2.5 s when the longer list was scanned; Intel Xeon, 2 vCPUs)."""
    started = time.perf_counter()
    graph = parse_smiles("[C]" + "(C)" * 20_000)
    assert time.perf_counter() - started < 1.5
    assert len(graph.neighbor_lists()[0]) == 20_000


def test_two_letter_element_lookahead():
    g = parse_smiles("ClCCl")
    assert g.elements == ["Cl", "C", "H", "H", "Cl"]
    g = parse_smiles("BrCBr")
    assert g.elements == ["Br", "C", "H", "H", "Br"]


def test_explicit_bond_orders():
    g = parse_smiles("C=C")
    assert (0, 3, "double") in bond_tuples(g)
    g = parse_smiles("C#N")
    assert (0, 2, "triple") in bond_tuples(g)


def test_conjugation_marks_single_bonds_between_multiple_bonds():
    g = parse_smiles("C=CC=C")
    flagged = [pair for pair, (*_, conjugated) in zip(g.pairs, bond_flags(g)) if conjugated]
    assert flagged == [(3, 5)]
    # carboxyl C-O next to C=O does not qualify: O carries no second multiple bond
    g = parse_smiles("CC(=O)O")
    assert not any(conjugated for *_, conjugated in bond_flags(g))


def test_branch_nesting():
    g = parse_smiles("CC(C(C)C)C")  # 2,3-dimethylbutane
    assert g.formula() == "C6H14"
    heavy = [i for i, element in enumerate(g.elements) if element == "C"]
    neighbors = g.neighbor_lists()
    degree = {i: sum(1 for j in neighbors[i] if g.elements[j] == "C") for i in heavy}
    assert sorted(degree.values()) == [1, 1, 1, 1, 3, 3]


def test_ring_closure_digit_reuse_after_closing():
    g = parse_smiles("C1CC1C1CC1")
    assert g.formula() == "C6H10"
    assert len(g.rings) == 2


def test_ring_closure_order_may_sit_on_either_end():
    for s in ("C=1CC=1", "C=1CC1", "C1CC=1"):
        g = parse_smiles(s)
        assert (5, 0, "double") in [(*pair, order) for pair, order in zip(g.pairs, g.orders)]


def test_two_digits_on_one_atom():
    g = parse_smiles("C12CC1C2")
    assert len(g.rings) == 2


# (SMILES, family, message, position). The family, which the test id carries,
# names the class each rejection had before one SmilesError stood for them all.
REJECTIONS = [
    ("C@C", "UnsupportedTokenError", "stereochemistry markers are not supported", 1),
    ("C/C=C/C", "UnsupportedTokenError", "stereochemistry markers are not supported", 1),
    ("[13C]", "UnsupportedTokenError", "isotope labels are not supported", 0),
    ("[C@H]", "UnsupportedTokenError", "stereochemistry markers are not supported", 0),
    ("C[CH12]", "UnsupportedTokenError", "a hydrogen count takes one digit, a charge at most two", 1),
    ("[C+123]", "UnsupportedTokenError", "a hydrogen count takes one digit, a charge at most two", 0),
    ("CC[CH4+999]", "UnsupportedTokenError", "a hydrogen count takes one digit, a charge at most two", 2),
    ("CC.CC", "UnsupportedTokenError", "multi-fragment input ('.') is not supported", 2),
    ("C%10CC%10", "UnsupportedTokenError", "ring closures above 9 ('%') are not supported", 1),
    ("C:C", "UnsupportedTokenError", "explicit aromatic bonds (':') are not supported", 1),
    ("CHC", "UnsupportedTokenError", "write hydrogen as a bracket atom [H]", 1),
    ("[Xx]", "UnsupportedElementError", "element 'Xx' is not supported", 0),
    ("CUC", "UnsupportedElementError", "element 'U' is not supported", 1),
    ("C(C", "UnbalancedParenthesesError", "unclosed '('", 1),
    ("C)C", "UnbalancedParenthesesError", "unexpected ')'", 1),
    ("(CC)", "UnbalancedParenthesesError", "branch before the first atom", 0),
    ("C1CC", "UnmatchedRingBondError", "unmatched ring-closure digit 1", 1),
    ("C11", "UnmatchedRingBondError", "ring closure bonds an atom to itself", 2),
    ("C=1CC#1", "UnmatchedRingBondError", "conflicting bond orders for ring closure 1", 6),
    ("C=", "SmilesError", "dangling bond symbol at end of input", 1),
    ("=CC", "SmilesError", "bond symbol before the first atom", 0),
    ("C(=)C", "SmilesError", "dangling bond symbol before ')'", 3),
    ("C=#C", "SmilesError", "two bond symbols in a row", 2),
    ("C()C", "SmilesError", "empty branch", 1),
    ("C(())C", "SmilesError", "empty branch", 2),
    ("CC(=O)()", "SmilesError", "empty branch", 6),
    ("C1CC(1)C", "SmilesError", "empty branch", 4),
    ("O=C=O=C", "ValenceOverflowError", "bond order sum 4 exceeds the maximum valence 2 of O", 4),
    ("FF(F)F", "ValenceOverflowError", "bond order sum 3 exceeds the maximum valence 1 of F", 1),
]


@pytest.mark.parametrize(
    "smiles, message, position",
    [(smiles, message, position) for smiles, _, message, position in REJECTIONS],
    ids=[f"{smiles}-{family}-{position}" for smiles, family, _, position in REJECTIONS],
)
def test_rejections_report_the_offending_position(smiles, message, position):
    with pytest.raises(SmilesError) as err:
        parse_smiles(smiles)
    assert err.value.position == position
    assert str(err.value) == f"{message} (position {position})"


def test_empty_input_rejected():
    with pytest.raises(SmilesError):
        parse_smiles("")
    with pytest.raises(SmilesError):
        parse_smiles("   ")


def test_error_hierarchy_is_catchable_as_value_error():
    with pytest.raises(ValueError):
        parse_smiles("[13C]")


def test_valence_overflow_message_names_element_and_sum():
    with pytest.raises(SmilesError, match="sum 4 exceeds the maximum valence 2 of O"):
        parse_smiles("O=C=O=C")


# Every character the grammar gives a meaning to, plus the rejected tokens
# (stereo, isotopes, '%', '.', ':') and multi-character atoms.
SMILES_TOKENS = list("BCNOPSFIHclbrnops()[]=#-+0123456789@/\\%.:") + [
    "Cl", "Br", "[nH]", "[NH4+]", "[O-]", "[H]", "c1ccccc1",
]


@settings(max_examples=400)
@given(st.lists(st.sampled_from(SMILES_TOKENS), max_size=24).map("".join))
@example("")
@example("C%")
@example("C(")
def test_parser_raises_only_smiles_errors(text):
    """A rejection is a SmilesError whose position, the part of it a caller
    can act on, is None or an index into the text, and which its message
    ends in exactly when it is not None."""
    try:
        graph = parse_smiles(text)
    except SmilesError as err:
        position, message = err.position, str(err)
        if position is None:
            assert re.search(r"\(position \d+\)$", message) is None
        else:
            assert 0 <= position < len(text)
            assert message.endswith(f" (position {position})")
        return
    assert graph.num_atoms >= 1


@settings(max_examples=400)
@given(st.lists(st.sampled_from(SMILES_TOKENS), max_size=24).map("".join))
@example("O=Cc1ccc(O)c(OC)c1")
@example("c1cc2ccc3cccc4ccc(c1)c2c34")
@example("C[N+](=O)[O-]")
def test_atom_and_bond_views_rebuild_the_same_graph(text):
    """A parsed graph's five lists, handed to the constructor, give the
    same molecule: the constructor's checks accept what the parser made."""
    try:
        graph = parse_smiles(text)
    except SmilesError:
        return
    rebuilt = MolecularGraph(graph.elements, graph.charges, graph.aromatic, graph.pairs, graph.orders)
    for field in ("elements", "charges", "aromatic", "pairs", "orders", "rings", "ring_atoms", "unsaturated"):
        assert getattr(rebuilt, field) == getattr(graph, field), field


@settings(max_examples=200)
@given(st.lists(st.sampled_from(SMILES_TOKENS), max_size=24).map("".join))
@example("ClC(Br)c1cc[nH]c1[Cl]")
@example("[NH4+]")
def test_atoms_of_one_element_share_its_string(text):
    """Organic, aromatic, two-letter, bracket and generated-hydrogen atoms
    all hold the ``ELEMENTS`` entry itself, so that a file of graphs keeps
    one string per element, not one per atom."""
    try:
        graph = parse_smiles(text)
    except SmilesError:
        return
    assert all(element is ELEMENTS[ELEMENTS.index(element)] for element in graph.elements)
