"""Graph container, node/edge featurization and molecule-file loading."""

import copy

import numpy as np
import pytest
from read_path_oracle import bond_flags, carbon_fields

from moltiers.molgraph import (
    ELEMENTS,
    NODE_FEATURE_DIM,
    MolecularGraph,
    featurize_nodes,
    load_molecules,
)
from moltiers.smiles import parse_smiles

COL_AROMATIC = 11
COL_CHARGE = 12
COL_DEGREE = 13
COL_HYDROGENS = 14
COL_IN_RING = 15


def test_element_vocabulary_and_width():
    assert ELEMENTS == ("H", "B", "C", "N", "O", "F", "P", "S", "Cl", "Br", "I")
    assert NODE_FEATURE_DIM == 16


def test_vanillin_node_feature_rows(vanillin):
    X = featurize_nodes(vanillin)
    assert X.shape == (19, 16)
    # carbonyl oxygen: one heavy neighbour, no hydrogens, acyclic
    assert X[0].tolist() == [0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0]
    # carbonyl carbon: two heavy neighbours plus the aldehyde hydrogen
    assert X[1].tolist() == [0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 1, 0]
    # ring carbon bonded to the carbonyl: aromatic, degree 3, in a ring
    assert X[3].tolist() == [0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 3, 0, 1]
    # ether oxygen of the methoxy group
    assert X[12].tolist() == [0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0]
    # methyl carbon: one heavy neighbour, three hydrogens
    assert X[13].tolist() == [0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 3, 0]


def test_one_hot_block_is_exactly_one_per_row(corpus_graphs):
    for g in corpus_graphs:
        X = featurize_nodes(g)
        assert np.all(X[:, : len(ELEMENTS)].sum(axis=1) == 1.0)
        for i, element in enumerate(g.elements):
            assert X[i, ELEMENTS.index(element)] == 1.0


def test_degree_columns_match_adjacency(corpus_graphs):
    for g in corpus_graphs:
        X = featurize_nodes(g)
        for i, element in enumerate(g.elements):
            neighbours = g.neighbors(i)
            hydrogens = sum(1 for j in neighbours if g.elements[j] == "H")
            heavy = len(neighbours) - hydrogens
            if element == "H":
                assert X[i, COL_DEGREE] == len(neighbours)
                assert X[i, COL_HYDROGENS] == 0.0
            else:
                assert X[i, COL_DEGREE] == heavy
                assert X[i, COL_HYDROGENS] == hydrogens


def test_ring_flag_matches_perceived_rings(vanillin):
    X = featurize_nodes(vanillin)
    in_ring = {i for ring in vanillin.rings for i in ring}
    assert vanillin.ring_atoms == in_ring
    for i in range(vanillin.num_atoms):
        assert X[i, COL_IN_RING] == (1.0 if i in in_ring else 0.0)


def test_charge_column_carries_signed_charges():
    g = parse_smiles("C[N+](=O)[O-]")
    assert g.formula() == "CH3NO2"
    X = featurize_nodes(g)
    assert X[4, COL_CHARGE] == 1.0
    assert X[6, COL_CHARGE] == -1.0
    assert np.count_nonzero(X[:, COL_CHARGE]) == 2


def test_graph_requires_at_least_one_atom():
    with pytest.raises(ValueError, match="at least one atom"):
        MolecularGraph([], [], [], [], [])


def test_graph_rejects_disconnected_input():
    with pytest.raises(ValueError, match="disconnected"):
        MolecularGraph(*carbon_fields(3, [(0, 1)]))


def test_graph_rejects_duplicate_bonds():
    with pytest.raises(ValueError, match="duplicate bond"):
        MolecularGraph(*carbon_fields(2, [(0, 1), (1, 0)]))
    # a repeat in either direction names the sorted pair
    for first, repeat in (((1, 2), (2, 1)), ((2, 1), (1, 2)), ((2, 1), (2, 1))):
        fields = ["C", "C", "O"], [0, 0, 0], [False] * 3, [(0, 1), first, repeat], ["single", "single", "double"]
        with pytest.raises(ValueError, match=r"^duplicate bond between atoms \(1, 2\)$"):
            MolecularGraph(*fields)


def test_building_a_graph_leaves_its_atoms_and_bonds_unchanged():
    """A triangle, then a chain over the same lists: the atoms reversed and
    two of the triangle's bonds. Neither build writes into an input, and a
    later write to an input does not reach a graph, so the triangle keeps
    its bonds' multiple-bond, ring and conjugation facts."""
    fields = ["C", "N", "C"], [0, 1, 0], [False] * 3, [(0, 1), (1, 2), (2, 0)], ["single", "double", "single"]
    inputs = copy.deepcopy(fields)
    triangle = MolecularGraph(*fields)
    assert fields == inputs
    elements, charges, aromatic, pairs, orders = fields
    MolecularGraph(elements[::-1], charges[::-1], aromatic, pairs[:2], orders[:2])
    assert fields == inputs
    for field in fields:
        field.clear()
    assert (triangle.elements, triangle.charges, triangle.aromatic, triangle.pairs, triangle.orders) == inputs
    assert bond_flags(triangle) == [(False, True, False), (True, True, False), (False, True, False)]


def test_graph_reads_atoms_and_bonds_from_any_iterable():
    """The constructor reads each field list more than once, so it copies
    them first: generators give the same graph as lists, and so do pairs
    given as lists."""
    fields = ["C", "N", "C"], [0, 1, 0], [False, True, False], [(0, 1), (1, 2)], ["single", "double"]
    from_lists = MolecularGraph(*fields)
    from_generators = MolecularGraph(*((value for value in field) for field in fields))
    elements, charges, aromatic, pairs, orders = fields
    from_list_pairs = MolecularGraph(elements, charges, aromatic, [list(pair) for pair in pairs], orders)
    for field in ("elements", "charges", "aromatic", "pairs", "orders", "unsaturated"):
        assert getattr(from_generators, field) == getattr(from_lists, field), field
        assert getattr(from_list_pairs, field) == getattr(from_lists, field), field
    assert from_lists.charges == [0, 1, 0] and from_lists.aromatic == [False, True, False]


def test_graph_rejects_out_of_range_endpoints():
    with pytest.raises(ValueError, match="out of range"):
        MolecularGraph(*carbon_fields(2, [(0, 5)]))


REJECTED_FIELDS = {
    "no-atoms": (([], [], [], [], []), "at least one atom"),
    "unknown-element": ((["C", "Xy"], [0, 0], [False] * 2, [(0, 1)], ["single"]), "unsupported element 'Xy'"),
    "unknown-bond-order": (carbon_fields(2, [(0, 1)], ["quadruple"]), "unsupported bond order 'quadruple'"),
    "self-bond": (carbon_fields(3, [(0, 1), (2, 2), (1, 2)]), "bond joins atom 2 to itself"),
    "endpoint-out-of-range": (carbon_fields(2, [(0, 1), (1, 2)]), r"bond endpoint out of range: \(1, 2\)"),
    "negative-endpoint": (carbon_fields(2, [(-1, 0)]), r"bond endpoint out of range: \(-1, 0\)"),
    "duplicate-bond": (carbon_fields(2, [(0, 1), (1, 0)]), r"duplicate bond between atoms \(0, 1\)"),
    "disconnected": (carbon_fields(3, [(0, 1)]), r"disconnected \(2 of 3 atoms reachable\)"),
    "short-charges": ((["C", "C"], [0], [False] * 2, [(0, 1)], ["single"]), "unequal lengths: 2 elements, 1 charges"),
    "short-aromatic-flags": ((["C", "C"], [0, 0], [False], [(0, 1)], ["single"]), "1 aromatic flags"),
    "short-orders": (carbon_fields(3, [(0, 1), (1, 2)], ["double"]), "2 pairs, 1 orders"),
    "long-orders": (carbon_fields(2, [(0, 1)], ["single", "single"]), "1 pairs, 2 orders"),
}


@pytest.mark.parametrize("case", list(REJECTED_FIELDS))
def test_the_constructor_rejects_every_malformed_molecule(case):
    """Every check the constructor makes, each with its message: what the
    parser would never hand over is rejected here, not later by
    ``MoleculeData``."""
    fields, message = REJECTED_FIELDS[case]
    with pytest.raises(ValueError, match=message):
        MolecularGraph(*fields)


def test_formula_hill_order():
    assert parse_smiles("C").formula() == "CH4"
    assert parse_smiles("O").formula() == "H2O"
    assert parse_smiles("OC(=O)CCl").formula() == "C2H3ClO2"
    assert parse_smiles("O=Cc1ccc(O)c(OC)c1").formula() == "C8H8O3"


def test_load_molecules_skips_comments_and_captures_errors(tmp_path):
    path = tmp_path / "mols.smi"
    path.write_text(
        "# header comment\n"
        "\n"
        "CCO ethanol\n"
        "C[Zz]C broken\n"
        "CC(=O)O\n"
    )
    records = load_molecules(path)
    assert [r.line_number for r in records] == [3, 4, 5]
    assert records[0].graph is not None
    assert records[0].graph.name == "ethanol"
    assert records[1].graph is None
    assert records[1].error is not None
    # a record without a name falls back to its SMILES text
    assert records[2].graph.name == "CC(=O)O"


def test_load_molecules_records_a_line_that_is_not_utf8(tmp_path):
    """A line with bytes that are not UTF-8 is that line's error, with the
    byte's position in the line; the lines around it still load, and a
    comment is skipped whatever its bytes."""
    path = tmp_path / "mols.smi"
    path.write_bytes(b"CCO ethanol\r\n\xff\xfeC bad\r\n# caf\xe9\nCC caf\xe9\nCC(=O)O acid\n")
    records = load_molecules(path)
    assert [r.line_number for r in records] == [1, 2, 4, 5]
    assert [r.graph.name for r in records if r.graph] == ["ethanol", "acid"]
    for record, (byte, position) in zip(records[1:3], (("0xff", 0), ("0xe9", 6))):
        assert isinstance(record.error, UnicodeDecodeError) and record.graph is None
        assert f"can't decode byte {byte} in position {position}" in str(record.error)


def test_corpus_loads_thirty_molecules(corpus_graphs):
    assert len(corpus_graphs) == 30
    assert all(g.num_atoms <= 25 * 3 for g in corpus_graphs)
    names = [g.name for g in corpus_graphs]
    assert len(set(names)) == 30
    assert "vanillin" in names
