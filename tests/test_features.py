"""Graph container, node/edge featurization and molecule-file loading."""

import copy

import numpy as np
import pytest
from read_path_oracle import bond_flags

from moltiers.molgraph import (
    ELEMENTS,
    NODE_FEATURE_DIM,
    Atom,
    Bond,
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
        for i, atom in enumerate(g.atoms):
            assert X[i, ELEMENTS.index(atom.element)] == 1.0


def test_degree_columns_match_adjacency(corpus_graphs):
    for g in corpus_graphs:
        X = featurize_nodes(g)
        for i, atom in enumerate(g.atoms):
            neighbours = g.neighbors(i)
            hydrogens = sum(1 for j in neighbours if g.atoms[j].element == "H")
            heavy = len(neighbours) - hydrogens
            if atom.element == "H":
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
        MolecularGraph([], [])


def test_graph_rejects_disconnected_input():
    atoms = [Atom("C"), Atom("C"), Atom("C")]
    bonds = [Bond(0, 1, "single")]
    with pytest.raises(ValueError, match="disconnected"):
        MolecularGraph(atoms, bonds)


def test_graph_rejects_duplicate_bonds():
    atoms = [Atom("C"), Atom("C")]
    bonds = [Bond(0, 1, "single"), Bond(1, 0, "single")]
    with pytest.raises(ValueError, match="duplicate bond"):
        MolecularGraph(atoms, bonds)
    # a repeat in either direction names the sorted pair
    atoms = [Atom("C"), Atom("C"), Atom("O")]
    for first, repeat in (((1, 2), (2, 1)), ((2, 1), (1, 2)), ((2, 1), (2, 1))):
        bonds = [Bond(0, 1, "single"), Bond(*first, "single"), Bond(*repeat, "double")]
        with pytest.raises(ValueError, match=r"^duplicate bond between atoms \(1, 2\)$"):
            MolecularGraph(atoms, bonds)


def test_building_a_graph_leaves_its_atoms_and_bonds_unchanged():
    """A triangle, then a chain over the same objects: the atoms reversed and
    two of the triangle's bonds. Neither build writes into an input, so the
    triangle keeps its bonds' multiple-bond, ring and conjugation facts."""
    atoms = [Atom("C"), Atom("N", formal_charge=1), Atom("C")]
    bonds = [Bond(0, 1, "single"), Bond(1, 2, "double"), Bond(2, 0, "single")]
    inputs = copy.deepcopy((atoms, bonds))
    triangle = MolecularGraph(atoms, bonds)
    assert (atoms, bonds) == inputs
    MolecularGraph(atoms[::-1], bonds[:2])
    assert (atoms, bonds) == inputs
    assert bond_flags(triangle) == [(False, True, False), (True, True, False), (False, True, False)]


def test_graph_reads_atoms_and_bonds_from_any_iterable():
    """The constructor reads its atoms and bonds once per field list, so it
    copies them first: generators give the same graph as lists."""
    atoms = [Atom("C"), Atom("N", formal_charge=1, aromatic=True), Atom("C")]
    bonds = [Bond(0, 1, "single"), Bond(1, 2, "double")]
    from_lists = MolecularGraph(atoms, bonds)
    from_generators = MolecularGraph((a for a in atoms), (b for b in bonds))
    for field in ("elements", "charges", "aromatic", "pairs", "orders", "unsaturated"):
        assert getattr(from_generators, field) == getattr(from_lists, field), field
    assert from_lists.charges == [0, 1, 0] and from_lists.aromatic == [False, True, False]


def test_graph_rejects_out_of_range_endpoints():
    with pytest.raises(ValueError, match="out of range"):
        MolecularGraph([Atom("C"), Atom("C")], [Bond(0, 5, "single")])


def test_atom_and_bond_field_validation():
    with pytest.raises(ValueError, match="unsupported element"):
        Atom("Xy")
    with pytest.raises(ValueError, match="unsupported bond order"):
        Bond(0, 1, order="quadruple")
    with pytest.raises(ValueError, match="to itself"):
        Bond(2, 2, "single")


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


def test_corpus_loads_thirty_molecules(corpus_graphs):
    assert len(corpus_graphs) == 30
    assert all(g.num_atoms <= 25 * 3 for g in corpus_graphs)
    names = [g.name for g in corpus_graphs]
    assert len(set(names)) == 30
    assert "vanillin" in names
