"""Partitioning into functional groups, aromatic rings and leftover components.

Group atom tuples below were worked out by hand from the explicit-hydrogen
atom numbering the parser assigns (atoms appear in SMILES order, each heavy
atom immediately followed by its implicit hydrogens).
"""

import numpy as np
import pytest

from moltiers.grouping import (
    AROMATIC_RING,
    COMPONENT,
    FUNCTIONAL_GROUP,
    Group,
    build_membership,
    check_bond_consistency,
    graph_membership,
    partition,
)
from moltiers.smiles import parse_smiles


def groups_of(smiles):
    graph = parse_smiles(smiles)
    return graph, partition(graph)


def test_vanillin_partitions_into_four_groups(vanillin):
    gs = partition(vanillin)
    assert [(g.kind, g.atoms) for g in gs] == [
        (FUNCTIONAL_GROUP, (0, 1, 2)),          # carbonyl: O, C, aldehyde H
        (FUNCTIONAL_GROUP, (9, 10)),            # hydroxyl: O, H
        (FUNCTIONAL_GROUP, (12, 13, 14, 15, 16)),  # methoxy: O, C, 3 H
        (AROMATIC_RING, (3, 4, 5, 6, 7, 8, 11, 17, 18)),  # 6 ring C + 3 ring H
    ]


def test_vanillin_membership_is_binary_and_row_stochastic(vanillin):
    gs = partition(vanillin)
    M = build_membership(gs, vanillin.num_atoms)
    assert M.shape == (19, 4)
    assert set(np.unique(M)) == {0.0, 1.0}
    assert np.all(M.sum(axis=1) == 1.0)
    # column sums recover group sizes
    assert M.sum(axis=0).tolist() == [3, 2, 5, 9]


def test_acetic_acid_collapses_to_one_group():
    g, gs = groups_of("CC(=O)O")
    assert [(grp.kind, grp.atoms) for grp in gs] == [
        (FUNCTIONAL_GROUP, tuple(range(8)))
    ]
    M = build_membership(gs, g.num_atoms)
    assert M.shape == (8, 1)
    assert np.all(M == 1.0)


def test_chloroform_gives_three_halogen_groups_plus_remainder():
    g, gs = groups_of("C(Cl)(Cl)Cl")
    assert [(grp.kind, grp.atoms) for grp in gs] == [
        (FUNCTIONAL_GROUP, (2,)),
        (FUNCTIONAL_GROUP, (3,)),
        (FUNCTIONAL_GROUP, (4,)),
        (COMPONENT, (0, 1)),  # CH fragment left over
    ]


def test_ethanol_hydroxyl_and_alkyl_remainder():
    g, gs = groups_of("CCO")
    assert [(grp.kind, grp.atoms) for grp in gs] == [
        (FUNCTIONAL_GROUP, (7, 8)),
        (COMPONENT, (0, 1, 2, 3, 4, 5, 6)),
    ]


def test_saturated_hydrocarbon_is_one_component():
    g, gs = groups_of("CC")
    assert [grp.kind for grp in gs] == [COMPONENT]
    assert gs[0].atoms == tuple(range(8))


def test_benzene_is_one_aromatic_ring_group():
    g, gs = groups_of("c1ccccc1")
    assert [(grp.kind, grp.atoms) for grp in gs] == [
        (AROMATIC_RING, tuple(range(12)))
    ]


def test_fused_rings_share_atoms_with_fractional_membership():
    g, gs = groups_of("c1ccc2ccccc2c1")
    assert [grp.kind for grp in gs] == [AROMATIC_RING, AROMATIC_RING]
    assert len(gs[0].atoms) == 10
    assert len(gs[1].atoms) == 10
    shared = set(gs[0].atoms) & set(gs[1].atoms)
    assert shared == {6, 15}
    M = build_membership(gs, g.num_atoms)
    assert set(np.unique(M)) == {0.0, 0.5, 1.0}
    assert np.allclose(M.sum(axis=1), 1.0)
    for i in shared:
        assert M[i].tolist() == [0.5, 0.5]


def test_three_membered_heterocycle_is_one_group():
    g, gs = groups_of("C1CO1")
    assert [grp.kind for grp in gs] == [FUNCTIONAL_GROUP]
    assert gs[0].atoms == tuple(range(7))


def test_nitro_group_absorbs_its_methyl():
    g, gs = groups_of("C[N+](=O)[O-]")
    assert [grp.kind for grp in gs] == [FUNCTIONAL_GROUP]
    assert gs[0].atoms == tuple(range(7))


def test_methoxy_terminal_carbon_absorption():
    g, gs = groups_of("COc1ccccc1")
    assert [(grp.kind, grp.atoms) for grp in gs] == [
        (FUNCTIONAL_GROUP, (0, 1, 2, 3, 4)),  # CH3 pulled into the ether group
        (AROMATIC_RING, (5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)),
    ]


def test_conjugated_chain_merges_through_single_bonds():
    g, gs = groups_of("C=CC=C")
    assert [grp.kind for grp in gs] == [FUNCTIONAL_GROUP]
    assert gs[0].atoms == tuple(range(g.num_atoms))


def test_kind_ordering_fg_then_ring_then_component(corpus_graphs):
    rank = {FUNCTIONAL_GROUP: 0, AROMATIC_RING: 1, COMPONENT: 2}
    for g in corpus_graphs:
        gs = partition(g)
        kinds = [rank[grp.kind] for grp in gs]
        assert kinds == sorted(kinds)
        # within a kind, groups come sorted by their smallest atom
        for kind in rank:
            firsts = [grp.atoms[0] for grp in gs if grp.kind == kind]
            assert firsts == sorted(firsts)
        for grp in gs:
            assert list(grp.atoms) == sorted(grp.atoms)


def test_every_corpus_molecule_is_fully_covered(corpus_graphs):
    for g in corpus_graphs:
        gs = partition(g)
        assert len(gs) >= 1
        M = build_membership(gs, g.num_atoms)
        assert np.allclose(M.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(M.sum(axis=0) > 0)


def test_membership_value_is_reciprocal_of_group_count():
    g, gs = groups_of("c1ccc2ccccc2c1")
    M = build_membership(gs, g.num_atoms)
    for i in range(g.num_atoms):
        cols = np.nonzero(M[i])[0]
        assert np.allclose(M[i, cols], 1.0 / len(cols))


def test_build_membership_rejects_bad_input():
    with pytest.raises(ValueError, match="no groups"):
        build_membership([], 3)
    gs = [Group(FUNCTIONAL_GROUP, (0, 5))]
    with pytest.raises(ValueError, match="outside"):
        build_membership(gs, 3)
    gs = [Group(FUNCTIONAL_GROUP, (0, 1))]
    with pytest.raises(ValueError, match="atom 2 is not covered"):
        build_membership(gs, 3)


def test_graph_membership_is_an_all_ones_column():
    M2 = graph_membership(4)
    assert M2.shape == (4, 1)
    assert np.all(M2 == 1.0)
    with pytest.raises(ValueError):
        graph_membership(0)


def test_group_field_validation():
    with pytest.raises(ValueError, match="unknown group kind"):
        Group("Cluster", (0,))
    with pytest.raises(ValueError, match="cannot be empty"):
        Group(FUNCTIONAL_GROUP, ())
    with pytest.raises(ValueError, match="must be sorted"):
        Group(FUNCTIONAL_GROUP, (2, 1))
    # A repeat would give its atom a membership row summing to less than one.
    with pytest.raises(ValueError, match="must not repeat"):
        Group(FUNCTIONAL_GROUP, (0, 0, 1))


def test_split_double_bond_is_a_violation():
    g = parse_smiles("C=C")
    bad = [
        Group(FUNCTIONAL_GROUP, (0, 1, 2)),
        Group(FUNCTIONAL_GROUP, (3, 4, 5)),
    ]
    violations = check_bond_consistency(g, bad)
    assert [(v.rule, v.first, v.second) for v in violations] == [("multiple-bond", 0, 3)]


def test_split_aromatic_ring_violates_two_rules_per_bond():
    g = parse_smiles("c1ccccc1")
    bad = [
        Group(FUNCTIONAL_GROUP, tuple(range(6))),
        Group(FUNCTIONAL_GROUP, tuple(range(6, 12))),
    ]
    rules = sorted(v.rule for v in check_bond_consistency(g, bad))
    assert rules == ["multiple-bond", "multiple-bond", "same-ring", "same-ring"]


def test_partitioned_corpus_has_no_structural_violations(corpus_graphs):
    for g in corpus_graphs:
        gs = partition(g)
        rules = {v.rule for v in check_bond_consistency(g, gs)}
        assert "multiple-bond" not in rules
        assert "same-ring" not in rules
