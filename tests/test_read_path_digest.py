"""The digest comparison of ``tests/read_path_digest.py``: its comparison
names each digest that differs or that one side lacks, its sections tell
apart molecules that differ only where that section looks, and its
evaluation section sees every score it is given."""

import numpy as np
import read_path_digest

from moltiers import models, molgraph
from moltiers.smiles import SmilesError


def test_compare_reports_the_digest_that_differs(capsys):
    parent = {"corpus/graph": "aa", "corpus/rings": "bb"}
    change = {"corpus/graph": "aa", "corpus/rings": "bc"}
    assert read_path_digest.compare(parent, change) == ["corpus/rings"]
    assert capsys.readouterr().out.splitlines() == ["identical  corpus/graph", "different  corpus/rings"]


def test_compare_reports_a_digest_that_one_side_lacks():
    assert read_path_digest.compare({"corpus/graph": "aa"}, {}) == ["corpus/graph"]
    assert read_path_digest.compare({}, {"rings/encode": "aa"}) == ["rings/encode"]
    assert read_path_digest.compare({}, {}) == []


def test_sections_see_what_they_hash(tmp_path):
    def digest(text):
        path = tmp_path / "molecules.smi"
        path.write_text(text)
        return read_path_digest.digest_file(path)

    base = digest("CCO ethanol\nC@C bad\n")
    assert digest("CCO ethanol\nC@C bad\n") == base
    assert set(base) == set(read_path_digest.SECTIONS)
    # a name reaches the graph section alone
    renamed = digest("CCO ethyl-alcohol\nC@C bad\n")
    assert [s for s in base if renamed[s] != base[s]] == ["graph"]
    # an error's message is hashed
    assert digest("CCO ethanol\nC.C bad\n")["graph"] != base["graph"]
    # one more ring changes every section
    ring = digest("C1CO1 oxirane\nC@C bad\n")
    assert all(ring[s] != base[s] for s in base)


def test_the_graph_section_hashes_an_errors_family_not_its_class_name(monkeypatch, tmp_path):
    path = tmp_path / "molecules.smi"
    path.write_text("CCO ethanol\n")
    loaded = molgraph.load_molecules(path)

    def digest(error):
        rejected = molgraph.MoleculeRecord(2, "bad", error=error)
        monkeypatch.setattr(molgraph, "load_molecules", lambda _: [*loaded, rejected])
        return read_path_digest.digest_file(path)["graph"]

    class RenamedSmilesError(SmilesError):
        pass

    base = digest(SmilesError("empty branch", 1))
    assert digest(RenamedSmilesError("empty branch", 1)) == base
    assert digest(ValueError("empty branch (position 1)")) != base
    assert digest(SmilesError("empty branch", 2)) != base


def test_the_eval_section_hashes_every_score_of_both_models(monkeypatch, tmp_path):
    path = tmp_path / "molecules.smi"
    path.write_text("CCO ethanol\nC1CO1 oxirane\n")
    base = read_path_digest.digest_file(path)
    scored = models.mean_edge_auc
    for nudged in range(6):
        sizes = []

        def nudging(params, dataset):
            sizes.append(len(dataset))
            score = scored(params, dataset)
            return np.nextafter(score, 2.0) if len(sizes) - 1 == nudged else score

        monkeypatch.setattr(models, "mean_edge_auc", nudging)
        digest = read_path_digest.digest_file(path)
        # GAE, then VGAE: the whole file, then each molecule alone
        assert sizes == [2, 1, 1] * 2
        assert [s for s in base if digest[s] != base[s]] == ["eval"]
