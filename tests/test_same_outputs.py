"""The byte-identity check of ``tests/same_outputs.py``: its comparison names
each file that differs between two output directories, its masking hides
the paths that differ between two trees, its ``train`` runs write where no
directory was made for them, and its ``embed`` and ``interp`` runs read the
parent tree's checkpoints."""

import same_outputs


def test_compare_reports_the_file_that_differs_in_one_byte(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root in (parent, change):
        (root / "train-gae").mkdir(parents=True)
        (root / "train-gae" / "trace.csv").write_bytes(b"epoch,loss\n1,0.5\n")
        (root / "stdout").write_bytes(b"same\n")
    (change / "train-gae" / "trace.csv").write_bytes(b"epoch,loss\n1,0.6\n")
    assert same_outputs.compare(parent, change) == ["train-gae/trace.csv"]
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["identical  stdout", "different  train-gae/trace.csv"]


def test_compare_reports_a_file_that_one_side_lacks(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    (change / "exit").write_text("0\n")
    assert same_outputs.compare(parent, change) == ["exit"]


def test_mask_hides_the_run_directory_and_the_tree_root(tmp_path):
    tree, out = tmp_path / "parent", tmp_path / "results" / "train-vgae-sgd-diverges"
    stdout = f"trained gae on 30 molecules; checkpoint: {out}/checkpoint.json\n"
    stderr = f"{tree}/src/moltiers/autodiff.py:257: RuntimeWarning: overflow encountered\n"
    assert same_outputs.mask(stdout, tree, out) == (
        "trained gae on 30 molecules; checkpoint: <out>/checkpoint.json\n"
    )
    assert same_outputs.mask(stderr, tree, out) == (
        "<tree>/src/moltiers/autodiff.py:257: RuntimeWarning: overflow encountered\n"
    )


def test_train_writes_where_no_directory_was_made_for_it(tmp_path):
    """So the check sees whether an aborted ``train`` leaves its ``--out``
    behind; the ring systems reach ``parse``, ``partition`` and ``embed``."""
    names = (*same_outputs.MOLECULE_FILES, "one-atom", "narrow", "corrupt", "missing")
    results, trained = tmp_path / "results", tmp_path / "parent"
    runs = same_outputs.commands({name: tmp_path / name for name in names}, results, trained)
    trains = [(name, argv) for name, argv in runs if argv[0] == "train"]
    assert len(trains) == 16
    for name, argv in trains:
        assert argv[argv.index("--out") + 1] == str(results / name / "out")
    assert {"parse-rings", "partition-rings", "embed-vgae-group-rings"} <= {name for name, _ in runs}
    assert {"train-gae-one-atom", "train-vgae-one-atom", "train-negative-seed"} <= {name for name, _ in trains}
    assert {"train-gae-large", "train-vgae-large"} <= {name for name, _ in trains}
    assert {f"embed-{model}-{tier}-large" for model in ("gae", "vgae") for tier in ("node", "group", "graph")} <= {
        name for name, _ in runs
    }


def test_embed_and_interp_read_the_parents_checkpoints(tmp_path):
    """So a change that moves ``train`` alone leaves every embedding as it was."""
    names = (*same_outputs.MOLECULE_FILES, "one-atom", "narrow", "corrupt", "missing")
    results, trained = tmp_path / "change", tmp_path / "parent"
    runs = same_outputs.commands({name: tmp_path / name for name in names}, results, trained)
    checkpoints = {argv[1] for _, argv in runs if argv[0] in ("embed", "interp")}
    assert checkpoints == {
        str(trained / f"train-{model}-adam-seed0" / "out" / "checkpoint.json") for model in ("gae", "vgae")
    } | {str(tmp_path / "narrow"), str(tmp_path / "corrupt")}
