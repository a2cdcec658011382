"""End-to-end CLI runs through main(argv): outputs, files and exit codes."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import moltiers.autodiff as ad
from moltiers import cli
from moltiers.checkpoint import save_checkpoint
from moltiers.cli import main
from moltiers.models import TieredGaeParams
from moltiers.train import TrainConfig

SMALL_CORPUS = "CCO ethanol\nCC(=O)O acetic-acid\nO=Cc1ccc(O)c(OC)c1 vanillin\n"


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "mols.smi"
    path.write_text(SMALL_CORPUS)
    return str(path)


@pytest.fixture
def trained_dir(tmp_path, corpus_file):
    out = tmp_path / "run"
    code = main([
        "train", "--input", corpus_file, "--out", str(out),
        "--dims", "3,3,3", "--layers", "2", "--epochs", "2", "--seed", "7",
    ])
    assert code == 0
    return out


def test_parse_reports_each_molecule(corpus_file, capsys):
    assert main(["parse", "--input", corpus_file]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "ethanol: atoms=9 bonds=8 rings=0 formula=C2H6O"
    assert lines[1] == "acetic-acid: atoms=8 bonds=7 rings=0 formula=C2H4O2"
    assert lines[2] == "vanillin: atoms=19 bonds=19 rings=1 formula=C8H8O3"


def test_parse_flags_bad_lines(tmp_path, capsys):
    path = tmp_path / "bad.smi"
    path.write_text("CCO fine\nC@C broken\n")
    assert main(["parse", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert "line 2" in captured.err
    assert "fine" in captured.out


def test_missing_input_file_exits_2(tmp_path, capsys):
    assert main(["parse", "--input", str(tmp_path / "absent.smi")]) == 2
    assert "i/o error" in capsys.readouterr().err


def test_partition_json_structure(corpus_file, tmp_path):
    out = tmp_path / "partition.json"
    assert main(["partition", "--input", corpus_file, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    by_name = {m["name"]: m for m in doc["molecules"]}
    vanillin = by_name["vanillin"]
    assert [g["kind"] for g in vanillin["groups"]] == ["FG", "FG", "FG", "AromaticRing"]
    assert [g["formula"] for g in vanillin["groups"]] == ["CHO", "HO", "CH3O", "C6H3"]
    membership = np.array(vanillin["membership"]["rows"])
    assert membership.shape == (19, 4)
    assert np.allclose(membership.sum(axis=1), 1.0)
    # degenerate single-group molecule still emits a valid column
    acetic = by_name["acetic-acid"]
    assert len(acetic["groups"]) == 1
    assert np.array(acetic["membership"]["rows"]).shape == (8, 1)


def test_partition_writes_to_stdout_by_default(corpus_file, capsys):
    assert main(["partition", "--input", corpus_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["molecules"]) == 3


def test_partition_builds_no_model_constants(monkeypatch, corpus_file, capsys):
    # partition prints groups and memberships only: no propagator, features
    # or degree scale is built for it
    def forbidden(*args, **kwargs):
        raise AssertionError("partition built model constants")

    monkeypatch.setattr(cli.MoleculeData, "from_graph", forbidden)
    for name, module in list(sys.modules.items()):
        if name.startswith("moltiers") and hasattr(module, "normalize_adjacency"):
            monkeypatch.setattr(module, "normalize_adjacency", forbidden)
    assert main(["partition", "--input", corpus_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [m["membership"]["shape"] for m in doc["molecules"]] == [[9, 2], [8, 1], [19, 4]]


def test_out_naming_a_directory_exits_2_and_writes_nothing(tmp_path, corpus_file, capsys):
    taken = tmp_path / "taken.json"
    taken.mkdir()
    assert main(["partition", "--input", corpus_file, "--out", str(taken)]) == 2
    assert "i/o error" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["mols.smi", "taken.json"]


def test_train_writes_checkpoint_and_trace(trained_dir, capsys):
    assert (trained_dir / "checkpoint.json").exists()
    trace = (trained_dir / "trace.csv").read_text()
    lines = trace.strip().splitlines()
    assert lines[0] == "epoch,loss"
    assert len(lines) == 3
    assert lines[1].startswith("1,")


def test_train_zero_epochs_header_only(tmp_path, corpus_file):
    out = tmp_path / "zero"
    code = main([
        "train", "--input", corpus_file, "--out", str(out),
        "--dims", "2,2,2", "--layers", "1", "--epochs", "0",
    ])
    assert code == 0
    assert (out / "trace.csv").read_text() == "epoch,loss\n"
    assert (out / "checkpoint.json").exists()


def test_train_vgae_trace_format(tmp_path, corpus_file):
    out = tmp_path / "vrun"
    code = main([
        "train", "--input", corpus_file, "--out", str(out), "--model", "vgae",
        "--dims", "2,2,2", "--layers", "1", "--epochs", "2", "--beta", "0.5",
    ])
    assert code == 0
    lines = (out / "trace.csv").read_text().strip().splitlines()
    assert lines[0] == "epoch,elbo,kl"
    assert len(lines) == 3
    kl_values = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(v >= 0.0 for v in kl_values)
    doc = json.loads((out / "checkpoint.json").read_text())
    assert doc["model_kind"] == "vgae"


@pytest.mark.parametrize("model", ["gae", "vgae"])
def test_train_on_one_atom_molecules(tmp_path, capsys, model):
    """A molecule of one atom has no pairs, so no edge loss; the decoder's
    weights still get a gradient and the run completes."""
    path = tmp_path / "one-atom.smi"
    path.write_text("C methane\n[Cl-] chloride\n")
    out = tmp_path / "run"
    assert main(["train", "--input", str(path), "--out", str(out), "--model", model, "--epochs", "3"]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads((out / "checkpoint.json").read_text())["model_kind"] == model
    lines = (out / "trace.csv").read_text().splitlines()
    assert len(lines) == 4 and all(np.isfinite(float(v)) for line in lines[1:] for v in line.split(","))


def test_train_rejects_bad_dims(corpus_file, tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["train", "--input", corpus_file, "--out", str(tmp_path / "x"),
              "--dims", "4,4"])
    assert err.value.code == 5
    assert "expected D1,D2,D3" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["train", "--input", corpus_file, "--out", str(tmp_path / "x"),
              "--dims", "4,0,4"])


# each TrainConfig field with the train option that sets it
TRAIN_OPTIONS = {
    "dims": "dims", "depth": "layers", "learning_rate": "lr", "epochs": "epochs",
    "seed": "seed", "optimizer": "optimizer", "beta": "beta", "feature_weight": "lambda_x",
}


def test_train_option_defaults_are_the_train_config_defaults():
    args = cli.build_parser().parse_args(["train", "--input", "in.smi", "--out", "out"])
    assert set(TRAIN_OPTIONS) == {field.name for field in dataclasses.fields(TrainConfig)}
    defaults = TrainConfig()
    for field, option in TRAIN_OPTIONS.items():
        assert getattr(args, option) == getattr(defaults, field), field


# each bad train option with the last line of its usage error
TRAIN_USAGE_ERRORS = {
    "--layers 0": "depth must be at least 1, got 0",
    "--layers abc": "argument --layers: invalid int value: 'abc'",
    "--lr 0": "learning rate must be positive, got 0.0",
    "--lr nan": "learning rate must be finite, got nan",
    "--lr inf": "learning rate must be finite, got inf",
    "--beta nan": "beta must be finite, got nan",
    "--beta inf": "beta must be finite, got inf",
    "--lambda-x nan": "feature weight must be finite, got nan",
    "--lambda-x inf": "feature weight must be finite, got inf",
    "--epochs -1": "epochs must be non-negative, got -1",
    "--beta -1": "beta must be non-negative, got -1.0",
    "--lambda-x -1": "feature weight must be non-negative, got -1.0",
    "--dims 4,4": "argument --dims: expected D1,D2,D3, got '4,4'",
    "--dims 4,0,4": "dims must be three positive integers, got (4, 0, 4)",
    "--dims a,b,c": "argument --dims: expected D1,D2,D3, got 'a,b,c'",
    "--optimizer lbfgs": "argument --optimizer: invalid choice: 'lbfgs'",
}


# The name keeps its old exit code so the test ids stay stable; usage errors
# exit 5, apart from I/O errors' 2.
@pytest.mark.parametrize("option", list(TRAIN_USAGE_ERRORS))
def test_train_usage_errors_exit_2_before_reading_input(tmp_path, capsys, option):
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as err:
        main(["train", "--input", str(tmp_path / "absent.smi"), "--out", str(out), *option.split()])
    assert err.value.code == 5
    stderr = capsys.readouterr().err
    assert "i/o error" not in stderr
    last_line = stderr.splitlines()[-1]
    assert last_line.startswith(f"moltiers train: error: {TRAIN_USAGE_ERRORS[option]}")
    assert not re.search(r"(?<![\w-])_[a-z]", last_line)  # no private helper name
    assert not out.exists()


@pytest.mark.parametrize("model", ["gae", "vgae"])
def test_train_with_a_non_finite_gradient_exits_3(tmp_path, corpus_file, capsys, monkeypatch, model):
    backward = ad.backward
    # every gradient is NaN while the loss value stays finite
    monkeypatch.setattr(ad, "backward", lambda loss: backward(ad.scale(loss, float("nan"))))
    out = tmp_path / "run"
    code = main(["train", "--input", corpus_file, "--out", str(out), "--model", model,
                 "--dims", "2,2,2", "--layers", "1", "--epochs", "2"])
    assert code == 3
    err = capsys.readouterr().err
    assert "training aborted: non-finite loss at epoch 1 on molecule 'ethanol'" in err
    assert "its gradient was not" in err
    assert not (out / "checkpoint.json").exists()
    assert not (out / "trace.csv").exists()


@pytest.mark.parametrize("existing", [False, True])
def test_an_aborted_train_removes_only_the_out_directories_it_created(
    tmp_path, corpus_path, capsys, existing
):
    out = tmp_path / "a" / "b"
    if existing:
        out.mkdir(parents=True)
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["train", "--input", str(corpus_path), "--out", str(out), "--model", "vgae",
                     "--optimizer", "sgd", "--layers", "1", "--dims", "3,4,5", "--epochs", "20",
                     "--seed", "0"])
    assert code == 3
    last_line = capsys.readouterr().err.splitlines()[-1]
    assert last_line == "training aborted: non-finite loss at epoch 1 on molecule 'acrylic-acid'"
    assert (tmp_path / "a").exists() == out.exists() == existing
    assert tmp_path.exists()


def test_a_diverging_train_prints_only_its_abort_line(tmp_path, corpus_path):
    """In a process of its own, where numpy's warnings reach stderr."""
    out = tmp_path / "run"
    done = subprocess.run(
        [sys.executable, "-m", "moltiers.cli", "train", "--input", str(corpus_path),
         "--out", str(out), "--model", "vgae", "--optimizer", "sgd", "--layers", "1",
         "--dims", "3,4,5", "--epochs", "30", "--seed", "42"],
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        capture_output=True, text=True,
    )
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr == "training aborted: non-finite loss at epoch 1 on molecule 'acrylic-acid'\n"
    assert not out.exists()


def test_an_unwritable_out_fails_before_training_and_leaves_no_directory(
    tmp_path, corpus_file, capsys, monkeypatch
):
    monkeypatch.setattr(cli, "train_gae", lambda *args: pytest.fail("training ran"))
    out = tmp_path / "a" / ("x" * 300)  # "a" is made, then the long name fails
    assert main(["train", "--input", corpus_file, "--out", str(out)]) == 2
    assert "i/o error" in capsys.readouterr().err
    assert not (tmp_path / "a").exists()


def test_train_on_unparseable_corpus_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.smi"
    path.write_text("C@C nope\n")
    assert main(["train", "--input", str(path), "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("command", ["parse", "partition", "train", "embed"])
def test_a_line_that_is_not_utf8_is_that_lines_error(trained_dir, tmp_path, capsys, command):
    """Every command that reads a molecule file reports the line, loads
    the others and exits 1; none ends in a traceback."""
    path = tmp_path / "mixed.smi"
    path.write_bytes(b"CCO ethanol\n\xff\xfeC bad\nCC(=O)O acetic-acid\n")
    out = tmp_path / "out"
    argv = {
        "parse": ["parse", "--input", str(path)],
        "partition": ["partition", "--input", str(path), "--out", str(out)],
        "train": ["train", "--input", str(path), "--out", str(out)],
        "embed": ["embed", str(trained_dir / "checkpoint.json"), "--input", str(path), "--out", str(out)],
    }[command]
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "line 2: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
    if command == "parse":
        assert [line.split(":")[0] for line in captured.out.splitlines()] == ["ethanol", "acetic-acid"]
    elif command == "train":
        assert not out.exists()
    else:
        assert [m["name"] for m in json.loads(out.read_text())["molecules"]] == ["ethanol", "acetic-acid"]


def test_embed_graph_tier(trained_dir, corpus_file, tmp_path):
    out = tmp_path / "emb.json"
    code = main([
        "embed", str(trained_dir / "checkpoint.json"),
        "--input", corpus_file, "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["tier"] == "graph"
    assert len(doc["molecules"]) == 3
    for mol in doc["molecules"]:
        assert mol["embeddings"]["shape"] == [1, 3]


def test_embed_node_and_group_tiers(trained_dir, corpus_file, tmp_path):
    out = tmp_path / "emb.json"
    code = main([
        "embed", str(trained_dir / "checkpoint.json"),
        "--input", corpus_file, "--tier", "node", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    by_name = {m["name"]: m for m in doc["molecules"]}
    assert by_name["vanillin"]["embeddings"]["shape"] == [19, 3]
    assert len(by_name["vanillin"]["elements"]) == 19

    code = main([
        "embed", str(trained_dir / "checkpoint.json"),
        "--input", corpus_file, "--tier", "group", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    by_name = {m["name"]: m for m in doc["molecules"]}
    assert by_name["vanillin"]["embeddings"]["shape"] == [4, 3]
    assert by_name["vanillin"]["group_kinds"] == ["FG", "FG", "FG", "AromaticRing"]


def test_embed_with_corrupt_checkpoint_exits_4(tmp_path, corpus_file, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["embed", str(bad), "--input", corpus_file]) == 4
    assert "checkpoint error" in capsys.readouterr().err


def test_embed_with_a_checkpoint_that_is_not_utf8_exits_4(tmp_path, corpus_file, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    assert main(["embed", str(bad), "--input", corpus_file]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("checkpoint error: malformed checkpoint file: 'utf-8' codec can't decode")
    assert captured.out == ""


def test_embed_with_a_checkpoint_outside_its_spec_exits_4(trained_dir, corpus_file, capsys):
    """A depth-2 checkpoint whose config claims depth 1 would load as a
    depth-1 model without the deeper weights; it must be refused."""
    path = trained_dir / "checkpoint.json"
    payload = json.loads(path.read_text())
    payload["config"]["layers"] = 1
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["embed", str(path), "--input", corpus_file]) == 4
    captured = capsys.readouterr()
    assert "checkpoint error" in captured.err and "outside the spec" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["embed", "interp"])
def test_a_checkpoint_nested_past_the_recursion_limit_exits_4(tmp_path, corpus_file, capsys, command):
    """json.load raises RecursionError, not ValueError, on arrays nested this
    deep; it is a malformed file all the same."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    molecules = ["--input", corpus_file] if command == "embed" else ["CCO", "CC(=O)O"]
    assert main([command, str(deep), *molecules]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("checkpoint error: malformed checkpoint file: maximum recursion depth")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["embed", "interp"])
def test_a_checkpoint_of_another_feature_width_exits_4(tmp_path, corpus_file, capsys, command):
    """A checkpoint whose stacks read 6 features, where every molecule has
    16, is rejected by the loader and writes no document."""
    path = tmp_path / "narrow.json"
    save_checkpoint(TieredGaeParams.init(np.random.default_rng(0), (4, 4, 4), 2), path)
    payload = json.loads(path.read_text())
    payload["config"]["input_dim"] = 6
    weights = payload["weights"]
    weights["tier1.layer0"] = weights["tier1.layer0"][:6]
    weights["decoder.feature"] = [row[:6] for row in weights["decoder.feature"]]
    path.write_text(json.dumps(payload))
    molecules = ["--input", corpus_file] if command == "embed" else ["CCO", "CC(=O)O"]
    assert main([command, str(path), *molecules]) == 4
    captured = capsys.readouterr()
    assert captured.err == "checkpoint error: bad checkpoint config: input_dim must be 16, got 6\n"
    assert captured.out == ""


def test_interp_output_structure(trained_dir, tmp_path):
    out = tmp_path / "interp.json"
    code = main([
        "interp", str(trained_dir / "checkpoint.json"),
        "CCO", "CC(=O)O", "--steps", "4", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["steps"] == 4
    assert len(doc["vectors"]) == 4
    alphas = [d["alpha"] for d in doc["decoded"]]
    assert alphas == [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0]
    assert doc["vectors"][0] == doc["endpoints"]["a"]["embedding"]
    assert doc["vectors"][-1] == doc["endpoints"]["b"]["embedding"]
    for step in doc["decoded"]:
        assert 0.0 < step["mean_edge_probability"] < 1.0
        assert len(step["top_edges"]) <= 10
        probs = [e["probability"] for e in step["top_edges"]]
        assert probs == sorted(probs, reverse=True)


def test_interp_bad_endpoint_exits_1(trained_dir, capsys):
    code = main(["interp", str(trained_dir / "checkpoint.json"), "C@C", "CCO"])
    assert code == 1
    assert "cannot parse endpoint" in capsys.readouterr().err


def test_interp_rejects_single_step(trained_dir, capsys):
    with pytest.raises(SystemExit):
        main(["interp", str(trained_dir / "checkpoint.json"), "CCO", "CC", "--steps", "1"])
    assert "steps must be at least 2" in capsys.readouterr().err


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit) as err:
        main(["compress", "--input", "x"])
    assert err.value.code == 5
