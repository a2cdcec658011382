"""Byte-identity check of the command line's outputs between two source trees.

Usage::

    python tests/same_outputs.py PARENT_TREE CHANGE_TREE

Each tree is a checkout of this repository, for instance one made with
``git archive``. The script runs the same matrix of ``moltiers`` commands in
subprocesses from each tree's ``src``:

- ``parse`` and ``partition`` on ``data/corpus30.smi``, on 300 library
  molecules (``gen.library(3, count=300)``), on 12 backbones
  (``gen.large_molecules(1, count=12)``) and on six ring systems (fused,
  with atoms in three rings, spiro and bridged: ``RING_SYSTEMS``);
- ``train --epochs 20`` on the corpus for gae/vgae x adam/sgd x seeds 0 and
  42, and ``train --epochs 3`` of either model on two molecules of one atom
  each (``ONE_ATOM``);
- ``embed`` of the corpus and of the ring systems at the node, group and
  graph tiers and ``interp 'CC(=O)O' 'O=Cc1ccc(O)c(OC)c1' --steps 4``, each
  with PARENT_TREE's seed-0 Adam checkpoint of either model, so that a
  change to ``train`` alone leaves them identical;
- the failure paths: ``embed`` and ``interp`` with a GAE checkpoint whose
  stacks read 6 features (exit 4), ``embed`` with a corrupt checkpoint
  (exit 4), ``interp`` with the endpoint ``C@C`` (exit 1), ``parse`` on a
  missing file (exit 2), ``train --dims 0,1,1`` (exit 5) and a VGAE run
  with SGD whose loss turns non-finite in its first epoch (exit 3).

Both trees read one set of inputs, taken from CHANGE_TREE. Every command's
stdout, stderr and exit code and every file it writes are kept. ``train``
writes to an ``out`` directory inside its run's directory that does not
exist before the run, and whether it exists afterwards is kept too, so a
run that leaves its directory behind differs from one that removes it. In stdout
and stderr the run's directory and the tree's root are masked, since both
differ between the trees: ``train`` prints where it wrote, and numpy's
warnings print the path of the source line that raised them. Each file is
then printed as identical or different, and the script exits 1 on any
difference.
"""

from __future__ import annotations

import filecmp
import importlib.util
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path


MOLECULE_FILES = ("corpus", "library", "large", "rings")

RING_SYSTEMS = """\
c1ccc2ccccc2c1 naphthalene
c1ccc2[nH]ccc2c1 indole
c1cc2ccc3cccc4ccc(c1)c2c34 pyrene
c1cc2ccc3ccc4ccc5ccc6ccc1c7c2c3c4c5c67 coronene
C1CCC2(CC1)CCCC2 spiro[4.5]decane
C1CC2CCC1C2 norbornane
"""

ONE_ATOM = "C methane\n[Cl-] chloride\n"

# Run in a subprocess from a tree's src, with the checkpoint's path as argument:
# a GAE checkpoint narrowed in its JSON to stacks that read 6 features.
NARROW_CHECKPOINT = """
import json
import sys
import numpy as np
from moltiers.checkpoint import save_checkpoint
from moltiers.models import TieredGaeParams
save_checkpoint(TieredGaeParams.init(np.random.default_rng(0), (4, 4, 4), 2), sys.argv[1])
with open(sys.argv[1]) as handle:
    payload = json.load(handle)
payload["config"]["input_dim"] = 6
weights = payload["weights"]
weights["tier1.layer0"] = weights["tier1.layer0"][:6]
weights["decoder.feature"] = [row[:6] for row in weights["decoder.feature"]]
with open(sys.argv[1], "w") as handle:
    json.dump(payload, handle, indent=1, sort_keys=True)
"""


def write_inputs(tree: Path, directory: Path) -> dict[str, Path]:
    """The four molecule files, the one-atom training file, a GAE checkpoint
    whose stacks read 6 features and a corrupt checkpoint, written into
    ``directory``, and a missing file, by absolute path."""
    directory = directory.resolve()
    spec = importlib.util.spec_from_file_location("perfbench_gen", tree / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    inputs = {
        "corpus": directory / "corpus30.smi",
        "library": directory / "library.smi",
        "large": directory / "large.smi",
        "rings": directory / "rings.smi",
    }
    shutil.copyfile(tree / "data" / "corpus30.smi", inputs["corpus"])
    inputs["library"].write_text(gen.library(3, count=300)[0])
    inputs["large"].write_text(gen.large_molecules(1, count=12))
    inputs["rings"].write_text(RING_SYSTEMS)
    inputs["one-atom"] = directory / "one-atom.smi"
    inputs["one-atom"].write_text(ONE_ATOM)
    inputs["narrow"] = directory / "narrow-checkpoint.json"
    subprocess.run(
        [sys.executable, "-c", NARROW_CHECKPOINT, str(inputs["narrow"])],
        env={**os.environ, "PYTHONPATH": str(tree / "src")}, check=True,
    )
    inputs["corrupt"] = directory / "corrupt-checkpoint.json"
    inputs["corrupt"].write_text("{}")
    inputs["missing"] = directory / "absent.smi"
    return inputs


def commands(inputs: dict[str, Path], results: Path, trained: Path) -> list[tuple[str, list[str]]]:
    """(run name, argv after ``moltiers``) in run order. A run keeps its
    outputs in ``results/<run name>/``; ``train`` writes to its ``out``.
    ``embed`` and ``interp`` read the checkpoints that the ``train`` runs
    wrote under ``trained``, the parent's results."""
    corpus = str(inputs["corpus"])
    runs = []
    for name in MOLECULE_FILES:
        runs.append((f"parse-{name}", ["parse", "--input", str(inputs[name])]))
        runs.append((f"partition-{name}", ["partition", "--input", str(inputs[name])]))
    for model in ("gae", "vgae"):
        for optimizer in ("adam", "sgd"):
            for seed in ("0", "42"):
                name = f"train-{model}-{optimizer}-seed{seed}"
                runs.append((name, [
                    "train", "--input", corpus, "--out", str(results / name / "out"),
                    "--model", model, "--optimizer", optimizer, "--seed", seed, "--epochs", "20",
                ]))
        name = f"train-{model}-one-atom"
        runs.append((name, [
            "train", "--input", str(inputs["one-atom"]), "--out", str(results / name / "out"),
            "--model", model, "--epochs", "3",
        ]))
    for model in ("gae", "vgae"):
        checkpoint = str(trained / f"train-{model}-adam-seed0" / "out" / "checkpoint.json")
        for tier in ("node", "group", "graph"):
            runs.append((f"embed-{model}-{tier}", [
                "embed", checkpoint, "--input", corpus, "--tier", tier,
            ]))
            runs.append((f"embed-{model}-{tier}-rings", [
                "embed", checkpoint, "--input", str(inputs["rings"]), "--tier", tier,
            ]))
        runs.append((f"interp-{model}", [
            "interp", checkpoint, "CC(=O)O", "O=Cc1ccc(O)c(OC)c1", "--steps", "4",
        ]))
    narrow = str(inputs["narrow"])
    gae_checkpoint = str(trained / "train-gae-adam-seed0" / "out" / "checkpoint.json")
    runs += [
        ("embed-narrow", ["embed", narrow, "--input", corpus]),
        ("interp-narrow", ["interp", narrow, "CC(=O)O", "O=Cc1ccc(O)c(OC)c1"]),
        ("embed-corrupt", ["embed", str(inputs["corrupt"]), "--input", corpus]),
        ("interp-bad-endpoint", ["interp", gae_checkpoint, "C@C", "CCO"]),
        ("parse-missing", ["parse", "--input", str(inputs["missing"])]),
        ("train-zero-dims", [
            "train", "--input", corpus, "--out", str(results / "train-zero-dims" / "out"),
            "--dims", "0,1,1",
        ]),
        ("train-vgae-sgd-diverges", [
            "train", "--input", corpus, "--out", str(results / "train-vgae-sgd-diverges" / "out"),
            "--model", "vgae", "--optimizer", "sgd", "--layers", "1", "--dims", "3,4,5",
            "--epochs", "30", "--seed", "42",
        ]),
    ]
    return runs


def mask(text: str, tree: Path, out: Path) -> str:
    """``text`` with the run's directory shown as ``<out>`` and the tree's
    root as ``<tree>``."""
    return text.replace(str(out), "<out>").replace(str(tree), "<tree>")


def run_matrix(tree: Path, inputs: dict[str, Path], results: Path, trained: Path) -> None:
    """Run every command from ``tree``'s ``src``, keeping each one's stdout,
    stderr and exit code, and for ``train`` whether its ``out`` exists, in
    its own directory under ``results``; ``embed`` and ``interp`` read the
    checkpoints under ``trained``."""
    if not (tree / "src" / "moltiers" / "cli.py").is_file():
        raise SystemExit(f"{tree} has no src/moltiers/cli.py")
    env, results = {**os.environ, "PYTHONPATH": str(tree / "src")}, results.resolve()
    for name, argv in commands(inputs, results, trained.resolve()):
        out = results / name
        out.mkdir(parents=True)
        done = subprocess.run(
            [sys.executable, "-m", "moltiers.cli", *argv],
            cwd=out, env=env, capture_output=True, text=True,
        )
        (out / "stdout").write_text(mask(done.stdout, tree, out))
        (out / "stderr").write_text(mask(done.stderr, tree, out))
        (out / "exit").write_text(f"{done.returncode}\n")
        if argv[0] == "train":
            (out / "out-exists").write_text(f"{(out / 'out').is_dir()}\n")


def compare(first: Path, second: Path) -> list[str]:
    """Print every file under either directory as identical or different,
    by relative path; return the paths that differ, a missing file
    included."""
    names = sorted({
        str(path.relative_to(root))
        for root in (first, second)
        for path in root.rglob("*")
        if path.is_file()
    })
    different = []
    for name in names:
        a, b = first / name, second / name
        same = a.is_file() and b.is_file() and filecmp.cmp(a, b, shallow=False)
        print(f"{'identical' if same else 'different'}  {name}")
        if not same:
            different.append(name)
    return different


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    parent, change = (Path(arg).resolve() for arg in argv)
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as scratch:
        scratch = Path(scratch)
        (scratch / "inputs").mkdir()
        inputs = write_inputs(change, scratch / "inputs")
        for label, tree in (("parent", parent), ("change", change)):  # the parent trains first
            run_matrix(tree, inputs, scratch / label, scratch / "parent")
        different = compare(scratch / "parent", scratch / "change")
    print(f"{len(different)} file(s) differ" if different else "every file is identical")
    return 1 if different else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
