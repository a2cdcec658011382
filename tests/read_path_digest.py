"""Digest of what the read path builds and of evaluation, compared between two source trees.

Usage::

    python tests/read_path_digest.py PARENT_TREE CHANGE_TREE

Each tree is a checkout of this repository, for instance one made with
``git archive``. For each tree the script runs itself in a subprocess over
that tree's ``src`` and reads four molecule files with ``load_molecules``:
``data/corpus30.smi``, ``gen.library(1)`` with its planted lines, 20
backbones (``gen.large_molecules(1, count=20)``) and ``RING_SYSTEMS`` of
``tests/same_outputs.py``. Per file it hashes one SHA-256 per section:

- ``graph``: each rejected line's error message and whether the error is
  a ``SmilesError`` (its class name, which trees may rename, is left out),
  or its graph's name, SMILES, formula,
  atoms (element, charge, aromatic flag), bonds (atoms and order) and
  each atom's neighbours in order, as a list whatever container holds them;
- ``rings``: the ring basis, the ring atoms and the unsaturated atoms;
- ``partition``: each group's kind and atoms;
- ``consistency``: what ``check_bond_consistency`` reports under the
  partition and under one group per atom;
- ``arrays``: every ``MoleculeData`` array, the atom propagator, the
  edge weights, and the dense adjacency and the edge flags of the pairs
  i < j (by j, then i) that older trees kept, both built here from the
  bonds;
- ``encode``: the embeddings of an untrained GAE, and of an untrained VGAE
  sampled with zero noise;
- ``eval``: the repr of ``mean_edge_auc`` for the same two models, over the
  whole file (padded batches) and over each molecule alone (runs of one).

Both trees read one set of inputs, taken from CHANGE_TREE. Each (file,
section) is printed as identical or different, and the script exits 1 on
any difference.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from same_outputs import RING_SYSTEMS

SECTIONS = ("graph", "rings", "partition", "consistency", "arrays", "encode", "eval")


def write_inputs(tree: Path, directory: Path) -> dict[str, Path]:
    """The four molecule files, written into ``directory`` from ``tree``."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", tree / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    texts = {
        "corpus": (tree / "data" / "corpus30.smi").read_text(),
        "library": gen.library(1)[0],
        "large": gen.large_molecules(1, count=20),
        "rings": RING_SYSTEMS,
    }
    inputs = {}
    for name, text in texts.items():
        inputs[name] = directory.resolve() / f"{name}.smi"
        inputs[name].write_text(text)
    return inputs


def digest_file(path: Path) -> dict[str, str]:
    """One hex digest per section for the molecules of ``path``, built by
    the ``moltiers`` on ``sys.path``."""
    import numpy as np

    from moltiers import autodiff as ad
    from moltiers.grouping import COMPONENT, Group, check_bond_consistency, partition
    from moltiers.models import (
        MoleculeData,
        TieredGaeParams,
        TieredVgaeParams,
        encode_tiered,
        encode_tiered_variational,
        mean_edge_auc,
        zero_noise,
    )
    from moltiers.molgraph import load_molecules
    from moltiers.smiles import SmilesError

    hashes = {section: hashlib.sha256() for section in SECTIONS}

    def add(section: str, *values) -> None:
        for value in values:
            if isinstance(value, np.ndarray):
                hashes[section].update(f"{value.dtype}{value.shape}".encode())
                hashes[section].update(np.ascontiguousarray(value).tobytes())
            else:
                hashes[section].update(repr(value).encode())

    gae, vgae = TieredGaeParams.init(np.random.default_rng(0)), TieredVgaeParams.init(np.random.default_rng(1))
    dataset = []
    for record in load_molecules(path):
        graph = record.graph
        if graph is None:
            add("graph", record.line_number, str(record.error), isinstance(record.error, SmilesError))
            continue
        add("graph", graph.name, graph.smiles, graph.formula(),
            list(zip(graph.elements, graph.charges, graph.aromatic)),
            [(i, j, order) for (i, j), order in zip(graph.pairs, graph.orders)],
            [list(graph.neighbors(i)) for i in range(graph.num_atoms)])  # their order, not their type
        add("rings", graph.rings, sorted(graph.ring_atoms), sorted(graph.unsaturated))
        groups = partition(graph)
        add("partition", [(group.kind, group.atoms) for group in groups])
        singles = [Group(COMPONENT, (atom,)) for atom in range(graph.num_atoms)]
        add("consistency", check_bond_consistency(graph, groups), check_bond_consistency(graph, singles))
        data = MoleculeData.from_graph(graph)
        dataset.append(data)
        adjacency = np.zeros((graph.num_atoms, graph.num_atoms))
        adjacency[data.ends, data.ends[::-1]] = 1.0
        pair_labels = adjacency.T[np.tri(graph.num_atoms, k=-1, dtype=bool)] > 0
        add("arrays", adjacency, data.features, data.node_to_group, data.group_to_graph,
            data.atom_scale, data.group_propagator.values, data.molecule_to_atoms,
            data.atom_propagator().values, pair_labels, data.edge_weights)
        with ad.no_grad():
            # The VGAE's means through a zero-noise sample, which older trees run too.
            vgae_embeddings = encode_tiered_variational(vgae, data, zero_noise)[0]
            for embeddings in (encode_tiered(gae, data), vgae_embeddings):
                add("encode", embeddings.node.values, embeddings.group.values, embeddings.graph.values)
    for params in (gae, vgae):
        add("eval", mean_edge_auc(params, dataset), [mean_edge_auc(params, [data]) for data in dataset])
    return {section: hashes[section].hexdigest() for section in SECTIONS}


def tree_digests(tree: Path, inputs: dict[str, Path]) -> dict[str, str]:
    """``{"<file>/<section>": hex digest}``, from ``tree``'s ``src`` in a
    subprocess that runs this script's ``--digest`` mode."""
    if not (tree / "src" / "moltiers" / "molgraph.py").is_file():
        raise SystemExit(f"{tree} has no src/moltiers/molgraph.py")
    done = subprocess.run(
        [sys.executable, __file__, "--digest", json.dumps({k: str(v) for k, v in inputs.items()})],
        env={**os.environ, "PYTHONPATH": str(tree / "src")}, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def compare(first: dict[str, str], second: dict[str, str]) -> list[str]:
    """Print every key of either side as identical or different, sorted;
    return the keys that differ, a key that one side lacks included."""
    different = []
    for key in sorted(first.keys() | second.keys()):
        same = key in first and key in second and first[key] == second[key]
        print(f"{'identical' if same else 'different'}  {key}")
        if not same:
            different.append(key)
    return different


def main(argv: list[str]) -> int:
    if argv[:1] == ["--digest"]:
        inputs = json.loads(argv[1])
        digests = {
            f"{name}/{section}": value
            for name, path in inputs.items()
            for section, value in digest_file(Path(path)).items()
        }
        print(json.dumps(digests))
        return 0
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    parent, change = (Path(arg).resolve() for arg in argv)
    with tempfile.TemporaryDirectory(prefix="read-path-digest-") as scratch:
        inputs = write_inputs(change, Path(scratch))
        different = compare(tree_digests(parent, inputs), tree_digests(change, inputs))
    print(f"{len(different)} digest(s) differ" if different else "every digest is identical")
    return 1 if different else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
