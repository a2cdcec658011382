"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402
import tracer as tracer_module  # noqa: E402
from moltiers import models, molgraph, smiles, train  # noqa: E402


def test_generators_are_deterministic_per_seed():
    assert gen.large_molecules(5) == gen.large_molecules(5)
    assert gen.large_molecules(5) != gen.large_molecules(6)
    text, planted = gen.library(5, count=300)
    assert (text, planted) == gen.library(5, count=300)
    assert text != gen.library(6, count=300)[0]


def test_library_plants_only_unsupported_lines(tmp_path):
    text, planted = gen.library(3, count=300)
    path = tmp_path / "library.smi"
    path.write_text(text)
    records = molgraph.load_molecules(path)
    rejected = {r.line_number for r in records if r.error is not None}
    assert planted and rejected == set(planted)
    assert all(isinstance(r.error, smiles.SmilesError) for r in records if r.error is not None)
    valid = [r.text.split()[0] for r in records if r.graph is not None]
    assert len(valid) == len(set(valid)) == 300


def test_large_molecules_parse_in_the_stated_size_range():
    for line in gen.large_molecules(9).splitlines()[1:]:
        graph = smiles.parse_smiles(line.split()[0])
        assert 90 <= graph.num_atoms <= 200


def _bindings_snapshot() -> dict:
    snapshot = {}
    for name, module in list(sys.modules.items()):
        if name == "pipeline" or name == "moltiers" or name.startswith("moltiers."):
            snapshot[name] = dict(vars(module))
            for attr, value in vars(module).items():
                if isinstance(value, type) and value.__module__ == name:
                    snapshot[f"{name}.{attr}"] = dict(vars(value))
    return snapshot


def test_tracer_patches_callers_bindings_and_restores_every_name():
    import moltiers
    import pipeline  # noqa: F401

    before = _bindings_snapshot()
    originals = {
        "models.gnn_forward": moltiers.models.gnn_forward,
        "train.gae_loss": moltiers.train.gae_loss,
        "molgraph.shortest_cycle_basis": moltiers.molgraph.shortest_cycle_basis,
        "models.partition": moltiers.models.partition,
    }
    with tracer_module.Tracer():
        for site in originals:
            module, name = site.split(".")
            patched = getattr(getattr(moltiers, module), name)
            assert getattr(patched, tracer_module.WRAPPED_MARK, False), site
    after = _bindings_snapshot()
    assert before.keys() == after.keys()
    for key in before:
        changed = [k for k in before[key] if before[key][k] is not after[key].get(k)]
        assert not changed, (key, changed)
    for key, namespace in after.items():
        wrapped = [k for k, v in namespace.items() if getattr(v, tracer_module.WRAPPED_MARK, False)]
        assert not wrapped, (key, wrapped)


def test_tracer_spans_nest_and_number_steps():
    dataset = [models.MoleculeData.from_graph(smiles.parse_smiles(s)) for s in ("CCO", "CC(=O)O")]
    config = train.TrainConfig(epochs=2, seed=0)
    plain = train.train_gae(dataset, config)[1]
    tracer = tracer_module.Tracer()
    with tracer:
        traced = train.train_gae(dataset, config)[1]
    assert traced == plain
    assert tracer.units == 4
    names = [span[0] for span in tracer.spans]
    assert names[0] == "train.loop" and names.count("optim.step") == 4
    assert {"gnn.forward.atom", "gnn.forward.group", "gnn.forward.molecule"} <= set(names)
    assert tracer.counts["backward_calls"] == 4 and tracer.counts["matmul_calls"] > 0
    assert all(parent < index for index, (_, _, _, parent, _) in enumerate(tracer.spans))
    total = sum(tracer.self_times().values())
    root = tracer.spans[0]
    assert total == pytest.approx(root[2] - root[1])


def test_declared_metrics_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        tuple(m) for m in run.PER_LAYER
    ]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_match_benchmark_json(trace):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = doc["per_layer"] if trace == "1" else doc["end_to_end"]
    result = subprocess.run(
        [*doc["command"], "--workload", "corpus-train", "--seed", "2",
         "--seconds", "0.1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert result.returncode == 0, result.stderr
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
