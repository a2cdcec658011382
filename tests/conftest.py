import importlib.util
import pathlib
import random
import sys

import pytest
from hypothesis import settings

from moltiers.models import MoleculeData
from moltiers.molgraph import MolecularGraph, load_molecules
from moltiers.smiles import parse_smiles

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "data"

VANILLIN = "O=Cc1ccc(O)c(OC)c1"

# Property tests run on shared, busy machines where one example can take
# far longer than the next; only wrong answers should fail them.
settings.register_profile("moltiers", deadline=None)
settings.load_profile("moltiers")


@pytest.fixture(scope="session")
def corpus_path() -> pathlib.Path:
    return DATA / "corpus30.smi"


@pytest.fixture(scope="session")
def corpus_graphs(corpus_path) -> list[MolecularGraph]:
    records = load_molecules(corpus_path)
    assert len(records) == 30
    assert all(r.graph is not None for r in records), [r.error for r in records]
    return [r.graph for r in records]


@pytest.fixture(scope="session")
def corpus_data(corpus_graphs) -> list[MoleculeData]:
    return [MoleculeData.from_graph(graph) for graph in corpus_graphs]


@pytest.fixture(scope="session")
def vanillin() -> MolecularGraph:
    return parse_smiles(VANILLIN, name="vanillin")


def _perfbench_module(name: str):
    """``perfbench/<name>.py``, loaded as the module ``perfbench_<name>``."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def perfbench_gen():
    """The benchmark's input generators, ``perfbench/gen.py``."""
    return _perfbench_module("gen")


@pytest.fixture
def perfbench_tracer(monkeypatch):
    """The benchmark's tracer, ``perfbench/tracer.py``. Its targets name the
    benchmark's ``pipeline`` module, which is importable for the test."""
    pipeline = sys.modules.get("pipeline") or _perfbench_module("pipeline")
    monkeypatch.setitem(sys.modules, "pipeline", pipeline)
    return _perfbench_module("tracer")


@pytest.fixture(scope="session")
def backbone_data(perfbench_gen) -> list[MoleculeData]:
    """Three backbones of about 100, 145 and 190 atoms, hydrogens included,
    drawn as the benchmark's large-train workload draws its molecules."""
    data = []
    for seed, target in enumerate((100, 145, 190)):
        text = perfbench_gen.backbone(random.Random(seed), target, 15, count_hydrogens=True)
        data.append(MoleculeData.from_graph(parse_smiles(text, name=f"backbone-{target}")))
    return data
