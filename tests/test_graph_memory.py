"""A parsed molecule costs memory linear in its atoms: the graph holds no
array, and the bytes that ``load_molecules`` keeps per atom do not grow
with molecule size."""

import gc
import tracemalloc

import numpy as np

from moltiers.models import MoleculeData
from moltiers.molgraph import MolecularGraph, load_molecules


def reachable(graph: MolecularGraph):
    """Every object reachable from the graph's attributes through
    containers."""
    stack, seen = list(vars(graph).values()), set()
    while stack:
        value = stack.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        yield value
        if isinstance(value, (list, tuple, frozenset)):
            stack.extend(value)


def test_a_parsed_graph_holds_no_array(tmp_path, corpus_path, perfbench_gen):
    path = tmp_path / "library.smi"
    path.write_text(perfbench_gen.library(1, count=40)[0])
    graphs = [r.graph for r in load_molecules(corpus_path) + load_molecules(path) if r.graph]
    assert len(graphs) == 70
    for graph in graphs:
        assert not any(isinstance(value, np.ndarray) for value in reachable(graph))
    # building a molecule's arrays leaves none on its graph
    graph = graphs[0]
    MoleculeData.from_graph(graph)
    assert not any(isinstance(value, np.ndarray) for value in reachable(graph))


def retained_bytes_per_atom(path) -> float:
    """Bytes still allocated after ``load_molecules(path)`` returns, numpy's
    buffers included, per atom of its parsed molecules."""
    load_molecules(path)  # first-use allocations are not the records'
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        records = load_molecules(path)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    return retained / sum(r.graph.num_atoms for r in records if r.graph is not None)


def test_loaded_molecules_keep_memory_linear_in_their_atoms(tmp_path, perfbench_gen):
    """24 backbones of 100-180 atoms keep at most 1.5x the bytes per atom of
    300 library molecules of 5-40 heavy atoms: with n x n arrays per graph
    the ratio was about 2. A ratio of two runs of one build does not depend
    on the build's object sizes."""
    small, large = tmp_path / "library.smi", tmp_path / "backbones.smi"
    small.write_text(perfbench_gen.library(1, count=300)[0])
    large.write_text(perfbench_gen.large_molecules(1, count=24))
    small_per_atom, large_per_atom = retained_bytes_per_atom(small), retained_bytes_per_atom(large)
    assert large_per_atom <= 1.5 * small_per_atom, (large_per_atom, small_per_atom)
