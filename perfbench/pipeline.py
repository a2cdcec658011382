"""Per-molecule embedding for the benchmark, in a module the tracer can patch.

:func:`embed_one` is the unit of the embed phase, so the tracer wraps it to
number molecules. Calls into ``moltiers`` go through module attributes
(``models.encode_tiered``, not an imported name) so the tracer's patches
reach them.
"""

from __future__ import annotations

import numpy as np

from moltiers import autodiff, models, smiles


def embed_one(params, text: str, name: str):
    """Parse, partition and encode one line under ``no_grad``; the
    ``moltiers embed`` path. Returns (embeddings, None) or (None, SmilesError)."""
    try:
        graph = smiles.parse_smiles(text, name=name)
    except smiles.SmilesError as err:
        return None, err
    data = models.MoleculeData.from_graph(graph)
    with autodiff.no_grad():
        return models.encode_tiered(params, data), None


def evaluate(params, dataset) -> float:
    return models.mean_edge_auc(params, dataset)


def embedding_problem(embeddings, dims) -> str | None:
    """Why a molecule's embeddings are wrong, or None: every tier finite and
    shaped (atoms, D1), (groups, D2), (1, D3)."""
    data = embeddings.data
    expected = (
        ("node", (data.num_atoms, dims[0])),
        ("group", (data.num_groups, dims[1])),
        ("graph", (1, dims[2])),
    )
    for tier, shape in expected:
        values = getattr(embeddings, tier).values
        if values.shape != shape:
            return f"{tier} tier has shape {values.shape}, expected {shape}"
        if not np.isfinite(values).all():
            return f"{tier} tier has non-finite values"
    return None
