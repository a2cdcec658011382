"""``mean_edge_auc`` as it was before evaluation ran padded size buckets.

It encodes, decodes and scores one molecule at a time, in dataset order, and
stops at the first molecule whose probabilities hold a NaN. Tests use this
copy as the oracle the batched evaluation in ``moltiers.models`` must match.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from moltiers import autodiff as ad
from moltiers.models import MoleculeData, decode, edge_auc, encode_tiered


def mean_edge_auc(params, dataset: Sequence[MoleculeData]) -> float:
    """Mean per-molecule edge AUC; variational models decode their means."""
    if not dataset:
        raise ValueError("empty dataset")
    scores = []
    with ad.no_grad():
        for data in dataset:
            edge_probs, _ = decode(params, encode_tiered(params, data))
            try:
                scores.append(edge_auc(edge_probs.values, data.ends))
            except ValueError as err:
                raise ValueError(f"molecule {data.name!r}: {err}") from err
    return float(np.mean(scores))
