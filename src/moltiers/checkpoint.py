"""JSON checkpoints for trained models.

A checkpoint stores a format version, the model kind ("gae" or "vgae"), the
architecture config (dims, depth, input feature width) and every weight
matrix as nested row-major lists. Floats serialize through Python's
shortest-round-trip decimal repr (up to 17 significant digits), so
save -> load -> save is byte-identical and every weight survives
bit-exactly.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .gnn import GcnLayer, GnnStack, VariationalGnnStack
from .models import TieredGaeParams, TieredVgaeParams

FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """The checkpoint file is malformed, from another format version, or
    inconsistent with its declared architecture."""


def _collect_weights(params) -> dict[str, list]:
    weights: dict[str, list] = {}
    for tier, stack in enumerate(params.encoders, start=1):
        if isinstance(stack, VariationalGnnStack):
            for k, layer in enumerate(stack.trunk):
                weights[f"tier{tier}.trunk{k}"] = layer.weight.values.tolist()
            weights[f"tier{tier}.mean"] = stack.mean_head.weight.values.tolist()
            weights[f"tier{tier}.log_std"] = stack.log_std_head.weight.values.tolist()
        else:
            for k, layer in enumerate(stack.layers):
                weights[f"tier{tier}.layer{k}"] = layer.weight.values.tolist()
    weights["decoder.pair"] = params.pair_decoder.values.tolist()
    weights["decoder.feature"] = params.feature_decoder.values.tolist()
    return weights


@contextmanager
def atomic_write(path):
    """Text handle on a temp file beside ``path``: ``os.replace`` renames it
    over ``path`` when the block ends cleanly, and it is deleted if the block
    raises. A ``path`` that exists but is no regular file is written in place."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as handle:
            yield handle
        return
    temp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with open(temp, "w", encoding="utf-8") as handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def save_checkpoint(params, path) -> None:
    """Write params to ``path`` as JSON; the kind is derived from the type."""
    if isinstance(params, TieredVgaeParams):
        kind = "vgae"
    elif isinstance(params, TieredGaeParams):
        kind = "gae"
    else:
        raise TypeError(f"cannot checkpoint {type(params).__name__}")
    payload = {
        "format_version": FORMAT_VERSION,
        "model_kind": kind,
        "config": {
            "dims": list(params.dims),
            "layers": params.depth,
            "input_dim": params.input_dim,
        },
        "weights": _collect_weights(params),
    }
    with atomic_write(path) as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def _take_weight(weights: dict, name: str, shape: tuple[int, int]) -> ad.Tensor:
    if name not in weights:
        raise CheckpointError(f"checkpoint is missing weight {name!r}")
    array = np.asarray(weights[name], dtype=np.float64)
    if array.ndim != 2 or array.shape != shape:
        raise CheckpointError(
            f"weight {name!r} has shape {array.shape}, expected {shape}"
        )
    return ad.parameter(array)


def load_checkpoint(path) -> TieredGaeParams | TieredVgaeParams:
    """Read a checkpoint back into a parameter container of the right kind."""
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except json.JSONDecodeError as err:
        raise CheckpointError(f"malformed checkpoint file: {err}") from err
    if not isinstance(payload, dict):
        raise CheckpointError("malformed checkpoint file: top level is not an object")

    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint format version {version!r}, expected {FORMAT_VERSION}"
        )
    kind = payload.get("model_kind")
    if kind not in ("gae", "vgae"):
        raise CheckpointError(f"unknown model kind {kind!r}")

    config = payload.get("config")
    if not isinstance(config, dict):
        raise CheckpointError("checkpoint has no config object")
    try:
        dims = tuple(int(d) for d in config["dims"])
        depth = int(config["layers"])
        input_dim = int(config["input_dim"])
    except (KeyError, TypeError, ValueError) as err:
        raise CheckpointError(f"bad checkpoint config: {err}") from err
    if len(dims) != 3 or any(d < 1 for d in dims) or depth < 1 or input_dim < 1:
        raise CheckpointError(f"bad checkpoint config: dims={dims}, layers={depth}")

    weights = payload.get("weights")
    if not isinstance(weights, dict):
        raise CheckpointError("checkpoint has no weights object")

    tier_inputs = (input_dim, dims[0], dims[1])
    total = sum(dims)
    pair_decoder = _take_weight(weights, "decoder.pair", (total, total))
    feature_decoder = _take_weight(weights, "decoder.feature", (total, input_dim))

    if kind == "gae":
        stacks = []
        for tier in range(3):
            layers = []
            for k in range(depth):
                d_in = tier_inputs[tier] if k == 0 else dims[tier]
                activation = "none" if k == depth - 1 else "relu"
                weight = _take_weight(weights, f"tier{tier + 1}.layer{k}", (d_in, dims[tier]))
                layers.append(GcnLayer(weight, activation))
            stacks.append(GnnStack(layers))
        return TieredGaeParams(
            tuple(stacks), pair_decoder, feature_decoder, dims, depth, input_dim
        )

    stacks = []
    for tier in range(3):
        trunk = []
        for k in range(depth - 1):
            d_in = tier_inputs[tier] if k == 0 else dims[tier]
            weight = _take_weight(weights, f"tier{tier + 1}.trunk{k}", (d_in, dims[tier]))
            trunk.append(GcnLayer(weight, "relu"))
        head_in = dims[tier] if trunk else tier_inputs[tier]
        mean_head = GcnLayer(
            _take_weight(weights, f"tier{tier + 1}.mean", (head_in, dims[tier])), "none"
        )
        log_std_head = GcnLayer(
            _take_weight(weights, f"tier{tier + 1}.log_std", (head_in, dims[tier])), "none"
        )
        stacks.append(VariationalGnnStack(trunk, mean_head, log_std_head))
    return TieredVgaeParams(
        tuple(stacks), pair_decoder, feature_decoder, dims, depth, input_dim
    )
