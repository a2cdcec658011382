"""JSON checkpoints for trained models.

A checkpoint stores a format version, the model kind ("gae" or "vgae"), the
architecture config (dims, depth, input feature width) and every weight
matrix, keyed by its :func:`models.param_spec` name, as nested row-major
lists. Floats serialize through Python's shortest-round-trip decimal repr
(up to 17 significant digits), so save -> load -> save is byte-identical
and every weight survives bit-exactly.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .models import TieredGaeParams, TieredParams, TieredVgaeParams, param_spec
from .molgraph import NODE_FEATURE_DIM

FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """The checkpoint file is malformed, from another format version, or
    inconsistent with its declared architecture."""


@contextmanager
def atomic_write(path):
    """Text handle on a temp file beside ``path``: ``os.replace`` renames it
    over ``path`` when the block ends cleanly, and it is deleted if the block
    raises. A ``path`` that exists but is no regular file is written in place.

    Atomic against a crash of the process, not against power loss: nothing
    is fsynced, which would add device latency to every write."""
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
    if not isinstance(params, TieredParams):
        raise TypeError(f"cannot checkpoint {type(params).__name__}")
    payload = {
        "format_version": FORMAT_VERSION,
        "model_kind": "vgae" if params.variational else "gae",
        "config": {
            "dims": list(params.dims),
            "layers": params.depth,
            "input_dim": NODE_FEATURE_DIM,
        },
        "weights": {name: w.values.tolist() for name, w in params.named_weights().items()},
    }
    with atomic_write(path) as handle:  # one write: json.dump writes per token
        handle.write(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def _take_weight(weights: dict, name: str, shape: tuple[int, int]) -> ad.Tensor:
    if name not in weights:
        raise CheckpointError(f"checkpoint is missing weight {name!r}")
    # As objects, ragged rows stay lists and JSON strings, booleans and nulls
    # keep their types, so one type check rejects them all.
    array = np.array(weights[name], dtype=object)
    if not {type(x) for x in array.flat} <= {int, float}:
        raise CheckpointError(f"weight {name!r} is not a numeric rectangular matrix")
    if array.shape != shape:
        raise CheckpointError(f"weight {name!r} has shape {array.shape}, expected {shape}")
    try:
        array = array.astype(np.float64)
        finite = np.isfinite(array).all()
    except OverflowError:  # an integer past float64's range
        finite = False
    if not finite:
        raise CheckpointError(f"weight {name!r} has a non-finite entry")
    return ad.parameter(array)


def load_checkpoint(path) -> TieredGaeParams | TieredVgaeParams:
    """Read a checkpoint back into a parameter container of the right kind.
    Raises CheckpointError unless the weights are exactly the config's spec,
    each a finite numeric matrix of its spec shape."""
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (ValueError, RecursionError) as err:  # bad JSON, not UTF-8, too many digits or too deep
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
    weights = payload.get("weights")
    if not isinstance(weights, dict):
        raise CheckpointError("checkpoint has no weights object")
    params_class = TieredVgaeParams if kind == "vgae" else TieredGaeParams
    try:
        dims, depth, input_dim = config["dims"], config["layers"], config["input_dim"]
        # type(True) is bool, not int: JSON booleans, floats and strings all fail
        if type(dims) is not list or any(type(v) is not int for v in (*dims, depth, input_dim)):
            raise ValueError(f"dims, layers and input_dim must be JSON integers: {config}")
        if input_dim != NODE_FEATURE_DIM:
            raise ValueError(f"input_dim must be {NODE_FEATURE_DIM}, got {input_dim}")
        # A spec holds 3 * layers + 2 weights: a deeper claim is refused before it is built.
        if depth > len(weights):
            raise ValueError(f"layers must be at most the {len(weights)} weights given, got {depth}")
        dims = tuple(dims)
        spec = param_spec(params_class.variational, dims, depth)
    except (KeyError, ValueError) as err:
        raise CheckpointError(f"bad checkpoint config: {err}") from err

    unknown = sorted(set(weights) - {name for name, _ in spec})
    if unknown:
        raise CheckpointError(f"weights outside the spec of this config: {', '.join(unknown)}")
    tensors = {name: _take_weight(weights, name, shape) for name, shape in spec}
    return params_class.from_weights(tensors, dims, depth)
