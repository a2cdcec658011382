"""Graph convolution stacks over symmetrically normalized adjacency.

Each layer computes act(A_hat @ H @ W) with A_hat the renormalized
adjacency (self-loops added, symmetric degree scaling), which callers build
once per graph and pass in as the propagator. Hidden layers use
relu; the final layer is linear so embeddings stay unbounded. Variational
stacks share a trunk and split into a mean head and a log-std head whose
output is clamped to [-10, 10] before exponentiation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

LOG_STD_CLAMP = 10.0

#: Preferred stack depth range; construction only rejects depth < 1.
DEFAULT_DEPTH = 3


@dataclass
class GcnLayer:
    weight: Tensor
    activation: str = "relu"

    def __post_init__(self):
        if self.activation not in ("relu", "none"):
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def input_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def output_dim(self) -> int:
        return self.weight.shape[1]


class GnnStack:
    """A chain of GcnLayers with matching inner dimensions."""

    def __init__(self, layers: list[GcnLayer]):
        if not layers:
            raise ValueError("a stack needs at least one layer")
        for first, second in zip(layers, layers[1:]):
            if first.output_dim != second.input_dim:
                raise ValueError(
                    f"layer dimensions do not chain: {first.output_dim} -> {second.input_dim}"
                )
        self.layers = list(layers)

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0].input_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].output_dim

    def weights(self) -> list[Tensor]:
        return [layer.weight for layer in self.layers]


class VariationalGnnStack:
    """Shared trunk plus mean and log-std heads of identical shape."""

    def __init__(self, trunk: list[GcnLayer], mean_head: GcnLayer, log_std_head: GcnLayer):
        for first, second in zip(trunk, trunk[1:]):
            if first.output_dim != second.input_dim:
                raise ValueError(
                    f"trunk dimensions do not chain: {first.output_dim} -> {second.input_dim}"
                )
        trunk_out = trunk[-1].output_dim if trunk else mean_head.input_dim
        for head in (mean_head, log_std_head):
            if head.input_dim != trunk_out:
                raise ValueError(
                    f"head input {head.input_dim} does not match trunk output {trunk_out}"
                )
        if mean_head.output_dim != log_std_head.output_dim:
            raise ValueError("mean and log-std heads must have the same output dim")
        self.trunk = list(trunk)
        self.mean_head = mean_head
        self.log_std_head = log_std_head

    @property
    def depth(self) -> int:
        return len(self.trunk) + 1

    @property
    def input_dim(self) -> int:
        return self.trunk[0].input_dim if self.trunk else self.mean_head.input_dim

    @property
    def output_dim(self) -> int:
        return self.mean_head.output_dim

    def weights(self) -> list[Tensor]:
        return [layer.weight for layer in self.trunk] + [
            self.mean_head.weight,
            self.log_std_head.weight,
        ]


def gcn_stack(rng: np.random.Generator, input_dim: int, output_dim: int, depth: int) -> GnnStack:
    """Glorot-initialized stack: input_dim -> output_dim, then output_dim
    squared layers; relu everywhere except the final linear layer."""
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    layers = []
    for k in range(depth):
        d_in = input_dim if k == 0 else output_dim
        activation = "none" if k == depth - 1 else "relu"
        layers.append(GcnLayer(ad.parameter(ad.glorot_uniform(rng, d_in, output_dim)), activation))
    return GnnStack(layers)


def variational_gcn_stack(
    rng: np.random.Generator, input_dim: int, output_dim: int, depth: int
) -> VariationalGnnStack:
    """Variational counterpart of :func:`gcn_stack` with the same trunk
    shape: depth-1 relu layers, then linear mean and log-std heads."""
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    trunk = []
    for k in range(depth - 1):
        d_in = input_dim if k == 0 else output_dim
        trunk.append(GcnLayer(ad.parameter(ad.glorot_uniform(rng, d_in, output_dim)), "relu"))
    head_in = output_dim if trunk else input_dim
    mean_head = GcnLayer(ad.parameter(ad.glorot_uniform(rng, head_in, output_dim)), "none")
    log_std_head = GcnLayer(ad.parameter(ad.glorot_uniform(rng, head_in, output_dim)), "none")
    return VariationalGnnStack(trunk, mean_head, log_std_head)


def degree_scale(adjacency: np.ndarray) -> np.ndarray:
    """D^-1/2 of A + I as a vector, one entry per node, after checking that
    ``adjacency`` is a valid graph.

    Accepts any symmetric non-negative matrix, including weighted coarse
    adjacencies from pooling. The self-loop keeps every degree positive.
    """
    adjacency = np.asarray(adjacency, dtype=np.float64)
    if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
        raise ValueError(f"adjacency must be square, got {adjacency.shape}")
    # Exact equality is the common case, implies allclose and costs far less.
    if not (
        (adjacency == adjacency.T).all() or np.allclose(adjacency, adjacency.T, atol=1e-9)
    ):
        raise ValueError("adjacency must be symmetric")
    if (adjacency < 0).any():
        raise ValueError("adjacency must be non-negative")
    return 1.0 / np.sqrt((adjacency + np.eye(adjacency.shape[0])).sum(axis=1))


def scale_adjacency(adjacency: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """scale (A + I) scale for a ``scale`` from :func:`degree_scale`; does
    not validate again."""
    scaled = np.array(adjacency, dtype=np.float64)
    scaled.flat[:: len(scaled) + 1] += 1.0  # + I; a strided slice costs less than np.eye
    scaled *= scale[:, None]
    scaled *= scale[None, :]
    return scaled


def normalize_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """D^-1/2 (A + I) D^-1/2 with degrees taken after adding self-loops."""
    adjacency = np.asarray(adjacency, dtype=np.float64)
    return scale_adjacency(adjacency, degree_scale(adjacency))


def _apply_layer(layer: GcnLayer, propagated: Tensor) -> Tensor:
    out = ad.matmul(propagated, layer.weight)
    return ad.relu(out) if layer.activation == "relu" else out


def _check_inputs(stack, propagator: Tensor, features: Tensor) -> None:
    if features.shape[0] != propagator.shape[0]:
        raise ad.ShapeError(
            f"features have {features.shape[0]} rows for {propagator.shape[0]} nodes"
        )
    if features.shape[1] != stack.input_dim:
        raise ad.ShapeError(
            f"features have width {features.shape[1]}, stack expects {stack.input_dim}"
        )


def gnn_forward(stack: GnnStack, propagator: Tensor, features: Tensor) -> Tensor:
    """Run the stack over one graph given its propagator, the normalized
    adjacency from :func:`normalize_adjacency`; returns node embeddings, one
    row per node."""
    _check_inputs(stack, propagator, features)
    hidden = features
    for layer in stack.layers:
        hidden = _apply_layer(layer, ad.matmul(propagator, hidden))
    return hidden


def gnn_forward_variational(
    stack: VariationalGnnStack, propagator: Tensor, features: Tensor
) -> tuple[Tensor, Tensor]:
    """Run trunk and heads; returns (mean, std) with std = exp(clamped log-std)."""
    _check_inputs(stack, propagator, features)
    hidden = features
    for layer in stack.trunk:
        hidden = _apply_layer(layer, ad.matmul(propagator, hidden))
    propagated = ad.matmul(propagator, hidden)
    mean = ad.matmul(propagated, stack.mean_head.weight)
    log_std = ad.clamp(
        ad.matmul(propagated, stack.log_std_head.weight), -LOG_STD_CLAMP, LOG_STD_CLAMP
    )
    return mean, ad.exp(log_std)
