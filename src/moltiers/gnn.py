"""Graph convolution stacks over symmetrically normalized adjacency.

Each layer computes act(A_hat @ H @ W) with A_hat the renormalized
adjacency (self-loops added, symmetric degree scaling), which callers build
once per graph and pass in as the propagator. A stack is a relu trunk
followed by linear heads that all read the trunk's last propagation: one
head keeps embeddings unbounded (GAE); a mean and a log-std head make the
stack variational, with log-std clamped to [-10, 10] before exponentiation.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

LOG_STD_CLAMP = 10.0


class GnnStack:
    """A trunk of chaining relu layers, then linear heads of one shape that
    each read the trunk's output: one head for a GAE tier, mean and log-std
    heads for a VGAE tier. Each layer is its (input, output) weight matrix."""

    def __init__(self, trunk: list[Tensor], heads: list[Tensor]):
        if not heads:
            raise ValueError("a stack needs at least one head")
        chain = [*trunk, heads[0]]
        for first, second in zip(chain, chain[1:]):
            if first.shape[1] != second.shape[0]:
                raise ValueError(
                    f"layer dimensions do not chain: {first.shape[1]} -> {second.shape[0]}"
                )
        if any(head.shape != heads[0].shape for head in heads):
            raise ValueError("heads must all have the same shape")
        self.trunk = list(trunk)
        self.heads = list(heads)

    @property
    def input_dim(self) -> int:
        return (self.trunk or self.heads)[0].shape[0]

    def weights(self) -> list[Tensor]:
        return self.trunk + self.heads


def normalize_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """D^-1/2 (A + I) D^-1/2 with degrees taken after adding self-loops,
    after checking that ``adjacency`` is a valid graph.

    Accepts any symmetric non-negative matrix, including weighted coarse
    adjacencies from pooling. The self-loop keeps every degree positive.
    """
    adjacency = np.asarray(adjacency, dtype=np.float64)
    if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
        raise ValueError(f"adjacency must be square, got {adjacency.shape}")
    # Exact equality is the common case, implies allclose and costs far less.
    if not ((adjacency == adjacency.T).all() or np.allclose(adjacency, adjacency.T, atol=1e-9)):
        raise ValueError("adjacency must be symmetric")
    if (adjacency < 0).any():
        raise ValueError("adjacency must be non-negative")
    scaled = np.array(adjacency, order="C")
    scaled.reshape(-1)[:: len(scaled) + 1] += 1.0  # a view of the diagonal
    scale = 1.0 / np.sqrt(scaled.sum(axis=-1))
    scaled *= scale[:, None]
    scaled *= scale[None, :]
    return scaled


def _stack_outputs(
    stack: GnnStack, propagator: Tensor | None, features: Tensor, heads: int
) -> tuple[Tensor, ...]:
    """The outputs of a stack with ``heads`` heads on one graph or a padded
    stack, as one tape record, after checking ``features`` fit; the
    propagator is a constant, and None propagates nothing."""
    if len(stack.heads) != heads:
        raise ValueError(f"stack head count {len(stack.heads)}, expected {heads}")
    if propagator is not None and features.shape[-2] != propagator.shape[-2]:
        raise ValueError(
            f"features have {features.shape[-2]} rows for {propagator.shape[-2]} nodes"
        )
    if features.shape[-1] != stack.input_dim:
        raise ValueError(
            f"features have width {features.shape[-1]}, stack expects {stack.input_dim}"
        )
    values = None if propagator is None else propagator.values
    return ad.gcn_stack(values, features, stack.trunk, stack.heads, LOG_STD_CLAMP)


def gnn_forward(stack: GnnStack, propagator: Tensor | None, features: Tensor) -> Tensor:
    """Run a one-head stack over one graph given its propagator, the
    normalized adjacency from :func:`normalize_adjacency`, or None where
    that is exactly the identity; returns node embeddings, one row per node."""
    return _stack_outputs(stack, propagator, features, 1)[0]


def gnn_forward_variational(
    stack: GnnStack, propagator: Tensor | None, features: Tensor
) -> tuple[Tensor, Tensor]:
    """Run a mean/log-std stack; returns (mean, std) with
    std = exp(clamped log-std)."""
    return _stack_outputs(stack, propagator, features, 2)
