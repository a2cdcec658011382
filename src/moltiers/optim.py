"""Gradient-descent optimizers over one flat parameter vector.

Building an optimizer packs the values of its tensors into one contiguous
float64 vector, in the order given, and rebinds each tensor's ``values`` to
a reshaped view of its slice. A step then gathers the gradients into one
array and updates the whole vector at once, however many tensors there
are. Whatever changes a parameter between steps must write into its
``values`` in place: a tensor whose ``values`` is rebound no longer views
the vector, and the next step refuses to run.

A step validates every parameter before touching any state: each must
still view the vector and carry a gradient of its own shape, so a
forgotten ``backward`` fails loudly instead of silently reusing stale
gradients. It then clears the gradients and checks that every gradient
entry is finite; if one is not, it raises :class:`NonFiniteGradientError`
and leaves the parameters and the optimizer state as they were.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .autodiff import Tensor


class NonFiniteGradientError(RuntimeError):
    """A gradient held NaN or infinity; the step changed nothing."""


class _FlatOptimizer:
    """The packing and the gradient gathering both optimizers share;
    subclasses name themselves in ``kind``."""

    kind: str

    def __init__(self, params: Sequence[Tensor], learning_rate: float):
        if not 0.0 < learning_rate < np.inf:
            raise ValueError(f"learning rate must be positive and finite, got {learning_rate}")
        self.params = list(params)
        self.learning_rate = float(learning_rate)
        self.step_count = 0
        self.vector = np.concatenate([p.values.ravel() for p in self.params])
        self._views = []
        offset = 0
        for p in self.params:
            size = p.values.size
            p.values = self.vector[offset:offset + size].reshape(p.values.shape)
            self._views.append(p.values)
            offset += size

    def _take_gradient(self) -> np.ndarray:
        """The gradients as one fresh flat array; clears them on the tensors."""
        grads = []
        for i, (p, view) in enumerate(zip(self.params, self._views)):
            if p.values is not view:
                raise RuntimeError(
                    f"{self.kind} step: parameter {i} was rebound and no longer views "
                    "the parameter vector; update it in place"
                )
            if p.grad is None:
                raise RuntimeError(f"{self.kind} step: parameter {i} has no gradient")
            if p.grad.shape != view.shape:
                raise RuntimeError(
                    f"{self.kind} step: parameter {i} has shape {view.shape} "
                    f"but its gradient {p.grad.shape}"
                )
            grads.append(p.grad.ravel())
        grad = np.concatenate(grads)
        for p in self.params:
            p.grad = None
        if not np.isfinite(grad).all():
            raise NonFiniteGradientError(f"{self.kind} step: non-finite gradient, step skipped")
        return grad


class SGD(_FlatOptimizer):
    """Plain stochastic gradient descent: w <- w - lr * grad."""

    kind = "sgd"

    def step(self) -> None:
        grad = self._take_gradient()
        grad *= self.learning_rate
        self.vector -= grad
        self.step_count += 1


#: Adam's moment decay rates and denominator guard (Kingma & Ba defaults).
BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8


class Adam(_FlatOptimizer):
    """Adam with bias correction and the defaults above."""

    kind = "adam"

    def __init__(self, params: Sequence[Tensor], learning_rate: float):
        super().__init__(params, learning_rate)
        # First and second moments, laid out like the parameter vector.
        self._m = np.zeros_like(self.vector)
        self._v = np.zeros_like(self.vector)

    def step(self) -> None:
        # In-place forms of the textbook expressions, evaluated in the same
        # order, so every entry rounds exactly as the per-tensor
        #   m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * g * g
        #   w -= lr * m_hat / (sqrt(v_hat) + eps)
        grad = self._take_gradient()
        self.step_count += 1
        t = self.step_count
        m, v = self._m, self._v
        m *= BETA1
        m += (1.0 - BETA1) * grad
        v *= BETA2
        grad_sq = (1.0 - BETA2) * grad
        grad_sq *= grad
        v += grad_sq
        update = m / (1.0 - BETA1 ** t)
        update *= self.learning_rate
        denom = v / (1.0 - BETA2 ** t)
        np.sqrt(denom, out=denom)
        denom += EPSILON
        update /= denom
        self.vector -= update
