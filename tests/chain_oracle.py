"""Primitive tape ops that no model code calls any more, and the chains of
primitive records that each fused op in ``moltiers.autodiff`` replaced.

The primitives are the ones the fused ops absorbed; they record on the same
tape as the library's ops. Each ``chain_*`` function spells its fused op out
the way the models once did, so tests can require the fused op to match it
bit for bit, values and every input gradient alike.
"""

import numpy as np

import moltiers.autodiff as ad
from moltiers.autodiff import LOG_FLOOR, SIGMOID_CLAMP, Tensor, wrap


def _unary(values: np.ndarray, a: Tensor, vjp) -> Tensor:
    out = wrap(values)
    ad._record(out, (a,), vjp)
    return out


def transpose(a: Tensor) -> Tensor:
    """A view of ``a``'s values, so a C-ordered input gives an F-ordered
    result (the layout a copy would keep, and the one BLAS is handed)."""
    return _unary(a.values.T, a, lambda g: (g.T,))


def shift(a: Tensor, offset: float) -> Tensor:
    return _unary(a.values + float(offset), a, lambda g: (g,))


def sigmoid(a: Tensor) -> Tensor:
    """Logistic function with the pre-activation clamped to +-SIGMOID_CLAMP,
    keeping the output strictly inside (0, 1) in float64."""
    clamped = np.clip(a.values, -SIGMOID_CLAMP, SIGMOID_CLAMP)
    values = 1.0 / (1.0 + np.exp(-clamped))
    return _unary(values, a, lambda g: (g * values * (1.0 - values),))


def relu(a: Tensor) -> Tensor:
    """max(0, x); the subgradient at exactly 0 is 0."""
    mask = a.values > 0.0
    return _unary(np.where(mask, a.values, 0.0), a, lambda g: (g * mask,))


def exp(a: Tensor) -> Tensor:
    values = np.exp(a.values)
    return _unary(values, a, lambda g: (g * values,))


def log(a: Tensor) -> Tensor:
    """Natural log with the input floored at LOG_FLOOR, so log never sees 0."""
    floored = np.maximum(a.values, LOG_FLOOR)
    return _unary(np.log(floored), a, lambda g: (g / floored,))


def clamp(a: Tensor, low: float, high: float) -> Tensor:
    """Clip values to [low, high]; gradient passes only through the interior."""
    if not low < high:
        raise ValueError(f"clamp needs low < high, got [{low}, {high}]")
    interior = (a.values > low) & (a.values < high)
    return _unary(np.clip(a.values, low, high), a, lambda g: (g * interior,))


def reduce_sum(a: Tensor) -> Tensor:
    shape = a.shape
    return _unary(a.values.sum().reshape(1, 1), a, lambda g: (np.full(shape, g[0, 0]),))


# The chains, in the form the models used before each fusion; each takes the
# arguments of its fused op.

_relu = relu


def chain_gcn_layer(propagator, hidden, weight, relu):
    out = ad.matmul(ad.matmul(propagator, hidden), weight)
    return _relu(out) if relu else out


def chain_exp_clamped_linear(inputs, weight, low, high):
    return exp(clamp(ad.matmul(inputs, weight), low, high))


def chain_reparameterize(mean, std, noise):
    return ad.add(mean, ad.mul(std, ad.constant(noise)))


def chain_kl_standard_normal(mean, std):
    variance = ad.mul(std, std)
    inside = ad.sub(ad.add(ad.mul(mean, mean), variance), shift(log(variance), 1.0))
    return ad.scale(reduce_sum(inside), 0.5)


def chain_bilinear_sigmoid(rows, pair):
    return sigmoid(ad.matmul(ad.matmul(rows, pair), transpose(rows)))
