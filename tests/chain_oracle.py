"""Tape ops that no model code calls any more, and the chains of records
that each fused op in ``moltiers.autodiff`` replaced.

The primitives and the earlier fused ops (``hstack``, ``weighted_bce_sum``,
``gcn_layer``, ``exp_clamped_linear``, ``bilinear_sigmoid``) are the ones
the fused ops absorbed; they record on the same tape as the library's ops.
Each ``chain_*`` function spells its fused op out the way the models once
did, so tests can require the fused op to match it bit for bit, values and
every input gradient alike.
"""

from typing import Sequence

import numpy as np

import moltiers.autodiff as ad
from moltiers.autodiff import (
    LOG_FLOOR,
    SIGMOID_CLAMP,
    Tensor,
    _broadcast_shapes,
    _record,
    _reduce_to,
    wrap,
)


def assert_same_bits(actual, expected, context=None) -> None:
    """Equal dtype, shape and bytes: "bit for bit", where ``np.array_equal``
    would let -0.0 stand for +0.0."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert (actual.dtype, actual.shape) == (expected.dtype, expected.shape), context
    assert actual.tobytes() == expected.tobytes(), context


def _unary(values: np.ndarray, a: Tensor, vjp) -> Tensor:
    out = wrap(values)
    _record((out,), (a,), vjp)
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


def sub(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_shapes(a, b, "sub")
    out = wrap(a.values - b.values)
    a_shape, b_shape = a.shape, b.shape

    def vjp(g: np.ndarray):
        return (
            _reduce_to(g, a_shape) if a.tracked else None,
            _reduce_to(-g, b_shape) if b.tracked else None,
        )

    _record((out,), (a, b), vjp)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_shapes(a, b, "mul")
    out = wrap(a.values * b.values)
    a_vals, b_vals = a.values, b.values
    a_shape, b_shape = a.shape, b.shape

    def vjp(g: np.ndarray):
        return (
            _reduce_to(g * b_vals, a_shape) if a.tracked else None,
            _reduce_to(g * a_vals, b_shape) if b.tracked else None,
        )

    _record((out,), (a, b), vjp)
    return out


def reduce_mean(a: Tensor) -> Tensor:
    size = a.values.size
    out = wrap(a.values.mean().reshape(1, 1))
    shape = a.shape

    def vjp(g: np.ndarray):
        return (np.full(shape, g[0, 0] / size),)

    _record((out,), (a,), vjp)
    return out


# Earlier fused ops, each one record for a chain of primitives.


def hstack(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate tensors left-to-right along columns."""
    if not parts:
        raise ValueError("hstack of an empty sequence")
    rows = parts[0].shape[0]
    for p in parts:
        if p.shape[0] != rows:
            raise ValueError(f"hstack row mismatch: {[p.shape for p in parts]}")
    out = wrap(np.hstack([p.values for p in parts]))
    widths = [p.shape[1] for p in parts]
    offsets = np.cumsum([0] + widths)

    def vjp(g: np.ndarray):
        return tuple(
            g[:, offsets[i]:offsets[i + 1]] if p.tracked else None
            for i, p in enumerate(parts)
        )

    _record((out,), tuple(parts), vjp)
    return out



def weighted_bce_sum(probs: Tensor, target: np.ndarray, weights: np.ndarray) -> Tensor:
    """sum(W * -(T log p + (1 - T) log(1 - p))), each log's input floored at
    LOG_FLOOR; of the chain's arithmetic only exact sign flips are folded."""
    if target.shape != probs.shape or weights.shape != probs.shape:
        raise ValueError(f"weighted BCE of {probs.shape}, {target.shape} and {weights.shape}")
    complement = 1.0 - target
    floored_p = np.maximum(probs.values, LOG_FLOOR)
    floored_q = np.maximum(1.0 - probs.values, LOG_FLOOR)
    per_pair = target * np.log(floored_p)
    per_pair += complement * np.log(floored_q)
    per_pair *= -1.0
    per_pair *= weights
    out = wrap(per_pair.sum().reshape(1, 1))

    def vjp(g: np.ndarray):
        weighted = g[0, 0] * weights
        grad = weighted * complement
        grad /= floored_q
        grad -= weighted * target / floored_p
        return (grad,)

    _record((out,), (probs,), vjp)
    return out



def gcn_layer(propagator: Tensor, hidden: Tensor, weight: Tensor, relu: bool) -> Tensor:
    """act((P @ H) @ W), act being relu (subgradient 0 at 0) or the
    identity: one graph convolution."""
    if propagator.shape[1] != hidden.shape[0] or hidden.shape[1] != weight.shape[0]:
        raise ValueError(f"gcn layer of {propagator.shape}, {hidden.shape} and {weight.shape}")
    p_vals, h_vals, w_vals = propagator.values, hidden.values, weight.values
    propagated = p_vals @ h_vals
    pre = propagated @ w_vals
    mask = pre > 0.0 if relu else None
    out = wrap(np.where(mask, pre, 0.0) if relu else pre)
    into_propagated = propagator.tracked or hidden.tracked

    def vjp(g: np.ndarray):
        if relu:
            g = g * mask
        grad_p = grad_h = None
        if into_propagated:
            g_propagated = g @ w_vals.T
            grad_p = g_propagated @ h_vals.T if propagator.tracked else None
            grad_h = p_vals.T @ g_propagated if hidden.tracked else None
        return (grad_p, grad_h, propagated.T @ g if weight.tracked else None)

    _record((out,), (propagator, hidden, weight), vjp)
    return out



def exp_clamped_linear(inputs: Tensor, weight: Tensor, low: float, high: float) -> Tensor:
    """exp(clip(A @ W, low, high)), a log-std head turned into a std; the
    gradient passes only where A @ W lies strictly inside (low, high)."""
    if not low < high:
        raise ValueError(f"clamp needs low < high, got [{low}, {high}]")
    if inputs.shape[1] != weight.shape[0]:
        raise ValueError(f"matmul of {inputs.shape} by {weight.shape}")
    a_vals, w_vals = inputs.values, weight.values
    pre = a_vals @ w_vals
    values = np.exp(np.clip(pre, low, high))
    interior = (pre > low) & (pre < high)
    out = wrap(values)

    def vjp(g: np.ndarray):
        g_pre = g * values * interior
        return (
            g_pre @ w_vals.T if inputs.tracked else None,
            a_vals.T @ g_pre if weight.tracked else None,
        )

    _record((out,), (inputs, weight), vjp)
    return out



def bilinear_sigmoid(rows: Tensor, pair: Tensor) -> Tensor:
    """sigmoid(Z Theta Z^T) with the logits clamped to +-SIGMOID_CLAMP,
    keeping every value strictly inside (0, 1). Inputs are recorded as
    (Z, Z, Theta): the Z^T use first, then Z Theta."""
    if not rows.shape[1] == pair.shape[0] == pair.shape[1]:
        raise ValueError(f"bilinear form of {rows.shape} rows by {pair.shape}")
    z_vals, p_vals = rows.values, pair.values
    left = z_vals @ p_vals
    flipped = z_vals.T  # a view, the F-ordered layout BLAS was always handed
    logits = left @ flipped
    values = 1.0 / (1.0 + np.exp(-np.clip(logits, -SIGMOID_CLAMP, SIGMOID_CLAMP)))
    out = wrap(values)

    def vjp(g: np.ndarray):
        g_logits = g * values * (1.0 - values)
        grad_flipped = grad_rows = grad_pair = None
        if rows.tracked:
            grad_flipped = (left.T @ g_logits).T
        if rows.tracked or pair.tracked:
            g_left = g_logits @ flipped.T
            grad_rows = g_left @ p_vals.T if rows.tracked else None
            grad_pair = z_vals.T @ g_left if pair.tracked else None
        return (grad_flipped, grad_rows, grad_pair)

    _record((out,), (rows, rows, pair), vjp)
    return out


# The chains, in the form the models used before each fusion; each takes the
# arguments of its fused op.

_relu = relu


def chain_gcn_layer(propagator, hidden, weight, relu):
    out = ad.matmul(ad.matmul(propagator, hidden), weight)
    return _relu(out) if relu else out


def chain_exp_clamped_linear(inputs, weight, low, high):
    return exp(clamp(ad.matmul(inputs, weight), low, high))


def chain_reparameterize(mean, std, noise):
    return ad.add(mean, mul(std, ad.constant(noise)))


def chain_kl_standard_normal(mean, std):
    variance = mul(std, std)
    inside = sub(ad.add(mul(mean, mean), variance), shift(log(variance), 1.0))
    return ad.scale(reduce_sum(inside), 0.5)


def chain_bilinear_sigmoid(rows, pair):
    return sigmoid(ad.matmul(ad.matmul(rows, pair), transpose(rows)))


# The chains of the multi-output fusions: each stack, the decoder and the
# reconstruction loss in the records the models used before.


def chain_gcn_stack(propagator, features, trunk, heads, log_std_clamp):
    # no propagator is the molecule tier's, which the chain ran over [[1.0]]
    propagator = wrap(np.ones((1, 1)) if propagator is None else propagator)
    hidden = features
    for weight in trunk:
        hidden = gcn_layer(propagator, hidden, weight, True)
    if len(heads) == 1:
        return (gcn_layer(propagator, hidden, heads[0], False),)
    propagated = ad.matmul(propagator, hidden)
    mean = ad.matmul(propagated, heads[0])
    return mean, exp_clamped_linear(propagated, heads[1], -log_std_clamp, log_std_clamp)


def chain_tiered_decode(node, group, graph, group_broadcast, graph_broadcast, pair, feature):
    group_rows = ad.matmul(wrap(group_broadcast), group)
    graph_rows = ad.matmul(wrap(graph_broadcast), graph)
    combined = hstack([node, group_rows, graph_rows])
    return bilinear_sigmoid(combined, pair), ad.matmul(combined, feature)


def chain_edge_feature_loss(probs, recon, ends, pos_weight, total_weight, features, feature_weight):
    """The 0/1 target of the bond index ``ends`` and the pair weights
    1 + (pos_weight - 1) T on the pairs i < j, built dense, into the chain."""
    n = features.shape[0]
    target = np.zeros((n, n))
    target[ends, ends[::-1]] = 1.0
    weights = np.triu(target * (pos_weight - 1.0) + 1.0, 1)
    if total_weight > 0:
        edge_term = ad.scale(weighted_bce_sum(probs, target, weights), 1.0 / total_weight)
    else:
        edge_term = ad.constant(0.0)
    difference = sub(recon, ad.constant(features))
    feature_term = reduce_mean(mul(difference, difference))
    return ad.add(edge_term, ad.scale(feature_term, float(feature_weight)))
