"""Dense 2-D tensors with reverse-mode automatic differentiation.

A :class:`Tensor` wraps a float64 numpy matrix. Every operation computes its
one or more results eagerly and records one vector-Jacobian product for them
on a module-level tape. :func:`backward` replays the tape in reverse,
accumulating gradients additively into every tensor that participated, then
clears the tape. The tape is rebuilt on each forward pass, so shapes may
change freely between passes (graphs of different sizes train in one loop).

Recorded tensors are 2-D: scalars are 1x1 matrices and vectors are single
rows or columns. The only broadcasting rule is scalar-vs-matrix. Evaluation
also runs padded (B, n, .) stacks through the fused ops under
:func:`no_grad`, never through :func:`matmul`. A tape and its tensors
belong to one single-threaded training session.
"""

from __future__ import annotations

import contextlib
import math
from functools import cache
from typing import Callable, Iterator, Sequence

import numpy as np

SIGMOID_CLAMP = 30.0
LOG_FLOOR = 1e-12


def _as_matrix(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ValueError(f"tensors are 2-D; got array of ndim {arr.ndim}")
    return arr


class Tensor:
    """A float64 matrix with an optional gradient slot.

    ``values`` may be mutated in place by an optimizer between passes, but
    never during a forward pass: recorded vector-Jacobian products capture
    references to the arrays they saw.
    """

    __slots__ = ("values", "grad", "tracked")

    def __init__(self, values, tracked: bool = False):
        self.values = _as_matrix(values)
        self.grad: np.ndarray | None = None
        # Tracked tensors receive gradients during backward. Op outputs whose
        # inputs are tracked become tracked themselves.
        self.tracked = bool(tracked)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape  # type: ignore[return-value]

    def item(self) -> float:
        if self.values.size != 1:
            raise ValueError(f"item() needs a 1x1 tensor, got {self.shape}")
        return float(self.values[0, 0])

    def __repr__(self) -> str:
        flag = ", tracked=True" if self.tracked else ""
        return f"Tensor(shape={self.shape}{flag})"


def constant(values) -> Tensor:
    return Tensor(values)


def parameter(values) -> Tensor:
    return Tensor(values, tracked=True)


def wrap(values: np.ndarray) -> Tensor:
    """An untracked tensor over a fresh 2-D float64 array, such as an op's
    result; unlike :func:`constant`, no copy, so nothing else may write to
    the array."""
    out = Tensor.__new__(Tensor)
    out.values, out.grad, out.tracked = values, None, False
    return out


# ---------------------------------------------------------------------------
# Tape machinery

# Each record is (outputs, inputs, vjp). vjp takes one gradient per output,
# None for an output that no later record reached, and returns a tuple of
# input gradients aligned with `inputs`; entries for untracked inputs are
# None.
_TapeRecord = tuple[tuple[Tensor, ...], tuple[Tensor, ...], Callable[..., tuple]]
_tape: list[_TapeRecord] = []
_recording = True
_workspace: Workspace | None = None


def tape_size() -> int:
    return len(_tape)


def clear_tape() -> None:
    """Drop every recorded operation, for a forward pass that will not be
    followed by :func:`backward`, and take back the workspace's buffers."""
    _tape.clear()
    if _workspace is not None:
        _workspace.lent.clear()


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Disable tape recording, e.g. for evaluation or finite differencing."""
    global _recording
    previous = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = previous


class Workspace:
    """Grow-only float64 buffers of ``cells`` entries up front, one per role,
    that :func:`scratch` lends to the n x n stages of the passes recorded
    inside ``with Workspace(cells):``. A role's buffer is lent once until the
    tape is next cleared, as the vjp closures hold it until :func:`backward`."""

    def __init__(self, cells: int):
        self.cells, self.buffers, self.lent = cells, {}, set()

    def __enter__(self) -> "Workspace":
        global _workspace
        self.previous, _workspace = _workspace, self
        return self

    def __exit__(self, *exc_info) -> None:
        global _workspace
        _workspace = self.previous


def scratch(role: str, shape: tuple[int, ...]) -> np.ndarray:
    """The ``out=`` array of an n x n stage: the workspace's buffer for
    ``role`` while the tape records and it is not lent, else a fresh array;
    so no result of a pass under :func:`no_grad` is workspace memory."""
    if not _recording or _workspace is None or role in _workspace.lent:
        return np.empty(shape)
    size, buffers = math.prod(shape), _workspace.buffers
    if role not in buffers or buffers[role].size < size:
        buffers[role] = np.empty(max(size, _workspace.cells))
    _workspace.lent.add(role)
    return buffers[role][:size].reshape(shape)


@cache
def _tri(n: int, k: int, invert: bool = False) -> np.ndarray:
    """np.tri(n, k=k, dtype=bool), or its complement, built once per atom count; read-only."""
    mask = ~np.tri(n, k=k, dtype=bool) if invert else np.tri(n, k=k, dtype=bool)
    mask.flags.writeable = False
    return mask


def _record(outputs: tuple[Tensor, ...], inputs: tuple[Tensor, ...], vjp) -> None:
    if _recording and any(t.tracked for t in inputs):
        for out in outputs:
            out.tracked = True
        _tape.append((outputs, inputs, vjp))


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(tensor) into every tracked tensor on the tape.

    A record is skipped when none of its outputs received a gradient. The
    loss must be 1x1. The tape is cleared afterwards, even on error, so a
    fresh forward pass is required before the next call.
    """
    if loss.shape != (1, 1):
        clear_tape()
        raise RuntimeError(f"backward needs a scalar 1x1 loss, got {loss.shape}")
    if not _tape:
        raise RuntimeError("backward called with an empty computation tape")
    try:
        loss.grad = np.ones((1, 1))
        for outputs, inputs, vjp in reversed(_tape):
            out_grads = [out.grad for out in outputs]
            if all(grad is None for grad in out_grads):
                continue
            for tensor, grad in zip(inputs, vjp(*out_grads)):
                if grad is None or not tensor.tracked:
                    continue
                if tensor.grad is None:
                    tensor.grad = grad
                else:
                    tensor.grad = tensor.grad + grad
    finally:
        clear_tape()


# ---------------------------------------------------------------------------
# Operations


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul of {a.shape} by {b.shape}")
    out = wrap(a.values @ b.values)
    a_vals, b_vals = a.values, b.values

    def vjp(g: np.ndarray):
        return (
            g @ b_vals.T if a.tracked else None,
            a_vals.T @ g if b.tracked else None,
        )

    _record((out,), (a, b), vjp)
    return out


def _broadcast_shapes(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape == b.shape or a.shape == (1, 1) or b.shape == (1, 1):
        return
    raise ValueError(f"{op} of {a.shape} and {b.shape}; only scalar-vs-matrix broadcast")


def _reduce_to(grad: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    if shape == (1, 1) and grad.shape != (1, 1):
        return grad.sum().reshape(1, 1)
    return grad


def add(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_shapes(a, b, "add")
    out = wrap(a.values + b.values)
    a_shape, b_shape = a.shape, b.shape

    def vjp(g: np.ndarray):
        return (
            _reduce_to(g, a_shape) if a.tracked else None,
            _reduce_to(g, b_shape) if b.tracked else None,
        )

    _record((out,), (a, b), vjp)
    return out


def scale(a: Tensor, factor: float) -> Tensor:
    factor = float(factor)
    out = wrap(a.values * factor)

    def vjp(g: np.ndarray):
        return (g * factor,)

    _record((out,), (a,), vjp)
    return out


# ---------------------------------------------------------------------------
# Fused operations: each is one tape record for a chain of primitive records
# that the tests keep as its oracle. Forward and vjp repeat the chain's
# arithmetic in its order, leaving out only operations with exact results,
# so values and gradients are bit-identical to it.
# A tensor the chain used more than once is listed once per use, in the
# order the chain's reverse pass reached those uses, so its gradient
# accumulates in the same order.


def _times(matrix: np.ndarray | None, values: np.ndarray) -> np.ndarray:
    """matrix @ values, a matrix of None being the identity."""
    return values if matrix is None else matrix @ values


def gcn_stack(
    propagator: np.ndarray | None, features: Tensor, trunk: Sequence[Tensor],
    heads: Sequence[Tensor], log_std_clamp: float,
) -> tuple[Tensor, ...]:
    """A graph-convolution stack over a constant propagator P, or None for an
    identity that takes no product: H becomes relu((P @ H) @ W) for each trunk
    weight, then each head reads P @ H. Returns (P @ H) @ W for one head; for two,
    (mean, std) with the second head a log-std, std = exp(clip((P @ H) @ W,
    +-log_std_clamp)), whose gradient passes only strictly inside the clamp. Shapes
    must chain, as a :class:`moltiers.gnn.GnnStack` ensures. As in the chain, where
    the std was the later record, its gradient reaches P @ H before the mean's."""
    hidden, into = features.values, features.tracked
    layers = []  # per trunk layer: P @ H, relu mask, W and whether H is tracked
    for weight in trunk:
        propagated = _times(propagator, hidden)
        pre = propagated @ weight.values
        mask = pre > 0.0
        layers.append((propagated, mask, weight.values, into))
        hidden = np.where(mask, pre, 0.0)
        into = into or weight.tracked
    propagated = _times(propagator, hidden)
    head_values = [head.values for head in heads]
    results = [propagated @ head_values[0]]
    if len(heads) == 2:
        pre = propagated @ head_values[1]
        std = np.exp(pre.clip(-log_std_clamp, log_std_clamp))
        interior = (pre > -log_std_clamp) & (pre < log_std_clamp)
        results.append(std)
    outputs = tuple(map(wrap, results))
    transposed = None if propagator is None else propagator.T

    def vjp(*grads):
        head_grads = [None] * len(heads)
        g_propagated = None
        for k in reversed(range(len(heads))):
            g = grads[k]
            if g is None:
                continue
            if k:
                g = g * std * interior
            if heads[k].tracked:
                head_grads[k] = propagated.T @ g
            if into:
                part = g @ head_values[k].T
                g_propagated = part if g_propagated is None else g_propagated + part
        g_hidden = None if g_propagated is None else _times(transposed, g_propagated)
        trunk_grads = [None] * len(trunk)
        for k in reversed(range(len(trunk))):
            if g_hidden is None:
                break
            layer_propagated, mask, weight_values, layer_into = layers[k]
            g = g_hidden * mask
            if trunk[k].tracked:
                trunk_grads[k] = layer_propagated.T @ g
            g_hidden = _times(transposed, g @ weight_values.T) if layer_into else None
        return (g_hidden, *trunk_grads, *head_grads)

    _record(outputs, (features, *trunk, *heads), vjp)
    return outputs


def reparameterize(mean: Tensor, std: Tensor, noise: np.ndarray) -> Tensor:
    """mean + std * noise for a fixed ``noise`` array of the same shape."""
    noise = np.asarray(noise, dtype=np.float64)
    if not mean.shape == std.shape == noise.shape:
        raise ValueError(f"sample of mean {mean.shape}, std {std.shape} and noise {noise.shape}")
    out = wrap(mean.values + std.values * noise)

    def vjp(g: np.ndarray):
        return (g, g * noise if std.tracked else None)

    _record((out,), (mean, std), vjp)
    return out


def kl_standard_normal(mean: Tensor, std: Tensor) -> Tensor:
    """1/2 * sum(mean^2 + std^2 - 1 - ln std^2), ln's input floored at
    LOG_FLOOR. Inputs are recorded as (mean, mean, std, std)."""
    if mean.shape != std.shape:
        raise ValueError(f"mean {mean.shape} and std {std.shape} differ")
    m_vals, s_vals = mean.values, std.values
    variance = s_vals * s_vals
    floored = np.maximum(variance, LOG_FLOOR)
    inside = m_vals * m_vals + variance
    inside -= np.log(floored) + 1.0
    out = wrap(inside.sum().reshape(1, 1) * 0.5)

    def vjp(g: np.ndarray):
        # the chain fills an array with this one value; scalar operands
        # give the same elementwise results
        g_inside = g[0, 0] * 0.5
        g_mean = g_inside * m_vals if mean.tracked else None
        g_std = ((-g_inside) / floored + g_inside) * s_vals if std.tracked else None
        return (g_mean, g_mean, g_std, g_std)

    _record((out,), (mean, mean, std, std), vjp)
    return out


def tiered_decode(
    node: Tensor, group: Tensor, graph: Tensor, group_broadcast: np.ndarray,
    graph_broadcast: np.ndarray, pair: Tensor, feature: Tensor,
) -> tuple[Tensor, Tensor]:
    """(sigmoid(Z Theta Z^T), Z F) for the tier-concatenated rows
    Z = [node | B_g @ group | B_m @ graph], the constant broadcasts B_g and
    B_m carrying group and molecule rows down to the nodes. The logits are
    clamped to +-SIGMOID_CLAMP, keeping every probability strictly inside
    (0, 1). Shapes must agree; the encoders' outputs do. Stacked inputs
    give stacked outputs, under :func:`no_grad` only: the vjp is 2-D.

    Z's gradient accumulates as the chain's did: through Z F, then Z^T,
    then Z Theta. Z^T is a view, the F-ordered layout BLAS always saw."""
    rows = [node.values, group_broadcast @ group.values, graph_broadcast @ graph.values]
    z_vals, p_vals, f_vals = np.concatenate(rows, axis=-1), pair.values, feature.values
    left = z_vals @ p_vals
    flipped = z_vals.swapaxes(-1, -2)
    # 1 / (1 + exp(-clip(logits))), each step in place over the logits
    probs = np.matmul(left, flipped, out=scratch("probs", left.shape[:-1] + left.shape[-2:-1]))
    probs.clip(-SIGMOID_CLAMP, SIGMOID_CLAMP, out=probs)
    np.negative(probs, out=probs)
    np.exp(probs, out=probs)
    probs += 1.0
    np.divide(1.0, probs, out=probs)
    outputs = (wrap(probs), wrap(z_vals @ f_vals))
    into = node.tracked or group.tracked or graph.tracked
    node_end, group_end = node.shape[1], node.shape[1] + group.shape[1]
    g_logits_out, complement_out = scratch("logit grad", probs.shape), scratch("1 - probs", probs.shape)

    def vjp(g_probs, g_recon):
        g_z = grad_pair = grad_feature = None
        if g_recon is not None:
            g_z = g_recon @ f_vals.T if into else None
            grad_feature = z_vals.T @ g_recon if feature.tracked else None
        if g_probs is not None:
            g_logits = np.multiply(g_probs, probs, out=g_logits_out)
            g_logits *= np.subtract(1.0, probs, out=complement_out)
            if into:
                part = (left.T @ g_logits).T
                g_z = part if g_z is None else g_z + part
            if into or pair.tracked:
                g_left = g_logits @ flipped.T
                if into:
                    g_z = g_z + g_left @ p_vals.T
                grad_pair = z_vals.T @ g_left if pair.tracked else None
        return (  # g_z is None only when no tier input is tracked
            g_z[:, :node_end] if node.tracked else None,
            group_broadcast.T @ g_z[:, node_end:group_end] if group.tracked else None,
            graph_broadcast.T @ g_z[:, group_end:] if graph.tracked else None,
            grad_pair,
            grad_feature,
        )

    _record(outputs, (node, group, graph, pair, feature), vjp)
    return outputs


def edge_feature_loss(
    probs: Tensor, recon: Tensor, ends: np.ndarray, pos_weight: float, total_weight: float,
    features: np.ndarray, feature_weight: float,
) -> Tensor:
    """sum(W * -(T log p + (1 - T) log(1 - p))) / total_weight, each log's
    input floored at LOG_FLOOR, plus feature_weight * mean((R - X)^2). T is 1
    at the bonds ``ends``, each (i, j) with i < j; W is 1 + (pos_weight - 1) T
    on the pairs i < j and 0 elsewhere. The edge term and its gradient are 0
    when total_weight is not positive, as for a molecule of one atom. Shapes
    must agree, as :func:`moltiers.models.reconstruction_loss` checks.

    One of the chain's two terms is an exact zero in every pair, so one log
    of the selected max(T ? p : 1 - p, LOG_FLOOR) gives the chain's bits, and
    its vjp w / selected, negated on edges; the pairs i >= j are zeroed."""
    with_edges = total_weight > 0
    if with_edges:
        factor = float(1.0 / total_weight)
        edge_weight = (pos_weight - 1.0) + 1.0  # the chain's 1.0 * (pos_weight - 1.0) + 1.0
        rows, cols = ends
        p_vals, lower = probs.values, _tri(probs.shape[0], 0)
        selected = np.subtract(1.0, p_vals, out=scratch("selected", p_vals.shape))
        selected[rows, cols] = p_vals[rows, cols]
        np.maximum(selected, LOG_FLOOR, out=selected)
        # dead after the sum, the logs' buffer takes the gradient in the vjp
        per_pair = np.log(selected, out=scratch("edge loss", p_vals.shape))
        per_pair[rows, cols] *= edge_weight
        np.copyto(per_pair, 0.0, where=lower)
        edge_term = per_pair.sum().reshape(1, 1) * -factor
    else:
        edge_term = np.zeros((1, 1))
    difference = recon.values - features
    mse = np.add.reduce(difference * difference, axis=None) / difference.size  # .mean()'s bits
    out = wrap(edge_term + mse.reshape(1, 1) * feature_weight)

    def vjp(g: np.ndarray):
        grad_probs = grad_recon = None
        if with_edges and probs.tracked:
            # the chain's zero term turns a zero gradient into +0.0; so do
            # 0.0 - x on edges and the + 0.0 after it
            scaled = (g * factor)[0, 0]
            grad_probs = np.divide(scaled, selected, out=per_pair)  # scaled * 1.0 off the edges
            grad_probs[rows, cols] = 0.0 - scaled * edge_weight / selected[rows, cols]
            np.copyto(grad_probs, 0.0, where=lower)
            grad_probs += 0.0
        elif probs.tracked:  # so the decoder's weights get a gradient, as an optimizer needs
            grad_probs = np.zeros(probs.values.shape)
        if recon.tracked:
            part = (g * feature_weight)[0, 0] / difference.size * difference
            grad_recon = part + part  # the chain's two products, each this one
        return (grad_probs, grad_recon)

    _record((out,), (probs, recon), vjp)
    return out


# ---------------------------------------------------------------------------
# Initialization and gradient checking


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Uniform init on +-sqrt(6 / (fan_in + fan_out))."""
    if fan_in < 1 or fan_out < 1:
        raise ValueError(f"fan dimensions must be positive, got {fan_in}x{fan_out}")
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5) -> float:
    """Compare backward gradients of ``f`` at ``x`` against central differences.

    Returns the max entrywise relative error
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8); NaN anywhere
    reports as infinity. ``f`` must return a scalar tensor and may close over
    fixed parameters; only ``x`` is perturbed. Keep relu inputs away from the
    kink at 0, where the two sides legitimately disagree.
    """
    if not 0.0 < h <= 1e-2:
        raise ValueError(f"step size h must be in (0, 1e-2], got {h}")
    x.grad = None
    out = f(x)
    if out.shape != (1, 1):
        clear_tape()
        raise RuntimeError(f"grad_check needs a scalar-valued f, got {out.shape}")
    backward(out)
    analytic = np.zeros_like(x.values) if x.grad is None else x.grad.copy()
    x.grad = None

    numeric = np.zeros_like(x.values)
    with no_grad():
        for idx in np.ndindex(*x.values.shape):
            original = x.values[idx]
            x.values[idx] = original + h
            high = f(x).item()
            x.values[idx] = original - h
            low = f(x).item()
            x.values[idx] = original
            numeric[idx] = (high - low) / (2.0 * h)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    err = np.abs(analytic - numeric) / denom
    err = np.where(np.isnan(err), np.inf, err)
    return float(err.max()) if err.size else 0.0
