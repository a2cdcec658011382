"""Dense 2-D tensors with reverse-mode automatic differentiation.

A :class:`Tensor` wraps a float64 numpy matrix. Every operation computes its
result eagerly and records a vector-Jacobian product on a module-level tape.
:func:`backward` replays the tape in reverse, accumulating gradients
additively into every tensor that participated, then clears the tape. The
tape is rebuilt on each forward pass, so shapes may change freely between
passes (graphs of different sizes train in one loop).

Everything is strictly 2-D: scalars are 1x1 matrices and vectors are single
rows or columns. The only broadcasting rule is scalar-vs-matrix. A tape and
its tensors belong to one single-threaded training session.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterator, Sequence

import numpy as np

SIGMOID_CLAMP = 30.0
LOG_FLOOR = 1e-12


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class GradientError(RuntimeError):
    """A gradient contract was broken: non-scalar loss, empty tape, or a
    parameter update attempted without a populated gradient."""


def _as_matrix(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ShapeError(f"tensors are 2-D; got array of ndim {arr.ndim}")
    return arr


class Tensor:
    """A float64 matrix with an optional gradient slot.

    ``values`` may be mutated in place by an optimizer between passes, but
    never during a forward pass: recorded vector-Jacobian products capture
    references to the arrays they saw.
    """

    __slots__ = ("values", "requires_grad", "grad", "tracked")

    def __init__(self, values, requires_grad: bool = False):
        self.values = _as_matrix(values)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        # Tracked tensors receive gradients during backward. Op outputs whose
        # inputs are tracked become tracked themselves.
        self.tracked = self.requires_grad

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape  # type: ignore[return-value]

    def item(self) -> float:
        if self.values.size != 1:
            raise ShapeError(f"item() needs a 1x1 tensor, got {self.shape}")
        return float(self.values[0, 0])

    def t(self) -> "Tensor":
        return transpose(self)

    def sum(self) -> "Tensor":
        return reduce_sum(self)

    def mean(self) -> "Tensor":
        return reduce_mean(self)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

    def __add__(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return add(self, other)
        return shift(self, float(other))

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return sub(self, other)
        return shift(self, -float(other))

    def __rsub__(self, other) -> "Tensor":
        return shift(scale(self, -1.0), float(other))

    def __mul__(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale(self, float(other))

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return scale(self, -1.0)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def constant(values) -> Tensor:
    return Tensor(values, requires_grad=False)


def parameter(values) -> Tensor:
    return Tensor(values, requires_grad=True)


def wrap(values: np.ndarray) -> Tensor:
    """An untracked tensor over a fresh 2-D float64 array, such as an op's
    result; unlike :func:`constant`, no copy, so nothing else may write to
    the array."""
    out = Tensor.__new__(Tensor)
    out.values, out.requires_grad, out.grad, out.tracked = values, False, None, False
    return out


# ---------------------------------------------------------------------------
# Tape machinery

# Each record is (output, inputs, vjp). vjp maps the output gradient to a
# tuple of input gradients aligned with `inputs`; entries for untracked
# inputs are None.
_TapeRecord = tuple[Tensor, tuple[Tensor, ...], Callable[[np.ndarray], tuple]]
_tape: list[_TapeRecord] = []
_recording = True


def tape_size() -> int:
    return len(_tape)


def clear_tape() -> None:
    """Drop every recorded operation, for a forward pass that will not be
    followed by :func:`backward`."""
    _tape.clear()


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


def _record(out: Tensor, inputs: tuple[Tensor, ...], vjp) -> None:
    if _recording and any(t.tracked for t in inputs):
        out.tracked = True
        _tape.append((out, inputs, vjp))


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(tensor) into every tracked tensor on the tape.

    The loss must be 1x1. The tape is cleared afterwards, even on error, so
    a fresh forward pass is required before the next call.
    """
    if loss.shape != (1, 1):
        _tape.clear()
        raise GradientError(f"backward needs a scalar 1x1 loss, got {loss.shape}")
    if not _tape:
        raise GradientError("backward called with an empty computation tape")
    try:
        loss.grad = np.ones((1, 1))
        for out, inputs, vjp in reversed(_tape):
            out_grad = out.grad
            if out_grad is None:
                continue
            for tensor, grad in zip(inputs, vjp(out_grad)):
                if grad is None or not tensor.tracked:
                    continue
                if tensor.grad is None:
                    tensor.grad = grad
                else:
                    tensor.grad = tensor.grad + grad
    finally:
        _tape.clear()


# ---------------------------------------------------------------------------
# Operations


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul of {a.shape} by {b.shape}")
    out = wrap(a.values @ b.values)
    a_vals, b_vals = a.values, b.values

    def vjp(g: np.ndarray):
        return (
            g @ b_vals.T if a.tracked else None,
            a_vals.T @ g if b.tracked else None,
        )

    _record(out, (a, b), vjp)
    return out


def transpose(a: Tensor) -> Tensor:
    """A view of ``a``'s values, so a C-ordered input gives an F-ordered
    result (the layout a copy would keep, and the one BLAS is handed)."""
    out = wrap(a.values.T)

    def vjp(g: np.ndarray):
        return (g.T,)

    _record(out, (a,), vjp)
    return out


def _broadcast_shapes(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape == b.shape or a.shape == (1, 1) or b.shape == (1, 1):
        return
    raise ShapeError(f"{op} of {a.shape} and {b.shape}; only scalar-vs-matrix broadcast")


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

    _record(out, (a, b), vjp)
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_shapes(a, b, "sub")
    out = wrap(a.values - b.values)
    a_shape, b_shape = a.shape, b.shape

    def vjp(g: np.ndarray):
        return (
            _reduce_to(g, a_shape) if a.tracked else None,
            _reduce_to(-g, b_shape) if b.tracked else None,
        )

    _record(out, (a, b), vjp)
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

    _record(out, (a, b), vjp)
    return out


def scale(a: Tensor, factor: float) -> Tensor:
    factor = float(factor)
    out = wrap(a.values * factor)

    def vjp(g: np.ndarray):
        return (g * factor,)

    _record(out, (a,), vjp)
    return out


def shift(a: Tensor, offset: float) -> Tensor:
    out = wrap(a.values + float(offset))

    def vjp(g: np.ndarray):
        return (g,)

    _record(out, (a,), vjp)
    return out


def sigmoid(a: Tensor) -> Tensor:
    """Logistic function with the pre-activation clamped to +-SIGMOID_CLAMP,
    keeping the output strictly inside (0, 1) in float64."""
    clamped = np.clip(a.values, -SIGMOID_CLAMP, SIGMOID_CLAMP)
    values = 1.0 / (1.0 + np.exp(-clamped))
    out = wrap(values)

    def vjp(g: np.ndarray):
        return (g * values * (1.0 - values),)

    _record(out, (a,), vjp)
    return out


def relu(a: Tensor) -> Tensor:
    """max(0, x); the subgradient at exactly 0 is 0."""
    mask = a.values > 0.0
    out = wrap(np.where(mask, a.values, 0.0))

    def vjp(g: np.ndarray):
        return (g * mask,)

    _record(out, (a,), vjp)
    return out


def exp(a: Tensor) -> Tensor:
    values = np.exp(a.values)
    out = wrap(values)

    def vjp(g: np.ndarray):
        return (g * values,)

    _record(out, (a,), vjp)
    return out


def log(a: Tensor) -> Tensor:
    """Natural log with the input floored at LOG_FLOOR, so log never sees 0."""
    floored = np.maximum(a.values, LOG_FLOOR)
    out = wrap(np.log(floored))

    def vjp(g: np.ndarray):
        return (g / floored,)

    _record(out, (a,), vjp)
    return out


def clamp(a: Tensor, low: float, high: float) -> Tensor:
    """Clip values to [low, high]; gradient passes only through the interior."""
    if not low < high:
        raise ValueError(f"clamp needs low < high, got [{low}, {high}]")
    out = wrap(np.clip(a.values, low, high))
    interior = (a.values > low) & (a.values < high)

    def vjp(g: np.ndarray):
        return (g * interior,)

    _record(out, (a,), vjp)
    return out


def reduce_sum(a: Tensor) -> Tensor:
    out = wrap(a.values.sum().reshape(1, 1))
    shape = a.shape

    def vjp(g: np.ndarray):
        return (np.full(shape, g[0, 0]),)

    _record(out, (a,), vjp)
    return out


def weighted_bce_sum(probs: Tensor, target: np.ndarray, weights: np.ndarray) -> Tensor:
    """sum(W * -(T log p + (1 - T) log(1 - p))) as one tape record, both logs
    floored as in :func:`log`. Forward and vjp repeat the arithmetic of the
    log / scale / shift / mul / add / reduce_sum chain that spells this out,
    in its order and folding only exact sign flips, so results are
    bit-identical to that chain's."""
    if target.shape != probs.shape or weights.shape != probs.shape:
        raise ShapeError(f"weighted BCE of {probs.shape}, {target.shape} and {weights.shape}")
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

    _record(out, (probs,), vjp)
    return out


def reduce_mean(a: Tensor) -> Tensor:
    size = a.values.size
    out = wrap(a.values.mean().reshape(1, 1))
    shape = a.shape

    def vjp(g: np.ndarray):
        return (np.full(shape, g[0, 0] / size),)

    _record(out, (a,), vjp)
    return out


def hstack(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate tensors left-to-right along columns."""
    if not parts:
        raise ShapeError("hstack of an empty sequence")
    rows = parts[0].shape[0]
    for p in parts:
        if p.shape[0] != rows:
            raise ShapeError(f"hstack row mismatch: {[p.shape for p in parts]}")
    out = wrap(np.hstack([p.values for p in parts]))
    widths = [p.shape[1] for p in parts]
    offsets = np.cumsum([0] + widths)

    def vjp(g: np.ndarray):
        return tuple(
            g[:, offsets[i]:offsets[i + 1]] if p.tracked else None
            for i, p in enumerate(parts)
        )

    _record(out, tuple(parts), vjp)
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
        _tape.clear()
        raise GradientError(f"grad_check needs a scalar-valued f, got {out.shape}")
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
