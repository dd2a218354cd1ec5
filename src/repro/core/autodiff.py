"""Minimal reverse-mode automatic differentiation on numpy arrays.

The paper implements its learned performance model with DeepMind's Graph Nets
and Sonnet on top of TensorFlow.  Neither is available in this environment, so
this module provides the small amount of autodiff machinery the graph network
needs: dense matrix products, broadcasting element-wise arithmetic, ReLU,
layer normalization building blocks, concatenation, row gathering and
segment sums (the aggregation primitive of message passing).

The design is a classic dynamic tape: every :class:`Tensor` records the
operation that produced it and a closure that propagates gradients to its
parents; :meth:`Tensor.backward` walks the tape in reverse topological order.
Only float64 arrays are used — the models involved are tiny (two-layer,
16-unit MLPs) so numerical robustness is worth more than speed.

The tape is the readable reference, not the training engine: training,
evaluation and prediction run the written-out step of
:mod:`repro.core.step`, which must match this tape bit for bit (losses,
gradients, weights and predictions). ``tests/test_step.py`` and the training
benchmark compare the two.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from ..errors import ModelError

Array = np.ndarray


def _as_array(value: object) -> Array:
    array = np.asarray(value, dtype=np.float64)
    return array


def _unbroadcast(gradient: Array, shape: tuple[int, ...]) -> Array:
    """Sum *gradient* down to *shape*, undoing numpy broadcasting."""
    if gradient.shape == shape:
        return gradient
    # Sum over leading dimensions that were added by broadcasting.
    while gradient.ndim > len(shape):
        gradient = gradient.sum(axis=0)
    # Sum over dimensions that were expanded from size one.
    for axis, size in enumerate(shape):
        if size == 1 and gradient.shape[axis] != 1:
            gradient = gradient.sum(axis=axis, keepdims=True)
    return gradient.reshape(shape)


class Tensor:
    """A numpy array with an optional gradient and a backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(
        self,
        data: object,
        requires_grad: bool = False,
        parents: Sequence["Tensor"] = (),
        backward: Callable[[Array], None] | None = None,
        name: str = "",
    ):
        self.data = _as_array(data)
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in parents)
        self._parents = tuple(parents)
        self._backward = backward
        self.name = name

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions of the underlying array."""
        return self.data.ndim

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        if self.data.size != 1:
            raise ModelError(f"item() requires a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def numpy(self) -> Array:
        """Return the underlying numpy array (not a copy)."""
        return self.data

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}, name={self.name!r})"

    # ------------------------------------------------------------------ #
    # Gradient accumulation and backpropagation
    # ------------------------------------------------------------------ #
    def _accumulate(self, gradient: Array) -> None:
        gradient = _unbroadcast(np.asarray(gradient, dtype=np.float64), self.data.shape)
        if self.grad is None:
            self.grad = gradient.copy()
        else:
            self.grad += gradient

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    def backward(self, gradient: Array | None = None) -> None:
        """Backpropagate from this tensor through the recorded tape."""
        if not self.requires_grad:
            raise ModelError("called backward() on a tensor that does not require gradients")
        if gradient is None:
            if self.data.size != 1:
                raise ModelError("backward() without a gradient requires a scalar tensor")
            gradient = np.ones_like(self.data)

        ordered: list[Tensor] = []
        visited: set[int] = set()

        def visit(node: "Tensor") -> None:
            if id(node) in visited:
                return
            visited.add(id(node))
            for parent in node._parents:
                visit(parent)
            ordered.append(node)

        visit(self)
        self._accumulate(gradient)
        for node in reversed(ordered):
            if node._backward is None or node.grad is None:
                continue
            node._backward(node.grad)

    # ------------------------------------------------------------------ #
    # Operator sugar
    # ------------------------------------------------------------------ #
    def __add__(self, other: object) -> "Tensor":
        return add(self, _ensure_tensor(other))

    def __radd__(self, other: object) -> "Tensor":
        return add(_ensure_tensor(other), self)

    def __sub__(self, other: object) -> "Tensor":
        return subtract(self, _ensure_tensor(other))

    def __rsub__(self, other: object) -> "Tensor":
        return subtract(_ensure_tensor(other), self)

    def __mul__(self, other: object) -> "Tensor":
        return multiply(self, _ensure_tensor(other))

    def __rmul__(self, other: object) -> "Tensor":
        return multiply(_ensure_tensor(other), self)

    def __truediv__(self, other: object) -> "Tensor":
        return divide(self, _ensure_tensor(other))

    def __matmul__(self, other: object) -> "Tensor":
        return matmul(self, _ensure_tensor(other))

    def __neg__(self) -> "Tensor":
        return multiply(self, Tensor(-1.0))


def _ensure_tensor(value: object) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


# ---------------------------------------------------------------------- #
# Primitive operations
# ---------------------------------------------------------------------- #
def add(a: Tensor, b: Tensor) -> Tensor:
    """Element-wise (broadcasting) addition."""
    out_data = a.data + b.data

    def backward(gradient: Array) -> None:
        if a.requires_grad:
            a._accumulate(gradient)
        if b.requires_grad:
            b._accumulate(gradient)

    return Tensor(out_data, parents=(a, b), backward=backward, name="add")


def subtract(a: Tensor, b: Tensor) -> Tensor:
    """Element-wise (broadcasting) subtraction."""
    out_data = a.data - b.data

    def backward(gradient: Array) -> None:
        if a.requires_grad:
            a._accumulate(gradient)
        if b.requires_grad:
            b._accumulate(-gradient)

    return Tensor(out_data, parents=(a, b), backward=backward, name="sub")


def multiply(a: Tensor, b: Tensor) -> Tensor:
    """Element-wise (broadcasting) multiplication."""
    out_data = a.data * b.data

    def backward(gradient: Array) -> None:
        if a.requires_grad:
            a._accumulate(gradient * b.data)
        if b.requires_grad:
            b._accumulate(gradient * a.data)

    return Tensor(out_data, parents=(a, b), backward=backward, name="mul")


def divide(a: Tensor, b: Tensor) -> Tensor:
    """Element-wise (broadcasting) division."""
    out_data = a.data / b.data

    def backward(gradient: Array) -> None:
        if a.requires_grad:
            a._accumulate(gradient / b.data)
        if b.requires_grad:
            b._accumulate(-gradient * a.data / (b.data**2))

    return Tensor(out_data, parents=(a, b), backward=backward, name="div")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D matrix multiplication."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ModelError("matmul expects two 2-D tensors")
    out_data = a.data @ b.data

    def backward(gradient: Array) -> None:
        if a.requires_grad:
            a._accumulate(gradient @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ gradient)

    return Tensor(out_data, parents=(a, b), backward=backward, name="matmul")


def relu(a: Tensor) -> Tensor:
    """Rectified linear unit."""
    mask = a.data > 0
    out_data = a.data * mask

    def backward(gradient: Array) -> None:
        if a.requires_grad:
            a._accumulate(gradient * mask)

    return Tensor(out_data, parents=(a,), backward=backward, name="relu")


def power(a: Tensor, exponent: float) -> Tensor:
    """Element-wise power with a constant exponent."""
    out_data = a.data**exponent

    def backward(gradient: Array) -> None:
        if a.requires_grad:
            a._accumulate(gradient * exponent * a.data ** (exponent - 1))

    return Tensor(out_data, parents=(a,), backward=backward, name="pow")


def tensor_sum(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    """Sum over an axis (or all elements)."""
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(gradient: Array) -> None:
        if not a.requires_grad:
            return
        grad = np.asarray(gradient, dtype=np.float64)
        if axis is not None and not keepdims:
            grad = np.expand_dims(grad, axis)
        a._accumulate(np.broadcast_to(grad, a.data.shape))

    return Tensor(out_data, parents=(a,), backward=backward, name="sum")


def mean(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    """Mean over an axis (or all elements)."""
    count = a.data.size if axis is None else a.data.shape[axis]
    return multiply(tensor_sum(a, axis=axis, keepdims=keepdims), Tensor(1.0 / count))


def concat(tensors: Sequence[Tensor], axis: int = 1) -> Tensor:
    """Concatenate tensors along *axis*."""
    tensors = list(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(gradient: Array) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                slicer = [slice(None)] * gradient.ndim
                slicer[axis] = slice(start, stop)
                tensor._accumulate(gradient[tuple(slicer)])

    return Tensor(out_data, parents=tuple(tensors), backward=backward, name="concat")


def gather(a: Tensor, indices: np.ndarray) -> Tensor:
    """Select rows of a 2-D tensor (``a[indices]``).

    The backward pass scatter-adds the gradient rows with ``np.add.at``, so
    rows gathered more than once accumulate every contribution.
    """
    indices = np.asarray(indices, dtype=np.int64)
    out_data = a.data[indices]

    def backward(gradient: Array) -> None:
        if not a.requires_grad:
            return
        grad = np.zeros_like(a.data)
        np.add.at(grad, indices, gradient)
        a._accumulate(grad)

    return Tensor(out_data, parents=(a,), backward=backward, name="gather")


def segment_sum(
    a: Tensor, segment_ids: np.ndarray, num_segments: int, sorted_ids: bool = False
) -> Tensor:
    """Sum rows of a 2-D tensor into *num_segments* buckets.

    This is the aggregation primitive of the graph network: summing edge
    features into their receiver nodes, or node/edge features into their
    graph's global feature.  Pass ``sorted_ids=True`` when the ids are
    non-decreasing (the packed graph-table aggregations are, by
    construction) to take the ``np.add.reduceat`` fast path.
    """
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    if segment_ids.shape[0] != a.data.shape[0]:
        raise ModelError("segment_ids must have one entry per row")
    out_data = _sum_segments(a.data, segment_ids, num_segments, sorted_ids)

    def backward(gradient: Array) -> None:
        if a.requires_grad:
            a._accumulate(gradient[segment_ids])

    return Tensor(out_data, parents=(a,), backward=backward, name="segment_sum")


def _sum_segments(values: Array, segment_ids: Array, num_segments: int, sorted_ids: bool) -> Array:
    """Sum rows of *values* into ``num_segments`` buckets.

    With ``sorted_ids=True`` the caller asserts the ids are non-decreasing,
    unlocking the ``reduceat`` path — roughly an order of magnitude faster
    than ``np.add.at`` and equal to roundoff (``reduceat`` reduces each run
    pairwise where ``add.at`` accumulates sequentially).  The hint is
    verified (one cheap pass) and quietly ignored when wrong, so a
    hand-built batch can never produce wrong sums.
    """
    out_shape = (num_segments,) + values.shape[1:]
    if values.shape[0] == 0:
        return np.zeros(out_shape, dtype=values.dtype)
    if sorted_ids and bool((np.diff(segment_ids) >= 0).all()):
        counts = np.bincount(segment_ids, minlength=num_segments)
        out = np.zeros(out_shape, dtype=values.dtype)
        nonempty = counts > 0
        # Consecutive non-empty starts delimit exactly the segment runs,
        # because empty segments contribute no rows in between.
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        out[nonempty] = np.add.reduceat(values, starts[nonempty], axis=0)
        return out
    out = np.zeros(out_shape, dtype=np.result_type(values.dtype, np.float64))
    np.add.at(out, segment_ids, values)
    return out.astype(values.dtype, copy=False)


#: Variance offset of :func:`layer_norm`.
LAYER_NORM_EPSILON = 1e-5


def layer_norm(
    a: Tensor, scale: Tensor, offset: Tensor, epsilon: float = LAYER_NORM_EPSILON
) -> Tensor:
    """Layer normalization over the last axis, with learnable scale and offset."""
    mu = mean(a, axis=-1, keepdims=True)
    centered = subtract(a, mu)
    variance = mean(multiply(centered, centered), axis=-1, keepdims=True)
    inv_std = power(add(variance, Tensor(epsilon)), -0.5)
    normalized = multiply(centered, inv_std)
    return add(multiply(normalized, scale), offset)


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error between two tensors of identical shape."""
    if prediction.shape != target.shape:
        raise ModelError(f"mse_loss shape mismatch: {prediction.shape} vs {target.shape}")
    diff = subtract(prediction, target)
    return mean(multiply(diff, diff))


def parameters_requiring_grad(tensors: Iterable[Tensor]) -> list[Tensor]:
    """Filter an iterable of tensors down to those that require gradients."""
    return [tensor for tensor in tensors if tensor.requires_grad]
