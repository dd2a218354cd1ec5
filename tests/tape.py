"""The autodiff tape: the readable oracle of the written-out training step.

The paper implements its learned performance model with DeepMind's Graph
Nets and Sonnet on top of TensorFlow. This module is the small amount of
reverse-mode autodiff that model needs — dense matrix products,
broadcasting element-wise arithmetic, ReLU, layer normalization,
concatenation, row gathering and segment sums — as a classic dynamic tape:
every :class:`Tensor` records the operation that produced it and a closure
that propagates gradients to its parents, and :meth:`Tensor.backward` walks
the tape in reverse topological order.

On the tape it writes the model's forward pass: the encoder, the full GN
block of the core (Algorithm 1 of Battaglia et al.: an edge update from
(edge, sender, receiver, global), a node update from (node, summed incoming
edges, global) and a global update from (global, summed edges, summed
nodes)) and the decoder, over :class:`Tensor` wrappers of the production
model's parameter views, so both engines read the same memory.
:func:`loss`, :func:`loss_and_gradients`, :func:`evaluate_loss`,
:func:`train` and :func:`predict` are what ``repro.core.step`` and
``repro.core.trainer`` must reproduce bit for bit (``tests/test_step.py``).
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.core import Adam, EncodeProcessDecode, GraphTable, TrainingHistory
from repro.core.step import LAYER_NORM_EPSILON, GraphBatch
from repro.errors import ModelError

Array = np.ndarray


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
    """A numpy array with an optional gradient and a backward closure.

    A float64 array is held as given, not copied: a parameter's tensor reads
    the model's own view.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(
        self,
        data: object,
        requires_grad: bool = False,
        parents: Sequence["Tensor"] = (),
        backward: Callable[[Array], None] | None = None,
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in parents)
        self._parents = tuple(parents)
        self._backward = backward

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        if self.data.size != 1:
            raise ModelError(f"item() requires a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def numpy(self) -> Array:
        """Return the underlying numpy array (not a copy)."""
        return self.data

    def _accumulate(self, gradient: Array) -> None:
        gradient = _unbroadcast(np.asarray(gradient, dtype=np.float64), self.data.shape)
        if self.grad is None:
            self.grad = gradient.copy()
        else:
            self.grad += gradient

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

    def __add__(self, other: object) -> "Tensor":
        return add(self, _ensure_tensor(other))

    def __mul__(self, other: object) -> "Tensor":
        return multiply(self, _ensure_tensor(other))


def _ensure_tensor(value: object) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


# ---------------------------------------------------------------------- #
# Primitive operations
# ---------------------------------------------------------------------- #
def add(a: Tensor, b: Tensor) -> Tensor:
    """Element-wise (broadcasting) addition."""

    def backward(gradient: Array) -> None:
        if a.requires_grad:
            a._accumulate(gradient)
        if b.requires_grad:
            b._accumulate(gradient)

    return Tensor(a.data + b.data, parents=(a, b), backward=backward)


def subtract(a: Tensor, b: Tensor) -> Tensor:
    """Element-wise (broadcasting) subtraction."""

    def backward(gradient: Array) -> None:
        if a.requires_grad:
            a._accumulate(gradient)
        if b.requires_grad:
            b._accumulate(-gradient)

    return Tensor(a.data - b.data, parents=(a, b), backward=backward)


def multiply(a: Tensor, b: Tensor) -> Tensor:
    """Element-wise (broadcasting) multiplication."""

    def backward(gradient: Array) -> None:
        if a.requires_grad:
            a._accumulate(gradient * b.data)
        if b.requires_grad:
            b._accumulate(gradient * a.data)

    return Tensor(a.data * b.data, parents=(a, b), backward=backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D matrix multiplication."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ModelError("matmul expects two 2-D tensors")

    def backward(gradient: Array) -> None:
        if a.requires_grad:
            a._accumulate(gradient @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ gradient)

    return Tensor(a.data @ b.data, parents=(a, b), backward=backward)


def relu(a: Tensor) -> Tensor:
    """Rectified linear unit."""
    mask = a.data > 0

    def backward(gradient: Array) -> None:
        if a.requires_grad:
            a._accumulate(gradient * mask)

    return Tensor(a.data * mask, parents=(a,), backward=backward)


def power(a: Tensor, exponent: float) -> Tensor:
    """Element-wise power with a constant exponent."""

    def backward(gradient: Array) -> None:
        if a.requires_grad:
            a._accumulate(gradient * exponent * a.data ** (exponent - 1))

    return Tensor(a.data**exponent, parents=(a,), backward=backward)


def tensor_sum(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    """Sum over an axis (or all elements)."""

    def backward(gradient: Array) -> None:
        if not a.requires_grad:
            return
        grad = np.asarray(gradient, dtype=np.float64)
        if axis is not None and not keepdims:
            grad = np.expand_dims(grad, axis)
        a._accumulate(np.broadcast_to(grad, a.data.shape))

    return Tensor(a.data.sum(axis=axis, keepdims=keepdims), parents=(a,), backward=backward)


def mean(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    """Mean over an axis (or all elements)."""
    count = a.data.size if axis is None else a.data.shape[axis]
    return multiply(tensor_sum(a, axis=axis, keepdims=keepdims), Tensor(1.0 / count))


def concat(tensors: Sequence[Tensor], axis: int = 1) -> Tensor:
    """Concatenate tensors along *axis*."""
    tensors = list(tensors)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(gradient: Array) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                slicer = [slice(None)] * gradient.ndim
                slicer[axis] = slice(start, stop)
                tensor._accumulate(gradient[tuple(slicer)])

    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    return Tensor(out_data, parents=tuple(tensors), backward=backward)


def gather(a: Tensor, indices: np.ndarray) -> Tensor:
    """Select rows of a 2-D tensor (``a[indices]``).

    The backward pass scatter-adds the gradient rows with ``np.add.at``, so
    rows gathered more than once accumulate every contribution.
    """
    indices = np.asarray(indices, dtype=np.int64)

    def backward(gradient: Array) -> None:
        if not a.requires_grad:
            return
        grad = np.zeros_like(a.data)
        np.add.at(grad, indices, gradient)
        a._accumulate(grad)

    return Tensor(a.data[indices], parents=(a,), backward=backward)


def segment_sum(
    a: Tensor, segment_ids: np.ndarray, num_segments: int, sorted_ids: bool = False
) -> Tensor:
    """Sum rows of a 2-D tensor into *num_segments* buckets.

    The aggregation primitive of the graph network: summing edge features
    into their receiver nodes, or node/edge features into their graph's
    global feature. Pass ``sorted_ids=True`` when the ids are non-decreasing
    (the packed per-graph ids are) to take the ``np.add.reduceat`` path.
    """
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    if segment_ids.shape[0] != a.data.shape[0]:
        raise ModelError("segment_ids must have one entry per row")

    def backward(gradient: Array) -> None:
        if a.requires_grad:
            a._accumulate(gradient[segment_ids])

    out_data = _sum_segments(a.data, segment_ids, num_segments, sorted_ids)
    return Tensor(out_data, parents=(a,), backward=backward)


def _sum_segments(values: Array, segment_ids: Array, num_segments: int, sorted_ids: bool) -> Array:
    """Sum rows of *values* into ``num_segments`` buckets.

    With ``sorted_ids=True`` the caller asserts the ids are non-decreasing,
    unlocking the ``reduceat`` path, equal to ``np.add.at`` up to roundoff
    (``reduceat`` reduces each run pairwise where ``add.at`` accumulates
    sequentially). The hint is verified and ignored when wrong.
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


# ---------------------------------------------------------------------- #
# The encode-process-decode model on the tape
# ---------------------------------------------------------------------- #
Params = dict[str, Tensor]


class Graphs(NamedTuple):
    """Node, edge and global feature tensors of one batch."""

    nodes: Tensor
    edges: Tensor
    globals_: Tensor


def wrap(model: EncodeProcessDecode) -> Params:
    """One fresh :class:`Tensor` per parameter, over the model's own view."""
    return {name: Tensor(view, requires_grad=True) for name, view in model.params.items()}


def features(batch: GraphBatch) -> Graphs:
    """The batch's input features as (constant) tensors."""
    return Graphs(Tensor(batch.nodes), Tensor(batch.edges), Tensor(batch.globals_))


def linear(params: Params, name: str, inputs: Tensor) -> Tensor:
    """Dense layer ``inputs @ weight + bias``."""
    return add(matmul(inputs, params[f"{name}/weight"]), params[f"{name}/bias"])


def mlp(params: Params, name: str, inputs: Tensor) -> Tensor:
    """``Linear -> ReLU -> Linear``, then layer norm if the model has it."""
    output = linear(params, f"{name}/output", relu(linear(params, f"{name}/hidden", inputs)))
    if f"{name}/norm/scale" in params:
        output = layer_norm(output, params[f"{name}/norm/scale"], params[f"{name}/norm/offset"])
    return output


def independent(params: Params, block: str, graphs: Graphs) -> Graphs:
    """Encoder/decoder block: per-element MLPs with no message passing."""
    return Graphs(
        nodes=mlp(params, f"{block}/node", graphs.nodes),
        edges=mlp(params, f"{block}/edge", graphs.edges),
        globals_=mlp(params, f"{block}/global", graphs.globals_),
    )


def core(params: Params, batch: GraphBatch, graphs: Graphs) -> Graphs:
    """Full GN block with sum aggregation (the paper's core component)."""
    num_nodes = graphs.nodes.shape[0]

    sender_features = gather(graphs.nodes, batch.senders)
    receiver_features = gather(graphs.nodes, batch.receivers)
    edge_globals = gather(graphs.globals_, batch.edge_graph_ids)
    edge_inputs = concat(
        [graphs.edges, sender_features, receiver_features, edge_globals], axis=1
    )
    edges = mlp(params, "core/edge", edge_inputs)

    incoming = segment_sum(edges, batch.receivers, num_nodes)
    node_globals = gather(graphs.globals_, batch.node_graph_ids)
    nodes = mlp(params, "core/node", concat([graphs.nodes, incoming, node_globals], axis=1))

    # Graph ids are non-decreasing in a packed batch, so the per-graph sums
    # take the sorted path; receivers follow edge topology and cannot.
    edge_aggregate = segment_sum(edges, batch.edge_graph_ids, batch.num_graphs, sorted_ids=True)
    node_aggregate = segment_sum(nodes, batch.node_graph_ids, batch.num_graphs, sorted_ids=True)
    global_inputs = concat([graphs.globals_, edge_aggregate, node_aggregate], axis=1)
    return Graphs(nodes=nodes, edges=edges, globals_=mlp(params, "core/global", global_inputs))


def concat_graphs(a: Graphs, b: Graphs) -> Graphs:
    """Feature-wise concatenation (the "Concat" box of the paper's Figure 3)."""
    return Graphs(
        nodes=concat([a.nodes, b.nodes], axis=1),
        edges=concat([a.edges, b.edges], axis=1),
        globals_=concat([a.globals_, b.globals_], axis=1),
    )


def forward(
    model: EncodeProcessDecode, batch: GraphBatch, params: Params | None = None
) -> list[Tensor]:
    """One ``(num_graphs, 1)`` prediction per message-passing step."""
    params = wrap(model) if params is None else params
    encoded = independent(params, "encoder", features(batch))
    latent = encoded
    predictions = []
    for _ in range(model.num_message_passing_steps):
        latent = core(params, batch, concat_graphs(encoded, latent))
        decoded = independent(params, "decoder", latent)
        predictions.append(linear(params, "readout", decoded.globals_))
    return predictions


def predict(model: EncodeProcessDecode, batch: GraphBatch) -> np.ndarray:
    """The final-step predictions as a flat numpy array."""
    return forward(model, batch)[-1].numpy().reshape(-1)


def loss(
    model: EncodeProcessDecode,
    batch: GraphBatch,
    targets: np.ndarray,
    params: Params | None = None,
) -> Tensor:
    """Loss of one batch: MSE averaged over message-passing steps."""
    predictions = forward(model, batch, params)
    target_tensor = Tensor(np.asarray(targets, dtype=float).reshape(-1, 1))
    total = mse_loss(predictions[0], target_tensor)
    for prediction in predictions[1:]:
        total = total + mse_loss(prediction, target_tensor)
    return total * Tensor(1.0 / len(predictions))


def loss_and_gradients(
    model: EncodeProcessDecode, batch: GraphBatch, targets: np.ndarray
) -> tuple[float, dict[str, Array | None]]:
    """Loss and per-parameter gradients (``None`` if unreached)."""
    params = wrap(model)
    value = loss(model, batch, targets, params)
    value.backward()
    return value.item(), {name: tensor.grad for name, tensor in params.items()}


def evaluate_loss(
    model: EncodeProcessDecode, table: GraphTable, targets: np.ndarray, batch_size: int = 256
) -> float:
    """``evaluate_loss`` on the tape."""
    total = 0.0
    for start in range(0, table.num_graphs, batch_size):
        indices = np.arange(start, min(start + batch_size, table.num_graphs))
        total += loss(model, table.slice_batch(indices), targets[indices]).item() * len(indices)
    return total / table.num_graphs


def train(
    model: EncodeProcessDecode,
    table: GraphTable,
    targets: np.ndarray,
    validation: tuple[GraphTable, np.ndarray] | None = None,
    epochs: int = 3,
    batch_size: int = 16,
    learning_rate: float = 1e-3,
    seed: int = 0,
) -> TrainingHistory:
    """``train_model``'s loop with every step recorded on the tape.

    Each step's tape gradients (zero where unreached) are gathered into one
    flat gradient for the production :class:`Adam`.
    """
    optimizer = Adam(model.values, learning_rate=learning_rate)
    gradient = np.zeros_like(model.values)
    slots = model.views(gradient)
    rng = np.random.default_rng(seed)
    history = TrainingHistory()
    for _ in range(epochs):
        order = rng.permutation(table.num_graphs)
        epoch_loss, batches = 0.0, 0
        for start in range(0, len(order), batch_size):
            indices = order[start : start + batch_size]
            value, grads = loss_and_gradients(model, table.slice_batch(indices), targets[indices])
            for name, grad in grads.items():
                slots[name][...] = 0.0 if grad is None else grad
            optimizer.step(gradient)
            epoch_loss += value
            batches += 1
        history.train_losses.append(epoch_loss / batches)
        if validation is not None:
            history.validation_losses.append(evaluate_loss(model, *validation))
    return history
