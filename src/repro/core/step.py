"""The learned model's training step, written out on numpy arrays.

The encode-process-decode forward pass of :mod:`repro.core.model`, the
per-step MSE loss and every parameter gradient, written out by hand ahead
of time (source transformation in the manner of Myia, instead of a recorded
tape). The tests keep a dynamic autodiff tape as the readable oracle
(``tests/tape.py``): the losses, every gradient, the trained weights and
the predictions here are bit-identical to it, which ``tests/test_step.py``
and ``tests/test_golden_training.py`` check.

Three things keep it bit-identical while doing less work:

* **Same operations, same accumulation order.** Each forward operation is
  the numpy expression the tape evaluates, on arrays of the same shape and
  layout. IEEE addition is commutative but not associative, so wherever
  three or more gradient terms meet they are added in the tape's
  reverse-topological order (DESIGN §5 lists the points).
* **Scatter transposes built once per batch.** The four gathers of a core
  step (senders, receivers, edge and node graph ids) are scattered back by
  a CSR product, built once per :class:`GraphBatch` and reused by every
  message-passing step and by both passes. A CSR row adds its entries in
  column order, exactly as ``np.add.at`` does; ``np.add.reduceat`` does not,
  so it only serves the forward graph sums, where the tape uses it too.
* **No dead work.** The decoder's edge and node MLPs never reach the loss,
  and :func:`predict` decodes only the last step. Their parameters stay in
  the model (the weight-cache format and the initialisation stream are
  unchanged); they receive no gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix

from .model import EncodeProcessDecode

#: Variance offset of the layer normalization.
LAYER_NORM_EPSILON = 1e-5


def _scatter_matrix(ids: np.ndarray, rows: int, sorted_ids: bool = False) -> csr_matrix:
    """``(rows, len(ids))`` 0/1 matrix ``S`` with ``S[ids[j], j] = 1``.

    ``S @ x`` sums the rows of *x* into their ids in increasing row order:
    bit-for-bit ``np.add.at(np.zeros(...), ids, x)``.
    """
    count = len(ids)
    order = np.arange(count) if sorted_ids else np.argsort(ids, kind="stable")
    indptr = np.zeros(rows + 1, dtype=np.int32)
    np.cumsum(np.bincount(ids, minlength=rows), out=indptr[1:])
    return csr_matrix(
        (np.ones(count), order.astype(np.int32), indptr), shape=(rows, count)
    )


@dataclass(eq=False)
class GraphBatch:
    """One batch of packed graphs, plus its scatter transposes.

    ``senders``/``receivers`` index the batch's node rows; the graph ids are
    non-decreasing (graphs are packed in order). The transposes are built on
    first use and then shared by every message-passing step and by the
    forward and backward passes.
    """

    nodes: np.ndarray
    edges: np.ndarray
    globals_: np.ndarray
    senders: np.ndarray
    receivers: np.ndarray
    node_graph_ids: np.ndarray
    edge_graph_ids: np.ndarray
    num_graphs: int

    @cached_property
    def sender_scatter(self) -> csr_matrix:
        return _scatter_matrix(self.senders, len(self.nodes))

    @cached_property
    def receiver_scatter(self) -> csr_matrix:
        return _scatter_matrix(self.receivers, len(self.nodes))

    @cached_property
    def edge_graph_scatter(self) -> csr_matrix:
        return _scatter_matrix(self.edge_graph_ids, self.num_graphs, sorted_ids=True)

    @cached_property
    def node_graph_scatter(self) -> csr_matrix:
        return _scatter_matrix(self.node_graph_ids, self.num_graphs, sorted_ids=True)

    @cached_property
    def _edge_runs(self) -> tuple[np.ndarray, np.ndarray]:
        return _runs(self.edge_graph_ids, self.num_graphs)

    @cached_property
    def _node_runs(self) -> tuple[np.ndarray, np.ndarray]:
        return _runs(self.node_graph_ids, self.num_graphs)

    def edge_graph_sum(self, values: np.ndarray) -> np.ndarray:
        """Per-graph sums of edge rows."""
        return _segment_sum(values, self.num_graphs, *self._edge_runs)

    def node_graph_sum(self, values: np.ndarray) -> np.ndarray:
        """Per-graph sums of node rows."""
        return _segment_sum(values, self.num_graphs, *self._node_runs)


def _runs(ids: np.ndarray, segments: int) -> tuple[np.ndarray, np.ndarray]:
    """Which segments of sorted *ids* have rows, and the first row of each."""
    counts = np.bincount(ids, minlength=segments)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    nonempty = counts > 0
    return nonempty, starts[nonempty]


def _segment_sum(
    values: np.ndarray, segments: int, nonempty: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """Row sums of each run of sorted ids, by ``np.add.reduceat``.

    An empty segment (a graph without edges) sums to zero rows.
    """
    if len(starts) == segments:
        return np.add.reduceat(values, starts, axis=0)
    out = np.zeros((segments, values.shape[1]))
    if len(starts):
        out[nonempty] = np.add.reduceat(values, starts, axis=0)
    return out


def _row_sum(grad: np.ndarray) -> np.ndarray:
    """Gradient of a ``(1, k)`` parameter broadcast over rows.

    A single row is kept as is, as the tape keeps it.
    """
    return grad if grad.shape[0] == 1 else grad.sum(axis=0, keepdims=True)


def _column_sum(grad: np.ndarray) -> np.ndarray:
    """Gradient of an ``(n, 1)`` value broadcast over columns."""
    return grad if grad.shape[1] == 1 else grad.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------- #
# MLP blocks
# ---------------------------------------------------------------------- #
def _mlp_forward(
    params: dict[str, np.ndarray], name: str, x: np.ndarray, saved: list | None
) -> np.ndarray:
    """The MLP *name* applied to *x*; appends what :func:`_mlp_backward` needs."""
    pre = x @ params[f"{name}/hidden/weight"] + params[f"{name}/hidden/bias"]
    mask = pre > 0
    hidden = pre * mask
    out = hidden @ params[f"{name}/output/weight"] + params[f"{name}/output/bias"]
    norm = None
    if f"{name}/norm/scale" in params:
        inv_count = 1.0 / out.shape[-1]
        centered = out - out.sum(axis=-1, keepdims=True) * inv_count
        shifted = (centered * centered).sum(axis=-1, keepdims=True) * inv_count
        shifted = shifted + LAYER_NORM_EPSILON
        inv_std = shifted**-0.5
        normalized = centered * inv_std
        out = normalized * params[f"{name}/norm/scale"] + params[f"{name}/norm/offset"]
        norm = (inv_count, centered, shifted, inv_std, normalized)
    if saved is not None:
        saved.append((x, mask, hidden, norm))
    return out


def _mlp_backward(
    params: dict[str, np.ndarray],
    name: str,
    saved: tuple,
    grad: np.ndarray,
    deposit,
    first: bool,
    input_grad: bool = True,
) -> np.ndarray | None:
    """Gradients of one :func:`_mlp_forward` call, in the tape's order.

    Parameter gradients go to ``deposit(parameter name, value, first)``; the
    input's gradient is returned when *input_grad* is set.
    """
    x, mask, hidden, norm = saved
    if norm is not None:
        inv_count, centered, shifted, inv_std, normalized = norm
        deposit(f"{name}/norm/offset", _row_sum(grad), first)
        grad_normalized = grad * params[f"{name}/norm/scale"]
        deposit(f"{name}/norm/scale", _row_sum(grad * normalized), first)
        grad_centered = grad_normalized * inv_std
        grad_inv_std = _column_sum(grad_normalized * centered)
        grad_variance = grad_inv_std * -0.5 * shifted**-1.5
        # Three terms meet at the centered input; the tape adds the
        # normalized one first, then the two factors of the square.
        square = (grad_variance * inv_count) * centered
        grad_centered = grad_centered + square
        grad_centered += square
        grad_mean = _column_sum(-grad_centered) * inv_count
        grad = grad_centered + grad_mean
    deposit(f"{name}/output/bias", _row_sum(grad), first)
    grad_hidden = grad @ params[f"{name}/output/weight"].T
    deposit(f"{name}/output/weight", hidden.T @ grad, first)
    grad_pre = grad_hidden * mask
    deposit(f"{name}/hidden/bias", _row_sum(grad_pre), first)
    grad_x = grad_pre @ params[f"{name}/hidden/weight"].T if input_grad else None
    deposit(f"{name}/hidden/weight", x.T @ grad_pre, first)
    return grad_x


# ---------------------------------------------------------------------- #
# Encode-process-decode
# ---------------------------------------------------------------------- #
def _forward(
    model: EncodeProcessDecode, batch: GraphBatch, saved: list | None, every_step: bool
) -> list[np.ndarray]:
    """Predictions of every step (or only the last); fills *saved* if given."""
    params = model.params
    weight, bias = params["readout/weight"], params["readout/bias"]
    enc_edges = _mlp_forward(params, "encoder/edge", batch.edges, saved)
    enc_nodes = _mlp_forward(params, "encoder/node", batch.nodes, saved)
    enc_globals = _mlp_forward(params, "encoder/global", batch.globals_, saved)
    edges, nodes, globals_ = enc_edges, enc_nodes, enc_globals
    steps = model.num_message_passing_steps
    predictions = []
    for step in range(steps):
        edges = np.concatenate([enc_edges, edges], axis=1)
        nodes = np.concatenate([enc_nodes, nodes], axis=1)
        globals_ = np.concatenate([enc_globals, globals_], axis=1)
        edge_inputs = np.concatenate(
            [
                edges,
                nodes[batch.senders],
                nodes[batch.receivers],
                globals_[batch.edge_graph_ids],
            ],
            axis=1,
        )
        edges = _mlp_forward(params, "core/edge", edge_inputs, saved)
        node_inputs = np.concatenate(
            [nodes, batch.receiver_scatter @ edges, globals_[batch.node_graph_ids]], axis=1
        )
        nodes = _mlp_forward(params, "core/node", node_inputs, saved)
        global_inputs = np.concatenate(
            [globals_, batch.edge_graph_sum(edges), batch.node_graph_sum(nodes)], axis=1
        )
        globals_ = _mlp_forward(params, "core/global", global_inputs, saved)
        if every_step or step == steps - 1:
            decoded = _mlp_forward(params, "decoder/global", globals_, saved)
            predictions.append(decoded @ weight + bias)
            if saved is not None:
                saved.append(decoded)
    return predictions


def _mean_squared_errors(predictions: list[np.ndarray], targets: np.ndarray):
    """Per-step MSE, averaged over steps, in the tape's order of operations."""
    diffs = [prediction - targets for prediction in predictions]
    scale = 1.0 / diffs[0].size
    loss = (diffs[0] * diffs[0]).sum() * scale
    for diff in diffs[1:]:
        loss = loss + (diff * diff).sum() * scale
    return loss * (1.0 / len(predictions)), diffs


def loss_and_gradients(
    model: EncodeProcessDecode,
    batch: GraphBatch,
    targets: np.ndarray,
    grads: dict[str, np.ndarray],
) -> float:
    """Loss of one batch; writes every parameter gradient into *grads*.

    *grads* holds one array per parameter name, normally
    ``model.views(gradient)`` of a flat gradient vector. The parameters of
    the decoder's edge and node MLPs never reach the loss; their arrays are
    left untouched.
    """
    saved: list = []
    predictions = _forward(model, batch, saved, every_step=True)
    loss, diffs = _mean_squared_errors(predictions, targets.reshape(-1, 1))

    def deposit(name: str, value: np.ndarray, first: bool) -> None:
        if first:
            grads[name][...] = value
        else:
            grads[name] += value

    params = model.params
    steps = model.num_message_passing_steps
    # Core inputs concatenate [encoder output, latent state]: 2 * latent wide.
    latent = model.latent_size
    wide = 2 * latent
    # d(loss)/d(sum of squares) of every step: (1/steps) * (1/num_graphs).
    grad_square = (1.0 * (1.0 / steps)) * (1.0 / diffs[0].size)

    # Step t's records follow the encoder's three, five per step: edge, node
    # and global core MLPs, the decoder MLP and the decoded globals.
    next_edges = next_nodes = next_globals = None
    enc_edges = enc_nodes = enc_globals = None
    for step in reversed(range(steps)):
        first = step == steps - 1
        edge_saved, node_saved, global_saved, decoder_saved, decoded = saved[
            3 + 5 * step : 8 + 5 * step
        ]
        term = grad_square * diffs[step]
        grad_prediction = term + term
        deposit("readout/bias", _row_sum(grad_prediction), first)
        grad_decoded = grad_prediction @ params["readout/weight"].T
        deposit("readout/weight", decoded.T @ grad_prediction, first)
        grad_globals = _mlp_backward(
            params, "decoder/global", decoder_saved, grad_decoded, deposit, first
        )
        if next_globals is not None:
            grad_globals = next_globals + grad_globals

        # Global update inputs: [globals (wide), edge sums, node sums].
        grad_inputs = _mlp_backward(
            params, "core/global", global_saved, grad_globals, deposit, first
        )
        grad_core_globals = grad_inputs[:, :wide]
        grad_edge_sums = grad_inputs[:, wide : wide + latent]
        grad_nodes = grad_inputs[:, wide + latent :][batch.node_graph_ids]
        if next_nodes is not None:
            grad_nodes = next_nodes + grad_nodes

        # Node update inputs: [nodes (wide), incoming edges, globals (wide)].
        grad_inputs = _mlp_backward(params, "core/node", node_saved, grad_nodes, deposit, first)
        grad_core_nodes = grad_inputs[:, :wide]
        grad_edges = grad_inputs[:, wide : wide + latent][batch.receivers]
        grad_core_globals = grad_core_globals + (
            batch.node_graph_scatter @ grad_inputs[:, wide + latent :]
        )
        if next_edges is not None:
            grad_edges = next_edges + grad_edges
        grad_edges = grad_edges + grad_edge_sums[batch.edge_graph_ids]

        # Edge update inputs: [edges, senders, receivers, globals], each wide.
        grad_inputs = _mlp_backward(params, "core/edge", edge_saved, grad_edges, deposit, first)
        grad_core_edges = grad_inputs[:, :wide]
        grad_core_globals = grad_core_globals + (
            batch.edge_graph_scatter @ grad_inputs[:, 3 * wide :]
        )
        grad_core_nodes = grad_core_nodes + (
            batch.receiver_scatter @ grad_inputs[:, 2 * wide : 3 * wide]
        )
        grad_core_nodes = grad_core_nodes + (
            batch.sender_scatter @ grad_inputs[:, wide : 2 * wide]
        )

        # Split the concatenations: the encoder's half accumulates over the
        # steps; the latent half goes to the step before, or at the first
        # step (where the latent state is the encoder output) to the encoder.
        pieces = []
        for grad, encoded in (
            (grad_core_nodes, enc_nodes),
            (grad_core_edges, enc_edges),
            (grad_core_globals, enc_globals),
        ):
            encoded = grad[:, :latent] if encoded is None else encoded + grad[:, :latent]
            if step == 0:
                encoded = encoded + grad[:, latent:]
            pieces.append((encoded, grad[:, latent:]))
        (enc_nodes, next_nodes), (enc_edges, next_edges), (enc_globals, next_globals) = pieces

    for name, record, grad in (
        ("encoder/node", saved[1], enc_nodes),
        ("encoder/edge", saved[0], enc_edges),
        ("encoder/global", saved[2], enc_globals),
    ):
        _mlp_backward(params, name, record, grad, deposit, True, input_grad=False)
    return float(loss)


def batch_loss(model: EncodeProcessDecode, batch: GraphBatch, targets: np.ndarray) -> float:
    """Per-step MSE of one batch, averaged over steps (no gradients)."""
    predictions = _forward(model, batch, None, every_step=True)
    return float(_mean_squared_errors(predictions, targets.reshape(-1, 1))[0])


def predict(model: EncodeProcessDecode, batch: GraphBatch) -> np.ndarray:
    """Final-step predictions of one batch, as a flat array."""
    return _forward(model, batch, None, every_step=False)[-1].reshape(-1)
