"""The learned model's training step, written out on numpy arrays.

:mod:`repro.core.autodiff` records every operation of a step on a dynamic
tape and walks it back; this module is the same encode-process-decode
forward pass, per-step MSE loss and parameter gradients written out by hand
ahead of time (source transformation in the manner of Myia, instead of a
recorded tape). The tape stays as the readable oracle: the losses, every
gradient, the trained weights and the predictions here are bit-identical to
it, which ``tests/test_step.py`` and ``tests/test_golden_training.py`` check.

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

from functools import cached_property
from typing import Mapping

import numpy as np
from scipy.sparse import csr_matrix

from .autodiff import LAYER_NORM_EPSILON, Tensor, _sum_segments
from .graph_net import BatchedGraphs
from .layers import MLP
from .model import EncodeProcessDecode

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


class GraphBatch:
    """One batch's feature and index arrays, plus its scatter transposes.

    The transposes are built on first use and then shared by every
    message-passing step and by the forward and backward passes.
    """

    def __init__(self, batched: BatchedGraphs):
        self.nodes = batched.nodes.data
        self.edges = batched.edges.data
        self.globals_ = batched.globals_.data
        self.senders = batched.senders
        self.receivers = batched.receivers
        self.node_graph_ids = batched.node_graph_ids
        self.edge_graph_ids = batched.edge_graph_ids
        self.num_graphs = batched.num_graphs

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
    def _edge_starts(self) -> np.ndarray | None:
        return _segment_starts(self.edge_graph_ids, self.num_graphs)

    @cached_property
    def _node_starts(self) -> np.ndarray | None:
        return _segment_starts(self.node_graph_ids, self.num_graphs)

    def edge_graph_sum(self, values: np.ndarray) -> np.ndarray:
        """Per-graph sums of edge rows (the tape's sorted ``segment_sum``)."""
        return _segment_sum(values, self.edge_graph_ids, self.num_graphs, self._edge_starts)

    def node_graph_sum(self, values: np.ndarray) -> np.ndarray:
        """Per-graph sums of node rows (the tape's sorted ``segment_sum``)."""
        return _segment_sum(values, self.node_graph_ids, self.num_graphs, self._node_starts)


def _segment_starts(ids: np.ndarray, segments: int) -> np.ndarray | None:
    """First row of each segment of sorted *ids*; ``None`` if one is empty."""
    counts = np.bincount(ids, minlength=segments)
    if len(ids) == 0 or not counts.all():
        return None
    return np.concatenate(([0], np.cumsum(counts)[:-1]))


def _segment_sum(
    values: np.ndarray, ids: np.ndarray, segments: int, starts: np.ndarray | None
) -> np.ndarray:
    """``autodiff._sum_segments``'s sorted ``reduceat`` path, same bits."""
    if starts is not None:
        return np.add.reduceat(values, starts, axis=0)
    return _sum_segments(values, ids, segments, sorted_ids=True)


def _row_sum(grad: np.ndarray) -> np.ndarray:
    """Gradient of a ``(1, k)`` parameter broadcast over rows.

    ``autodiff._unbroadcast`` for that shape: a single row is kept as is.
    """
    return grad if grad.shape[0] == 1 else grad.sum(axis=0, keepdims=True)


def _column_sum(grad: np.ndarray) -> np.ndarray:
    """Gradient of an ``(n, 1)`` value broadcast over columns."""
    return grad if grad.shape[1] == 1 else grad.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------- #
# MLP blocks
# ---------------------------------------------------------------------- #
def _mlp_forward(mlp: MLP, x: np.ndarray, saved: list | None) -> np.ndarray:
    """``mlp(x)``; appends what :func:`_mlp_backward` needs to *saved*."""
    pre = x @ mlp.hidden.weight.data + mlp.hidden.bias.data
    mask = pre > 0
    hidden = pre * mask
    out = hidden @ mlp.output.weight.data + mlp.output.bias.data
    norm = None
    if mlp.norm is not None:
        inv_count = 1.0 / out.shape[-1]
        centered = out - out.sum(axis=-1, keepdims=True) * inv_count
        shifted = (centered * centered).sum(axis=-1, keepdims=True) * inv_count
        shifted = shifted + LAYER_NORM_EPSILON
        inv_std = shifted**-0.5
        normalized = centered * inv_std
        out = normalized * mlp.norm.scale.data + mlp.norm.offset.data
        norm = (inv_count, centered, shifted, inv_std, normalized)
    if saved is not None:
        saved.append((x, mask, hidden, norm))
    return out


def _mlp_backward(
    mlp: MLP,
    saved: tuple,
    grad: np.ndarray,
    deposit,
    first: bool,
    input_grad: bool = True,
) -> np.ndarray | None:
    """Gradients of one :func:`_mlp_forward` call, in the tape's order.

    Parameter gradients go to ``deposit(parameter, value, first)``; the
    input's gradient is returned when *input_grad* is set.
    """
    x, mask, hidden, norm = saved
    if norm is not None:
        inv_count, centered, shifted, inv_std, normalized = norm
        deposit(mlp.norm.offset, _row_sum(grad), first)
        grad_normalized = grad * mlp.norm.scale.data
        deposit(mlp.norm.scale, _row_sum(grad * normalized), first)
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
    output = mlp.output
    deposit(output.bias, _row_sum(grad), first)
    grad_hidden = grad @ output.weight.data.T
    deposit(output.weight, hidden.T @ grad, first)
    grad_pre = grad_hidden * mask
    hidden_layer = mlp.hidden
    deposit(hidden_layer.bias, _row_sum(grad_pre), first)
    grad_x = grad_pre @ hidden_layer.weight.data.T if input_grad else None
    deposit(hidden_layer.weight, x.T @ grad_pre, first)
    return grad_x


# ---------------------------------------------------------------------- #
# Encode-process-decode
# ---------------------------------------------------------------------- #
def _forward(
    model: EncodeProcessDecode, batch: GraphBatch, saved: list | None, every_step: bool
) -> list[np.ndarray]:
    """Predictions of every step (or only the last); fills *saved* if given."""
    encoder, core = model.encoder, model.core
    decoder = model.decoder.global_model
    weight, bias = model.readout.weight.data, model.readout.bias.data
    enc_edges = _mlp_forward(encoder.edge_model, batch.edges, saved)
    enc_nodes = _mlp_forward(encoder.node_model, batch.nodes, saved)
    enc_globals = _mlp_forward(encoder.global_model, batch.globals_, saved)
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
        edges = _mlp_forward(core.edge_model, edge_inputs, saved)
        node_inputs = np.concatenate(
            [nodes, batch.receiver_scatter @ edges, globals_[batch.node_graph_ids]], axis=1
        )
        nodes = _mlp_forward(core.node_model, node_inputs, saved)
        global_inputs = np.concatenate(
            [globals_, batch.edge_graph_sum(edges), batch.node_graph_sum(nodes)], axis=1
        )
        globals_ = _mlp_forward(core.global_model, global_inputs, saved)
        if every_step or step == steps - 1:
            decoded = _mlp_forward(decoder, globals_, saved)
            predictions.append(decoded @ weight + bias)
            if saved is not None:
                saved.append(decoded)
    return predictions


def _mean_squared_errors(predictions: list[np.ndarray], targets: np.ndarray):
    """The tape's ``batched_loss``: per-step MSE, averaged over steps."""
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
    slots: Mapping[Tensor, np.ndarray],
) -> float:
    """Loss of one batch; writes every parameter gradient into its slot.

    *slots* maps each parameter that reaches the loss to an array of its
    shape (a view into the optimizer's flat gradient buffer); parameters of
    the decoder's edge and node MLPs are left untouched.
    """
    saved: list = []
    predictions = _forward(model, batch, saved, every_step=True)
    loss, diffs = _mean_squared_errors(predictions, targets.reshape(-1, 1))

    def deposit(parameter: Tensor, value: np.ndarray, first: bool) -> None:
        slot = slots[parameter]
        if first:
            slot[...] = value
        else:
            slot += value

    encoder, core = model.encoder, model.core
    decoder, readout = model.decoder.global_model, model.readout
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
        deposit(readout.bias, _row_sum(grad_prediction), first)
        grad_decoded = grad_prediction @ readout.weight.data.T
        deposit(readout.weight, decoded.T @ grad_prediction, first)
        grad_globals = _mlp_backward(decoder, decoder_saved, grad_decoded, deposit, first)
        if next_globals is not None:
            grad_globals = next_globals + grad_globals

        # Global update inputs: [globals (wide), edge sums, node sums].
        grad_inputs = _mlp_backward(core.global_model, global_saved, grad_globals, deposit, first)
        grad_core_globals = grad_inputs[:, :wide]
        grad_edge_sums = grad_inputs[:, wide : wide + latent]
        grad_nodes = grad_inputs[:, wide + latent :][batch.node_graph_ids]
        if next_nodes is not None:
            grad_nodes = next_nodes + grad_nodes

        # Node update inputs: [nodes (wide), incoming edges, globals (wide)].
        grad_inputs = _mlp_backward(core.node_model, node_saved, grad_nodes, deposit, first)
        grad_core_nodes = grad_inputs[:, :wide]
        grad_edges = grad_inputs[:, wide : wide + latent][batch.receivers]
        grad_core_globals = grad_core_globals + (
            batch.node_graph_scatter @ grad_inputs[:, wide + latent :]
        )
        if next_edges is not None:
            grad_edges = next_edges + grad_edges
        grad_edges = grad_edges + grad_edge_sums[batch.edge_graph_ids]

        # Edge update inputs: [edges, senders, receivers, globals], each wide.
        grad_inputs = _mlp_backward(core.edge_model, edge_saved, grad_edges, deposit, first)
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

    for mlp, record, grad in (
        (encoder.node_model, saved[1], enc_nodes),
        (encoder.edge_model, saved[0], enc_edges),
        (encoder.global_model, saved[2], enc_globals),
    ):
        _mlp_backward(mlp, record, grad, deposit, True, input_grad=False)
    return float(loss)


def batch_loss(model: EncodeProcessDecode, batch: GraphBatch, targets: np.ndarray) -> float:
    """Per-step MSE of one batch, averaged over steps (no gradients)."""
    predictions = _forward(model, batch, None, every_step=True)
    return float(_mean_squared_errors(predictions, targets.reshape(-1, 1))[0])


def predict(model: EncodeProcessDecode, batch: GraphBatch) -> np.ndarray:
    """Final-step predictions of one batch, as a flat array."""
    return _forward(model, batch, None, every_step=False)[-1].reshape(-1)
