"""Graph-Nets-style batched graphs and the full graph network block.

This reimplements (on the numpy autodiff of :mod:`repro.core.autodiff`) the
two pieces of DeepMind's Graph Nets library the paper relies on:

* a *batched graph* representation that packs several graphs into one set of
  node/edge/global arrays with index vectors mapping rows to their graph;
* the *full GN block* (Algorithm 1 of Battaglia et al., referenced by the
  paper): an edge update from (edge, sender, receiver, global), a node update
  from (node, aggregated incoming edges, global) and a global update from
  (global, aggregated edges, aggregated nodes), all with sum aggregation and
  each implemented by a two-layer 16-unit MLP with layer normalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ModelError
from .autodiff import Tensor, concat, gather, segment_sum
from .features import GraphTuple
from .layers import MLP, Module


@dataclass
class BatchedGraphs:
    """Several graphs packed into shared node/edge/global tensors.

    ``nodes``, ``edges`` and ``globals_`` are :class:`Tensor` so they can flow
    through the autodiff graph; the index arrays are plain numpy integers.
    """

    nodes: Tensor
    edges: Tensor
    globals_: Tensor
    senders: np.ndarray
    receivers: np.ndarray
    node_graph_ids: np.ndarray
    edge_graph_ids: np.ndarray
    num_graphs: int

    def replace(
        self,
        nodes: Tensor | None = None,
        edges: Tensor | None = None,
        globals_: Tensor | None = None,
    ) -> "BatchedGraphs":
        """Return a copy with some of the feature tensors replaced."""
        return BatchedGraphs(
            nodes=nodes if nodes is not None else self.nodes,
            edges=edges if edges is not None else self.edges,
            globals_=globals_ if globals_ is not None else self.globals_,
            senders=self.senders,
            receivers=self.receivers,
            node_graph_ids=self.node_graph_ids,
            edge_graph_ids=self.edge_graph_ids,
            num_graphs=self.num_graphs,
        )


def batch_graphs(graphs: Sequence[GraphTuple]) -> BatchedGraphs:
    """Pack a list of :class:`GraphTuple` into one :class:`BatchedGraphs`.

    Thin wrapper over the structure-of-arrays packing kernel of
    :class:`~repro.core.graph_table.GraphTable`, so the per-list and packed
    paths cannot drift apart.
    """
    from .graph_table import GraphTable  # deferred: graph_table imports us

    if not graphs:
        raise ModelError("cannot batch an empty list of graphs")
    return GraphTable.from_graphs(graphs).to_batched()


class IndependentBlock(Module):
    """Encoder/decoder block: per-element MLPs with no message passing.

    The encoder and decoder of the paper's model transform edge, node and
    global features independently; the graph structure is only consumed by
    the core block.
    """

    def __init__(
        self,
        edge_sizes: tuple[int, int],
        node_sizes: tuple[int, int],
        global_sizes: tuple[int, int],
        hidden_size: int,
        rng: np.random.Generator,
        use_layer_norm: bool = True,
    ):
        self.edge_model = MLP(edge_sizes[0], hidden_size, edge_sizes[1], rng, use_layer_norm)
        self.node_model = MLP(node_sizes[0], hidden_size, node_sizes[1], rng, use_layer_norm)
        self.global_model = MLP(global_sizes[0], hidden_size, global_sizes[1], rng, use_layer_norm)

    def __call__(self, graphs: BatchedGraphs) -> BatchedGraphs:
        return graphs.replace(
            nodes=self.node_model(graphs.nodes),
            edges=self.edge_model(graphs.edges),
            globals_=self.global_model(graphs.globals_),
        )


class GraphNetBlock(Module):
    """Full GN block with sum aggregation (the paper's core component)."""

    def __init__(
        self,
        edge_input_size: int,
        node_input_size: int,
        global_input_size: int,
        latent_size: int,
        hidden_size: int,
        rng: np.random.Generator,
        use_layer_norm: bool = True,
    ):
        # Edge update consumes: edge, sender node, receiver node, global.
        self.edge_model = MLP(
            edge_input_size + 2 * node_input_size + global_input_size,
            hidden_size,
            latent_size,
            rng,
            use_layer_norm,
        )
        # Node update consumes: node, summed incoming (updated) edges, global.
        self.node_model = MLP(
            node_input_size + latent_size + global_input_size,
            hidden_size,
            latent_size,
            rng,
            use_layer_norm,
        )
        # Global update consumes: global, summed (updated) edges, summed (updated) nodes.
        self.global_model = MLP(
            global_input_size + 2 * latent_size,
            hidden_size,
            latent_size,
            rng,
            use_layer_norm,
        )

    def __call__(self, graphs: BatchedGraphs) -> BatchedGraphs:
        num_nodes = graphs.nodes.shape[0]
        num_graphs = graphs.num_graphs

        # --- Edge update -------------------------------------------------
        sender_features = gather(graphs.nodes, graphs.senders)
        receiver_features = gather(graphs.nodes, graphs.receivers)
        edge_globals = gather(graphs.globals_, graphs.edge_graph_ids)
        edge_inputs = concat(
            [graphs.edges, sender_features, receiver_features, edge_globals], axis=1
        )
        updated_edges = self.edge_model(edge_inputs)

        # --- Node update -------------------------------------------------
        incoming = segment_sum(updated_edges, graphs.receivers, num_nodes)
        node_globals = gather(graphs.globals_, graphs.node_graph_ids)
        node_inputs = concat([graphs.nodes, incoming, node_globals], axis=1)
        updated_nodes = self.node_model(node_inputs)

        # --- Global update -----------------------------------------------
        # Graph ids are non-decreasing by construction of the packed batch
        # (models are concatenated in order), so the per-graph aggregations
        # take the sorted segment-sum fast path; the receiver aggregation
        # above cannot (receivers follow edge topology).
        edge_aggregate = segment_sum(
            updated_edges, graphs.edge_graph_ids, num_graphs, sorted_ids=True
        )
        node_aggregate = segment_sum(
            updated_nodes, graphs.node_graph_ids, num_graphs, sorted_ids=True
        )
        global_inputs = concat([graphs.globals_, edge_aggregate, node_aggregate], axis=1)
        updated_globals = self.global_model(global_inputs)

        return graphs.replace(nodes=updated_nodes, edges=updated_edges, globals_=updated_globals)


def concat_graphs(a: BatchedGraphs, b: BatchedGraphs) -> BatchedGraphs:
    """Feature-wise concatenation of two batched graphs with the same structure.

    Used by the encode-process-decode architecture to feed the encoder output
    together with the current latent state into the core block at every
    message-passing step (the "Concat" box of the paper's Figure 3).
    """
    return a.replace(
        nodes=concat([a.nodes, b.nodes], axis=1),
        edges=concat([a.edges, b.edges], axis=1),
        globals_=concat([a.globals_, b.globals_], axis=1),
    )
