"""Structure-of-arrays packing of a whole dataset of cell graphs.

:class:`GraphTable` is the learned-model-side mirror of
:class:`~repro.nasbench.layer_table.LayerTable`: every cell's node/edge/global
features, edge endpoints and per-graph segment offsets are flattened **once
per dataset** into aligned NumPy arrays.  Mini-batches are then O(batch)
fancy-indexed *slices* of those arrays — no per-step Python list walking or
re-concatenation of :class:`~repro.core.features.GraphTuple` objects — and the
whole dataset is one :class:`~repro.core.step.GraphBatch`, so whole-population
inference is a single forward pass.

Slicing is pure row selection and integer rebasing (no float arithmetic), so
a sliced batch is bit-for-bit identical to packing the same graphs one list
at a time; ``tests/test_graph_table.py`` checks it against such a loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ModelError
from ..nasbench.cell import Cell
from .features import GraphTuple, featurize_cells
from .step import GraphBatch


def _segment_rows(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Row indices of the concatenated segments ``[s, s + c)`` (vectorized)."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    out_starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return np.repeat(starts - out_starts, counts) + np.arange(total, dtype=np.int64)


@dataclass(frozen=True)
class GraphTable:
    """All graphs of a dataset packed into shared feature arrays.

    ``senders``/``receivers`` hold *packed* (table-global) node indices; the
    graph boundaries live in ``node_offsets``/``edge_offsets`` (length
    ``num_graphs + 1``), exactly like ``LayerTable.model_offsets``.
    """

    nodes: np.ndarray
    edges: np.ndarray
    globals_: np.ndarray
    senders: np.ndarray
    receivers: np.ndarray
    node_offsets: np.ndarray
    edge_offsets: np.ndarray

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_graphs(cls, graphs: Sequence[GraphTuple]) -> "GraphTable":
        """Pack a sequence of :class:`GraphTuple` once (the packing kernel)."""
        graphs = list(graphs)
        if not graphs:
            raise ModelError("cannot build a GraphTable from zero graphs")
        node_counts = np.array([graph.num_nodes for graph in graphs], dtype=np.int64)
        edge_counts = np.array([graph.num_edges for graph in graphs], dtype=np.int64)
        node_offsets = np.concatenate([[0], np.cumsum(node_counts)])
        edge_offsets = np.concatenate([[0], np.cumsum(edge_counts)])
        senders = np.concatenate(
            [graph.senders for graph in graphs]
        ) + np.repeat(node_offsets[:-1], edge_counts)
        receivers = np.concatenate(
            [graph.receivers for graph in graphs]
        ) + np.repeat(node_offsets[:-1], edge_counts)
        return cls(
            nodes=np.concatenate([graph.nodes for graph in graphs], axis=0),
            edges=np.concatenate([graph.edges for graph in graphs], axis=0),
            globals_=np.concatenate([graph.globals_ for graph in graphs], axis=0),
            senders=senders.astype(np.int64),
            receivers=receivers.astype(np.int64),
            node_offsets=node_offsets,
            edge_offsets=edge_offsets,
        )

    @classmethod
    def from_cells(cls, cells: Sequence[Cell]) -> "GraphTable":
        """Featurize *cells* (paper Figure 4) and pack them in one step."""
        return cls.from_graphs(featurize_cells(cells))

    # ------------------------------------------------------------------ #
    # Shape helpers
    # ------------------------------------------------------------------ #
    @property
    def num_graphs(self) -> int:
        """Number of packed graphs."""
        return len(self.node_offsets) - 1

    @property
    def num_nodes(self) -> int:
        """Total node rows across all graphs."""
        return int(self.node_offsets[-1])

    @property
    def num_edges(self) -> int:
        """Total edge rows across all graphs."""
        return int(self.edge_offsets[-1])

    def __len__(self) -> int:
        return self.num_graphs

    @property
    def node_counts(self) -> np.ndarray:
        """Nodes per graph."""
        return np.diff(self.node_offsets)

    @property
    def edge_counts(self) -> np.ndarray:
        """Edges per graph."""
        return np.diff(self.edge_offsets)

    # ------------------------------------------------------------------ #
    # Batch views
    # ------------------------------------------------------------------ #
    def to_batched(self) -> GraphBatch:
        """The whole table as one :class:`GraphBatch` (no feature copies)."""
        return GraphBatch(
            nodes=self.nodes,
            edges=self.edges,
            globals_=self.globals_,
            senders=self.senders,
            receivers=self.receivers,
            node_graph_ids=np.repeat(
                np.arange(self.num_graphs, dtype=np.int64), self.node_counts
            ),
            edge_graph_ids=np.repeat(
                np.arange(self.num_graphs, dtype=np.int64), self.edge_counts
            ),
            num_graphs=self.num_graphs,
        )

    def slice_batch(self, indices: np.ndarray | Sequence[int]) -> GraphBatch:
        """Mini-batch of the graphs at *indices* as a :class:`GraphBatch`.

        Pure row gathering plus integer rebasing of the edge endpoints, so the
        result is bit-for-bit what packing the same graphs would build —
        without touching Python lists.
        """
        rows = self._gathered_rows(indices)
        (indices, node_rows, edge_rows, node_counts, edge_counts, senders, receivers) = rows
        batch = len(indices)
        return GraphBatch(
            nodes=self.nodes[node_rows],
            edges=self.edges[edge_rows],
            globals_=self.globals_[indices],
            senders=senders,
            receivers=receivers,
            node_graph_ids=np.repeat(np.arange(batch, dtype=np.int64), node_counts),
            edge_graph_ids=np.repeat(np.arange(batch, dtype=np.int64), edge_counts),
            num_graphs=batch,
        )

    def subset(self, indices: np.ndarray | Sequence[int]) -> "GraphTable":
        """A new (re-packed) table holding only the graphs at *indices*."""
        rows = self._gathered_rows(indices)
        (indices, node_rows, edge_rows, node_counts, edge_counts, senders, receivers) = rows
        return GraphTable(
            nodes=self.nodes[node_rows],
            edges=self.edges[edge_rows],
            globals_=self.globals_[indices],
            senders=senders,
            receivers=receivers,
            node_offsets=np.concatenate([[0], np.cumsum(node_counts)]),
            edge_offsets=np.concatenate([[0], np.cumsum(edge_counts)]),
        )

    def _gathered_rows(self, indices: np.ndarray | Sequence[int]):
        """Shared gather math of :meth:`slice_batch` and :meth:`subset`."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.ndim != 1 or indices.size == 0:
            raise ModelError("graph indices must be a non-empty 1-D array")
        if indices.min() < 0 or indices.max() >= self.num_graphs:
            raise ModelError(f"graph index out of range for a table of {self.num_graphs} graphs")
        node_counts = self.node_counts[indices]
        edge_counts = self.edge_counts[indices]
        node_rows = _segment_rows(self.node_offsets[indices], node_counts)
        edge_rows = _segment_rows(self.edge_offsets[indices], edge_counts)
        # Rebase packed endpoints: drop the old segment start, add the new one.
        new_node_starts = np.concatenate([[0], np.cumsum(node_counts)[:-1]])
        rebase = np.repeat(new_node_starts - self.node_offsets[indices], edge_counts)
        senders = self.senders[edge_rows] + rebase
        receivers = self.receivers[edge_rows] + rebase
        return indices, node_rows, edge_rows, node_counts, edge_counts, senders, receivers
