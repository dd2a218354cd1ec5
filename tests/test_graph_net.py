"""Tests for graph feature encoding, batching, the model and its tape oracle.

The invariance properties run on the production ``trainer.predict``; the
block shapes and per-step outputs run on the tape of ``tests/tape.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tape
from repro.core import EncodeProcessDecode, GraphTable, cell_to_graph
from repro.core.model import truncated_normal
from repro.core.trainer import predict
from repro.errors import ModelError
from repro.nasbench import (
    BEST_ACCURACY_CELL,
    CONV1X1,
    CONV3X3,
    Cell,
    INPUT,
    MAXPOOL3X3,
    OUTPUT,
    permute_cell,
    sample_unique_cells,
)
from test_frontend_equivalence import topological_orders, valid_cells

#: Float64 rounding, compounded over a few dozen layers, in the sums whose
#: order a relabelling or a batch change moves; the absolute floor only
#: serves predictions next to zero.
RTOL, ATOL = 1e-10, 1e-12


def batch_of(cells):
    return GraphTable.from_cells(cells).to_batched()


class TestFeatures:
    def test_node_feature_encoding_follows_figure4(self):
        cell = Cell(
            [
                [0, 1, 1, 1, 0],
                [0, 0, 0, 0, 1],
                [0, 0, 0, 0, 1],
                [0, 0, 0, 0, 1],
                [0, 0, 0, 0, 0],
            ],
            [INPUT, CONV3X3, MAXPOOL3X3, CONV1X1, OUTPUT],
        )
        graph = cell_to_graph(cell)
        assert graph.nodes.reshape(-1).tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert np.all(graph.edges == 1.0)
        assert graph.globals_.shape == (1, 1) and graph.globals_[0, 0] == 1.0

    def test_edges_match_cell(self):
        graph = cell_to_graph(BEST_ACCURACY_CELL)
        assert graph.num_edges == BEST_ACCURACY_CELL.num_edges
        assert graph.num_nodes == BEST_ACCURACY_CELL.num_vertices
        assert np.all(graph.senders < graph.receivers)  # upper-triangular DAG

    def test_graph_uses_pruned_cell(self):
        # A dangling vertex disappears from the graph encoding.
        cell = Cell(
            [
                [0, 1, 1, 0],
                [0, 0, 0, 1],
                [0, 0, 0, 0],
                [0, 0, 0, 0],
            ],
            [INPUT, CONV3X3, CONV1X1, OUTPUT],
        )
        assert cell_to_graph(cell).num_nodes == 3


class TestBatching:
    def test_batch_offsets_are_applied(self):
        cells = sample_unique_cells(5, seed=0)
        graphs = [cell_to_graph(cell) for cell in cells]
        batched = GraphTable.from_graphs(graphs).to_batched()
        assert batched.num_graphs == 5
        assert batched.nodes.shape[0] == sum(graph.num_nodes for graph in graphs)
        assert batched.edges.shape[0] == sum(graph.num_edges for graph in graphs)
        # Sender indices of the second graph start after the first graph's nodes.
        first_nodes = graphs[0].num_nodes
        second_slice = slice(graphs[0].num_edges, graphs[0].num_edges + graphs[1].num_edges)
        assert batched.senders[second_slice].min() >= first_nodes

    def test_graph_ids_partition_rows(self):
        graphs = [cell_to_graph(cell) for cell in sample_unique_cells(3, seed=1)]
        batched = GraphTable.from_graphs(graphs).to_batched()
        for index, graph in enumerate(graphs):
            assert int((batched.node_graph_ids == index).sum()) == graph.num_nodes
            assert int((batched.edge_graph_ids == index).sum()) == graph.num_edges

    def test_empty_batch_rejected(self):
        with pytest.raises(ModelError):
            GraphTable.from_graphs([])


class TestLayers:
    def test_linear_shapes(self):
        params = tape.wrap(EncodeProcessDecode(latent_size=8, seed=0))
        assert params["readout/weight"].shape == (8, 1)
        out = tape.linear(params, "readout", tape.Tensor(np.ones((5, 8))))
        assert out.shape == (5, 1)

    def test_truncated_normal_bounds(self):
        rng = np.random.default_rng(0)
        samples = truncated_normal(rng, (1000,), stddev=0.5)
        assert np.all(np.abs(samples) <= 1.0 + 1e-12)

    def test_mlp_parameter_count(self):
        latent, hidden = 16, 16
        model = EncodeProcessDecode(latent_size=latent, hidden_size=hidden, use_layer_norm=True)

        def mlp(inputs):  # two dense layers, then the norm's scale and offset
            return inputs * hidden + hidden + hidden * latent + latent + 2 * latent

        encoder = 3 * mlp(1)
        core = mlp(8 * latent) + mlp(5 * latent) + mlp(4 * latent)
        decoder = 3 * mlp(latent)
        assert model.values.size == encoder + core + decoder + latent + 1
        assert len(model.params) == 9 * 6 + 2

    def test_layer_norm_module_shapes(self):
        params = EncodeProcessDecode(latent_size=6, use_layer_norm=True).params
        for element in ("edge", "node", "global"):
            assert np.array_equal(params[f"core/{element}/norm/scale"], np.ones((1, 6)))
            assert np.array_equal(params[f"core/{element}/norm/offset"], np.zeros((1, 6)))
        assert not any("norm" in name for name in EncodeProcessDecode().params)


class TestBlocks:
    def test_independent_block_preserves_structure(self):
        batch = batch_of(sample_unique_cells(3, seed=2))
        params = tape.wrap(EncodeProcessDecode(latent_size=8, hidden_size=8, seed=0))
        out = tape.independent(params, "encoder", tape.features(batch))
        assert out.nodes.shape == (batch.nodes.shape[0], 8)
        assert out.edges.shape == (batch.edges.shape[0], 8)
        assert out.globals_.shape == (3, 8)

    def test_graph_net_block_output_shapes(self):
        batch = batch_of(sample_unique_cells(4, seed=3))
        params = tape.wrap(EncodeProcessDecode(latent_size=8, hidden_size=8, seed=0))
        encoded = tape.independent(params, "encoder", tape.features(batch))
        out = tape.core(params, batch, tape.concat_graphs(encoded, encoded))
        assert out.nodes.shape == (batch.nodes.shape[0], 8)
        assert out.edges.shape == (batch.edges.shape[0], 8)
        assert out.globals_.shape == (4, 8)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        cell=valid_cells(),
        seed=st.integers(min_value=0, max_value=10_000),
        layer_norm=st.booleans(),
    )
    def test_message_passing_is_permutation_insensitive(self, data, cell, seed, layer_norm):
        """Isomorphic cells get the same prediction, up to summation order."""
        permuted = permute_cell(cell, data.draw(topological_orders(cell)))
        model = EncodeProcessDecode(seed=seed, use_layer_norm=layer_norm)
        np.testing.assert_allclose(
            predict(model, GraphTable.from_cells([permuted])),
            predict(model, GraphTable.from_cells([cell])),
            rtol=RTOL,
            atol=ATOL,
        )


class TestEncodeProcessDecode:
    def test_returns_one_prediction_per_step(self):
        model = EncodeProcessDecode(num_message_passing_steps=4, seed=0)
        predictions = tape.forward(model, batch_of(sample_unique_cells(6, seed=4)))
        assert len(predictions) == 4
        assert all(p.shape == (6, 1) for p in predictions)

    def test_invalid_step_count_rejected(self):
        with pytest.raises(ModelError):
            EncodeProcessDecode(num_message_passing_steps=0)

    def test_different_graphs_get_different_predictions(self):
        model = EncodeProcessDecode(seed=0)
        predictions = predict(model, GraphTable.from_cells(sample_unique_cells(8, seed=5)))
        assert len(np.unique(np.round(predictions, 10))) > 1

    @settings(max_examples=40, deadline=None)
    @given(
        cells=st.lists(valid_cells(), min_size=1, max_size=8),
        seed=st.integers(min_value=0, max_value=10_000),
        layer_norm=st.booleans(),
    )
    def test_prediction_is_batch_invariant(self, cells, seed, layer_norm):
        model = EncodeProcessDecode(seed=seed, use_layer_norm=layer_norm)
        together = predict(model, GraphTable.from_cells(cells))
        separate = [predict(model, GraphTable.from_cells([cell]))[0] for cell in cells]
        np.testing.assert_allclose(together, separate, rtol=RTOL, atol=ATOL)
