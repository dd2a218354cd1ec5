"""Equivalence tests: pack-once GraphTable vs the legacy per-list path.

The packed representation must be a pure re-arrangement of the legacy one:
slicing the table produces bit-for-bit the arrays ``batch_graphs`` builds
from the corresponding Python list. Training through ``train_model``
reproduces the tape-driven reference loop of ``tests/test_step.py`` exactly
(same losses, same weights, same predictions) given the same seed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    EncodeProcessDecode,
    GraphTable,
    LearnedPerformanceModel,
    TrainingSettings,
    as_graph_table,
    batch_graphs,
    featurize_cells,
    train_model,
)
from repro.core.trainer import evaluate_loss, predict
from repro.errors import ModelError
from repro.nasbench import sample_unique_cells
from test_step import tape_train


@pytest.fixture(scope="module")
def cells():
    return sample_unique_cells(60, seed=77)


@pytest.fixture(scope="module")
def graphs(cells):
    return featurize_cells(cells)


@pytest.fixture(scope="module")
def table(graphs):
    return GraphTable.from_graphs(graphs)


def assert_batches_equal(packed, legacy):
    assert packed.num_graphs == legacy.num_graphs
    for name in ("senders", "receivers", "node_graph_ids", "edge_graph_ids"):
        assert np.array_equal(getattr(packed, name), getattr(legacy, name)), name
    for name in ("nodes", "edges", "globals_"):
        assert np.array_equal(getattr(packed, name).data, getattr(legacy, name).data), name


class TestPacking:
    def test_table_shape_accounting(self, table, graphs):
        assert table.num_graphs == len(graphs)
        assert table.num_nodes == sum(graph.num_nodes for graph in graphs)
        assert table.num_edges == sum(graph.num_edges for graph in graphs)
        assert len(table) == len(graphs)
        assert np.array_equal(table.node_counts, [graph.num_nodes for graph in graphs])

    def test_from_cells_matches_featurize_then_pack(self, cells, table):
        direct = GraphTable.from_cells(cells)
        assert np.array_equal(direct.nodes, table.nodes)
        assert np.array_equal(direct.senders, table.senders)
        assert np.array_equal(direct.node_offsets, table.node_offsets)

    def test_to_batched_matches_batch_graphs(self, table, graphs):
        assert_batches_equal(table.to_batched(), batch_graphs(graphs))

    def test_empty_table_rejected(self):
        with pytest.raises(ModelError):
            GraphTable.from_graphs([])

    def test_as_graph_table_is_idempotent(self, table, graphs):
        assert as_graph_table(table) is table
        packed = as_graph_table(graphs)
        assert np.array_equal(packed.nodes, table.nodes)


class TestSlicing:
    @pytest.mark.parametrize(
        "indices",
        [
            [0],
            [5, 2, 9],
            [3, 3, 3],
            list(range(60)),
            [59, 0, 31, 31, 7],
        ],
    )
    def test_slice_matches_legacy_batching(self, table, graphs, indices):
        packed = table.slice_batch(np.asarray(indices))
        legacy = batch_graphs([graphs[i] for i in indices])
        assert_batches_equal(packed, legacy)

    def test_random_slices_match_legacy_batching(self, table, graphs):
        rng = np.random.default_rng(5)
        for _ in range(10):
            indices = rng.integers(0, len(graphs), size=rng.integers(1, 40))
            assert_batches_equal(
                table.slice_batch(indices),
                batch_graphs([graphs[i] for i in indices]),
            )

    def test_subset_matches_repacking(self, table, graphs):
        indices = np.array([4, 40, 11, 4])
        subset = table.subset(indices)
        expected = GraphTable.from_graphs([graphs[i] for i in indices])
        assert np.array_equal(subset.nodes, expected.nodes)
        assert np.array_equal(subset.senders, expected.senders)
        assert np.array_equal(subset.edge_offsets, expected.edge_offsets)

    def test_out_of_range_indices_rejected(self, table):
        with pytest.raises(ModelError):
            table.slice_batch([table.num_graphs])
        with pytest.raises(ModelError):
            table.slice_batch([-1])
        with pytest.raises(ModelError):
            table.slice_batch([])


class TestTrainingEquivalence:
    def test_packed_training_is_bit_for_bit_legacy(self, table, graphs):
        targets = np.linspace(-1.2, 1.2, len(graphs))
        packed_model = EncodeProcessDecode(seed=4)
        tape_model = EncodeProcessDecode(seed=4)

        packed_history = train_model(
            packed_model, graphs, targets, epochs=4, batch_size=16, seed=1
        )
        tape_history = tape_train(
            tape_model, table, targets, epochs=4, batch_size=16, seed=1
        )

        assert packed_history.train_losses == tape_history.train_losses
        for packed_param, tape_param in zip(packed_model.parameters(), tape_model.parameters()):
            assert np.array_equal(packed_param.data, tape_param.data)
        assert np.array_equal(predict(packed_model, table), tape_model.predict(table.to_batched()))

    def test_validation_losses_match(self, table, graphs):
        targets = np.linspace(0.5, -0.5, len(graphs))
        packed_model = EncodeProcessDecode(seed=2)
        tape_model = EncodeProcessDecode(seed=2)
        train_indices = np.arange(40)
        val_indices = np.arange(40, 60)

        packed_history = train_model(
            packed_model,
            table.subset(train_indices),
            targets[train_indices],
            [graphs[i] for i in val_indices],
            targets[val_indices],
            epochs=2,
            seed=0,
        )
        tape_history = tape_train(
            tape_model,
            table.subset(train_indices),
            targets[train_indices],
            (table.subset(val_indices), targets[val_indices]),
            epochs=2,
            seed=0,
        )
        assert packed_history.validation_losses == tape_history.validation_losses


class TestInference:
    def test_single_pass_matches_chunked(self, table, graphs):
        model = EncodeProcessDecode(seed=9)
        single = predict(model, table)
        chunked = predict(model, graphs, batch_size=7)
        assert single.shape == (len(graphs),)
        np.testing.assert_allclose(single, chunked, rtol=1e-9, atol=1e-12)

    def test_evaluate_loss_matches_legacy_chunking(self, table, graphs):
        model = EncodeProcessDecode(seed=3)
        targets = np.linspace(0.0, 1.0, len(graphs))
        assert evaluate_loss(model, table, targets, batch_size=16) == pytest.approx(
            evaluate_loss(model, graphs, targets, batch_size=16), rel=1e-12
        )


class TestPredictorEquivalence:
    def test_fit_table_matches_fit_cells(self, cells):
        targets = np.array([0.3 + 0.4 * cell.op_count("conv3x3-bn-relu") for cell in cells])
        settings = TrainingSettings(epochs=3, seed=0)
        by_cells = LearnedPerformanceModel("V1", settings)
        by_cells.fit(cells, targets)
        by_table = LearnedPerformanceModel("V1", settings)
        by_table.fit_table(GraphTable.from_cells(cells), targets)

        assert by_cells.history.train_losses == by_table.history.train_losses
        assert by_cells.evaluate("test") == by_table.evaluate("test")
        assert np.array_equal(by_cells.predict_cells(cells[:8]), by_table.predict_cells(cells[:8]))

    def test_state_round_trip_preserves_reports(self, cells):
        targets = np.array([1.0 + cell.num_edges for cell in cells], dtype=float)
        settings = TrainingSettings(epochs=3, seed=1)
        model = LearnedPerformanceModel("V2", settings)
        model.fit(cells, targets)
        state = model.export_state()

        restored = LearnedPerformanceModel("V2", settings)
        restored.restore_state(GraphTable.from_cells(cells), state)
        assert restored.evaluate("test") == model.evaluate("test")
        assert np.array_equal(restored.predict_cells(cells[:5]), model.predict_cells(cells[:5]))
        assert restored.history.train_losses == model.history.train_losses

    def test_predict_empty_cell_list_returns_empty(self, cells):
        model = LearnedPerformanceModel("V1", TrainingSettings(epochs=1, seed=0))
        model.fit(cells, np.linspace(1.0, 2.0, len(cells)))
        assert model.predict_cells([]).shape == (0,)

    def test_restore_rejects_mismatched_population(self, cells):
        settings = TrainingSettings(epochs=2, seed=0)
        model = LearnedPerformanceModel("V1", settings)
        model.fit(cells, np.linspace(1.0, 2.0, len(cells)))
        state = model.export_state()
        other = LearnedPerformanceModel("V1", settings)
        # Wrong size ...
        with pytest.raises(ModelError):
            other.restore_state(GraphTable.from_cells(cells[:10]), state)
        # ... and same size but different cells (feature digest mismatch).
        different = sample_unique_cells(2 * len(cells), seed=123)[len(cells):]
        with pytest.raises(ModelError, match="digest"):
            other.restore_state(GraphTable.from_cells(different), state)
