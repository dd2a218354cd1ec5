"""Equivalence tests: pack-once GraphTable vs packing one list at a time.

The packed representation must be a pure re-arrangement of the per-list
one: slicing the table produces bit-for-bit the arrays :func:`list_batch`
builds from the corresponding Python list. Training through ``train_model``
reproduces the tape-driven reference loop of ``tests/tape.py`` exactly
(same losses, same weights, same predictions) given the same seed.
"""

from __future__ import annotations

import numpy as np
import pytest

import tape
from repro.core import (
    EncodeProcessDecode,
    GraphTable,
    LearnedPerformanceModel,
    TrainingSettings,
    featurize_cells,
    train_model,
)
from repro.core.step import GraphBatch
from repro.core.trainer import evaluate_loss, predict
from repro.errors import ModelError
from repro.nasbench import sample_unique_cells


@pytest.fixture(scope="module")
def cells():
    return sample_unique_cells(60, seed=77)


@pytest.fixture(scope="module")
def graphs(cells):
    return featurize_cells(cells)


@pytest.fixture(scope="module")
def table(graphs):
    return GraphTable.from_graphs(graphs)


def list_batch(graphs):
    """Pack *graphs* one at a time: each graph's endpoints offset by the nodes before it."""
    offsets = np.cumsum([0] + [graph.num_nodes for graph in graphs])
    return GraphBatch(
        nodes=np.concatenate([graph.nodes for graph in graphs]),
        edges=np.concatenate([graph.edges for graph in graphs]),
        globals_=np.concatenate([graph.globals_ for graph in graphs]),
        senders=np.concatenate([g.senders + o for g, o in zip(graphs, offsets)]),
        receivers=np.concatenate([g.receivers + o for g, o in zip(graphs, offsets)]),
        node_graph_ids=np.concatenate([[i] * g.num_nodes for i, g in enumerate(graphs)]),
        edge_graph_ids=np.concatenate([[i] * g.num_edges for i, g in enumerate(graphs)]),
        num_graphs=len(graphs),
    )


def assert_batches_equal(packed, legacy):
    assert packed.num_graphs == legacy.num_graphs
    for name in (
        "senders", "receivers", "node_graph_ids", "edge_graph_ids", "nodes", "edges", "globals_"
    ):
        assert np.array_equal(getattr(packed, name), getattr(legacy, name)), name
        assert getattr(packed, name).dtype == getattr(legacy, name).dtype, name


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
        assert_batches_equal(table.to_batched(), list_batch(graphs))

    def test_empty_table_rejected(self):
        with pytest.raises(ModelError):
            GraphTable.from_graphs([])


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
        legacy = list_batch([graphs[i] for i in indices])
        assert_batches_equal(packed, legacy)

    def test_random_slices_match_legacy_batching(self, table, graphs):
        rng = np.random.default_rng(5)
        for _ in range(10):
            indices = rng.integers(0, len(graphs), size=rng.integers(1, 40))
            assert_batches_equal(
                table.slice_batch(indices),
                list_batch([graphs[i] for i in indices]),
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
            packed_model, GraphTable.from_graphs(graphs), targets, epochs=4, batch_size=16, seed=1
        )
        tape_history = tape.train(tape_model, table, targets, epochs=4, batch_size=16, seed=1)

        assert packed_history.train_losses == tape_history.train_losses
        assert np.array_equal(packed_model.values, tape_model.values)
        assert np.array_equal(
            predict(packed_model, table), tape.predict(tape_model, table.to_batched())
        )

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
            GraphTable.from_graphs([graphs[i] for i in val_indices]),
            targets[val_indices],
            epochs=2,
            seed=0,
        )
        tape_history = tape.train(
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
        chunked = predict(model, GraphTable.from_graphs(graphs), batch_size=7)
        assert single.shape == (len(graphs),)
        np.testing.assert_allclose(single, chunked, rtol=1e-9, atol=1e-12)

    def test_evaluate_loss_matches_legacy_chunking(self, table, graphs):
        model = EncodeProcessDecode(seed=3)
        targets = np.linspace(0.0, 1.0, len(graphs))
        assert evaluate_loss(model, table, targets, batch_size=16) == pytest.approx(
            evaluate_loss(model, table, targets, batch_size=len(graphs)), rel=1e-12
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

    @pytest.mark.parametrize(
        "shape, message",
        [
            # 56 weight arrays against the default model's 38.
            (dict(use_layer_norm=True), "cannot load 56 arrays"),
            # Arrays 0 and 1 fit; array 2 is the first of another shape.
            (dict(latent_size=8), "shape mismatch"),
        ],
        ids=["count", "shape"],
    )
    def test_rejected_restore_leaves_the_model_unchanged(self, cells, shape, message):
        table = GraphTable.from_cells(cells)
        targets = np.linspace(1.0, 2.0, len(cells))
        model = LearnedPerformanceModel("V1", TrainingSettings(epochs=1, seed=0))
        model.fit_table(table, targets)
        other = LearnedPerformanceModel("V1", TrainingSettings(epochs=1, seed=0, **shape))
        other.fit_table(table, targets)
        weights = model.model.export_arrays()
        predictions = model.predict_cells(cells[:6])

        with pytest.raises(ModelError, match=message):
            model.restore_state(table, other.export_state())
        for array, before in zip(model.model.export_arrays(), weights, strict=True):
            assert np.array_equal(array, before)
        assert np.array_equal(model.predict_cells(cells[:6]), predictions)

    @staticmethod
    def _assert_rejected_unchanged(cells, edit, match):
        """A state changed by *edit* raises ``ModelError`` and leaves the model as it was."""
        table = GraphTable.from_cells(cells)
        targets = np.linspace(1.0, 2.0, len(cells))
        model = LearnedPerformanceModel("V1", TrainingSettings(epochs=1, seed=0))
        model.fit_table(table, targets)
        other = LearnedPerformanceModel("V1", TrainingSettings(epochs=2, seed=1))
        other.fit_table(table, targets)
        state = other.export_state()
        edit(state)
        weights = model.model.export_arrays()
        predictions = model.predict_cells(cells[:6])
        history, split = model.history, model.split

        with pytest.raises(ModelError, match=match):
            model.restore_state(table, state)
        for array, before in zip(model.model.export_arrays(), weights, strict=True):
            assert np.array_equal(array, before)
        assert np.array_equal(model.predict_cells(cells[:6]), predictions)
        assert model.history is history and model.split is split
        assert len(model.history.train_losses) == 1

    @pytest.mark.parametrize("missing", ["train_losses", "table_digest"])
    def test_state_without_an_entry_leaves_the_model_unchanged(self, cells, missing):
        self._assert_rejected_unchanged(cells, lambda state: state.pop(missing), missing)

    @pytest.mark.parametrize(
        "reshape",
        [lambda v: v[:2], lambda v: np.append(v, 1.0), lambda v: v.reshape(1, 3)],
        ids=["two", "four", "row"],
    )
    def test_state_with_a_misshapen_normalizer_leaves_the_model_unchanged(self, cells, reshape):
        def edit(state):
            state["normalizer"] = reshape(np.asarray(state["normalizer"]))

        self._assert_rejected_unchanged(cells, edit, "normalizer")

    @pytest.mark.parametrize("key", ["split_train", "split_validation", "split_test"])
    def test_split_indices_outside_the_table_leave_the_model_unchanged(self, cells, key):
        # The table holds one graph per cell, so len(cells) is one past its end.
        for bad in (1_000_000, len(cells), -1):

            def edit(state, bad=bad):
                state[key] = np.append(np.asarray(state[key], dtype=np.int64), bad)

            self._assert_rejected_unchanged(cells, edit, key)
