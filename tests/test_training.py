"""Tests for the optimizer, target normalization, training loop and predictor."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import stats

from repro.core import (
    Adam,
    EncodeProcessDecode,
    GraphTable,
    LearnedPerformanceModel,
    TargetNormalizer,
    TrainingSettings,
    cell_to_graph,
    estimation_accuracy,
    evaluate_predictions,
    metric_targets,
    pearson_correlation,
    spearman_correlation,
    split_dataset,
    train_model,
)
from repro.core.trainer import evaluate_loss, predict
from repro.errors import ModelError
from repro.nasbench import sample_unique_cells


class TestAdam:
    def test_minimizes_a_quadratic(self):
        x = np.array([5.0, -3.0])
        optimizer = Adam(x, learning_rate=0.1)
        for _ in range(300):
            optimizer.step(2.0 * (x - 2.0))  # the gradient of (x - 2)^2
        assert x == pytest.approx([2.0, 2.0], abs=1e-2)

    def test_requires_parameters(self):
        with pytest.raises(ModelError):
            Adam(np.zeros(0))

    def test_requires_positive_learning_rate(self):
        with pytest.raises(ModelError):
            Adam(np.ones(1), learning_rate=0.0)

    def test_step_without_gradients_is_a_noop(self):
        x = np.array([1.0])
        Adam(x).step(np.zeros(1))
        assert x[0] == 1.0


class TestTargetNormalizer:
    def test_round_trip(self):
        values = np.array([0.1, 0.5, 2.0, 5.0])
        normalizer = TargetNormalizer(log_transform=True).fit(values)
        recovered = normalizer.inverse_transform(normalizer.transform(values))
        assert np.allclose(recovered, values)

    def test_normalized_targets_are_standardized(self):
        values = np.array([0.1, 0.2, 1.0, 3.0, 6.0])
        normalized = TargetNormalizer(log_transform=True).fit(values).transform(values)
        assert normalized.mean() == pytest.approx(0.0, abs=1e-9)
        assert normalized.std() == pytest.approx(1.0, abs=1e-9)

    def test_linear_mode(self):
        values = np.array([-1.0, 0.0, 1.0])
        normalizer = TargetNormalizer(log_transform=False).fit(values)
        assert np.allclose(normalizer.inverse_transform(normalizer.transform(values)), values)

    def test_log_mode_rejects_non_positive(self):
        with pytest.raises(ModelError):
            TargetNormalizer(log_transform=True).fit(np.array([0.0, 1.0]))

    def test_use_before_fit_rejected(self):
        with pytest.raises(ModelError):
            TargetNormalizer().transform(np.array([1.0]))


class TestSplit:
    def test_split_is_a_partition(self):
        split = split_dataset(100, seed=1)
        combined = np.concatenate([split.train, split.validation, split.test])
        assert sorted(combined.tolist()) == list(range(100))
        assert split.sizes == (60, 20, 20)

    def test_split_is_deterministic(self):
        a = split_dataset(50, seed=2)
        b = split_dataset(50, seed=2)
        assert np.array_equal(a.train, b.train)

    def test_invalid_fractions_rejected(self):
        with pytest.raises(ModelError):
            split_dataset(10, train_fraction=0.9, validation_fraction=0.2)
        with pytest.raises(ModelError):
            split_dataset(2)


class TestTrainingLoop:
    def test_training_reduces_loss_on_learnable_target(self):
        cells = sample_unique_cells(120, seed=9)
        table = GraphTable.from_graphs([cell_to_graph(cell) for cell in cells])
        raw = np.array([cell.op_count("conv3x3-bn-relu") for cell in cells], dtype=float)
        targets = (raw - raw.mean()) / (raw.std() + 1e-9)
        model = EncodeProcessDecode(seed=2)
        history = train_model(
            model, table, targets, epochs=25, batch_size=16, learning_rate=3e-3, seed=0
        )
        assert history.num_epochs == 25
        assert history.train_losses[-1] < history.train_losses[0]
        assert history.train_losses[-1] < 0.4

    def test_validation_losses_recorded(self):
        cells = sample_unique_cells(40, seed=10)
        graphs = [cell_to_graph(cell) for cell in cells]
        train, validation = GraphTable.from_graphs(graphs[:30]), GraphTable.from_graphs(graphs[30:])
        targets = np.linspace(-1, 1, len(cells))
        model = EncodeProcessDecode(seed=0)
        history = train_model(model, train, targets[:30], validation, targets[30:], epochs=2)
        assert len(history.validation_losses) == 2

    def test_mismatched_lengths_rejected(self):
        cells = sample_unique_cells(5, seed=1)
        table = GraphTable.from_graphs([cell_to_graph(cell) for cell in cells])
        with pytest.raises(ModelError):
            train_model(EncodeProcessDecode(seed=0), table, np.zeros(3), epochs=1)

    @pytest.mark.parametrize("count", [10, 2], ids=["more", "fewer"])
    def test_evaluate_loss_rejects_a_target_count_unlike_the_table(self, count):
        table = GraphTable.from_cells(sample_unique_cells(4, seed=1))
        with pytest.raises(ModelError, match=f"{count} targets for a table of 4 graphs"):
            evaluate_loss(EncodeProcessDecode(seed=0), table, np.zeros(count))

    def test_mismatched_validation_lengths_rejected(self):
        cells = sample_unique_cells(9, seed=1)
        train, validation = GraphTable.from_cells(cells[:5]), GraphTable.from_cells(cells[5:])
        with pytest.raises(ModelError, match="validation graphs and targets"):
            train_model(
                EncodeProcessDecode(seed=0), train, np.zeros(5), validation, np.zeros(7), epochs=1
            )

    def test_validation_table_without_targets_rejected(self):
        cells = sample_unique_cells(15, seed=1)
        train, validation = GraphTable.from_cells(cells[:5]), GraphTable.from_cells(cells[5:])
        with pytest.raises(ModelError, match="given together"):
            train_model(EncodeProcessDecode(seed=0), train, np.zeros(5), validation, epochs=1)

    def test_validation_targets_without_table_rejected(self):
        train = GraphTable.from_cells(sample_unique_cells(5, seed=1))
        with pytest.raises(ModelError, match="given together"):
            train_model(
                EncodeProcessDecode(seed=0), train, np.zeros(5), validation_targets=np.zeros(10)
            )

    def test_evaluate_loss_and_predict_shapes(self):
        cells = sample_unique_cells(20, seed=12)
        table = GraphTable.from_graphs([cell_to_graph(cell) for cell in cells])
        targets = np.zeros(len(cells))
        model = EncodeProcessDecode(seed=0)
        assert evaluate_loss(model, table, targets) >= 0.0
        assert predict(model, table).shape == (20,)


@st.composite
def correlation_pairs(draw):
    """Two non-constant arrays of one length in 2-300, of floats or of small integers.

    The integers take five values, so most arrays hold many ties; no target is
    zero, which the metrics reject.
    """
    size = draw(st.integers(min_value=2, max_value=300))
    floats = st.floats(min_value=-1e6, max_value=1e6, allow_subnormal=False).filter(bool)
    pair = []
    for _ in range(2):
        elements = draw(st.sampled_from([floats, st.integers(min_value=1, max_value=5)]))
        values = draw(st.lists(elements, min_size=size, max_size=size))
        pair.append(np.array(values, dtype=float))
    assume(all(np.ptp(values) > 0 for values in pair))
    return pair


class TestMetrics:
    def test_perfect_predictions(self):
        targets = np.array([1.0, 2.0, 3.0])
        assert estimation_accuracy(targets, targets) == pytest.approx(1.0)
        assert spearman_correlation(targets, targets) == pytest.approx(1.0)
        assert pearson_correlation(targets, targets) == pytest.approx(1.0)

    def test_accuracy_penalizes_relative_error(self):
        targets = np.array([1.0, 2.0])
        predictions = np.array([1.1, 1.8])
        assert estimation_accuracy(predictions, targets) == pytest.approx(0.9)

    def test_rank_correlation_ignores_scale(self):
        targets = np.array([1.0, 2.0, 3.0, 4.0])
        predictions = np.array([10.0, 20.0, 30.0, 40.0])
        assert spearman_correlation(predictions, targets) == pytest.approx(1.0)

    def test_report_as_row(self):
        report = evaluate_predictions(np.array([1.0, 2.0]), np.array([1.0, 2.0]), 10)
        row = report.as_row()
        assert row["training_set_size"] == 10
        assert row["test_set_size"] == 2
        assert row["average_accuracy"] == pytest.approx(1.0)

    def test_zero_targets_rejected(self):
        with pytest.raises(ModelError):
            estimation_accuracy(np.array([1.0, 2.0]), np.array([0.0, 2.0]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ModelError):
            pearson_correlation(np.array([1.0]), np.array([1.0, 2.0]))

    def test_single_sample_rejected(self):
        with pytest.raises(ModelError):
            spearman_correlation(np.array([1.0]), np.array([1.0]))

    @settings(max_examples=150, deadline=None)
    @given(pair=correlation_pairs())
    def test_correlations_match_scipy(self, pair):
        predictions, targets = pair
        spearman = spearman_correlation(predictions, targets)
        pearson = pearson_correlation(predictions, targets)
        expected_spearman = stats.spearmanr(predictions, targets).statistic
        expected_pearson = stats.pearsonr(predictions, targets).statistic
        if predictions.size == 2:
            # Exactly +-1; spearmanr returns 0.9999999999999999 here.
            assert spearman == np.sign(expected_spearman)
            assert pearson == np.sign(expected_pearson)
        else:
            assert spearman == pytest.approx(expected_spearman, rel=0, abs=1e-14)
            assert pearson == pytest.approx(expected_pearson, rel=0, abs=1e-14)

    @pytest.mark.parametrize("flat", ["predictions", "targets"])
    def test_constant_input_gives_nan_without_a_warning(self, flat):
        varying, constant = np.array([1.0, 2.0, 4.0]), np.full(3, 2.0)
        args = (constant, varying) if flat == "predictions" else (varying, constant)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(spearman_correlation(*args))
            assert np.isnan(pearson_correlation(*args))

    def test_nan_input_gives_nan(self):
        predictions = np.array([1.0, np.nan, 3.0])
        targets = np.array([1.0, 2.0, 3.0])
        assert np.isnan(spearman_correlation(predictions, targets))
        assert np.isnan(pearson_correlation(predictions, targets))


class TestLearnedPerformanceModel:
    def test_fit_predict_evaluate_cycle(self):
        cells = sample_unique_cells(80, seed=21)
        # Synthetic but structure-dependent target: proportional to conv3x3 count.
        targets = np.array([0.2 + 0.5 * cell.op_count("conv3x3-bn-relu") for cell in cells])
        model = LearnedPerformanceModel("V1", TrainingSettings(epochs=15, seed=0, batch_size=16))
        history = model.fit(cells, targets)
        assert history.num_epochs == 15
        report = model.evaluate("test")
        assert report.training_set_size == 48
        assert 0.0 < report.average_accuracy <= 1.0
        predictions = model.predict_cells(cells[:5])
        assert predictions.shape == (5,)
        assert np.all(predictions > 0)  # log-space training keeps outputs positive
        assert model.predict_cell(cells[0]) == pytest.approx(predictions[0])

    def test_unfitted_model_rejects_queries(self):
        model = LearnedPerformanceModel("V1")
        with pytest.raises(ModelError):
            model.predict_cell(sample_unique_cells(1, seed=0)[0])
        with pytest.raises(ModelError):
            model.evaluate()

    def test_fit_validates_inputs(self):
        cells = sample_unique_cells(12, seed=1)
        model = LearnedPerformanceModel("V1", TrainingSettings(epochs=1))
        with pytest.raises(ModelError):
            model.fit(cells, np.ones(5))
        with pytest.raises(ModelError):
            model.fit(cells[:4], np.ones(4))

    def test_fit_table_needs_min_fit_samples(self):
        count = LearnedPerformanceModel.MIN_FIT_SAMPLES - 1
        table = GraphTable.from_cells(sample_unique_cells(count, seed=3))
        model = LearnedPerformanceModel("V1", TrainingSettings(epochs=1))
        with pytest.raises(ModelError, match="at least 10 samples"):
            model.fit_table(table, np.ones(count))

    def test_metric_targets_reject_energy_without_a_model(self, measurements):
        energies = metric_targets(measurements, "V1", "energy")
        assert np.array_equal(energies, measurements.energies("V1"))
        with pytest.raises(ModelError, match="no energy model"):
            metric_targets(measurements, "V3", "energy")
        with pytest.raises(ModelError, match="unknown metric"):
            metric_targets(measurements, "V1", "throughput")

    def test_unknown_subset_rejected(self):
        cells = sample_unique_cells(30, seed=2)
        model = LearnedPerformanceModel("V1", TrainingSettings(epochs=1, seed=0))
        model.fit(cells, np.linspace(0.1, 1.0, 30))
        with pytest.raises(ModelError):
            model.evaluate("holdout")
