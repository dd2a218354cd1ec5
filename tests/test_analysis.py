"""Tests for the analysis package (tables and figures helpers)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    accuracy_annotations,
    accuracy_by_structure,
    accuracy_latency_scatter,
    best_model_report,
    bucket_characteristics,
    bucket_records,
    bucket_speedups,
    crossover_analysis,
    energy_latency_linear_fit,
    latency_accuracy_frontier,
    latency_by_structure,
    latency_energy_scatter,
    latency_extremes_for_conv_count,
    latency_parameter_correlation,
    operation_count_vs_latency,
    operation_swap_matrix,
    pareto_front_indices,
    pareto_front_mask,
    parameters_by_depth,
    parameters_vs_latency,
    summarize_all,
    summarize_configuration,
    swap_operations,
    top_models_by_accuracy,
    winner_buckets,
)
from repro.analysis.swaps import SWAP_OPERATIONS
from repro.arch import EDGE_TPU_V2
from repro.errors import DatasetError
from repro.nasbench import CONV1X1, CONV3X3, MAXPOOL3X3, build_network
from repro.nasbench.famous_cells import BEST_ACCURACY_CELL
from repro.simulator import PerformanceSimulator


class TestSummary:
    def test_table3_summary_structure(self, measurements):
        summaries = summarize_all(measurements)
        assert set(summaries) == {"V1", "V2", "V3"}
        for name, summary in summaries.items():
            assert summary.min_latency.value <= summary.avg_latency_ms <= summary.max_latency.value
            assert 0.0 < summary.min_latency.accuracy <= 1.0
            assert (summary.avg_energy_mj is not None) == (name != "V3")

    def test_accuracy_filter_reduces_population(self, measurements):
        full = summarize_configuration(measurements, "V1", min_accuracy=0.0)
        filtered = summarize_configuration(measurements, "V1", min_accuracy=0.70)
        assert filtered.num_models <= full.num_models

    def test_impossible_filter_raises(self, measurements):
        with pytest.raises(DatasetError):
            summarize_configuration(measurements, "V1", min_accuracy=2.0)

    def test_table4_best_model(self, measurements):
        report = best_model_report(measurements)
        # The dataset always contains the paper's Figure 7 cell, which the
        # surrogate accuracy model pins at 95.055%.
        assert report.accuracy == pytest.approx(0.95055)
        assert set(report.latency_ms) == {"V1", "V2", "V3"}
        assert report.energy_mj["V3"] is None
        assert report.latency_ms["V2"] < report.latency_ms["V1"]

    def test_figure6_scatter_and_fit(self, measurements):
        points = latency_energy_scatter(measurements, "V1")
        assert all(point.energy_mj > 0 for point in points)
        slope, intercept = energy_latency_linear_fit(points)
        assert slope > 0  # energy grows with latency (Figure 6 linearity)

    def test_fit_requires_two_points(self):
        with pytest.raises(DatasetError):
            energy_latency_linear_fit([])


class TestBuckets:
    def test_buckets_partition_the_population(self, measurements):
        buckets = winner_buckets(measurements)
        assert sum(bucket.num_models for bucket in buckets.values()) == len(measurements.dataset)
        v1_bucket = buckets["V1"]
        assert v1_bucket.num_models > 0
        assert v1_bucket.avg_latency_ms["V1"] <= v1_bucket.avg_latency_ms["V2"]

    def test_bucket_characteristics(self, measurements):
        buckets = winner_buckets(measurements)
        characteristics = bucket_characteristics(measurements, buckets["V1"])
        assert characteristics.num_models == buckets["V1"].num_models
        assert characteristics.avg_trainable_parameters > 0
        assert 0 <= characteristics.avg_conv3x3 <= 5

    def test_bucket_records_roundtrip(self, measurements):
        buckets = winner_buckets(measurements)
        records = bucket_records(measurements, buckets["V1"])
        assert len(records) == buckets["V1"].num_models

    def test_bucket_speedups_reference_winner(self, measurements):
        buckets = winner_buckets(measurements)
        speedups = bucket_speedups(buckets["V1"])
        assert speedups["V1"] == pytest.approx(1.0)
        assert all(value >= 1.0 - 1e-9 for value in speedups.values())

    def test_empty_bucket_characteristics_raise(self, measurements):
        buckets = winner_buckets(measurements)
        empty = [b for b in buckets.values() if b.num_models == 0]
        for bucket in empty:
            with pytest.raises(DatasetError):
                bucket_characteristics(measurements, bucket)


class TestStructure:
    def test_accuracy_by_depth_covers_population(self, dataset):
        stats = accuracy_by_structure(dataset, "depth")
        assert sum(group.count for group in stats) == len(dataset)
        assert all(0.0 <= group.mean <= 1.0 for group in stats)

    def test_latency_by_width(self, measurements):
        stats = latency_by_structure(measurements, "V2", "width")
        assert all(group.minimum <= group.median <= group.maximum for group in stats)

    def test_table7_parameters_by_depth(self, dataset):
        rows = parameters_by_depth(dataset)
        assert sum(row.num_models for row in rows) == len(dataset)
        assert all(row.avg_trainable_parameters > 0 for row in rows)
        depths = [row.depth for row in rows]
        assert depths == sorted(depths)


class TestOperations:
    def test_figure12_groups(self, measurements):
        groups = operation_count_vs_latency(measurements, "V1", "conv3x3")
        assert sum(group.num_models for group in groups) == len(measurements.dataset)
        assert all(group.min_latency_ms <= group.avg_latency_ms for group in groups)
        with pytest.raises(DatasetError):
            operation_count_vs_latency(measurements, "V1", "conv5x5")

    def test_figure12_annotations(self, measurements):
        best, worst = accuracy_annotations(measurements, "conv3x3")
        assert best.accuracy >= worst.accuracy
        assert best.accuracy == pytest.approx(0.95055)

    def test_figure13_latency_extremes(self, measurements):
        fastest, slowest = latency_extremes_for_conv_count(measurements, "V2", 5)
        assert fastest.latency_ms <= slowest.latency_ms
        assert fastest.record.metrics.num_conv3x3 == 5
        assert slowest.record.metrics.num_conv3x3 == 5

    def test_figure14_series_and_correlation(self, measurements):
        parameters, latencies = parameters_vs_latency(measurements, "V1")
        assert parameters.shape == latencies.shape
        correlation = latency_parameter_correlation(measurements, "V1")
        # The paper: latency is mostly proportional to trainable parameters.
        assert correlation > 0.75

    def test_figure14_crossover_bands(self, measurements):
        bands = crossover_analysis(measurements)
        assert sum(band.num_models for band in bands) == len(measurements.dataset)
        for band in bands:
            assert band.fastest_config == min(band.avg_latency_ms, key=band.avg_latency_ms.get)


class TestPareto:
    def test_figure5_scatter(self, measurements):
        points = accuracy_latency_scatter(measurements, "V3")
        assert all(point.accuracy >= 0.70 for point in points)
        assert len(points) <= len(measurements.dataset)

    def test_figure9_top5(self, measurements):
        entries = top_models_by_accuracy(measurements, k=5)
        assert len(entries) == 5
        accuracies = [entry.accuracy for entry in entries]
        assert accuracies == sorted(accuracies, reverse=True)
        assert entries[0].accuracy == pytest.approx(0.95055)
        assert entries[0].speedup_over_best_model["V1"] == pytest.approx(1.0)
        for entry in entries:
            assert entry.fastest_config == min(entry.latency_ms, key=entry.latency_ms.get)

    def test_frontier_is_monotone(self, measurements):
        frontier = latency_accuracy_frontier(measurements, "V1")
        accuracies = [point.accuracy for point in frontier]
        assert accuracies == sorted(accuracies)

    def test_topk_requires_positive_k(self, measurements):
        with pytest.raises(DatasetError):
            top_models_by_accuracy(measurements, k=0)


class TestParetoFrontMask:
    def test_simple_frontier(self):
        latencies = np.array([1.0, 2.0, 3.0, 4.0])
        accuracies = np.array([0.5, 0.7, 0.6, 0.8])
        mask = pareto_front_mask(latencies, accuracies)
        assert mask.tolist() == [True, True, False, True]

    def test_latency_tie_keeps_only_most_accurate(self):
        # Regression: a dominated equal-latency point used to survive when it
        # appeared before the better point in input order.
        latencies = np.array([2.0, 2.0, 3.0])
        accuracies = np.array([0.6, 0.9, 0.95])
        mask = pareto_front_mask(latencies, accuracies)
        assert mask.tolist() == [False, True, True]
        # ... and regardless of input order.
        mask_reversed = pareto_front_mask(latencies[::-1].copy(), accuracies[::-1].copy())
        assert mask_reversed.tolist() == [True, True, False]

    def test_exact_duplicates_keep_first_occurrence(self):
        latencies = np.array([1.0, 1.0, 2.0])
        accuracies = np.array([0.8, 0.8, 0.9])
        mask = pareto_front_mask(latencies, accuracies)
        assert mask.tolist() == [True, False, True]

    def test_all_tied_latency_single_survivor(self):
        latencies = np.full(5, 3.0)
        accuracies = np.array([0.1, 0.5, 0.9, 0.4, 0.2])
        mask = pareto_front_mask(latencies, accuracies)
        assert mask.tolist() == [False, False, True, False, False]

    def test_empty_and_shape_validation(self):
        assert pareto_front_mask(np.zeros(0), np.zeros(0)).tolist() == []
        with pytest.raises(DatasetError):
            pareto_front_mask(np.zeros(3), np.zeros(4))
        with pytest.raises(DatasetError):
            pareto_front_mask(np.zeros((2, 2)), np.zeros((2, 2)))

    def test_front_never_contains_dominated_pairs(self, measurements):
        latencies = measurements.latencies("V2")
        accuracies = measurements.dataset.accuracies()
        front_latency = latencies[pareto_front_mask(latencies, accuracies)]
        front_accuracy = accuracies[pareto_front_mask(latencies, accuracies)]
        for i in range(len(front_latency)):
            dominated = (
                (front_latency <= front_latency[i])
                & (front_accuracy >= front_accuracy[i])
                & ((front_latency < front_latency[i]) | (front_accuracy > front_accuracy[i]))
            )
            assert not dominated.any()

    def test_pareto_front_indices_sorted_by_latency(self, measurements):
        indices = pareto_front_indices(measurements, "V1")
        frontier = latency_accuracy_frontier(measurements, "V1")
        assert [point.model_index for point in frontier] == list(indices)
        latencies = measurements.latencies("V1")[indices]
        assert latencies.tolist() == sorted(latencies.tolist())


class TestMeasurementSubsetRoundTrip:
    """mask/records/latencies of a subset stay aligned with the parent set."""

    def test_subset_alignment(self, measurements):
        mask = measurements.accuracy_mask(0.70)
        subset = measurements.subset(mask)
        records = subset.records()
        assert subset.size == len(records) == int(mask.sum())
        assert np.array_equal(subset.mask, mask)
        for name in measurements.config_names:
            latencies = subset.latencies(name)
            energies = subset.energies(name)
            assert len(latencies) == subset.size == len(energies)
            for position, record in enumerate(records):
                assert latencies[position] == measurements.latencies(name)[record.index]
                np.testing.assert_equal(
                    energies[position], measurements.energies(name)[record.index]
                )
        accuracies = subset.accuracies()
        for position, record in enumerate(records):
            assert accuracies[position] == record.mean_validation_accuracy
            assert record.mean_validation_accuracy >= 0.70

    def test_empty_and_full_masks(self, measurements):
        total = len(measurements.dataset)
        empty = measurements.subset(np.zeros(total, dtype=bool))
        assert empty.size == 0 and empty.records() == []
        full = measurements.subset(np.ones(total, dtype=bool))
        assert full.size == total
        np.testing.assert_array_equal(full.latencies("V1"), measurements.latencies("V1"))


class TestSwaps:
    def test_swap_operations_relabels_vertices(self):
        swapped = swap_operations(BEST_ACCURACY_CELL, CONV3X3, CONV1X1)
        assert swapped is not None
        assert swapped.op_count(CONV3X3) == 0
        assert swapped.op_count(CONV1X1) == BEST_ACCURACY_CELL.op_count(CONV3X3)

    def test_swap_without_occurrence_returns_none(self):
        assert swap_operations(BEST_ACCURACY_CELL, MAXPOOL3X3, CONV1X1) is None
        assert swap_operations(BEST_ACCURACY_CELL, CONV3X3, CONV3X3) is None

    def test_swap_rejects_non_interior_ops(self):
        with pytest.raises(ValueError):
            swap_operations(BEST_ACCURACY_CELL, "input", CONV1X1)

    def test_figure15_matrix_signs(self, dataset):
        records = dataset.records[:40]
        matrix = operation_swap_matrix(records, EDGE_TPU_V2, max_models=40)
        # Replacing a 1x1 convolution by a 3x3 convolution increases latency...
        assert matrix.change_ms(CONV1X1, CONV3X3) > 0
        assert matrix.change_percent(CONV1X1, CONV3X3) > 0
        # ... and the reverse replacement decreases it.
        assert matrix.change_ms(CONV3X3, CONV1X1) < 0
        # Max-pool to 3x3 convolution also increases latency.
        assert matrix.change_ms(MAXPOOL3X3, CONV3X3) > 0
        # The diagonal is zero by definition.
        assert matrix.change_ms(CONV3X3, CONV3X3) == 0.0

    def test_figure15_subsampling_is_deterministic(self, dataset):
        records = dataset.records[:30]
        a = operation_swap_matrix(records, EDGE_TPU_V2, max_models=10, seed=3)
        b = operation_swap_matrix(records, EDGE_TPU_V2, max_models=10, seed=3)
        assert a.change_ms(CONV1X1, CONV3X3) == pytest.approx(b.change_ms(CONV1X1, CONV3X3))

    def test_figure15_vectorized_matches_scalar_reference(self, dataset):
        records = dataset.records[:15]
        matrix = operation_swap_matrix(records, EDGE_TPU_V2)
        oracle = PerformanceSimulator(EDGE_TPU_V2)

        def latency(cell):
            return oracle.simulate(build_network(cell)).latency_ms

        baselines = [latency(record.cell) for record in records]
        pairs = [(a, b) for a in SWAP_OPERATIONS for b in SWAP_OPERATIONS if a != b]
        assert set(matrix.impacts) == set(pairs)
        for pair in pairs:
            deltas, percents = [], []
            for record, baseline in zip(records, baselines):
                swapped = swap_operations(record.cell, *pair)
                if swapped is not None:
                    deltas.append(latency(swapped) - baseline)
                    percents.append(100.0 * deltas[-1] / baseline)
            impact = matrix.impacts[pair]
            assert impact.num_swaps == len(deltas) > 0, pair
            assert impact.avg_change_ms == pytest.approx(np.mean(deltas), rel=1e-9, abs=1e-12), pair
            assert impact.avg_change_percent == pytest.approx(
                np.mean(percents), rel=1e-9, abs=1e-12
            ), pair
