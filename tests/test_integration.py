"""End-to-end integration tests: the paper's qualitative findings hold.

These tests exercise the whole pipeline (dataset generation -> compilation ->
simulation -> analysis -> learned model) and assert the qualitative results
the paper reports, rather than unit-level behaviour.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    EDGE_TPU_V1,
    BatchSimulator,
    NASBenchDataset,
    PerformanceSimulator,
    build_network,
)
from repro.analysis import (
    crossover_analysis,
    summarize_all,
    winner_buckets,
)
from repro.core import LearnedPerformanceModel, TrainingSettings
from repro.nasbench import (
    BEST_ACCURACY_CELL,
    DEEP_CONV_HEAVY_CELL,
    SECOND_BEST_ACCURACY_CELL,
    SHALLOW_CONV_HEAVY_CELL,
)


class TestPaperFindings:
    def test_table3_average_latency_ordering(self, measurements):
        """Paper Table 3: V1 has the lowest average latency, V3 the highest."""
        summaries = summarize_all(measurements)
        assert (
            summaries["V1"].avg_latency_ms
            < summaries["V2"].avg_latency_ms
            <= summaries["V3"].avg_latency_ms
        )

    def test_table3_minimum_latency_on_high_clock_configs(self, measurements):
        """Paper Table 3: the smallest models run fastest on V2/V3, not V1."""
        summaries = summarize_all(measurements)
        assert summaries["V2"].min_latency.value <= summaries["V1"].min_latency.value

    def test_table5_v1_wins_most_models(self, measurements):
        """Paper Table 5: the V1 bucket holds the large majority of models."""
        buckets = winner_buckets(measurements)
        assert buckets["V1"].num_models > 0.7 * len(measurements.dataset)

    def test_table5_v2_bucket_holds_large_models(self, measurements):
        """Paper Table 5/6: the V2-won models are the large, slow ones."""
        buckets = winner_buckets(measurements)
        if buckets["V2"].num_models == 0:
            pytest.skip("sample contains no V2-won models")
        v1_bucket_latency = buckets["V1"].avg_latency_ms["V1"]
        v2_bucket_latency = buckets["V2"].avg_latency_ms["V2"]
        assert v2_bucket_latency > v1_bucket_latency

    def test_figure14_crossover(self, measurements):
        """Paper Figure 14: V1 wins the mid-size band, V2 wins the largest band."""
        bands = crossover_analysis(measurements, band_edges=(0.0, 2e6, 5e6, 30e6, 1e9))
        by_band = {band.lower_parameters: band for band in bands}
        mid_band = by_band.get(5e6)
        large_band = by_band.get(30e6)
        if mid_band is not None:
            assert mid_band.fastest_config == "V1"
        if large_band is not None:
            assert large_band.fastest_config == "V2"

    def test_figure6_energy_crossover(self, measurements):
        """Paper Figure 6: V2 is the more energy-efficient class on small models."""
        parameters = measurements.dataset.parameter_counts()
        small = parameters < 3e6
        v1_energy = np.nanmean(measurements.energies("V1")[small])
        v2_energy = np.nanmean(measurements.energies("V2")[small])
        assert v2_energy < v1_energy

    def test_figure7_and_8_latency_trends(self):
        """Paper Figures 7/8: V2 wins the best-accuracy model, V1 the runner-up."""
        latencies = {}
        for name in ("V1", "V2", "V3"):
            from repro import get_config

            simulator = PerformanceSimulator(get_config(name))
            latencies[name] = {
                "best": simulator.simulate(build_network(BEST_ACCURACY_CELL)).latency_ms,
                "second": simulator.simulate(
                    build_network(SECOND_BEST_ACCURACY_CELL)
                ).latency_ms,
            }
        # Figure 7: V2 yields the lowest latency for the highest-accuracy model.
        assert latencies["V2"]["best"] < latencies["V1"]["best"]
        assert latencies["V2"]["best"] < latencies["V3"]["best"]
        # Figure 8: the runner-up favours V1 and is much faster than the best model.
        assert latencies["V1"]["second"] < latencies["V2"]["second"]
        assert latencies["V1"]["second"] < 0.6 * latencies["V1"]["best"]

    def test_figure13_shallow_vs_deep_conv_heavy_cells(self):
        """Paper Figure 13: same op multiset, very different latency by depth."""
        simulator = PerformanceSimulator(EDGE_TPU_V1)
        shallow = simulator.simulate(build_network(SHALLOW_CONV_HEAVY_CELL)).latency_ms
        deep = simulator.simulate(build_network(DEEP_CONV_HEAVY_CELL)).latency_ms
        assert deep > 5 * shallow

    def test_parameter_caching_is_the_v1_advantage(self, measurements):
        """Disabling parameter caching erases V1's average-latency lead."""
        dataset = NASBenchDataset.generate(num_models=40, seed=77)
        cached = BatchSimulator().evaluate(dataset)
        uncached = BatchSimulator(enable_parameter_caching=False).evaluate(dataset)
        cached_gap = cached.latencies("V2").mean() - cached.latencies("V1").mean()
        uncached_gap = uncached.latencies("V2").mean() - uncached.latencies("V1").mean()
        assert cached_gap > uncached_gap

    def test_learned_model_end_to_end(self, dataset, measurements):
        """A small learned model reaches useful rank correlation on held-out data."""
        cells = [record.cell for record in dataset.records]
        latencies = measurements.latencies("V1")
        model = LearnedPerformanceModel(
            "V1",
            TrainingSettings(epochs=40, batch_size=16, learning_rate=3e-3, seed=1),
        )
        model.fit(cells, latencies)
        report = model.evaluate("test")
        assert report.spearman > 0.55
        assert report.average_accuracy > 0.4
        # Prediction is orders of magnitude faster than simulation and positive.
        prediction = model.predict_cell(BEST_ACCURACY_CELL)
        assert prediction > 0
