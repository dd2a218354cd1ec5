"""Tests for the performance simulator: latency, energy and batch evaluation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import EDGE_TPU_V1, EDGE_TPU_V2, EDGE_TPU_V3, STUDIED_CONFIGS
from repro.errors import SimulationError
from repro.nasbench import (
    BEST_ACCURACY_CELL,
    NASBenchDataset,
    SHALLOW_CONV_HEAVY_CELL,
    build_network,
    random_cell,
)
from repro.simulator import BatchSimulator, MeasurementSet, PerformanceSimulator


@pytest.fixture(scope="module")
def best_network():
    return build_network(BEST_ACCURACY_CELL)


@pytest.fixture(scope="module")
def small_network():
    return build_network(SHALLOW_CONV_HEAVY_CELL)


class TestSingleModelSimulation:
    def test_latency_and_energy_are_positive(self, best_network):
        for config in STUDIED_CONFIGS.values():
            result = PerformanceSimulator(config).simulate(best_network)
            assert result.latency_ms > 0
            assert result.total_cycles > 0
            if result.energy_mj is not None:
                assert result.energy_mj > 0

    def test_v3_has_no_energy_model(self, small_network):
        result = PerformanceSimulator(EDGE_TPU_V3).simulate(small_network)
        assert result.energy_mj is None
        assert not result.energy_available

    def test_larger_model_takes_longer_and_more_energy(self, best_network, small_network):
        simulator = PerformanceSimulator(EDGE_TPU_V1)
        big = simulator.simulate(best_network)
        small = simulator.simulate(small_network)
        assert big.latency_ms > small.latency_ms
        assert big.energy_mj > small.energy_mj

    def test_layer_results_collected_on_demand(self, small_network):
        detailed = PerformanceSimulator(EDGE_TPU_V2, collect_layer_results=True).simulate(
            small_network
        )
        assert len(detailed.layer_results) == small_network.num_layers
        assert sum(layer.energy_mj for layer in detailed.layer_results) <= detailed.energy_mj
        summary_only = PerformanceSimulator(EDGE_TPU_V2).simulate(small_network)
        assert summary_only.layer_results == ()
        assert summary_only.latency_ms == pytest.approx(detailed.latency_ms)

    def test_mismatched_compiled_model_rejected(self, small_network):
        from repro.compiler import compile_model

        compiled_for_v1 = compile_model(small_network, EDGE_TPU_V1)
        with pytest.raises(SimulationError):
            PerformanceSimulator(EDGE_TPU_V2).simulate_compiled(compiled_for_v1)


class TestModelingTrends:
    """First-order behaviours the paper's conclusions rely on."""

    def test_parameter_caching_never_hurts(self, best_network, small_network):
        for config in STUDIED_CONFIGS.values():
            for network in (best_network, small_network):
                cached = PerformanceSimulator(config, enable_parameter_caching=True)
                streamed = PerformanceSimulator(config, enable_parameter_caching=False)
                assert (
                    cached.simulate(network).latency_ms
                    <= streamed.simulate(network).latency_ms + 1e-9
                )

    def test_more_bandwidth_never_hurts(self, best_network):
        slow = EDGE_TPU_V2.with_overrides(name="V2-slow", io_bandwidth_gbps=8.0)
        fast = EDGE_TPU_V2.with_overrides(name="V2-fast", io_bandwidth_gbps=64.0)
        assert (
            PerformanceSimulator(fast).simulate(best_network).latency_ms
            <= PerformanceSimulator(slow).simulate(best_network).latency_ms
        )

    def test_higher_clock_reduces_latency(self, small_network):
        slow = EDGE_TPU_V2.with_overrides(name="V2-600", clock_mhz=600.0)
        fast = EDGE_TPU_V2.with_overrides(name="V2-1600", clock_mhz=1600.0)
        assert (
            PerformanceSimulator(fast).simulate(small_network).latency_ms
            < PerformanceSimulator(slow).simulate(small_network).latency_ms
        )

    def test_small_model_fully_cached_everywhere(self, small_network):
        for config in STUDIED_CONFIGS.values():
            result = PerformanceSimulator(config).simulate(small_network)
            assert result.fully_cached

    def test_large_model_streams_weights_on_v2(self, best_network):
        result = PerformanceSimulator(EDGE_TPU_V2).simulate(best_network)
        assert not result.fully_cached
        assert result.streamed_weight_bytes > 0.5 * result.total_weight_bytes

    def test_best_model_ordering_matches_table4(self, best_network):
        latencies = {
            name: PerformanceSimulator(config).simulate(best_network).latency_ms
            for name, config in STUDIED_CONFIGS.items()
        }
        # Paper Table 4: V2 fastest, then V3, then V1 for the best-accuracy model.
        assert latencies["V2"] < latencies["V3"] < latencies["V1"]

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_energy_exceeds_static_floor(self, seed):
        network = build_network(random_cell(np.random.default_rng(seed)))
        result = PerformanceSimulator(EDGE_TPU_V1).simulate(network)
        assert result.energy_mj > 0
        assert result.latency_ms > 0


class TestBatchEvaluation:
    def test_measurement_set_alignment(self, dataset, measurements):
        assert isinstance(measurements, MeasurementSet)
        assert set(measurements.config_names) == {"V1", "V2", "V3"}
        for name in measurements.config_names:
            assert len(measurements.latencies(name)) == len(dataset)

    def test_energy_availability_per_config(self, measurements):
        assert measurements.has_energy("V1")
        assert measurements.has_energy("V2")
        assert not measurements.has_energy("V3")

    def test_record_accessors(self, dataset, measurements):
        record = dataset[0]
        assert measurements.latency_of(record, "V1") == measurements.latencies("V1")[0]
        assert measurements.energy_of(record, "V3") is None

    def test_best_config_per_model(self, measurements):
        winners = measurements.best_config_per_model()
        assert len(winners) == len(measurements.dataset)
        assert set(winners) <= {"V1", "V2", "V3"}

    def test_subset_masking(self, measurements):
        mask = measurements.accuracy_mask(0.70)
        subset = measurements.subset(mask)
        assert subset.size == int(mask.sum())
        assert len(subset.latencies("V1")) == subset.size
        assert len(subset.records()) == subset.size

    def test_subset_shape_mismatch_rejected(self, measurements):
        with pytest.raises(SimulationError):
            measurements.subset(np.ones(3, dtype=bool))

    def test_empty_config_list_rejected(self, dataset):
        with pytest.raises(SimulationError):
            BatchSimulator().evaluate(dataset, configs=[])

    def test_caching_ablation_changes_results(self):
        small = NASBenchDataset.generate(num_models=10, seed=2)
        with_cache = BatchSimulator().evaluate(small, configs=[EDGE_TPU_V1])
        without_cache = BatchSimulator(enable_parameter_caching=False).evaluate(
            small, configs=[EDGE_TPU_V1]
        )
        assert without_cache.latencies("V1").mean() >= with_cache.latencies("V1").mean()


class TestMeasurementSetValidation:
    """Regression: both array dicts are validated, not just latencies."""

    def _arrays(self, dataset):
        n = len(dataset)
        return (
            {"V1": np.ones(n), "V2": np.ones(n)},
            {"V1": np.ones(n), "V2": np.full(n, np.nan)},
        )

    def test_consistent_arrays_accepted(self, dataset):
        latencies, energies = self._arrays(dataset)
        measurements = MeasurementSet(dataset, latencies, energies)
        assert set(measurements.config_names) == {"V1", "V2"}

    def test_mismatched_latency_length_rejected(self, dataset):
        latencies, energies = self._arrays(dataset)
        latencies["V1"] = latencies["V1"][:-1]
        with pytest.raises(SimulationError, match="latency array for V1"):
            MeasurementSet(dataset, latencies, energies)

    def test_mismatched_energy_length_rejected(self, dataset):
        # Previously passed silently and exploded later during masking.
        latencies, energies = self._arrays(dataset)
        energies["V2"] = energies["V2"][:-1]
        with pytest.raises(SimulationError, match="energy array for V2"):
            MeasurementSet(dataset, latencies, energies)

    def test_missing_energy_config_rejected(self, dataset):
        latencies, energies = self._arrays(dataset)
        del energies["V2"]
        with pytest.raises(SimulationError, match="different configurations"):
            MeasurementSet(dataset, latencies, energies)

    def test_extra_energy_config_rejected(self, dataset):
        latencies, energies = self._arrays(dataset)
        energies["V3"] = np.full(len(dataset), np.nan)
        with pytest.raises(SimulationError, match="different configurations"):
            MeasurementSet(dataset, latencies, energies)


class RecordingCallback:
    """Collects ``(config_name, done, total)`` progress ticks."""

    def __init__(self):
        self.ticks = []

    def __call__(self, config_name, done, total):
        self.ticks.append((config_name, done, total))


class TestProgressReporting:
    @pytest.fixture(scope="class")
    def tiny(self):
        return NASBenchDataset.generate(num_models=12, seed=6)

    def test_vectorized_strategy_emits_final_tick(self, tiny):
        recorder = RecordingCallback()
        BatchSimulator().evaluate(
            tiny, configs=[EDGE_TPU_V1, EDGE_TPU_V2], progress_callback=recorder
        )
        assert recorder.ticks == [("V1", 12, 12), ("V2", 12, 12)]
