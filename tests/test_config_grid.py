"""Equivalence tests for the config-axis vectorized sweep.

The grid path (:meth:`BatchSimulator.evaluate_table_grid`, one
``(num_configs, num_layers)`` pass) must be **bit-for-bit** the per-config
loop (:meth:`BatchSimulator.evaluate_table`, one config at a time): a
configuration's row may not depend on the rest of the grid, so exact
equality — not a tolerance — is asserted throughout.  Agreement with the
scalar :class:`~repro.simulator.PerformanceSimulator`, the reference of the
fused kernel both calls run, is checked in ``test_batch_engine.py`` and
``test_fused.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch import (
    EDGE_TPU_V1,
    EDGE_TPU_V2,
    STUDIED_CONFIGS,
    ConfigTable,
)
from repro.compiler.param_cache import greedy_cache_assign
from repro.errors import InvalidConfigError
from repro.nasbench import NASBenchDataset
from repro.nasbench.layer_table import LayerTable
from repro.service import MeasurementStore
from repro.simulator import BatchSimulator

#: Three studied classes plus three mutated designs covering the clock,
#: geometry, lane and cache-fraction axes (>= 3 mutated configurations).
MUTATED_CONFIGS = [
    EDGE_TPU_V1.with_overrides(name="hw-fast-clock", clock_mhz=1250.0),
    EDGE_TPU_V1.with_overrides(
        name="hw-wide-grid", pes_x=8, pes_y=2, compute_lanes=32
    ),
    EDGE_TPU_V2.with_overrides(
        name="hw-small-cache", pe_memory_cache_fraction=0.25, cores_per_pe=2
    ),
]
GRID_CONFIGS = list(STUDIED_CONFIGS.values()) + MUTATED_CONFIGS


@pytest.fixture(scope="module")
def grid_dataset():
    return NASBenchDataset.generate(num_models=36, seed=11)


@pytest.fixture(scope="module")
def grid_table(grid_dataset):
    networks = [record.build_network(grid_dataset.network_config) for record in grid_dataset]
    return LayerTable.from_networks(networks)


class TestConfigTable:
    def test_columns_are_broadcastable(self):
        table = ConfigTable(GRID_CONFIGS)
        assert len(table) == len(GRID_CONFIGS)
        assert table.num_pes.shape == (len(GRID_CONFIGS), 1)
        assert table.macs_per_cycle.shape == (len(GRID_CONFIGS), 1)
        assert table.clock_hz.shape == (len(GRID_CONFIGS), 1)

    def test_derived_columns_match_scalar_properties(self):
        table = ConfigTable(GRID_CONFIGS)
        for index, config in enumerate(GRID_CONFIGS):
            assert table.row(index) is config
            assert int(table.num_pes[index, 0]) == config.num_pes
            assert int(table.macs_per_cycle[index, 0]) == config.macs_per_cycle
            assert float(table.peak_tops[index, 0]) == config.peak_tops
            assert (
                int(table.total_on_chip_memory_bytes[index, 0])
                == config.total_on_chip_memory_bytes
            )

    def test_rejects_empty_and_duplicate_names(self):
        with pytest.raises(InvalidConfigError):
            ConfigTable([])
        with pytest.raises(InvalidConfigError, match="V1"):
            ConfigTable([EDGE_TPU_V1, EDGE_TPU_V1])

    def test_from_configs_passes_through_tables(self):
        table = ConfigTable(GRID_CONFIGS)
        assert ConfigTable.from_configs(table) is table


class TestGridEquivalence:
    """Config-axis pass vs. the per-config loop: exact, both caching modes."""

    @pytest.mark.parametrize("caching", [True, False])
    def test_grid_matches_per_config_loop_bit_for_bit(self, grid_table, caching):
        simulator = BatchSimulator(enable_parameter_caching=caching)
        grid_latency, grid_energy = simulator.evaluate_table_grid(grid_table, GRID_CONFIGS)
        assert grid_latency.shape == (len(GRID_CONFIGS), grid_table.num_models)
        for index, config in enumerate(GRID_CONFIGS):
            latency, energy = simulator.evaluate_table(grid_table, config)
            np.testing.assert_array_equal(grid_latency[index], latency)
            np.testing.assert_array_equal(grid_energy[index], energy)

    def test_energy_rows_without_model_are_nan(self, grid_table):
        simulator = BatchSimulator()
        _, energy = simulator.evaluate_table_grid(grid_table, GRID_CONFIGS)
        names = [config.name for config in GRID_CONFIGS]
        v3 = names.index("V3")
        assert np.isnan(energy[v3]).all()
        for index, name in enumerate(names):
            if name != "V3":
                assert np.isfinite(energy[index]).all()

    @pytest.mark.parametrize("caching", [True, False])
    def test_evaluate_measurement_set_uses_grid_results(self, grid_dataset, caching):
        simulator = BatchSimulator(enable_parameter_caching=caching)
        measurements = simulator.evaluate(grid_dataset, configs=GRID_CONFIGS)
        networks = [record.build_network(grid_dataset.network_config) for record in grid_dataset]
        table = LayerTable.from_networks(networks)
        for config in GRID_CONFIGS:
            latency, energy = simulator.evaluate_table(table, config)
            np.testing.assert_array_equal(measurements.latencies(config.name), latency)
            np.testing.assert_array_equal(measurements.energies(config.name), energy)

    def test_store_extend_persists_grid_results(self, grid_dataset, grid_table, tmp_path):
        store = MeasurementStore(tmp_path, shard_size=12)
        simulator = BatchSimulator()
        measurements = store.extend(grid_dataset, configs=GRID_CONFIGS)
        assert store.stats.pairs_simulated == 3 * len(GRID_CONFIGS)
        for config in GRID_CONFIGS:
            latency, energy = simulator.evaluate_table(grid_table, config)
            np.testing.assert_array_equal(measurements.latencies(config.name), latency)
            np.testing.assert_array_equal(measurements.energies(config.name), energy)
        # A rerun over the warm store loads every pair and simulates nothing.
        warm = MeasurementStore(tmp_path, shard_size=12)
        warm.extend(grid_dataset, configs=GRID_CONFIGS)
        assert warm.stats.pairs_simulated == 0
        assert warm.stats.pairs_loaded == 3 * len(GRID_CONFIGS)


class TestBatchedGreedyCacheAssign:
    def test_batched_capacity_matches_per_row_scans(self, grid_table):
        capacities = np.array(
            [
                [0] * grid_table.num_models,
                [64 * 1024] * grid_table.num_models,
                [10**7] * grid_table.num_models,
            ],
            dtype=np.int64,
        )
        batched = greedy_cache_assign(grid_table.weight_bytes, grid_table.model_offsets, capacities)
        assert batched.shape == (3, len(grid_table))
        for row in range(3):
            single = greedy_cache_assign(
                grid_table.weight_bytes, grid_table.model_offsets, capacities[row]
            )
            np.testing.assert_array_equal(batched[row], single)
        assert not batched[0].any()
        assert batched[2].sum() > batched[1].sum()
