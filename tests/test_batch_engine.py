"""Equivalence tests: vectorized batch engine vs the scalar simulator.

The batch engine must reproduce the scalar :class:`PerformanceSimulator`
results within 1e-9 relative tolerance (in practice the only difference is
the float reduction order of per-layer sums) across all three studied
configurations, with and without parameter caching, including the model
input/output DRAM extras charged to the first and last layer.  Property
tests extend the comparison to configurations drawn over the hardware,
batch and bit-width axes, and check metamorphic relations of the cost model.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import STUDIED_CONFIGS, AcceleratorConfig, energy_parameters_for
from repro.arch.config import KIB, MIB, scaled_bytes
from repro.compiler import (
    compile_model,
    map_layer_table,
    plan_cache_table,
    plan_parameter_cache,
)
from repro.errors import CompilationError
from repro.nasbench import (
    LayerSpec,
    LayerTable,
    NASBenchDataset,
    build_network,
    random_cell,
)
from repro.simulator import BatchSimulator, MeasurementSet, PerformanceSimulator
from test_frontend_equivalence import valid_cells

RTOL = 1e-9
CONFIG_NAMES = ("V1", "V2", "V3")

#: Cells as the dataset samples them, one per drawn seed.
SAMPLED_CELLS = st.integers(min_value=0, max_value=10**6).map(
    lambda seed: random_cell(np.random.default_rng(seed))
)


@st.composite
def accelerator_configs(draw):
    """A valid configuration drawn over the hardware, batch and bit-width axes.

    The name decides energy availability: "V3" has no energy model.
    """
    return AcceleratorConfig(
        name=draw(st.sampled_from(("hw-drawn", "V3"))),
        clock_mhz=draw(st.floats(200.0, 2000.0)),
        pes_x=draw(st.integers(1, 8)),
        pes_y=draw(st.integers(1, 8)),
        pe_memory_bytes=draw(st.integers(64 * KIB, 4 * MIB)),
        cores_per_pe=draw(st.integers(1, 8)),
        core_memory_bytes=draw(st.integers(4 * KIB, 64 * KIB)),
        compute_lanes=draw(st.integers(8, 128)),
        io_bandwidth_gbps=draw(st.floats(1.0, 64.0)),
        pe_memory_cache_fraction=draw(st.floats(0.0, 1.0)),
        batch_size=draw(st.integers(1, 8)),
        weight_bits=draw(st.integers(1, 32)),
        activation_bits=draw(st.integers(1, 32)),
    )


@pytest.fixture(scope="module")
def population():
    """A 200-model random population (fresh seed, distinct from conftest's)."""
    return NASBenchDataset.generate(num_models=200, seed=20220902)


def scalar_sweep(dataset, enable_caching):
    """The oracle sweep: one ``PerformanceSimulator.simulate`` per model and config."""
    networks = [record.build_network(dataset.network_config) for record in dataset]
    latencies, energies = {}, {}
    for name in CONFIG_NAMES:
        oracle = PerformanceSimulator(
            STUDIED_CONFIGS[name], enable_parameter_caching=enable_caching
        )
        results = [oracle.simulate(network) for network in networks]
        latencies[name] = np.array([result.latency_ms for result in results])
        energies[name] = np.array(
            [np.nan if result.energy_mj is None else result.energy_mj for result in results]
        )
    return MeasurementSet(dataset, latencies, energies)


class TestLayerTable:
    def test_matches_layer_spec_properties(self, population):
        network = population[0].build_network(population.network_config)
        table = network.to_layer_table()
        assert table.num_models == 1
        assert table.num_layers == len(network.layers)
        for row, layer in enumerate(network.layers):
            assert table.output_height[row] == layer.output_height
            assert table.output_width[row] == layer.output_width
            assert table.macs[row] == layer.macs
            assert table.weight_bytes[row] == layer.weight_bytes
            assert table.input_activation_bytes[row] == layer.input_activation_bytes
            assert table.output_activation_bytes[row] == layer.output_activation_bytes
            assert table.is_mac[row] == (layer.kind in ("conv", "projection", "dense"))

    def test_unsupported_kind_rejected(self):
        spec = LayerSpec(
            name="bad/avgpool",
            kind="avgpool",
            input_height=8,
            input_width=8,
            in_channels=16,
            out_channels=16,
        )
        with pytest.raises(CompilationError, match="avgpool"):
            LayerTable.from_specs((spec,))

    def test_non_positive_channels_rejected(self):
        spec = LayerSpec(
            name="bad/conv",
            kind="conv",
            input_height=8,
            input_width=8,
            in_channels=0,
            out_channels=16,
        )
        with pytest.raises(CompilationError, match="non-positive channel counts"):
            LayerTable.from_specs((spec,))

    def test_from_networks_segments(self, population):
        networks = [
            record.build_network(population.network_config)
            for record in population.records[:5]
        ]
        table = LayerTable.from_networks(networks)
        assert table.num_models == 5
        assert list(np.diff(table.model_offsets)) == [len(n.layers) for n in networks]
        # Segment reductions line up with per-network totals.
        np.testing.assert_array_equal(
            table.segment_sum(table.macs), [n.total_macs for n in networks]
        )
        np.testing.assert_array_equal(
            table.segment_sum(table.weight_bytes),
            [n.total_weight_bytes for n in networks],
        )


class TestCompiledTableEquivalence:
    @pytest.mark.parametrize("enable_caching", [True, False])
    @pytest.mark.parametrize("config_name", CONFIG_NAMES)
    def test_cache_plan_matches_scalar(self, population, config_name, enable_caching):
        config = STUDIED_CONFIGS[config_name]
        networks = [
            record.build_network(population.network_config)
            for record in population.records[:25]
        ]
        table = LayerTable.from_networks(networks)
        cache = plan_cache_table(table, config, enable_caching=enable_caching)
        for index, network in enumerate(networks):
            plan = plan_parameter_cache(network.layers, config, enable_caching=enable_caching)
            rows = table.model_slice(index)
            assert cache.capacity_bytes[index] == plan.capacity_bytes
            assert cache.effective_capacity_bytes[index] == plan.effective_capacity_bytes
            assert cache.total_weight_bytes[index] == plan.total_weight_bytes
            assert cache.cached_bytes[index] == plan.cached_bytes
            streamed = cache.streamed_bytes[rows]
            for layer, layer_streamed in zip(network.layers, streamed):
                assert layer_streamed == plan.streamed_bytes_by_layer.get(layer.name, 0)

    @pytest.mark.parametrize("config_name", CONFIG_NAMES)
    def test_mapping_matches_scalar_compile(self, population, config_name):
        config = STUDIED_CONFIGS[config_name]
        network = population[3].build_network(population.network_config)
        compiled_scalar = compile_model(network, config)
        table = network.to_layer_table()
        mapping = map_layer_table(table, config)
        streamed = plan_cache_table(table, config).streamed_bytes
        cached = scaled_bytes(table.weight_bytes, config.weight_bits) - streamed
        for row, layer in enumerate(compiled_scalar.layers):
            assert mapping.row(row) == layer.mapping
            assert streamed[row] == layer.streamed_weight_bytes
            assert cached[row] == layer.cached_weight_bytes


class TestBatchSimulatorEquivalence:
    @pytest.mark.parametrize("enable_caching", [True, False])
    def test_population_sweep_matches_scalar(self, population, enable_caching):
        scalar = scalar_sweep(population, enable_caching)
        batch = BatchSimulator(enable_parameter_caching=enable_caching).evaluate(population)
        for name in CONFIG_NAMES:
            np.testing.assert_allclose(batch.latencies(name), scalar.latencies(name), rtol=RTOL)
            np.testing.assert_allclose(
                batch.energies(name), scalar.energies(name), rtol=RTOL, equal_nan=True
            )

    def test_v3_energy_unavailable(self, population):
        batch = BatchSimulator().evaluate(population)
        assert not batch.has_energy("V3")
        assert batch.has_energy("V1") and batch.has_energy("V2")

    def test_first_and_last_layer_io_extras_are_charged(self, population):
        """Single-model check that the model I/O DRAM extras are included."""
        network = population[7].build_network(population.network_config)
        for name in CONFIG_NAMES:
            config = STUDIED_CONFIGS[name]
            scalar = PerformanceSimulator(config).simulate(network)
            latency, energy = BatchSimulator().evaluate_table(network.to_layer_table(), config)
            assert latency[0] == pytest.approx(scalar.latency_ms, rel=RTOL)
            if scalar.energy_mj is None:
                assert np.isnan(energy[0])
            else:
                assert energy[0] == pytest.approx(scalar.energy_mj, rel=RTOL)

    @settings(max_examples=30, deadline=None)
    @given(
        cell=st.one_of(valid_cells(), SAMPLED_CELLS),
        config=accelerator_configs(),
        caching=st.booleans(),
    )
    def test_random_cells_property(self, cell, config, caching):
        """Any drawn or sampled cell on any valid config times identically on both paths.

        Drawn cells reach what sampling never does: two vertices, and
        vertices that pruning removes.
        """
        network = build_network(cell)
        configs = [config] + [c for c in STUDIED_CONFIGS.values() if c.name != config.name]
        simulator = BatchSimulator(enable_parameter_caching=caching)
        latency, energy = simulator.evaluate_table_grid(network.to_layer_table(), configs)
        for index, grid_config in enumerate(configs):
            oracle = PerformanceSimulator(grid_config, enable_parameter_caching=caching)
            scalar = oracle.simulate(network)
            assert latency[index, 0] == pytest.approx(scalar.latency_ms, rel=RTOL)
            if scalar.energy_mj is None:
                assert np.isnan(energy[index, 0])
            else:
                assert energy[index, 0] == pytest.approx(scalar.energy_mj, rel=RTOL)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        config=accelerator_configs(),
        caching=st.booleans(),
        factor=st.floats(1.01, 4.0),
        extra_batch=st.integers(1, 7),
    )
    def test_metamorphic_relations(self, seed, config, caching, factor, extra_batch):
        """More clock or I/O never slows a model; a bigger batch never speeds it."""
        rng = np.random.default_rng(seed)
        table = LayerTable.from_architectures([random_cell(rng) for _ in range(4)])
        variants = [
            config,
            config.with_overrides(name="faster-clock", clock_mhz=config.clock_mhz * factor),
            config.with_overrides(
                name="wider-io", io_bandwidth_gbps=config.io_bandwidth_gbps * factor
            ),
            config.with_overrides(name="bigger-batch", batch_size=config.batch_size + extra_batch),
        ]
        simulator = BatchSimulator(enable_parameter_caching=caching)
        latency, energy = simulator.evaluate_table_grid(table, variants)
        assert (latency[1] <= latency[0]).all()
        assert (latency[2] <= latency[0]).all()
        assert (latency[3] >= latency[0]).all()
        available = energy_parameters_for(config).available
        assert np.isnan(energy[0]).all() == (not available)
        assert np.isfinite(energy[0]).all() == available


class TestFacade:
    """Edge cases of ``BatchSimulator.evaluate``, the one in-memory sweep."""

    def test_empty_dataset_yields_empty_measurements(self, population):
        empty = NASBenchDataset((), population.network_config)
        measurements = BatchSimulator().evaluate(empty)
        assert measurements.config_names == list(CONFIG_NAMES)
        for name in CONFIG_NAMES:
            assert measurements.latencies(name).shape == (0,)

    def test_progress_callback_reports_each_config(self, population):
        seen = []
        BatchSimulator().evaluate(
            population,
            progress_callback=lambda name, done, total: seen.append((name, done, total)),
        )
        assert seen == [(name, len(population), len(population)) for name in CONFIG_NAMES]
