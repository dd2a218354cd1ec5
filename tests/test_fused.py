"""Fused compile-and-time kernel: parity with the scalar oracle.

The fused single-pass kernel must reproduce the scalar
:class:`~repro.simulator.PerformanceSimulator` to 1e-9 relative in both
parameter-caching modes, on a grid including three mutated designs covering
the clock / geometry / cache-fraction axes; its results must not depend on
the config chunk size, and :class:`~repro.simulator.BatchSimulator` must
route its grid through it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch import EDGE_TPU_V1, EDGE_TPU_V2, STUDIED_CONFIGS
from repro.nasbench import NASBenchDataset
from repro.nasbench.layer_table import LayerTable
from repro.simulator import BatchSimulator, PerformanceSimulator, compile_and_time_table

#: Studied classes plus three mutated designs (clock, geometry, cache axes).
MUTATED_CONFIGS = [
    EDGE_TPU_V1.with_overrides(name="hw-fast-clock", clock_mhz=1250.0),
    EDGE_TPU_V1.with_overrides(name="hw-wide-grid", pes_x=8, pes_y=2, compute_lanes=32),
    EDGE_TPU_V2.with_overrides(
        name="hw-small-cache", pe_memory_cache_fraction=0.25, cores_per_pe=2
    ),
]
PARITY_CONFIGS = list(STUDIED_CONFIGS.values()) + MUTATED_CONFIGS


@pytest.fixture(scope="module")
def fused_dataset():
    return NASBenchDataset.generate(num_models=24, seed=17)


@pytest.fixture(scope="module")
def fused_networks(fused_dataset):
    return [record.build_network(fused_dataset.network_config) for record in fused_dataset]


@pytest.fixture(scope="module")
def fused_table(fused_networks):
    return LayerTable.from_networks(fused_networks)


class TestFusedParity:
    @pytest.mark.parametrize("caching", [True, False])
    def test_fused_matches_scalar_oracle(self, fused_networks, fused_table, caching):
        latency, energy = compile_and_time_table(
            fused_table, PARITY_CONFIGS, enable_parameter_caching=caching
        )
        for index, config in enumerate(PARITY_CONFIGS):
            oracle = PerformanceSimulator(config, enable_parameter_caching=caching)
            scalar = [oracle.simulate(network) for network in fused_networks]
            np.testing.assert_allclose(latency[index], [r.latency_ms for r in scalar], rtol=1e-9)
            expected = [np.nan if r.energy_mj is None else r.energy_mj for r in scalar]
            np.testing.assert_allclose(energy[index], expected, rtol=1e-9)

    @pytest.mark.parametrize("chunk", [1, 3, 1000])
    def test_chunking_does_not_change_results(self, fused_table, chunk):
        latency, energy = compile_and_time_table(fused_table, PARITY_CONFIGS)
        chunked_latency, chunked_energy = compile_and_time_table(
            fused_table, PARITY_CONFIGS, config_chunk=chunk
        )
        np.testing.assert_array_equal(chunked_latency, latency)
        np.testing.assert_array_equal(chunked_energy, energy)

    def test_batch_simulator_routes_grid_through_fused_by_default(self, fused_table):
        latency, energy = BatchSimulator().evaluate_table_grid(fused_table, PARITY_CONFIGS)
        fused_latency, fused_energy = compile_and_time_table(fused_table, PARITY_CONFIGS)
        np.testing.assert_array_equal(latency, fused_latency)
        np.testing.assert_array_equal(energy, fused_energy)
