"""Fused compile-and-time kernel: parity with the scalar oracle, duals vs FD.

Two layers of guarantees:

* **parity** — the fused single-pass kernel must reproduce the scalar
  :class:`~repro.simulator.PerformanceSimulator` to 1e-9 relative in both
  parameter-caching modes, on a grid including the three mutated designs
  covering the clock / geometry / cache-fraction axes, and its results must
  not depend on the config chunk size;
* **forward-mode sensitivities vs central finite differences** — the clock
  dual against the *real* pipeline re-run at perturbed clocks, the SRAM dual
  against the relaxed frozen-plan model it differentiates (``sram_scale``),
  both at 1e-6 relative tolerance.
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
        result = compile_and_time_table(
            fused_table, PARITY_CONFIGS, enable_parameter_caching=caching
        )
        for index, config in enumerate(PARITY_CONFIGS):
            oracle = PerformanceSimulator(config, enable_parameter_caching=caching)
            scalar = [oracle.simulate(network) for network in fused_networks]
            np.testing.assert_allclose(
                result.latency_ms[index], [r.latency_ms for r in scalar], rtol=1e-9
            )
            energy = [np.nan if r.energy_mj is None else r.energy_mj for r in scalar]
            np.testing.assert_allclose(result.energy_mj[index], energy, rtol=1e-9)

    @pytest.mark.parametrize("chunk", [1, 3, 1000])
    def test_chunking_does_not_change_results(self, fused_table, chunk):
        baseline = compile_and_time_table(fused_table, PARITY_CONFIGS)
        chunked = compile_and_time_table(fused_table, PARITY_CONFIGS, config_chunk=chunk)
        np.testing.assert_array_equal(chunked.latency_ms, baseline.latency_ms)
        np.testing.assert_array_equal(chunked.energy_mj, baseline.energy_mj)

    def test_batch_simulator_routes_grid_through_fused_by_default(self, fused_table):
        latency, energy = BatchSimulator().evaluate_table_grid(fused_table, PARITY_CONFIGS)
        result = compile_and_time_table(fused_table, PARITY_CONFIGS)
        np.testing.assert_array_equal(latency, result.latency_ms)
        np.testing.assert_array_equal(energy, result.energy_mj)


class TestSensitivities:
    def test_disabled_by_default(self, fused_table):
        result = compile_and_time_table(fused_table, PARITY_CONFIGS)
        assert result.dlatency_dclock_ghz is None
        assert result.dlatency_dsram_byte is None

    def test_clock_dual_matches_finite_difference(self, fused_table):
        result = compile_and_time_table(fused_table, MUTATED_CONFIGS, sensitivities=True)
        simulator = BatchSimulator()
        h_mhz = 0.05  # +- 50 kHz around each design's clock
        for index, config in enumerate(MUTATED_CONFIGS):
            plus, _ = simulator.evaluate_table(
                fused_table, config.with_overrides(clock_mhz=config.clock_mhz + h_mhz)
            )
            minus, _ = simulator.evaluate_table(
                fused_table, config.with_overrides(clock_mhz=config.clock_mhz - h_mhz)
            )
            fd = (plus - minus) / (2.0 * h_mhz * 1e-3)  # per GHz
            np.testing.assert_allclose(
                result.dlatency_dclock_ghz[index], fd, rtol=1e-6, atol=1e-9
            )

    @pytest.mark.parametrize("caching", [True, False])
    def test_sram_dual_matches_relaxed_model_finite_difference(self, fused_table, caching):
        result = compile_and_time_table(
            fused_table, MUTATED_CONFIGS, enable_parameter_caching=caching, sensitivities=True
        )
        h = 1e-4
        plus = compile_and_time_table(
            fused_table, MUTATED_CONFIGS, enable_parameter_caching=caching, sram_scale=1.0 + h
        )
        minus = compile_and_time_table(
            fused_table, MUTATED_CONFIGS, enable_parameter_caching=caching, sram_scale=1.0 - h
        )
        fd_per_scale = (plus.latency_ms - minus.latency_ms) / (2.0 * h)
        total_bytes = np.array(
            [config.total_on_chip_memory_bytes for config in MUTATED_CONFIGS], dtype=np.float64
        )
        analytic_per_scale = result.dlatency_dsram_byte * total_bytes[:, None]
        np.testing.assert_allclose(analytic_per_scale, fd_per_scale, rtol=1e-6, atol=1e-12)
        if not caching:
            # With caching disabled the streamed plan is frozen: the relaxed
            # model must report zero SRAM response, not a phantom gradient.
            assert not analytic_per_scale.any()

    def test_clock_dual_is_nonpositive_and_sram_dual_mostly_zero_or_negative(self, fused_table):
        # More clock or more SRAM never makes a frozen-plan design slower.
        result = compile_and_time_table(fused_table, PARITY_CONFIGS, sensitivities=True)
        assert (result.dlatency_dclock_ghz <= 0.0).all()
        assert (result.dlatency_dsram_byte <= 0.0).all()

    def test_frontier_sensitivity_report(self, fused_dataset):
        from repro.hwspace import HardwareFrontier, SensitivityPoint

        frontier = HardwareFrontier(fused_dataset)
        points = frontier.sensitivity_report(MUTATED_CONFIGS)
        assert len(points) == len(MUTATED_CONFIGS)
        summaries = frontier.summarize(MUTATED_CONFIGS)
        for point, summary in zip(points, summaries):
            assert isinstance(point, SensitivityPoint)
            assert point.digest == summary.digest
            assert point.num_models == summary.num_models
            np.testing.assert_allclose(point.mean_latency_ms, summary.mean_latency_ms, rtol=1e-12)
            assert point.mean_dlatency_dclock_ghz <= 0.0
            assert point.mean_dlatency_dsram_mib <= 0.0
            assert 0.0 <= point.sram_sensitive_fraction <= 1.0
