"""Tests for the accelerator design-space exploration subsystem."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import ParetoArchive
from repro.arch import EDGE_TPU_V1, EDGE_TPU_V2, MIB
from repro.errors import InvalidConfigError, SearchError
from repro.hwspace import (
    AcceleratorSpace,
    CoSearchEngine,
    HardwareFrontier,
    config_digest,
    pair_key,
    studied_baselines,
)
from repro.hwspace.frontier import ConfigPoint
from repro.nasbench import NASBenchDataset
from repro.search import SearchSpec
from repro.service import MeasurementStore

AXES = {
    "clock_mhz": [800.0, 1066.0],
    "pes_x": [2, 4],
    "compute_lanes": [32, 64],
}


@pytest.fixture(scope="module")
def space():
    return AcceleratorSpace(AXES)


@pytest.fixture(scope="module")
def small_dataset():
    return NASBenchDataset.generate(num_models=30, seed=9)


class TestAcceleratorSpace:
    def test_size_and_enumeration(self, space):
        configs = list(space.enumerate())
        assert space.size == len(configs) == 8
        assert len({config.name for config in configs}) == 8
        # Deterministic order: a second enumeration is identical.
        assert [c.name for c in space.enumerate()] == [c.name for c in configs]

    def test_grid_points_route_through_with_overrides(self, space):
        for config in space.enumerate():
            assert config.name == f"hw-{config_digest(config)}"
            assert config in space
            # Non-axis fields come from the base configuration.
            assert config.pe_memory_bytes == EDGE_TPU_V1.pe_memory_bytes
            assert config.io_bandwidth_gbps == EDGE_TPU_V1.io_bandwidth_gbps

    def test_digest_stable_across_axis_order_and_base_name(self):
        reordered = AcceleratorSpace(
            {
                "compute_lanes": [64, 32],
                "pes_x": [4, 2],
                "clock_mhz": [1066.0, 800.0],
            }
        )
        assert reordered.digest == AcceleratorSpace(AXES).digest
        renamed_base = AcceleratorSpace(AXES, base=EDGE_TPU_V1.with_overrides(name="X"))
        assert renamed_base.digest == AcceleratorSpace(AXES).digest
        different = AcceleratorSpace({**AXES, "clock_mhz": [800.0, 1250.0]})
        assert different.digest != AcceleratorSpace(AXES).digest
        other_base = AcceleratorSpace(AXES, base=EDGE_TPU_V2)
        assert other_base.digest != AcceleratorSpace(AXES).digest

    def test_config_digest_ignores_name_only(self):
        renamed = EDGE_TPU_V1.with_overrides(name="renamed")
        assert config_digest(renamed) == config_digest(EDGE_TPU_V1)
        changed = EDGE_TPU_V1.with_overrides(clock_mhz=801.0)
        assert config_digest(changed) != config_digest(EDGE_TPU_V1)

    def test_invalid_grids_are_rejected(self):
        with pytest.raises(InvalidConfigError):
            AcceleratorSpace({})
        with pytest.raises(InvalidConfigError, match="'num_lanes'"):
            AcceleratorSpace({"num_lanes": [32]})
        with pytest.raises(InvalidConfigError, match="'name'"):
            AcceleratorSpace({"name": ["a"]})
        with pytest.raises(InvalidConfigError, match="no values"):
            AcceleratorSpace({"clock_mhz": []})
        with pytest.raises(InvalidConfigError, match="duplicate"):
            AcceleratorSpace({"pes_x": [2, 2]})
        with pytest.raises(InvalidConfigError, match="non-numeric"):
            AcceleratorSpace({"clock_mhz": ["fast"]})
        with pytest.raises(InvalidConfigError, match="integer"):
            AcceleratorSpace({"pes_x": [2.5]})
        # Values violating the AcceleratorConfig invariants fail eagerly.
        with pytest.raises(InvalidConfigError):
            AcceleratorSpace({"clock_mhz": [0.0]})
        with pytest.raises(InvalidConfigError):
            AcceleratorSpace({"pe_memory_cache_fraction": [1.5]})

    def test_sample_is_on_grid_and_seed_deterministic(self, space):
        first = space.sample(np.random.default_rng(4))
        again = space.sample(np.random.default_rng(4))
        assert first == again
        assert first in space

    def test_neighbors_are_one_step_moves(self, space):
        corner = space.at([0, 0, 0])
        moves = space.neighbors(corner)
        assert len(moves) == 3  # one step up per axis, nothing below the corner
        center_axes = {"clock_mhz": [700.0, 800.0, 900.0]}
        line = AcceleratorSpace(center_axes)
        middle = line.at([1])
        assert {config.clock_mhz for config in line.neighbors(middle)} == {700.0, 900.0}
        for move in moves:
            assert move in space
            differing = [
                field
                for field in space.axis_fields
                if getattr(move, field) != getattr(corner, field)
            ]
            assert len(differing) == 1

    def test_off_grid_configs_are_rejected(self, space):
        with pytest.raises(InvalidConfigError, match="not on the grid"):
            space.coordinates(EDGE_TPU_V1.with_overrides(clock_mhz=999.0))
        with pytest.raises(InvalidConfigError, match="not on the grid"):
            space.neighbors(EDGE_TPU_V2)
        assert EDGE_TPU_V2 not in space
        with pytest.raises(InvalidConfigError):
            space.at([0, 0])
        with pytest.raises(InvalidConfigError):
            space.at([0, 0, 5])


class TestHardwareFrontier:
    def test_summaries_match_measurements(self, space, small_dataset):
        frontier = HardwareFrontier(small_dataset)
        configs = list(space.enumerate())
        measurements = frontier.sweep(configs)
        points = frontier.summarize(configs, measurements)
        mask = small_dataset.accuracies() >= 0.70
        for point, config in zip(points, configs):
            latencies = measurements.latencies(config.name)[mask]
            assert point.mean_latency_ms == pytest.approx(float(latencies.mean()))
            assert point.median_latency_ms == pytest.approx(float(np.median(latencies)))
            assert point.num_models == int(mask.sum())
            assert point.peak_tops == pytest.approx(config.peak_tops)
            assert point.total_sram_mib == pytest.approx(config.total_on_chip_memory_bytes / MIB)

    def test_pareto_drops_dominated_points(self):
        def point(name, latency, tops):
            return ConfigPoint(
                config=EDGE_TPU_V1.with_overrides(name=name),
                digest=name,
                num_models=1,
                mean_latency_ms=latency,
                median_latency_ms=latency,
                mean_energy_mj=float("nan"),
                peak_tops=tops,
                total_sram_mib=1.0,
            )

        cheap_slow = point("a", 4.0, 5.0)
        costly_fast = point("b", 1.0, 20.0)
        dominated = point("c", 4.5, 20.0)  # slower and costlier than both
        front = HardwareFrontier.pareto([dominated, costly_fast, cheap_slow], cost="peak_tops")
        assert [p.digest for p in front] == ["b", "a"]

    def test_pareto_validates_axis_names(self):
        with pytest.raises(InvalidConfigError):
            HardwareFrontier.pareto([], metric="latency")
        with pytest.raises(InvalidConfigError):
            HardwareFrontier.pareto([], cost="area")

    def test_store_caching_mode_mismatch_is_rejected(self, small_dataset, tmp_path):
        store = MeasurementStore(tmp_path, enable_parameter_caching=True)
        with pytest.raises(InvalidConfigError, match="parameter caching"):
            HardwareFrontier(small_dataset, store=store, enable_parameter_caching=False)

    def test_store_backed_sweep_resumes(self, space, small_dataset, tmp_path):
        configs = list(space.enumerate())
        store = MeasurementStore(tmp_path, shard_size=15)
        frontier = HardwareFrontier(small_dataset, store=store)
        frontier.summarize(configs)
        assert store.stats.pairs_simulated == 2 * len(configs)
        warm_store = MeasurementStore(tmp_path, shard_size=15)
        warm = HardwareFrontier(small_dataset, store=warm_store)
        warm.summarize(configs)
        assert warm_store.stats.pairs_simulated == 0
        assert warm_store.stats.pairs_loaded == 2 * len(configs)

    def test_compacted_store_replays_identical_points(self, space, small_dataset, tmp_path):
        configs = list(space.enumerate())
        store = MeasurementStore(tmp_path, shard_size=15)
        cold = HardwareFrontier(small_dataset, store=store).summarize(configs)
        store.compact(small_dataset, configs=configs)
        assert list(tmp_path.glob("shard-compact-*.npy"))
        assert not list(tmp_path.glob("shard-*.npz"))
        replay_store = MeasurementStore(tmp_path, shard_size=15)
        replayed = HardwareFrontier(small_dataset, store=replay_store).summarize(configs)
        assert replay_store.stats.pairs_simulated == 0
        assert replay_store.stats.pairs_compacted == 2 * len(configs)
        assert replayed == cold


class TestCoSearch:
    def test_spec_validation(self, space):
        # The co-search runs on a SearchSpec and only as regularized evolution.
        for strategy in ("random", "predictor"):
            with pytest.raises(SearchError, match="regularized evolution"):
                CoSearchEngine(SearchSpec(strategy=strategy), space)

    def test_single_point_space_is_rejected(self):
        space = AcceleratorSpace({"clock_mhz": [800.0]})
        with pytest.raises(SearchError, match="single point"):
            CoSearchEngine(SearchSpec(), space)

    def test_archive_keys_pairs_not_cells(self):
        archive = ParetoArchive(ref_cost=10.0)
        cell_stub = NASBenchDataset.generate(num_models=1, seed=0)[0].cell
        assert archive.update(cell_stub, 5.0, 0.8, key="fp@hw-a")
        # Same cell on different hardware: a distinct, mutually
        # non-dominated point must coexist in the archive.
        assert archive.update(cell_stub, 3.0, 0.7, key="fp@hw-b")
        assert len(archive) == 2
        # Without a key the cell fingerprint still deduplicates.
        assert not archive.update(cell_stub, 5.0, 0.8, key="fp@hw-a")

    def test_run_spends_exact_budget_on_unique_pairs(self, space):
        spec = SearchSpec(population_size=8, generations=3, seed=5)
        result = CoSearchEngine(spec, space).run()
        assert len(result.pairs) == spec.simulation_budget
        keys = [record.key for record in result.pairs]
        assert len(set(keys)) == len(keys)
        for record in result.pairs:
            assert record.key == pair_key(record.cell, config_digest(record.config))
            assert record.config in space
        assert len(result.generations) == spec.generations
        hypervolumes = [row.hypervolume for row in result.generations]
        assert hypervolumes == sorted(hypervolumes)

    def test_run_is_deterministic_in_the_seed(self, space):
        spec = SearchSpec(population_size=8, generations=2, seed=13)
        first = CoSearchEngine(spec, space).run()
        second = CoSearchEngine(spec, space).run()
        assert [r.key for r in first.pairs] == [r.key for r in second.pairs]
        np.testing.assert_array_equal(first.objective, second.objective)

    def test_cosearch_dominates_a_studied_baseline_at_equal_budget(self):
        # The acceptance experiment: at the same simulation budget a joint
        # cell x hardware search must find a pair that Pareto-dominates at
        # least one of the fixed-hardware V1/V2/V3 winners.
        space = AcceleratorSpace(
            {
                "clock_mhz": [800.0, 1066.0, 1250.0],
                "pes_x": [2, 4, 8],
                "cores_per_pe": [2, 4],
                "compute_lanes": [32, 64],
            }
        )
        spec = SearchSpec(population_size=16, generations=6, seed=0, min_accuracy=0.92)
        result = CoSearchEngine(spec, space).run()
        baselines = studied_baselines(spec)
        assert set(baselines) == {"V1", "V2", "V3"}
        assert any(result.dominates(cost, accuracy) for cost, accuracy in baselines.values())
        # The joint winner is also strictly faster than every single-axis
        # winner (the hardware axis buys raw latency).
        assert result.best_objective < min(cost for cost, _ in baselines.values())

    def test_summary_lines_render(self, space):
        spec = SearchSpec(population_size=8, generations=2, seed=5)
        result = CoSearchEngine(spec, space).run()
        lines = result.summary_lines()
        assert "co-search" in lines[0]
        assert len(lines) == 2 + spec.generations

    def test_summary_lines_render_for_infeasible_runs(self, space):
        # The diagnostic table must render exactly when nothing was feasible.
        spec = SearchSpec(population_size=4, generations=1, min_accuracy=0.999)
        result = CoSearchEngine(spec, space).run()
        with pytest.raises(SearchError):
            _ = result.best_pair
        assert "no feasible pair" in result.summary_lines()[0]
