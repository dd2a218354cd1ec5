"""Tests for the hardware-aware architecture search subsystem.

Covers the mutation layer (validity, budgets, dedup), the Pareto archive
(dominance, hypervolume, persistence), the search engine (determinism, the
evolution/predictor > random regression at fixed budget, store-backed
resumption).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.analysis import ParetoArchive, hypervolume_2d
from repro.core import TrainingSettings
from repro.errors import DatasetError, SearchError
from repro.nasbench import (
    MAX_EDGES,
    MAX_VERTICES,
    Cell,
    CONV1X1,
    CONV3X3,
    INPUT,
    OUTPUT,
    hashing,
    mutate_cell,
    mutate_unique,
    random_cell,
    swap_op,
)
from repro.search import STRATEGIES, SearchEngine, SearchSpec
from repro.service import MeasurementStore


def small_spec(strategy: str, **overrides) -> SearchSpec:
    """The pinned micro-budget spec shared by the engine tests.

    The 0.92 accuracy floor makes the objective discriminative (at the
    paper's 0.70 floor a latency-minimal feasible cell is found by random
    sampling almost immediately) while staying well below the 0.9485 generic
    accuracy ceiling.
    """
    parameters = dict(
        strategy=strategy,
        population_size=12,
        generations=5,
        seed=7,
        tournament_size=4,
        pool_factor=3,
        min_accuracy=0.92,
        predictor_settings=TrainingSettings(epochs=4),
    )
    parameters.update(overrides)
    return SearchSpec(**parameters)


# --------------------------------------------------------------------------- #
# Mutation layer
# --------------------------------------------------------------------------- #
class TestMutation:
    def test_mutants_are_valid_pruned_and_in_budget(self):
        rng = np.random.default_rng(0)
        cell = random_cell(rng)
        for _ in range(200):
            cell = mutate_cell(cell, rng)
            assert cell.is_valid()
            assert cell.num_vertices <= MAX_VERTICES
            assert cell.num_edges <= MAX_EDGES
            assert cell.prune().num_vertices == cell.num_vertices

    def test_mutation_always_changes_the_model(self):
        rng = np.random.default_rng(1)
        cell = random_cell(rng)
        for _ in range(50):
            assert mutate_cell(cell, rng) != cell

    def test_mutation_respects_tighter_budgets(self):
        rng = np.random.default_rng(2)
        cell = random_cell(rng, max_vertices=5, max_edges=6)
        for _ in range(100):
            cell = mutate_cell(cell, rng, max_vertices=5, max_edges=6)
            assert cell.num_vertices <= 5
            assert cell.num_edges <= 6

    def test_swap_op_relabels_one_interior_vertex(self):
        cell = Cell([[0, 1, 0], [0, 0, 1], [0, 0, 0]], [INPUT, CONV3X3, OUTPUT])
        swapped = swap_op(cell, np.random.default_rng(0))
        assert swapped.matrix == cell.matrix
        assert swapped.interior_ops != cell.interior_ops

    def test_trivial_cell_has_no_swap_or_removal(self):
        trivial = Cell([[0, 1], [0, 0]], [INPUT, OUTPUT])
        # Only edge_flip (invalid: removes the sole edge) applies among these
        # two kinds, so the driver must give up cleanly.
        with pytest.raises(DatasetError):
            mutate_cell(
                trivial,
                np.random.default_rng(0),
                kinds=("op_swap", "vertex_remove"),
            )

    def test_mutate_unique_rejects_seen_models(self):
        rng = np.random.default_rng(3)
        cell = random_cell(rng)
        seen = {cell}
        for _ in range(30):
            mutant = mutate_unique(cell, rng, seen)
            assert mutant not in seen
            seen.add(mutant)

    def test_mutate_unique_raises_when_neighborhood_is_exhausted(self):
        chain = Cell([[0, 1, 0], [0, 0, 1], [0, 0, 0]], [INPUT, CONV1X1, OUTPUT])
        rng = np.random.default_rng(4)
        # Only op swaps are allowed, so the neighborhood has two models.
        seen = {chain, swap_op(chain, rng), swap_op(chain, rng)}
        for _ in range(10):
            seen.add(swap_op(chain, rng))
        with pytest.raises(DatasetError, match="already seen"):
            mutate_unique(chain, rng, seen, kinds=("op_swap",), max_attempts=10)


# --------------------------------------------------------------------------- #
# Pareto archive
# --------------------------------------------------------------------------- #
def _cell_for(op: str, *more_ops: str) -> Cell:
    ops = (op, *more_ops)
    n = len(ops) + 2
    matrix = np.zeros((n, n), dtype=int)
    for i in range(n - 1):
        matrix[i, i + 1] = 1
    return Cell(matrix, (INPUT, *ops, OUTPUT))


class TestParetoArchive:
    def test_hypervolume_2d_exact_value(self):
        costs = np.array([1.0, 2.0])
        accuracies = np.array([0.5, 0.8])
        # Boxes: (3-1)*(0.5-0) + (3-2)*(0.8-0.5) = 1.0 + 0.3
        assert hypervolume_2d(costs, accuracies, 3.0, 0.0) == pytest.approx(1.3)

    def test_hypervolume_ignores_dominated_and_out_of_box_points(self):
        costs = np.array([1.0, 2.0, 1.5, 10.0])
        accuracies = np.array([0.5, 0.8, 0.4, 0.1])  # third dominated, fourth out
        assert hypervolume_2d(costs, accuracies, 3.0, 0.0) == pytest.approx(1.3)

    def test_update_keeps_only_the_non_dominated_set(self):
        archive = ParetoArchive(ref_cost=10.0)
        a, b, c = _cell_for(CONV3X3), _cell_for(CONV1X1), _cell_for(CONV3X3, CONV1X1)
        assert archive.update(a, cost=2.0, accuracy=0.8)
        assert archive.update(b, cost=1.0, accuracy=0.7)  # trade-off: kept
        assert not archive.update(c, cost=2.5, accuracy=0.75)  # dominated by a
        assert len(archive) == 2
        # A point dominating `a` evicts it.
        assert archive.update(c, cost=1.5, accuracy=0.9)
        assert len(archive) == 2
        assert a not in archive and b in archive and c in archive

    def test_duplicate_and_non_finite_points_are_rejected(self):
        archive = ParetoArchive(ref_cost=10.0)
        cell = _cell_for(CONV3X3)
        assert archive.update(cell, cost=1.0, accuracy=0.8)
        assert not archive.update(cell, cost=0.5, accuracy=0.9)  # same model
        assert not archive.update(_cell_for(CONV1X1), cost=np.inf, accuracy=0.9)

    def test_checkpoint_history_is_monotone(self):
        rng = np.random.default_rng(5)
        archive = ParetoArchive(ref_cost=5.0)
        for generation in range(6):
            cell = random_cell(rng)
            archive.update(
                cell,
                cost=float(rng.uniform(0.1, 4.9)),
                accuracy=float(rng.uniform(0.5, 0.95)),
                generation=generation,
            )
            archive.checkpoint()
        history = archive.hypervolume_history
        assert len(history) == 6
        assert all(b >= a for a, b in zip(history, history[1:]))

    def test_save_load_round_trip(self, tmp_path):
        archive = ParetoArchive(ref_cost=10.0, ref_accuracy=0.1)
        archive.update(_cell_for(CONV3X3), cost=2.0, accuracy=0.8, generation=1)
        archive.update(_cell_for(CONV1X1), cost=1.0, accuracy=0.7, generation=2)
        archive.checkpoint()
        path = archive.save(tmp_path / "archive.npz")
        loaded = ParetoArchive.load(path)
        assert loaded.ref_cost == archive.ref_cost
        assert loaded.ref_accuracy == archive.ref_accuracy
        assert loaded.hypervolume_history == archive.hypervolume_history
        assert [e.fingerprint for e in loaded.entries] == [e.fingerprint for e in archive.entries]
        assert [e.cell for e in loaded.entries] == [e.cell for e in archive.entries]
        assert loaded.hypervolume() == pytest.approx(archive.hypervolume())

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(DatasetError, match="no archive file"):
            ParetoArchive.load(tmp_path / "absent.npz")


# --------------------------------------------------------------------------- #
# Spec validation
# --------------------------------------------------------------------------- #
class TestSearchSpec:
    def test_rejects_unknown_strategy_and_metric(self):
        with pytest.raises(SearchError):
            SearchSpec(strategy="annealing")
        with pytest.raises(SearchError):
            SearchSpec(metric="area")

    def test_rejects_degenerate_budgets(self):
        with pytest.raises(SearchError):
            SearchSpec(population_size=1)
        with pytest.raises(SearchError):
            SearchSpec(generations=0)
        with pytest.raises(SearchError):
            SearchSpec(pool_factor=1)
        with pytest.raises(SearchError):
            SearchSpec(strategy="predictor", population_size=8)

    def test_rejects_an_edge_budget_no_random_draw_fits(self):
        with pytest.raises(SearchError, match="at least 2 edges"):
            SearchSpec(max_edges=1)

    def test_smallest_budget_searches_its_whole_space(self, tmp_path):
        # Three vertices and two edges: the 0 -> 1 cell and one chain per op.
        spec = small_spec("random", max_vertices=3, max_edges=2, population_size=2, generations=2)
        result = SearchEngine(spec, store=MeasurementStore(tmp_path, shard_size=2)).run()
        assert len({record.fingerprint for record in result.dataset}) == 4

    def test_energy_objective_requires_an_energy_model(self):
        with pytest.raises(SearchError, match="no energy model"):
            SearchEngine(small_spec("evolution", metric="energy", config_name="V3"))

    def test_simulation_budget(self):
        assert small_spec("random").simulation_budget == 60


# --------------------------------------------------------------------------- #
# Engine behavior
# --------------------------------------------------------------------------- #
class TestSearchEngine:
    def test_runs_are_deterministic(self):
        a = SearchEngine(small_spec("evolution", generations=3)).run()
        b = SearchEngine(small_spec("evolution", generations=3)).run()
        assert a.best_objective == b.best_objective
        assert [r.fingerprint for r in a.dataset] == [r.fingerprint for r in b.dataset]
        assert [g.hypervolume for g in a.generations] == [g.hypervolume for g in b.generations]

    def test_budget_is_respected_and_history_unique(self):
        result = SearchEngine(small_spec("random")).run()
        assert result.num_evaluated == result.spec.simulation_budget
        fingerprints = [record.fingerprint for record in result.dataset]
        assert len(fingerprints) == len(set(fingerprints))
        assert len(result.generations) == result.spec.generations

    def test_best_objective_meets_the_accuracy_floor(self):
        result = SearchEngine(small_spec("evolution")).run()
        assert np.isfinite(result.best_objective)
        assert result.best_accuracy >= result.spec.min_accuracy
        assert result.best_objective == result.measurements.latencies("V1")[result.best_index]

    def test_hypervolume_trajectory_is_monotone(self):
        result = SearchEngine(small_spec("evolution")).run()
        history = [row.hypervolume for row in result.generations]
        assert history == result.archive.hypervolume_history
        assert all(b >= a for a, b in zip(history, history[1:]))

    def test_evolution_and_predictor_beat_random_at_equal_budget(self):
        """The acceptance regression: same seed, same simulation budget,
        same accuracy floor — both informed strategies must find a strictly
        faster feasible model than the random baseline."""
        best = {
            strategy: SearchEngine(small_spec(strategy)).run().best_objective
            for strategy in STRATEGIES
        }
        assert np.isfinite(best["random"])
        assert best["evolution"] < best["random"]
        assert best["predictor"] < best["random"]

    def test_killed_search_resumes_with_only_missing_generations(self, tmp_path):
        spec = small_spec("evolution")
        partial = dataclasses.replace(spec, generations=2)
        SearchEngine(
            partial, store=MeasurementStore(tmp_path, shard_size=spec.population_size)
        ).run()

        resumed_store = MeasurementStore(tmp_path, shard_size=spec.population_size)
        resumed = SearchEngine(spec, store=resumed_store).run()
        # Exactly the generations the killed run never reached are simulated.
        assert resumed_store.stats.pairs_simulated == spec.generations - 2

        fresh = SearchEngine(spec).run()
        assert resumed.best_objective == fresh.best_objective
        assert [r.fingerprint for r in resumed.dataset] == [r.fingerprint for r in fresh.dataset]

        # A second full run over the warm store is a pure replay.
        replay_store = MeasurementStore(tmp_path, shard_size=spec.population_size)
        replay = SearchEngine(spec, store=replay_store).run()
        assert replay_store.stats.pairs_simulated == 0
        assert replay.best_objective == fresh.best_objective

    def test_predictor_search_resumes_too(self, tmp_path):
        spec = small_spec("predictor", generations=4)
        partial = dataclasses.replace(spec, generations=3)
        SearchEngine(
            partial, store=MeasurementStore(tmp_path, shard_size=spec.population_size)
        ).run()
        store = MeasurementStore(tmp_path, shard_size=spec.population_size)
        resumed = SearchEngine(spec, store=store).run()
        assert store.stats.pairs_simulated == 1
        assert resumed.best_objective == SearchEngine(spec).run().best_objective

    def test_misaligned_store_shards_are_rejected(self, tmp_path):
        store = MeasurementStore(tmp_path, shard_size=5)
        with pytest.raises(SearchError, match="shard size"):
            SearchEngine(small_spec("evolution"), store=store)

    def test_parameter_caching_mismatch_is_rejected(self, tmp_path):
        store = MeasurementStore(tmp_path, shard_size=12, enable_parameter_caching=False)
        with pytest.raises(SearchError, match="parameter"):
            SearchEngine(small_spec("evolution"), store=store)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_no_form_is_hashed_twice_in_one_run(self, strategy, monkeypatch, tmp_path):
        spec = small_spec(strategy)
        store = MeasurementStore(tmp_path, shard_size=spec.population_size)
        engine = SearchEngine(spec, store=store)
        hashed = []
        hash_graph = hashing.hash_graph

        def recording(matrix, labels):
            hashed.append((tuple(map(tuple, matrix)), tuple(labels)))
            return hash_graph(matrix, labels)

        monkeypatch.setattr(hashing, "hash_graph", recording)
        engine.run()
        assert hashed
        assert len(hashed) == len(set(hashed))

    def test_summary_lines_render(self):
        result = SearchEngine(small_spec("random", generations=2)).run()
        lines = result.summary_lines()
        assert len(lines) == 2 + result.spec.generations
        assert "random" in lines[0]
