"""Tests for macro architecture spaces: specs, mutations, search, plumbing.

The acceptance anchors: a single-cell ``MacroSpec`` must be bit-for-bit
identical to the legacy ``build_network`` expansion (layers, parameters,
latency and energy, in both caching modes) for every famous cell; the
``NetworkConfig`` validator must name the offending field; macro evolution
must beat macro random sampling at an equal simulation budget on the pinned
seed; and macro records must flow through datasets, archives and the
co-search exactly like cells do.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.analysis import ParetoArchive
from repro.arch import get_config
from repro.errors import DatasetError, InvalidCellError, SearchError
from repro.hwspace import AcceleratorSpace, CoSearchEngine
from repro.nasbench import (
    CONV1X1,
    CONV3X3,
    FAMOUS_CELLS,
    INPUT,
    MAX_STAGE_DEPTH,
    MAX_STAGES,
    MAXPOOL3X3,
    OUTPUT,
    WIDTH_MULTIPLIERS,
    Cell,
    MacroSpec,
    NASBenchDataset,
    NetworkConfig,
    StageSpec,
    architecture_from_dict,
    architecture_to_dict,
    build_network,
    expand_architecture,
    mutate_macro,
    mutate_macro_unique,
    random_macro,
)
from repro.search import SearchEngine, SearchSpec
from repro.simulator import BatchSimulator

CELL_A = Cell(
    [[0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]],
    [INPUT, CONV3X3, CONV1X1, OUTPUT],
)
CELL_B = Cell(
    [[0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]],
    [INPUT, MAXPOOL3X3, CONV3X3, OUTPUT],
)


def two_stage_macro() -> MacroSpec:
    return MacroSpec(
        (
            StageSpec(CELL_A, depth=2, width_multiplier=1.0),
            StageSpec(CELL_B, depth=1, width_multiplier=2.0),
        )
    )


# --------------------------------------------------------------------------- #
# Validation
# --------------------------------------------------------------------------- #
class TestStageSpecValidation:
    def test_depth_bounds(self):
        with pytest.raises(InvalidCellError, match="depth"):
            StageSpec(CELL_A, depth=0)
        with pytest.raises(InvalidCellError, match="depth"):
            StageSpec(CELL_A, depth=MAX_STAGE_DEPTH + 1)
        with pytest.raises(InvalidCellError, match="depth"):
            StageSpec(CELL_A, depth=True)

    def test_multiplier_bounds(self):
        with pytest.raises(InvalidCellError, match="width_multiplier"):
            StageSpec(CELL_A, width_multiplier=0.0)
        with pytest.raises(InvalidCellError, match="width_multiplier"):
            StageSpec(CELL_A, width_multiplier=-1.5)
        with pytest.raises(InvalidCellError, match="width_multiplier"):
            StageSpec(CELL_A, width_multiplier=float("nan"))


class TestMacroSpecValidation:
    def test_needs_at_least_one_stage(self):
        with pytest.raises(InvalidCellError, match="stage"):
            MacroSpec(())

    def test_stage_count_cap(self):
        stages = tuple(StageSpec(CELL_A) for _ in range(MAX_STAGES + 1))
        with pytest.raises(InvalidCellError, match="stages"):
            MacroSpec(stages, image_size=1024)

    def test_image_size_must_survive_downsampling(self):
        stages = tuple(StageSpec(CELL_A) for _ in range(4))
        with pytest.raises(InvalidCellError, match="image size"):
            MacroSpec(stages, image_size=4)

    def test_named_field_errors(self):
        for field_name in ("stem_channels", "image_size", "image_channels", "num_classes"):
            with pytest.raises(InvalidCellError, match=field_name):
                MacroSpec((StageSpec(CELL_A),), **{field_name: 0})


class TestNetworkConfigValidation:
    """Satellite regression: every non-positive field is named in the error."""

    FIELDS = (
        "stem_channels",
        "num_stacks",
        "cells_per_stack",
        "image_size",
        "image_channels",
        "num_classes",
    )

    @pytest.mark.parametrize("field_name", FIELDS)
    def test_non_positive_is_rejected_by_name(self, field_name):
        with pytest.raises(InvalidCellError, match=field_name):
            NetworkConfig(**{field_name: 0})
        with pytest.raises(InvalidCellError, match=field_name):
            NetworkConfig(**{field_name: -3})

    @pytest.mark.parametrize("field_name", FIELDS)
    def test_non_integer_is_rejected_by_name(self, field_name):
        with pytest.raises(InvalidCellError, match=field_name):
            NetworkConfig(**{field_name: 1.5})


# --------------------------------------------------------------------------- #
# Fingerprints and identity
# --------------------------------------------------------------------------- #
class TestMacroFingerprint:
    def test_isomorphic_stage_cells_share_a_fingerprint(self):
        # A dangling vertex prunes away, so both forms are the same model.
        dangling = Cell(
            [[0, 1, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]],
            [INPUT, CONV3X3, CONV1X1, OUTPUT],
        )
        pruned = dangling.prune()
        assert dangling.fingerprint == pruned.fingerprint

        macro = MacroSpec((StageSpec(dangling, depth=2),))
        twin = MacroSpec((StageSpec(pruned, depth=2),))
        assert twin.fingerprint == macro.fingerprint
        assert twin == macro
        assert len({twin, macro}) == 1

    def test_depth_width_and_shape_change_the_fingerprint(self):
        base = two_stage_macro()
        deeper = MacroSpec(
            (base.stages[0], dataclasses.replace(base.stages[1], depth=2)),
        )
        wider = MacroSpec(
            (base.stages[0], dataclasses.replace(base.stages[1], width_multiplier=3.0)),
        )
        bigger_stem = MacroSpec(base.stages, stem_channels=base.stem_channels * 2)
        prints = {base.fingerprint, deeper.fingerprint, wider.fingerprint,
                  bigger_stem.fingerprint}
        assert len(prints) == 4

    def test_macro_never_equals_a_cell(self):
        single = MacroSpec((StageSpec(CELL_A),))
        assert single != CELL_A
        assert single.fingerprint != CELL_A.fingerprint


# --------------------------------------------------------------------------- #
# Serialization
# --------------------------------------------------------------------------- #
class TestSerialization:
    def test_macro_round_trip(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            macro = random_macro(rng)
            clone = MacroSpec.from_dict(macro.to_dict())
            assert clone == macro
            assert clone.fingerprint == macro.fingerprint

    def test_tagged_dispatch_round_trip(self):
        macro = two_stage_macro()
        assert architecture_to_dict(macro)["kind"] == "macro"
        assert architecture_from_dict(architecture_to_dict(macro)) == macro
        assert architecture_to_dict(CELL_A)["kind"] == "cell"
        assert architecture_from_dict(architecture_to_dict(CELL_A)) == CELL_A

    def test_untagged_payloads_are_cells(self):
        # Pre-macro serialization format: a bare cell dict with no tag.
        assert architecture_from_dict(CELL_A.to_dict()) == CELL_A

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidCellError, match="kind"):
            architecture_from_dict({"kind": "transformer"})


# --------------------------------------------------------------------------- #
# The acceptance anchor: single-cell macro == legacy expansion, bit for bit
# --------------------------------------------------------------------------- #
class TestLegacyEquivalence:
    @pytest.mark.parametrize("cell_name", sorted(FAMOUS_CELLS))
    @pytest.mark.parametrize("caching", [True, False])
    def test_famous_cells_simulate_identically(self, cell_name, caching):
        cell = FAMOUS_CELLS[cell_name]
        config = NetworkConfig()
        legacy = build_network(cell, config)
        macro = MacroSpec.from_network_config(cell, config)
        staged = macro.build_network()

        assert [dataclasses.astuple(layer) for layer in staged.layers] == [
            dataclasses.astuple(layer) for layer in legacy.layers
        ]
        assert staged.trainable_parameters == legacy.trainable_parameters

        simulator = BatchSimulator(enable_parameter_caching=caching)
        for accel in (get_config("V1"), get_config("V2")):
            legacy_lat, legacy_energy = simulator.evaluate_table(legacy.to_layer_table(), accel)
            macro_lat, macro_energy = simulator.evaluate_table(staged.to_layer_table(), accel)
            np.testing.assert_array_equal(macro_lat, legacy_lat)
            np.testing.assert_array_equal(macro_energy, legacy_energy)

    def test_non_default_backbones_match_too(self):
        config = NetworkConfig(stem_channels=64, num_stacks=2, cells_per_stack=1)
        for cell in FAMOUS_CELLS.values():
            legacy = build_network(cell, config)
            staged = MacroSpec.from_network_config(cell, config).build_network()
            assert [layer.name for layer in staged.layers] == [
                layer.name for layer in legacy.layers
            ]
            assert staged.trainable_parameters == legacy.trainable_parameters

    def test_expand_architecture_dispatch(self):
        config = NetworkConfig()
        macro = two_stage_macro()
        assert (
            expand_architecture(CELL_A, config).trainable_parameters
            == build_network(CELL_A, config).trainable_parameters
        )
        assert (
            expand_architecture(macro, config).trainable_parameters
            == macro.build_network().trainable_parameters
        )


# --------------------------------------------------------------------------- #
# Structure of the staged expansion
# --------------------------------------------------------------------------- #
class TestStagedExpansion:
    def test_per_stage_cells_and_depths_appear_in_layer_names(self):
        network = two_stage_macro().build_network()
        names = [layer.name for layer in network.layers]
        assert any(name.startswith("stack0/cell0/") for name in names)
        assert any(name.startswith("stack0/cell1/") for name in names)
        assert any(name.startswith("stack1/cell0/") for name in names)
        assert not any(name.startswith("stack1/cell1/") for name in names)
        assert "stack1/downsample" in names
        assert "stack0/downsample" not in names

    def test_width_schedule(self):
        macro = MacroSpec(
            (
                StageSpec(CELL_A, depth=1, width_multiplier=0.5),
                StageSpec(CELL_A, depth=1, width_multiplier=3.0),
            ),
            stem_channels=64,
        )
        assert macro.stage_channels == [32, 96]
        assert macro.total_cells == 2
        assert macro.num_stages == 2

    def test_heterogeneous_stages_differ_from_homogeneous(self):
        homogeneous = MacroSpec(
            (StageSpec(CELL_A, depth=1), StageSpec(CELL_A, depth=1))
        )
        heterogeneous = MacroSpec(
            (StageSpec(CELL_A, depth=1), StageSpec(CELL_B, depth=1))
        )
        assert (
            homogeneous.build_network().trainable_parameters
            != heterogeneous.build_network().trainable_parameters
        )


# --------------------------------------------------------------------------- #
# Macro mutations
# --------------------------------------------------------------------------- #
class TestMacroMutation:
    def test_mutants_are_valid_and_distinct(self):
        rng = np.random.default_rng(2)
        macro = random_macro(rng)
        for _ in range(100):
            child = mutate_macro(macro, rng)
            assert child.fingerprint != macro.fingerprint
            assert child.num_stages == macro.num_stages
            assert all(1 <= stage.depth <= MAX_STAGE_DEPTH for stage in child.stages)
            macro = child

    def test_width_steps_stay_on_the_ladder(self):
        rng = np.random.default_rng(3)
        macro = random_macro(rng)
        for _ in range(60):
            macro = mutate_macro(macro, rng, kinds=("stage_width",))
            assert all(
                stage.width_multiplier in WIDTH_MULTIPLIERS for stage in macro.stages
            )

    def test_depth_only_mutation_changes_exactly_one_stage_depth(self):
        rng = np.random.default_rng(4)
        macro = two_stage_macro()
        child = mutate_macro(macro, rng, kinds=("stage_depth",))
        depth_deltas = [
            abs(child.stages[i].depth - macro.stages[i].depth)
            for i in range(macro.num_stages)
        ]
        assert sorted(depth_deltas) == [0, 1]
        assert [stage.cell.fingerprint for stage in child.stages] == [
            stage.cell.fingerprint for stage in macro.stages
        ]

    def test_mutate_unique_respects_the_seen_set(self):
        rng = np.random.default_rng(5)
        macro = random_macro(rng)
        seen = {macro}
        for _ in range(30):
            child = mutate_macro_unique(macro, rng, seen)
            assert child not in seen
            seen.add(child)
            macro = child

    def test_exhausted_neighborhood_raises(self):
        rng = np.random.default_rng(6)
        macro = two_stage_macro()

        class Everything:
            def __contains__(self, item):
                return True

        with pytest.raises(DatasetError):
            mutate_macro_unique(macro, rng, Everything(), max_attempts=5)


# --------------------------------------------------------------------------- #
# Datasets of macro records
# --------------------------------------------------------------------------- #
class TestMacroDataset:
    def test_from_macros_dedups_and_dispatches(self):
        rng = np.random.default_rng(7)
        macros = [random_macro(rng) for _ in range(5)]
        dataset = NASBenchDataset.from_macros(macros + [macros[0]])
        assert len(dataset) == 5
        for record, macro in zip(dataset, macros):
            assert record.architecture is macro
            assert record.fingerprint == macro.fingerprint
            assert record.macro is macro
            assert (
                record.build_network().trainable_parameters
                == macro.build_network().trainable_parameters
            )
            assert macro in dataset

    def test_accuracy_keys_on_the_macro_fingerprint(self):
        # Same first-stage cell, different depth → different fingerprints →
        # independent surrogate noise draws (with the same structural terms).
        shallow = MacroSpec((StageSpec(CELL_A, depth=1),))
        deep = MacroSpec((StageSpec(CELL_A, depth=3),))
        dataset = NASBenchDataset.from_macros([shallow, deep])
        assert dataset[0].mean_validation_accuracy != dataset[1].mean_validation_accuracy

    def test_empty_input_rejected(self):
        with pytest.raises(DatasetError, match="macro"):
            NASBenchDataset.from_macros([])


# --------------------------------------------------------------------------- #
# Pareto archive round trip
# --------------------------------------------------------------------------- #
class TestMacroArchive:
    def test_save_load_round_trip_with_mixed_entries(self, tmp_path):
        archive = ParetoArchive(ref_cost=10.0)
        macro = two_stage_macro()
        assert archive.update(macro, 2.0, 0.9)
        assert archive.update(CELL_A, 1.0, 0.8)
        archive.checkpoint()
        path = tmp_path / "archive.npz"
        archive.save(path)

        loaded = ParetoArchive.load(path)
        by_print = {entry.fingerprint: entry for entry in loaded.entries}
        assert isinstance(by_print[macro.fingerprint].cell, MacroSpec)
        assert isinstance(by_print[CELL_A.fingerprint].cell, Cell)
        assert by_print[macro.fingerprint].cell == macro
        assert by_print[CELL_A.fingerprint].cell == CELL_A


# --------------------------------------------------------------------------- #
# Search over the macro space
# --------------------------------------------------------------------------- #
def macro_spec(strategy: str, **overrides) -> SearchSpec:
    """The pinned micro-budget macro search shared by the engine tests."""
    parameters = dict(
        strategy=strategy,
        arch_space="macro",
        population_size=8,
        generations=4,
        seed=1,
        tournament_size=4,
        min_accuracy=0.92,
    )
    parameters.update(overrides)
    return SearchSpec(**parameters)


class TestMacroSearch:
    def test_arch_space_is_validated(self):
        with pytest.raises(SearchError, match="architecture space"):
            SearchSpec(arch_space="mesh")

    def test_predictor_strategy_is_cell_only(self):
        with pytest.raises(SearchError, match="predictor"):
            SearchSpec(strategy="predictor", arch_space="macro")

    def test_macro_runs_are_deterministic(self):
        a = SearchEngine(macro_spec("evolution")).run()
        b = SearchEngine(macro_spec("evolution")).run()
        assert a.best_objective == b.best_objective
        assert [r.fingerprint for r in a.dataset] == [r.fingerprint for r in b.dataset]

    def test_population_is_macro_and_unique(self):
        result = SearchEngine(macro_spec("random")).run()
        assert all(record.macro is not None for record in result.dataset)
        fingerprints = [record.fingerprint for record in result.dataset]
        assert len(fingerprints) == len(set(fingerprints))
        assert result.num_evaluated == result.spec.simulation_budget

    def test_macro_evolution_beats_macro_random_at_equal_budget(self):
        """The acceptance regression, pinned on seed 1."""
        best = {
            strategy: SearchEngine(macro_spec(strategy)).run().best_objective
            for strategy in ("random", "evolution")
        }
        assert np.isfinite(best["random"])
        assert best["evolution"] < best["random"]

    def test_macro_search_resumes_from_a_store(self, tmp_path):
        from repro.service import MeasurementStore

        spec = macro_spec("evolution")
        partial = dataclasses.replace(spec, generations=2)
        SearchEngine(
            partial, store=MeasurementStore(tmp_path, shard_size=spec.population_size)
        ).run()
        store = MeasurementStore(tmp_path, shard_size=spec.population_size)
        resumed = SearchEngine(spec, store=store).run()
        assert store.stats.pairs_simulated == spec.generations - 2
        assert resumed.best_objective == SearchEngine(spec).run().best_objective


# --------------------------------------------------------------------------- #
# Co-search over macro × hardware pairs
# --------------------------------------------------------------------------- #
class TestMacroCoSearch:
    def test_macro_pairs_flow_through_the_joint_search(self):
        space = AcceleratorSpace({"pes_x": (4, 8), "batch_size": (1, 2)})
        spec = SearchSpec(population_size=4, generations=2, seed=1, arch_space="macro")
        result = CoSearchEngine(spec, space).run()
        assert len(result.pairs) == spec.simulation_budget
        assert all(isinstance(pair.cell, MacroSpec) for pair in result.pairs)
        for pair in result.pairs:
            fingerprint, _, digest = pair.key.partition("@")
            assert fingerprint == pair.cell.fingerprint
            assert digest
