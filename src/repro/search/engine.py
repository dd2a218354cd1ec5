"""Hardware-aware architecture search over the batch-sweep stack.

:class:`SearchEngine` closes the explore → evaluate → select loop the rest of
the repo only measures: candidate cells are proposed (randomly, by
regularized evolution, or by predictor-guided pre-screening), evaluated in
**one batched sweep per generation** through
:meth:`~repro.service.MeasurementStore.extend` (so every generation persists
before the next begins and a killed search resumes with only the missing
generations simulated), and selected against a scalarized objective — the
hardware metric, with models below the paper's accuracy floor penalized to
``inf``.  A :class:`~repro.analysis.ParetoArchive` tracks the multi-objective
frontier and its hypervolume per generation.

Determinism: every stochastic choice draws from a single
``numpy.random.Generator`` seeded by the spec, and each generation depends
only on the state before it, so the same spec always regenerates the same
generation sequence — which is exactly what makes store-backed resumption
exact (content-keyed shards of a rerun match the interrupted run's files).
"""

from __future__ import annotations

import tempfile
import time
from collections import deque
from typing import Callable, Iterable

import numpy as np

from .. import obs
from ..analysis.archive import ParetoArchive
from ..arch.config import get_config
from ..arch.energy import energy_parameters_for
from ..errors import DatasetError, SearchError
from ..nasbench.accuracy import SurrogateAccuracyModel
from ..nasbench.cell import Cell
from ..nasbench.dataset import ModelRecord, NASBenchDataset, model_record
from ..nasbench.generator import random_cell
from ..nasbench.macro import MacroSpec, random_macro
from ..nasbench.mutation import mutate_macro_unique, mutate_unique
from ..nasbench.network import NetworkConfig
from ..service.query import SweepService
from ..service.store import MeasurementStore
from .result import GenerationStats, SearchResult
from .spec import SearchSpec

#: Attempts at drawing an unseen random cell before the space is declared
#: exhausted (generous: collisions are rare outside tiny sub-spaces).
_RANDOM_ATTEMPTS = 500

#: Mutation draws per child before falling back to a fresh random cell.
_MUTATION_ATTEMPTS = 30

#: Selection score offset of infeasible models.  Any feasible cost (ms/mJ)
#: is smaller, so feasible models always outrank infeasible ones; among
#: infeasible models the accuracy deficit is added on top, giving tournament
#: selection a gradient *toward* the feasible region instead of the blind
#: tie an ``inf`` penalty would produce.
_INFEASIBLE_OFFSET = 1e6


def oracle_accuracy(
    arch: Cell | MacroSpec,
    network_config: NetworkConfig,
    accuracy_model: SurrogateAccuracyModel,
) -> float:
    """Oracle accuracy of *arch* (a cell expanded with *network_config*).

    The single accuracy lookup shared by the cell-only engine and the
    hardware co-search (the surrogate's parameter term depends on the
    macro-architecture, so the expansion must be part of the oracle).  It
    is the accuracy of the architecture's :func:`model_record`, so it
    always agrees with the recorded histories.
    """
    return model_record(arch, 0, network_config, accuracy_model).mean_validation_accuracy


def selection_scores(
    costs: np.ndarray, accuracies: np.ndarray, min_accuracy: float
) -> np.ndarray:
    """Soft-penalized scores used for parent selection and pre-screening."""
    feasible = np.isfinite(costs) & (accuracies >= min_accuracy)
    deficit = np.clip(min_accuracy - accuracies, 0.0, None)
    return np.where(feasible, costs, _INFEASIBLE_OFFSET + deficit)


class _Union:
    """Membership over several containers, without materializing their union.

    Every membership probe is one candidate the mutation loop tried; a hit is
    one duplicate it rejected — counted here so the obs counters see every
    attempt, not just the survivors the engine returns.
    """

    def __init__(self, *containers: Iterable):
        self._containers = containers

    def __contains__(self, item: object) -> bool:
        obs.count("search.candidates_checked")
        hit = any(item in container for container in self._containers)
        if hit:
            obs.count("search.dedup_rejects")
        return hit


class SearchEngine:
    """Multi-objective, hardware-aware NAS search engine.

    Parameters
    ----------
    spec:
        The search to run.
    store:
        Optional resumable :class:`~repro.service.MeasurementStore` the
        per-generation sweeps go through.  Its shard size must divide the
        spec's ``population_size`` so the shard files of the growing search
        history stay content-stable across generations (that alignment is
        what makes interrupted searches resume with only the missing
        generations simulated).  Without a store, measurements persist to a
        temporary directory that lives as long as the engine.
    network_config:
        Macro-architecture used to expand candidate cells (defaults to the
        paper's CIFAR-10 backbone, like the dataset generator).
    accuracy_model:
        Surrogate accuracy oracle (deterministic; shared with the history
        dataset so feasibility and selection always agree).
    """

    def __init__(
        self,
        spec: SearchSpec,
        store: MeasurementStore | None = None,
        network_config: NetworkConfig | None = None,
        accuracy_model: SurrogateAccuracyModel | None = None,
    ):
        self.spec = spec
        self._tmpdir: tempfile.TemporaryDirectory | None = None
        if store is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-search-")
            store = MeasurementStore(
                self._tmpdir.name,
                shard_size=spec.population_size,
                enable_parameter_caching=spec.enable_parameter_caching,
            )
        if store.enable_parameter_caching != spec.enable_parameter_caching:
            raise SearchError(
                "measurement store and search spec disagree on parameter "
                f"caching (store={store.enable_parameter_caching}, "
                f"spec={spec.enable_parameter_caching})"
            )
        if spec.population_size % store.shard_size != 0:
            raise SearchError(
                f"store shard size {store.shard_size} must divide the "
                f"generation size {spec.population_size}; otherwise the "
                "growing history re-keys earlier shards every generation and "
                "nothing resumes"
            )
        self.store = store
        self.network_config = network_config or NetworkConfig()
        self.accuracy_model = accuracy_model or SurrogateAccuracyModel()
        self._config = get_config(spec.config_name)
        if spec.metric == "energy" and not energy_parameters_for(self._config).available:
            raise SearchError(
                f"configuration {spec.config_name!r} has no energy model; "
                "it cannot drive an energy-objective search"
            )

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #
    def run(self, progress: Callable[[str], None] | None = None) -> SearchResult:
        """Run (or resume) the search and return its result.

        Each generation proposes ``population_size`` unique candidates,
        appends them to the history dataset, and brings the measurement
        store up to date — shards already on disk (an earlier or interrupted
        run of the same spec) are loaded, only new models are simulated.
        """
        spec = self.spec
        say = progress or (lambda message: None)
        start = time.perf_counter()
        rng = np.random.default_rng(spec.seed)

        seen: set[Cell | MacroSpec] = set()
        records: list[ModelRecord] = []
        population: deque[int] = deque(maxlen=spec.population_size)
        archive: ParetoArchive | None = None
        dataset: NASBenchDataset | None = None
        measurements = None
        objective: np.ndarray | None = None
        selection: np.ndarray | None = None
        rows: list[GenerationStats] = []

        for generation in range(spec.generations):
            with obs.span(
                "search.generation", generation=generation, strategy=spec.strategy
            ):
                with obs.span("search.propose", generation=generation):
                    candidates = self._propose(
                        generation, rng, seen, records, population, selection,
                        dataset, measurements,
                    )
                for cell in candidates:
                    seen.add(cell)
                    records.append(self._record(cell, len(records)))
                dataset = NASBenchDataset(records, self.network_config)
                with obs.span(
                    "search.simulate", generation=generation, models=len(records)
                ):
                    measurements = self.store.extend(dataset, configs=[self._config])

                costs = (
                    measurements.latencies(spec.config_name)
                    if spec.metric == "latency"
                    else measurements.energies(spec.config_name)
                )
                accuracies = dataset.accuracies()
                objective = np.where(
                    np.isfinite(costs) & (accuracies >= spec.min_accuracy), costs, np.inf
                )
                selection = selection_scores(costs, accuracies, spec.min_accuracy)
                new_slice = slice(len(records) - len(candidates), len(records))
                population.extend(range(new_slice.start, new_slice.stop))

                if archive is None:
                    archive = self._make_archive(costs)
                admitted = archive.update_many(
                    candidates,
                    np.where(accuracies[new_slice] >= spec.min_accuracy,
                             costs[new_slice], np.inf),
                    accuracies[new_slice],
                    generation=generation,
                )
                hypervolume = archive.checkpoint()
                generation_best = float(np.min(objective[new_slice]))
                best_index = int(np.argmin(objective))
                rows.append(
                    GenerationStats(
                        generation=generation,
                        evaluated=len(candidates),
                        feasible=int(np.isfinite(objective[new_slice]).sum()),
                        generation_best=generation_best,
                        best_objective=float(objective[best_index]),
                        hypervolume=hypervolume,
                        admitted=admitted,
                    )
                )
                say(
                    f"generation {generation}: evaluated {len(candidates)}, "
                    f"best {float(objective[best_index]):.4f}, "
                    f"front {len(archive)} (hv {hypervolume:.5f})"
                )

        assert dataset is not None and measurements is not None
        assert objective is not None and archive is not None
        return SearchResult(
            spec=spec,
            dataset=dataset,
            measurements=measurements,
            objective=objective,
            archive=archive,
            generations=rows,
            best_index=int(np.argmin(objective)),
            store_stats=self.store.stats,
            elapsed_seconds=time.perf_counter() - start,
        )

    # ------------------------------------------------------------------ #
    # Candidate proposal (the strategy layer)
    # ------------------------------------------------------------------ #
    def _propose(
        self,
        generation: int,
        rng: np.random.Generator,
        seen: set[Cell | MacroSpec],
        records: list[ModelRecord],
        population: deque,
        selection: np.ndarray | None,
        dataset: NASBenchDataset | None,
        measurements,
    ) -> list[Cell | MacroSpec]:
        """The next generation's unique candidates (length = generation size)."""
        spec = self.spec
        if generation == 0 or spec.strategy == "random":
            return self._random_batch(rng, seen, spec.population_size)
        assert selection is not None and dataset is not None

        if spec.strategy == "evolution":
            batch: list[Cell | MacroSpec] = []
            batch_set: set[Cell | MacroSpec] = set()
            for _ in range(spec.population_size):
                parent = self._tournament(rng, population, selection, records)
                child = self._unique_child(parent, rng, seen, batch_set)
                batch.append(child)
                batch_set.add(child)
            return batch

        # Predictor-guided: mutate a large pool, pre-screen with the learned
        # model trained on everything measured so far, simulate the top slice.
        pool: list[Cell] = []
        pool_set: set[Cell] = set()
        for _ in range(spec.pool_factor * spec.population_size):
            parent = self._tournament(rng, population, selection, records)
            child = self._unique_child(parent, rng, seen, pool_set)
            pool.append(child)
            pool_set.add(child)
        service = SweepService(
            self.store,
            dataset,
            configs=[spec.config_name],
            settings=spec.predictor_settings,
            # The previous generation's sweep result is still in memory:
            # serve from it instead of re-reading every history shard.
            measurements=measurements,
        )
        with obs.span("search.predict_screen", pool=len(pool)):
            predicted = service.predict(pool, spec.config_name, spec.metric)
        # Accuracy is an oracle lookup (no simulation), so the pre-screen can
        # apply the same feasibility penalty parent selection uses.
        pool_accuracies = np.array([self._accuracy_of(cell) for cell in pool])
        scores = selection_scores(predicted, pool_accuracies, spec.min_accuracy)
        order = np.argsort(scores, kind="stable")[: spec.population_size]
        return [pool[int(index)] for index in order]

    def _tournament(
        self,
        rng: np.random.Generator,
        population: deque,
        selection: np.ndarray,
        records: list[ModelRecord],
    ) -> Cell | MacroSpec:
        """Best-of-k parent selection over the current (aged) population."""
        alive = list(population)
        size = min(self.spec.tournament_size, len(alive))
        picks = rng.choice(len(alive), size=size, replace=False)
        best = min(
            (alive[int(index)] for index in picks),
            key=lambda model_index: (selection[model_index], model_index),
        )
        return records[best].architecture

    def _unique_child(
        self,
        parent: Cell | MacroSpec,
        rng: np.random.Generator,
        seen: set[Cell | MacroSpec],
        batch_set: set[Cell | MacroSpec],
    ) -> Cell | MacroSpec:
        """One never-seen mutant of *parent* (random fallback keeps batches full)."""
        spec = self.spec
        try:
            if isinstance(parent, MacroSpec):
                return mutate_macro_unique(
                    parent,
                    rng,
                    _Union(seen, batch_set),
                    max_vertices=spec.max_vertices,
                    max_edges=spec.max_edges,
                    max_attempts=_MUTATION_ATTEMPTS,
                )
            return mutate_unique(
                parent,
                rng,
                _Union(seen, batch_set),
                max_vertices=spec.max_vertices,
                max_edges=spec.max_edges,
                max_attempts=_MUTATION_ATTEMPTS,
            )
        except DatasetError:
            # The parent's neighborhood is exhausted (tiny cells, long runs):
            # inject fresh diversity instead of stalling the generation.
            obs.count("search.random_fallbacks")
            return self._random_unique(rng, seen, batch_set)

    def _random_batch(
        self, rng: np.random.Generator, seen: set[Cell | MacroSpec], count: int
    ) -> list[Cell | MacroSpec]:
        batch: list[Cell | MacroSpec] = []
        batch_set: set[Cell | MacroSpec] = set()
        for _ in range(count):
            cell = self._random_unique(rng, seen, batch_set)
            batch.append(cell)
            batch_set.add(cell)
        return batch

    def _random_unique(
        self,
        rng: np.random.Generator,
        seen: set[Cell | MacroSpec],
        batch_set: set[Cell | MacroSpec],
    ) -> Cell | MacroSpec:
        spec = self.spec
        for _ in range(_RANDOM_ATTEMPTS):
            arch: Cell | MacroSpec
            if spec.arch_space == "macro":
                arch = random_macro(
                    rng,
                    max_vertices=spec.max_vertices,
                    max_edges=spec.max_edges,
                    stem_channels=self.network_config.stem_channels,
                    image_size=self.network_config.image_size,
                    image_channels=self.network_config.image_channels,
                    num_classes=self.network_config.num_classes,
                )
            else:
                arch = random_cell(rng, spec.max_vertices, spec.max_edges)
            if arch not in seen and arch not in batch_set:
                return arch
        raise SearchError(
            f"could not draw an unseen random architecture in {_RANDOM_ATTEMPTS} "
            "attempts; the searched sub-space appears exhausted"
        )

    # ------------------------------------------------------------------ #
    # Bookkeeping
    # ------------------------------------------------------------------ #
    def _accuracy_of(self, cell: Cell) -> float:
        """Oracle accuracy of *cell*, expanded with the engine's network config.

        Used for both history records and pool pre-screening, so feasibility
        decisions always agree with the recorded accuracies.
        """
        return oracle_accuracy(cell, self.network_config, self.accuracy_model)

    def _record(self, arch: Cell | MacroSpec, index: int) -> ModelRecord:
        """Build one history record incrementally (see :func:`model_record`),
        so engine histories and bulk-built datasets agree."""
        return model_record(arch, index, self.network_config, self.accuracy_model)

    def _make_archive(self, first_costs: np.ndarray) -> ParetoArchive:
        """Fix the hypervolume reference at the first generation's worst cost.

        Deterministic (generation 0 depends only on the seed), so a resumed
        search tracks the identical reference and hypervolume trajectory.
        """
        finite = first_costs[np.isfinite(first_costs)]
        ref_cost = float(finite.max()) if finite.size else 1.0
        return ParetoArchive(ref_cost=ref_cost, ref_accuracy=0.0)
