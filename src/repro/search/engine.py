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
frontier and its hypervolume per generation.  :class:`Evolution` holds the
one copy of regularized evolution — selection, mutation, archive and
generation bookkeeping — which the hardware co-search
(:class:`~repro.hwspace.CoSearchEngine`) runs on as well.

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
from operator import attrgetter
from typing import Callable, TypeVar

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
from ..simulator.runner import MeasurementSet
from .result import GenerationStats, SearchResult
from .spec import SearchSpec

#: Attempts at drawing an unseen random candidate before the space is
#: declared exhausted (generous: collisions are rare outside tiny sub-spaces).
_RANDOM_ATTEMPTS = 500

#: Mutation draws per child before falling back to a fresh random candidate.
_MUTATION_ATTEMPTS = 30

#: Selection score offset of infeasible models.  Any feasible cost (ms/mJ)
#: is smaller, so feasible models always outrank infeasible ones; among
#: infeasible models the accuracy deficit is added on top, giving tournament
#: selection a gradient *toward* the feasible region instead of the blind
#: tie an ``inf`` penalty would produce.
_INFEASIBLE_OFFSET = 1e6

T = TypeVar("T")

#: The key of a cell or macro candidate: its isomorphism fingerprint.
_fingerprint = attrgetter("fingerprint")


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


class _Seen:
    """Has a candidate's key been seen in any of several key sets?

    The one de-duplication probe mutation runs against.  Every probe is one
    candidate the mutation loop tried; a hit is one duplicate it rejected —
    counted here so the obs counters see every attempt, not just the
    survivors a search keeps.
    """

    def __init__(self, key: Callable[[Cell | MacroSpec], str], *key_sets: set[str]):
        self._key = key
        self._key_sets = key_sets

    def __contains__(self, arch: Cell | MacroSpec) -> bool:
        obs.count("search.candidates_checked")
        key = self._key(arch)
        hit = any(key in keys for keys in self._key_sets)
        if hit:
            obs.count("search.dedup_rejects")
        return hit


class Evolution:
    """Regularized evolution, shared by :class:`SearchEngine` and the co-search.

    It holds what a search carries from one generation to the next: the
    random generator seeded by the spec (every stochastic choice draws from
    it), the keys of every evaluated candidate, the fingerprint of every cell
    form it has met, the aging population, the selection scores, the
    objective, the Pareto archive and the per-generation rows.  A search
    proposes each generation with :meth:`batch`, :meth:`tournament`,
    :meth:`unseen` and :meth:`mutate`, evaluates it its own way, and books it
    with :meth:`record`.  Candidates are told apart by string keys: the
    architecture fingerprint in a cell or macro search, the pair key in the
    co-search.
    """

    def __init__(
        self,
        spec: SearchSpec,
        network_config: NetworkConfig,
        progress: Callable[[str], None] | None = None,
    ):
        self.spec = spec
        self.network_config = network_config
        self._say = progress or (lambda message: None)
        self.rng = np.random.default_rng(spec.seed)
        self.seen: set[str] = set()
        #: Pruned ``(matrix, ops)`` form → fingerprint of every cell the dedup
        #: probes met this run.
        self._fingerprints: dict[tuple, str] = {}
        self.population: deque[int] = deque(maxlen=spec.population_size)
        self.selection = np.empty(0)
        self.objective = np.empty(0)
        self.archive: ParetoArchive | None = None
        self.rows: list[GenerationStats] = []

    # ------------------------------------------------------------------ #
    # Proposal moves
    # ------------------------------------------------------------------ #
    def _fingerprinted(self, arch: T) -> T:
        """*arch* with its fingerprint cached, hashing each cell form once a run.

        A random draw or mutant is a new :class:`Cell` even when the search
        has already met its pruned form; equal forms have equal fingerprints,
        so the known one is copied into the cell's cache instead of hashing
        the graph again.
        """
        if isinstance(arch, Cell):
            pruned = arch.prune()
            form = (pruned.matrix, pruned.ops)
            known = self._fingerprints.get(form)
            if known is None:
                self._fingerprints[form] = arch.fingerprint
            else:
                object.__setattr__(arch, "_fingerprint", known)  # Cell is frozen
        return arch

    @staticmethod
    def batch(
        count: int, draw: Callable[[set[str]], T], key: Callable[[T], str] = _fingerprint
    ) -> list[T]:
        """*count* candidates, each from ``draw(keys)`` given the keys drawn before it."""
        batch: list[T] = []
        keys: set[str] = set()
        for _ in range(count):
            candidate = draw(keys)
            batch.append(candidate)
            keys.add(key(candidate))
        return batch

    def is_new(self, key: str, batch: set[str]) -> bool:
        """Whether *key* is neither evaluated already nor in the *batch* being drawn."""
        return key not in self.seen and key not in batch

    def tournament(self) -> int:
        """Best-of-k parent selection over the aging population (a history index)."""
        alive = list(self.population)
        size = min(self.spec.tournament_size, len(alive))
        picks = self.rng.choice(len(alive), size=size, replace=False)
        return min(
            (alive[int(index)] for index in picks),
            key=lambda index: (self.selection[index], index),
        )

    def random_architecture(self) -> Cell | MacroSpec:
        """One random cell, or macro in the macro space, within the spec's budget."""
        spec, network = self.spec, self.network_config
        if spec.arch_space == "macro":
            return random_macro(
                self.rng,
                max_vertices=spec.max_vertices,
                max_edges=spec.max_edges,
                stem_channels=network.stem_channels,
                image_size=network.image_size,
                image_channels=network.image_channels,
                num_classes=network.num_classes,
            )
        return random_cell(self.rng, spec.max_vertices, spec.max_edges)

    def unseen(
        self, draw: Callable[[], T], batch: set[str], key: Callable[[T], str] = _fingerprint
    ) -> T:
        """The first ``draw()`` whose key :meth:`is_new`."""
        for _ in range(_RANDOM_ATTEMPTS):
            candidate = self._fingerprinted(draw())
            if self.is_new(key(candidate), batch):
                return candidate
        raise SearchError(
            f"could not draw an unseen random candidate in {_RANDOM_ATTEMPTS} "
            "attempts; the searched space appears exhausted"
        )

    def mutate(
        self,
        parent: Cell | MacroSpec,
        batch: set[str],
        key: Callable[[Cell | MacroSpec], str] = _fingerprint,
    ) -> Cell | MacroSpec:
        """One mutant of *parent* whose key :meth:`is_new`.

        Raises :class:`~repro.errors.DatasetError` when every draw was a
        duplicate (the parent's neighborhood is exhausted), so the caller can
        fall back to a random draw.
        """
        mutate = mutate_macro_unique if isinstance(parent, MacroSpec) else mutate_unique
        return mutate(
            parent,
            self.rng,
            _Seen(lambda arch: key(self._fingerprinted(arch)), self.seen, batch),
            max_vertices=self.spec.max_vertices,
            max_edges=self.spec.max_edges,
            max_attempts=_MUTATION_ATTEMPTS,
        )

    # ------------------------------------------------------------------ #
    # Bookkeeping
    # ------------------------------------------------------------------ #
    def record(
        self,
        generation: int,
        archs: list[Cell | MacroSpec],
        keys: list[str],
        costs: np.ndarray,
        accuracies: np.ndarray,
    ) -> None:
        """Book one evaluated generation.

        *archs* and *keys* are the generation's candidates; *costs* and
        *accuracies* cover the whole history, the generation last.
        """
        spec = self.spec
        self.seen.update(keys)
        new = slice(len(costs) - len(archs), len(costs))
        self.objective = np.where(
            np.isfinite(costs) & (accuracies >= spec.min_accuracy), costs, np.inf
        )
        self.selection = selection_scores(costs, accuracies, spec.min_accuracy)
        self.population.extend(range(new.start, new.stop))
        if self.archive is None:
            # The hypervolume reference is the first generation's worst cost.
            # Generation 0 depends only on the seed, so a resumed search
            # tracks the identical reference and hypervolume trajectory.
            finite = costs[np.isfinite(costs)]
            self.archive = ParetoArchive(
                ref_cost=float(finite.max()) if finite.size else 1.0, ref_accuracy=0.0
            )
        admitted = sum(
            self.archive.update(
                arch,
                cost if accuracy >= spec.min_accuracy else np.inf,
                accuracy,
                generation=generation,
                key=key,
            )
            for arch, key, cost, accuracy in zip(archs, keys, costs[new], accuracies[new])
        )
        hypervolume = self.archive.checkpoint()
        best = float(self.objective[self.best_index])
        self.rows.append(
            GenerationStats(
                generation=generation,
                evaluated=len(archs),
                feasible=int(np.isfinite(self.objective[new]).sum()),
                generation_best=float(np.min(self.objective[new])),
                best_objective=best,
                hypervolume=hypervolume,
                admitted=admitted,
            )
        )
        self._say(
            f"generation {generation}: evaluated {len(archs)}, best {best:.4f}, "
            f"front {len(self.archive)} (hv {hypervolume:.5f})"
        )

    @property
    def best_index(self) -> int:
        """History index of the best objective (a feasible one if any exists)."""
        return int(np.argmin(self.objective))


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
        start = time.perf_counter()
        evolution = Evolution(spec, self.network_config, progress)
        records: list[ModelRecord] = []
        dataset: NASBenchDataset | None = None
        measurements: MeasurementSet | None = None

        for generation in range(spec.generations):
            with obs.span(
                "search.generation", generation=generation, strategy=spec.strategy
            ):
                with obs.span("search.propose", generation=generation):
                    candidates = self._propose(
                        generation, evolution, records, dataset, measurements
                    )
                for arch in candidates:
                    records.append(self._record(arch, len(records)))
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
                evolution.record(
                    generation,
                    candidates,
                    [arch.fingerprint for arch in candidates],
                    costs,
                    dataset.accuracies(),
                )

        assert dataset is not None and measurements is not None
        assert evolution.archive is not None
        return SearchResult(
            spec=spec,
            dataset=dataset,
            measurements=measurements,
            objective=evolution.objective,
            archive=evolution.archive,
            generations=evolution.rows,
            best_index=evolution.best_index,
            store_stats=self.store.stats,
            elapsed_seconds=time.perf_counter() - start,
        )

    # ------------------------------------------------------------------ #
    # Candidate proposal (the strategy layer)
    # ------------------------------------------------------------------ #
    def _propose(
        self,
        generation: int,
        evolution: Evolution,
        records: list[ModelRecord],
        dataset: NASBenchDataset | None,
        measurements: MeasurementSet | None,
    ) -> list[Cell | MacroSpec]:
        """The next generation's unique candidates (length = generation size)."""
        spec = self.spec

        def random(batch: set[str]) -> Cell | MacroSpec:
            return evolution.unseen(evolution.random_architecture, batch)

        def child(batch: set[str]) -> Cell | MacroSpec:
            parent = records[evolution.tournament()].architecture
            try:
                return evolution.mutate(parent, batch)
            except DatasetError:
                # The parent's neighborhood is exhausted (tiny cells, long
                # runs): inject fresh diversity instead of stalling.
                obs.count("search.random_fallbacks")
                return random(batch)

        if generation == 0 or spec.strategy == "random":
            return evolution.batch(spec.population_size, random)
        if spec.strategy == "evolution":
            return evolution.batch(spec.population_size, child)

        # Predictor-guided: mutate a large pool, pre-screen with the learned
        # model trained on everything measured so far, simulate the top slice.
        assert dataset is not None
        pool = evolution.batch(spec.pool_factor * spec.population_size, child)
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
