"""Joint NAS × hardware co-search over cells and accelerator configurations.

:mod:`repro.search` optimizes the *model* for a frozen accelerator; the
hardware frontier ranks *accelerators* over a frozen population.  The
co-design question the paper points at — which (model, microarchitecture)
pairs are jointly optimal — needs both axes searched under one budget.
:class:`CoSearchEngine` runs regularized evolution over **pairs**: a
tournament picks a parent pair, and each child either mutates the cell
(:func:`~repro.nasbench.mutation.mutate_unique`, hardware kept) or takes one
hardware grid step (:meth:`~repro.hwspace.space.AcceleratorSpace.neighbors`,
cell kept).  Every generation is evaluated in **one config-axis vectorized
pass** (:meth:`~repro.simulator.batch.BatchSimulator.evaluate_table_grid`
over the generation's distinct configurations), selection uses the same
soft feasibility penalty as the cell-only engine, and a
:class:`~repro.analysis.ParetoArchive` keyed by ``fingerprint@config-digest``
tracks the joint (cost ↓, accuracy ↑) frontier.

The simulation budget — ``population_size × generations`` pair evaluations —
matches a fixed-hardware :class:`~repro.search.SearchEngine` run with the
same parameters, which is what makes :func:`studied_baselines` a fair
comparison: the co-search should discover pairs that Pareto-dominate at
least one of the V1/V2/V3 single-axis winners at equal cost.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .. import obs
from ..analysis.archive import ParetoArchive
from ..arch.config import AcceleratorConfig
from ..errors import DatasetError, SearchError
from ..nasbench.accuracy import SurrogateAccuracyModel
from ..nasbench.cell import Cell
from ..nasbench.generator import random_cell
from ..nasbench.layer_table import LayerTable
from ..nasbench.macro import MacroSpec, random_macro
from ..nasbench.mutation import mutate_macro_unique, mutate_unique
from ..nasbench.network import NetworkConfig
from ..nasbench.ops import MAX_EDGES, MAX_VERTICES
from ..search.engine import SearchEngine, oracle_accuracy, selection_scores
from ..search.result import GenerationStats
from ..search.spec import ARCH_SPACES, SearchSpec
from ..simulator.batch import BatchSimulator
from .space import AcceleratorSpace, config_digest

#: Attempts at drawing an unseen random (cell, config) pair before the joint
#: space is declared exhausted.
_RANDOM_ATTEMPTS = 500

#: Mutation draws per child before falling back to a fresh random pair.
_MUTATION_ATTEMPTS = 30


@dataclass(frozen=True)
class CoSearchSpec:
    """One joint cell × hardware search (budget shared across both axes)."""

    metric: str = "latency"
    min_accuracy: float = 0.70
    population_size: int = 16
    generations: int = 6
    tournament_size: int = 4
    #: Probability a child takes a hardware grid step instead of a cell
    #: mutation (the cell-only engine is the 0.0 limit of this knob).
    hardware_move_probability: float = 0.5
    seed: int = 0
    max_vertices: int = MAX_VERTICES
    max_edges: int = MAX_EDGES
    enable_parameter_caching: bool = True
    #: ``"cell"`` moves over cells on the shared backbone; ``"macro"`` moves
    #: over staged :class:`~repro.nasbench.macro.MacroSpec` architectures.
    arch_space: str = "cell"

    def __post_init__(self) -> None:
        if self.metric not in ("latency", "energy"):
            raise SearchError(f"unknown metric {self.metric!r}; expected 'latency' or 'energy'")
        if self.arch_space not in ARCH_SPACES:
            raise SearchError(
                f"unknown architecture space {self.arch_space!r}; "
                f"expected one of {ARCH_SPACES}"
            )
        if self.population_size < 2:
            raise SearchError("population_size must be at least 2")
        if self.generations < 1:
            raise SearchError("a co-search needs at least one generation")
        if self.tournament_size < 1:
            raise SearchError("tournament_size must be at least 1")
        if not 0.0 <= self.hardware_move_probability <= 1.0:
            raise SearchError("hardware_move_probability must be within [0, 1]")
        if not 3 <= self.max_vertices <= MAX_VERTICES:
            raise SearchError(f"max_vertices must be in [3, {MAX_VERTICES}]")
        if not 1 <= self.max_edges <= MAX_EDGES:
            raise SearchError(f"max_edges must be in [1, {MAX_EDGES}]")

    @property
    def simulation_budget(self) -> int:
        """Total pair evaluations — identical to a fixed-hardware search with
        the same population size and generation count."""
        return self.population_size * self.generations


@dataclass(frozen=True)
class PairRecord:
    """One evaluated (architecture, configuration) pair of the co-search history.

    ``cell`` holds the searched architecture — a :class:`Cell` or, in the
    macro space, a :class:`~repro.nasbench.macro.MacroSpec`.
    """

    index: int
    cell: Cell | MacroSpec
    config: AcceleratorConfig
    key: str
    accuracy: float
    cost: float
    generation: int


@dataclass
class CoSearchResult:
    """Everything one :meth:`CoSearchEngine.run` call produced."""

    spec: CoSearchSpec
    space: AcceleratorSpace
    pairs: list[PairRecord]
    objective: np.ndarray
    archive: ParetoArchive
    configs_by_key: dict[str, AcceleratorConfig]
    generations: list[GenerationStats] = field(default_factory=list)
    best_index: int = -1
    elapsed_seconds: float = 0.0

    @property
    def best_pair(self) -> PairRecord:
        """The best feasible (cell, configuration) pair found."""
        if self.best_index < 0 or not np.isfinite(self.objective[self.best_index]):
            raise SearchError(
                "the co-search found no feasible pair (every candidate fell "
                "below the accuracy floor)"
            )
        return self.pairs[self.best_index]

    @property
    def best_objective(self) -> float:
        """Objective value of the winner (``inf`` if nothing was feasible)."""
        if self.best_index < 0:
            return float("inf")
        return float(self.objective[self.best_index])

    def dominates(self, cost: float, accuracy: float) -> bool:
        """Whether any frontier pair weakly dominates ``(cost, accuracy)``
        with strict improvement on at least one objective."""
        return any(
            entry.cost <= cost
            and entry.accuracy >= accuracy
            and (entry.cost < cost or entry.accuracy > accuracy)
            for entry in self.archive.entries
        )

    def summary_lines(self) -> list[str]:
        """Human-readable per-generation progress table.

        Renders for infeasible runs too — the table is most needed when no
        pair reached the accuracy floor.
        """
        unit = "ms" if self.spec.metric == "latency" else "mJ"
        if self.best_index >= 0 and np.isfinite(self.objective[self.best_index]):
            best = self.pairs[self.best_index]
            verdict = (
                f"best {self.best_objective:.4f} {unit} on {best.config.name} "
                f"(accuracy {best.accuracy:.4f})"
            )
        else:
            verdict = "no feasible pair (every candidate fell below the accuracy floor)"
        lines = [
            f"co-search over {self.space.size} hardware points × cells "
            f"({self.spec.metric}, accuracy >= {self.spec.min_accuracy:.2f}): "
            f"{len(self.pairs)} pairs over {len(self.generations)} generations, "
            f"{verdict}, front {len(self.archive)} points, "
            f"{self.elapsed_seconds:.2f}s",
            f"{'gen':>4}{'evaluated':>11}{'feasible':>10}"
            f"{'gen best':>12}{'best so far':>13}{'hypervolume':>13}{'admitted':>10}",
        ]
        for row in self.generations:
            lines.append(
                f"{row.generation:>4}{row.evaluated:>11}{row.feasible:>10}"
                f"{row.generation_best:>12.4f}{row.best_objective:>13.4f}"
                f"{row.hypervolume:>13.5f}{row.admitted:>10}"
            )
        return lines


class _CellsOfConfig:
    """Membership view: has this architecture been paired with a config yet?

    Adapts the co-search's pair-key ``seen`` set to the container interface
    :func:`mutate_unique` / :func:`mutate_macro_unique` de-duplicate against.
    """

    def __init__(self, seen: set[str], batch: set[str], digest: str):
        self._seen = seen
        self._batch = batch
        self._digest = digest

    def __contains__(self, cell: object) -> bool:
        if not isinstance(cell, (Cell, MacroSpec)):
            return False
        obs.count("cosearch.candidates_checked")
        key = pair_key(cell, self._digest)
        hit = key in self._seen or key in self._batch
        if hit:
            obs.count("cosearch.dedup_rejects")
        return hit


def pair_key(cell: Cell | MacroSpec, digest: str) -> str:
    """Identity of one (architecture, configuration) pair (archive/dedup key)."""
    return f"{cell.fingerprint}@{digest}"


class CoSearchEngine:
    """Regularized evolution over joint (cell, configuration) pairs.

    Parameters
    ----------
    spec:
        The co-search to run.
    space:
        The hardware grid the configuration axis moves over.
    network_config:
        Macro-architecture used to expand candidate cells.
    accuracy_model:
        Surrogate accuracy oracle (shared with feasibility decisions).
    """

    def __init__(
        self,
        spec: CoSearchSpec,
        space: AcceleratorSpace,
        network_config: NetworkConfig | None = None,
        accuracy_model: SurrogateAccuracyModel | None = None,
    ):
        if space.size < 2:
            raise SearchError(
                "the hardware space has a single point; use repro.search for "
                "fixed-hardware searches"
            )
        self.spec = spec
        self.space = space
        self.network_config = network_config or NetworkConfig()
        self.accuracy_model = accuracy_model or SurrogateAccuracyModel()
        self._simulator = BatchSimulator(enable_parameter_caching=spec.enable_parameter_caching)
        self._accuracy_cache: dict[str, float] = {}

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #
    def run(self, progress: Callable[[str], None] | None = None) -> CoSearchResult:
        """Run the co-search and return its result."""
        spec = self.spec
        say = progress or (lambda message: None)
        start = time.perf_counter()
        rng = np.random.default_rng(spec.seed)

        seen: set[str] = set()
        records: list[PairRecord] = []
        configs_by_key: dict[str, AcceleratorConfig] = {}
        population: deque[int] = deque(maxlen=spec.population_size)
        archive: ParetoArchive | None = None
        selection: np.ndarray | None = None
        objective_values: list[float] = []
        rows: list[GenerationStats] = []

        for generation in range(spec.generations):
            with obs.span("cosearch.generation", generation=generation):
                with obs.span("cosearch.propose", generation=generation):
                    pairs = self._propose(
                        generation, rng, seen, records, population, selection
                    )
                with obs.span(
                    "cosearch.evaluate", generation=generation, pairs=len(pairs)
                ):
                    costs, accuracies = self._evaluate(pairs)

            new_start = len(records)
            for (cell, config), cost, accuracy in zip(pairs, costs, accuracies):
                key = pair_key(cell, config_digest(config))
                seen.add(key)
                configs_by_key[key] = config
                records.append(
                    PairRecord(
                        index=len(records),
                        cell=cell,
                        config=config,
                        key=key,
                        accuracy=float(accuracy),
                        cost=float(cost),
                        generation=generation,
                    )
                )
                feasible = np.isfinite(cost) and accuracy >= spec.min_accuracy
                objective_values.append(float(cost) if feasible else float("inf"))
            population.extend(range(new_start, len(records)))

            all_costs = np.array([record.cost for record in records])
            all_accuracies = np.array([record.accuracy for record in records])
            selection = selection_scores(all_costs, all_accuracies, spec.min_accuracy)

            if archive is None:
                finite = costs[np.isfinite(costs)]
                archive = ParetoArchive(
                    ref_cost=float(finite.max()) if finite.size else 1.0,
                    ref_accuracy=0.0,
                )
            admitted = 0
            for record in records[new_start:]:
                offered = (record.cost if record.accuracy >= spec.min_accuracy else float("inf"))
                admitted += archive.update(
                    record.cell,
                    offered,
                    record.accuracy,
                    generation=generation,
                    key=record.key,
                )
            hypervolume = archive.checkpoint()

            objective = np.array(objective_values)
            generation_slice = objective[new_start:]
            best_index = int(np.argmin(objective))
            rows.append(
                GenerationStats(
                    generation=generation,
                    evaluated=len(pairs),
                    feasible=int(np.isfinite(generation_slice).sum()),
                    generation_best=float(np.min(generation_slice)),
                    best_objective=float(objective[best_index]),
                    hypervolume=hypervolume,
                    admitted=admitted,
                )
            )
            say(
                f"generation {generation}: evaluated {len(pairs)}, "
                f"best {float(objective[best_index]):.4f}, "
                f"front {len(archive)} (hv {hypervolume:.5f})"
            )

        assert archive is not None
        objective = np.array(objective_values)
        return CoSearchResult(
            spec=spec,
            space=self.space,
            pairs=records,
            objective=objective,
            archive=archive,
            configs_by_key=configs_by_key,
            generations=rows,
            best_index=int(np.argmin(objective)),
            elapsed_seconds=time.perf_counter() - start,
        )

    # ------------------------------------------------------------------ #
    # Evaluation (one config-axis vectorized pass per generation)
    # ------------------------------------------------------------------ #
    def _evaluate(
        self, pairs: Sequence[tuple[Cell | MacroSpec, AcceleratorConfig]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Cost and accuracy arrays of the generation's pairs.

        The generation's cells flatten into one :class:`LayerTable` and its
        distinct configurations into one config axis; a single
        :meth:`~BatchSimulator.evaluate_table_grid` pass yields every
        (config, cell) cost, from which each pair reads its own entry.
        """
        table = LayerTable.from_architectures([arch for arch, _ in pairs], self.network_config)

        distinct: dict[str, int] = {}
        config_rows: list[AcceleratorConfig] = []
        row_of_pair = np.empty(len(pairs), dtype=np.int64)
        for index, (_, config) in enumerate(pairs):
            digest = config_digest(config)
            if digest not in distinct:
                distinct[digest] = len(config_rows)
                config_rows.append(config)
            row_of_pair[index] = distinct[digest]

        latency, energy = self._simulator.evaluate_table_grid(table, config_rows)
        matrix = latency if self.spec.metric == "latency" else energy
        costs = matrix[row_of_pair, np.arange(len(pairs))]
        accuracies = np.array([self._accuracy_of(cell) for cell, _ in pairs])
        return costs, accuracies

    def _accuracy_of(self, arch: Cell | MacroSpec) -> float:
        """Oracle accuracy of *arch* (hardware-independent, cached).

        Macro specs key the surrogate on the macro fingerprint with the
        representative first-stage cell's structural terms and the staged
        expansion's parameter count — matching
        :meth:`~repro.nasbench.dataset.NASBenchDataset.from_macros`.
        """
        cached = self._accuracy_cache.get(arch.fingerprint)
        if cached is None:
            cached = oracle_accuracy(arch, self.network_config, self.accuracy_model)
            self._accuracy_cache[arch.fingerprint] = cached
        return cached

    # ------------------------------------------------------------------ #
    # Candidate proposal
    # ------------------------------------------------------------------ #
    def _propose(
        self,
        generation: int,
        rng: np.random.Generator,
        seen: set[str],
        records: list[PairRecord],
        population: deque,
        selection: np.ndarray | None,
    ) -> list[tuple[Cell | MacroSpec, AcceleratorConfig]]:
        """The next generation's unique (cell, configuration) pairs."""
        spec = self.spec
        batch: list[tuple[Cell | MacroSpec, AcceleratorConfig]] = []
        batch_keys: set[str] = set()

        def admit(cell: Cell, config: AcceleratorConfig) -> None:
            batch.append((cell, config))
            batch_keys.add(pair_key(cell, config_digest(config)))

        if generation == 0:
            for _ in range(spec.population_size):
                cell, config = self._random_pair(rng, seen, batch_keys)
                admit(cell, config)
            return batch
        assert selection is not None

        for _ in range(spec.population_size):
            parent = self._tournament(rng, population, selection, records)
            child = self._child_of(parent, rng, seen, batch_keys)
            admit(*child)
        return batch

    def _tournament(
        self,
        rng: np.random.Generator,
        population: deque,
        selection: np.ndarray,
        records: list[PairRecord],
    ) -> PairRecord:
        """Best-of-k parent selection over the current (aged) population."""
        alive = list(population)
        size = min(self.spec.tournament_size, len(alive))
        picks = rng.choice(len(alive), size=size, replace=False)
        best = min(
            (alive[int(index)] for index in picks),
            key=lambda pair_index: (selection[pair_index], pair_index),
        )
        return records[best]

    def _child_of(
        self,
        parent: PairRecord,
        rng: np.random.Generator,
        seen: set[str],
        batch_keys: set[str],
    ) -> tuple[Cell | MacroSpec, AcceleratorConfig]:
        """One never-seen child pair: a hardware step or a cell mutation."""
        spec = self.spec
        if rng.random() < spec.hardware_move_probability:
            moves = self.space.neighbors(parent.config)
            order = rng.permutation(len(moves))
            for position in order:
                config = moves[int(position)]
                key = pair_key(parent.cell, config_digest(config))
                if key not in seen and key not in batch_keys:
                    return parent.cell, config
            # The whole hardware neighborhood of this cell is exhausted;
            # fall through to a cell mutation on the parent's hardware.
        parent_digest = config_digest(parent.config)
        mutate = (
            mutate_macro_unique if isinstance(parent.cell, MacroSpec) else mutate_unique
        )
        try:
            cell = mutate(
                parent.cell,
                rng,
                _CellsOfConfig(seen, batch_keys, parent_digest),
                max_vertices=spec.max_vertices,
                max_edges=spec.max_edges,
                max_attempts=_MUTATION_ATTEMPTS,
            )
            return cell, parent.config
        except DatasetError:
            # Inject fresh diversity instead of stalling the generation.
            obs.count("cosearch.random_fallbacks")
            return self._random_pair(rng, seen, batch_keys)

    def _random_pair(
        self, rng: np.random.Generator, seen: set[str], batch_keys: set[str]
    ) -> tuple[Cell | MacroSpec, AcceleratorConfig]:
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
            config = self.space.sample(rng)
            key = pair_key(arch, config_digest(config))
            if key not in seen and key not in batch_keys:
                return arch, config
        raise SearchError(
            f"could not draw an unseen random pair in {_RANDOM_ATTEMPTS} "
            "attempts; the joint search space appears exhausted"
        )


def studied_baselines(
    spec: CoSearchSpec,
    config_names: Sequence[str] = ("V1", "V2", "V3"),
    strategy: str = "evolution",
) -> dict[str, tuple[float, float]]:
    """Best ``(cost, accuracy)`` of fixed-hardware searches at the same budget.

    Runs one :class:`~repro.search.SearchEngine` per studied configuration
    with the co-search's population size, generation count, accuracy floor
    and seed — i.e. the identical simulation budget spent on the cell axis
    alone.  Configurations that cannot serve the metric (energy on V3) are
    skipped.  The returned points are what
    :meth:`CoSearchResult.dominates` is meant to be checked against.
    """
    baselines: dict[str, tuple[float, float]] = {}
    for name in config_names:
        try:
            search_spec = SearchSpec(
                strategy=strategy,
                config_name=name,
                metric=spec.metric,
                min_accuracy=spec.min_accuracy,
                population_size=spec.population_size,
                generations=spec.generations,
                seed=spec.seed,
                max_vertices=spec.max_vertices,
                max_edges=spec.max_edges,
                enable_parameter_caching=spec.enable_parameter_caching,
                arch_space=spec.arch_space,
            )
            result = SearchEngine(search_spec).run()
        except SearchError:
            continue
        if np.isfinite(result.best_objective):
            baselines[name] = (result.best_objective, result.best_accuracy)
    return baselines
