"""Joint NAS × hardware co-search over cells and accelerator configurations.

:mod:`repro.search` optimizes the *model* for a frozen accelerator; the
hardware frontier ranks *accelerators* over a frozen population.  The
co-design question the paper points at — which (model, microarchitecture)
pairs are jointly optimal — needs both axes searched under one budget.
:class:`CoSearchEngine` runs the search engine's regularized evolution
(:class:`~repro.search.engine.Evolution`: tournament, mutation, archive and
generation bookkeeping) over **pairs**, described by a
:class:`~repro.search.SearchSpec`.  Only two things are its own: each child
takes one hardware grid step
(:meth:`~repro.hwspace.space.AcceleratorSpace.neighbors`, cell kept) with
probability :data:`HARDWARE_MOVE_PROBABILITY` and otherwise a cell mutation
(hardware kept), and every generation is evaluated in **one config-axis
vectorized pass** (:meth:`~repro.simulator.batch.BatchSimulator.evaluate_table_grid`
over the generation's distinct configurations).  The
:class:`~repro.analysis.ParetoArchive` is keyed by ``fingerprint@config-digest``
and tracks the joint (cost ↓, accuracy ↑) frontier.

The simulation budget — ``population_size × generations`` pair evaluations —
matches a fixed-hardware :class:`~repro.search.SearchEngine` run with the
same spec, which is what makes :func:`studied_baselines` a fair comparison:
the co-search should discover pairs that Pareto-dominate at least one of the
V1/V2/V3 single-axis winners at equal cost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .. import obs
from ..analysis.archive import ParetoArchive
from ..arch.config import AcceleratorConfig
from ..errors import DatasetError, SearchError
from ..nasbench.accuracy import SurrogateAccuracyModel
from ..nasbench.cell import Cell
from ..nasbench.layer_table import LayerTable
from ..nasbench.macro import MacroSpec
from ..nasbench.network import NetworkConfig
from ..search.engine import Evolution, SearchEngine, oracle_accuracy
from ..search.result import GenerationStats, generation_table
from ..search.spec import SearchSpec
from ..simulator.batch import BatchSimulator
from .space import AcceleratorSpace, config_digest

#: Probability that a child takes a hardware grid step instead of a cell
#: mutation (a fixed-hardware search is the 0.0 limit).
HARDWARE_MOVE_PROBABILITY = 0.5

#: One candidate of the co-search: an architecture on a configuration.
Pair = tuple[Cell | MacroSpec, AcceleratorConfig]


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

    spec: SearchSpec
    space: AcceleratorSpace
    pairs: list[PairRecord]
    objective: np.ndarray
    archive: ParetoArchive
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
        return [
            f"co-search over {self.space.size} hardware points × cells "
            f"({self.spec.metric}, accuracy >= {self.spec.min_accuracy:.2f}): "
            f"{len(self.pairs)} pairs over {len(self.generations)} generations, "
            f"{verdict}, front {len(self.archive)} points, "
            f"{self.elapsed_seconds:.2f}s",
            *generation_table(self.generations),
        ]


def pair_key(cell: Cell | MacroSpec, digest: str) -> str:
    """Identity of one (architecture, configuration) pair (archive/dedup key)."""
    return f"{cell.fingerprint}@{digest}"


def _key_of(pair: Pair) -> str:
    cell, config = pair
    return pair_key(cell, config_digest(config))


class CoSearchEngine:
    """Regularized evolution over joint (cell, configuration) pairs.

    Parameters
    ----------
    spec:
        The co-search to run: an ``"evolution"`` search spec, whose
        ``config_name`` the co-search does not read (the hardware axis is
        *space*).
    space:
        The hardware grid the configuration axis moves over.
    network_config:
        Macro-architecture used to expand candidate cells.
    accuracy_model:
        Surrogate accuracy oracle (shared with feasibility decisions).
    """

    def __init__(
        self,
        spec: SearchSpec,
        space: AcceleratorSpace,
        network_config: NetworkConfig | None = None,
        accuracy_model: SurrogateAccuracyModel | None = None,
    ):
        if spec.strategy != "evolution":
            raise SearchError(
                f"the co-search runs regularized evolution; got strategy {spec.strategy!r}"
            )
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
        start = time.perf_counter()
        evolution = Evolution(spec, self.network_config, progress)
        records: list[PairRecord] = []

        for generation in range(spec.generations):
            with obs.span("cosearch.generation", generation=generation):
                with obs.span("cosearch.propose", generation=generation):
                    pairs = self._propose(generation, evolution, records)
                with obs.span(
                    "cosearch.evaluate", generation=generation, pairs=len(pairs)
                ):
                    costs, accuracies = self._evaluate(pairs)

            new = len(records)
            for (cell, config), cost, accuracy in zip(pairs, costs, accuracies):
                records.append(
                    PairRecord(
                        index=len(records),
                        cell=cell,
                        config=config,
                        key=_key_of((cell, config)),
                        accuracy=float(accuracy),
                        cost=float(cost),
                        generation=generation,
                    )
                )
            evolution.record(
                generation,
                [record.cell for record in records[new:]],
                [record.key for record in records[new:]],
                np.array([record.cost for record in records]),
                np.array([record.accuracy for record in records]),
            )

        assert evolution.archive is not None
        return CoSearchResult(
            spec=spec,
            space=self.space,
            pairs=records,
            objective=evolution.objective,
            archive=evolution.archive,
            generations=evolution.rows,
            best_index=evolution.best_index,
            elapsed_seconds=time.perf_counter() - start,
        )

    # ------------------------------------------------------------------ #
    # Evaluation (one config-axis vectorized pass per generation)
    # ------------------------------------------------------------------ #
    def _evaluate(self, pairs: Sequence[Pair]) -> tuple[np.ndarray, np.ndarray]:
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
        self, generation: int, evolution: Evolution, records: list[PairRecord]
    ) -> list[Pair]:
        """The next generation's unique (cell, configuration) pairs."""
        rng = evolution.rng

        def random(batch: set[str]) -> Pair:
            return evolution.unseen(
                lambda: (evolution.random_architecture(), self.space.sample(rng)),
                batch,
                key=_key_of,
            )

        def child(batch: set[str]) -> Pair:
            """A hardware step or a cell mutation of a tournament winner."""
            parent = records[evolution.tournament()]
            if rng.random() < HARDWARE_MOVE_PROBABILITY:
                moves = self.space.neighbors(parent.config)
                for position in rng.permutation(len(moves)):
                    config = moves[int(position)]
                    if evolution.is_new(_key_of((parent.cell, config)), batch):
                        return parent.cell, config
                # The whole hardware neighborhood of this cell is exhausted;
                # fall through to a cell mutation on the parent's hardware.
            digest = config_digest(parent.config)
            try:
                cell = evolution.mutate(
                    parent.cell, batch, key=lambda arch: pair_key(arch, digest)
                )
            except DatasetError:
                # Inject fresh diversity instead of stalling the generation.
                obs.count("search.random_fallbacks")
                return random(batch)
            return cell, parent.config

        draw = random if generation == 0 else child
        return evolution.batch(self.spec.population_size, draw, key=_key_of)


def studied_baselines(
    spec: SearchSpec, config_names: Sequence[str] = ("V1", "V2", "V3")
) -> dict[str, tuple[float, float]]:
    """Best ``(cost, accuracy)`` of fixed-hardware searches at the same budget.

    Runs one :class:`~repro.search.SearchEngine` per studied configuration
    on the co-search's own spec — the identical simulation budget spent on
    the cell axis alone.  Configurations that cannot serve the metric
    (energy on V3) are skipped.  The returned points are what
    :meth:`CoSearchResult.dominates` is meant to be checked against.
    """
    baselines: dict[str, tuple[float, float]] = {}
    for name in config_names:
        try:
            result = SearchEngine(replace(spec, config_name=name)).run()
        except SearchError:
            continue
        if np.isfinite(result.best_objective):
            baselines[name] = (result.best_objective, result.best_accuracy)
    return baselines
