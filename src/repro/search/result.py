"""Result types of one architecture search run."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analysis.archive import ParetoArchive
from ..errors import SearchError
from ..nasbench.cell import Cell
from ..nasbench.dataset import ModelRecord, NASBenchDataset
from ..service.store import StoreStats
from ..simulator.runner import MeasurementSet
from .spec import SearchSpec


@dataclass(frozen=True)
class GenerationStats:
    """Progress snapshot taken after one generation's evaluation.

    ``evaluated``, ``feasible``, ``generation_best`` and ``admitted`` describe
    this generation's candidates only; ``best_objective`` and ``hypervolume``
    are cumulative (best-so-far, frontier-so-far).
    """

    generation: int
    evaluated: int
    feasible: int
    generation_best: float
    best_objective: float
    hypervolume: float
    admitted: int


def generation_table(rows: list[GenerationStats]) -> list[str]:
    """The per-generation progress table of a search or co-search, header first."""
    return [
        f"{'gen':>4}{'evaluated':>11}{'feasible':>10}"
        f"{'gen best':>12}{'best so far':>13}{'hypervolume':>13}{'admitted':>10}",
        *(
            f"{row.generation:>4}{row.evaluated:>11}{row.feasible:>10}"
            f"{row.generation_best:>12.4f}{row.best_objective:>13.4f}"
            f"{row.hypervolume:>13.5f}{row.admitted:>10}"
            for row in rows
        ),
    ]


@dataclass
class SearchResult:
    """Everything one :meth:`SearchEngine.run` call produced.

    ``objective`` is the scalarized cost per evaluated model (the raw metric
    for feasible models, ``inf`` for models below the accuracy floor or
    without a measurement); it is aligned with ``dataset`` and
    ``measurements`` exactly like every other array in the repo.
    """

    spec: SearchSpec
    dataset: NASBenchDataset
    measurements: MeasurementSet
    objective: np.ndarray
    archive: ParetoArchive
    generations: list[GenerationStats] = field(default_factory=list)
    best_index: int = -1
    store_stats: StoreStats = field(default_factory=StoreStats)
    elapsed_seconds: float = 0.0

    # ------------------------------------------------------------------ #
    # Winner accessors
    # ------------------------------------------------------------------ #
    @property
    def best_record(self) -> ModelRecord:
        """The dataset record of the best feasible model found."""
        if self.best_index < 0 or not np.isfinite(self.objective[self.best_index]):
            raise SearchError(
                "the search found no feasible model (every candidate fell "
                "below the accuracy floor)"
            )
        return self.dataset[self.best_index]

    @property
    def best_cell(self) -> Cell:
        """The best feasible cell found."""
        return self.best_record.cell

    @property
    def best_objective(self) -> float:
        """Objective value of the winner (``inf`` if nothing was feasible)."""
        if self.best_index < 0:
            return float("inf")
        return float(self.objective[self.best_index])

    @property
    def best_accuracy(self) -> float:
        """Mean validation accuracy of the winner."""
        return self.best_record.mean_validation_accuracy

    @property
    def num_evaluated(self) -> int:
        """Unique models simulated by the search."""
        return len(self.dataset)

    def summary_lines(self) -> list[str]:
        """Human-readable per-generation progress table."""
        unit = "ms" if self.spec.metric == "latency" else "mJ"
        return [
            f"search {self.spec.strategy!r} on {self.spec.config_name} "
            f"({self.spec.metric}, accuracy >= {self.spec.min_accuracy:.2f}): "
            f"{self.num_evaluated} models over {len(self.generations)} generations, "
            f"best {self.best_objective:.4f} {unit}, "
            f"front {len(self.archive)} points, {self.elapsed_seconds:.2f}s",
            *generation_table(self.generations),
        ]
