"""Declarative specification of one architecture search.

A :class:`SearchSpec` pins down everything that determines a search run —
strategy, objective, budget shape, mutation limits, seed and predictor
hyperparameters — so that a run is exactly reproducible from its spec and a
killed or repeated run over the same :class:`~repro.service.MeasurementStore`
regenerates identical generations, loading every shard already on disk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.predictor import SUPPORTED_METRICS, LearnedPerformanceModel, TrainingSettings
from ..errors import SearchError
from ..nasbench.ops import MAX_EDGES, MAX_VERTICES

#: The supported search strategies, in canonical order.
STRATEGIES: tuple[str, ...] = ("random", "evolution", "predictor")

#: The supported architecture spaces: the legacy fixed-backbone cell space
#: and the staged macro space (per-stage cells, depths and widths).
ARCH_SPACES: tuple[str, ...] = ("cell", "macro")


@dataclass(frozen=True)
class SearchSpec:
    """One hardware-aware architecture search over the NASBench cell space.

    The search minimizes *metric* on *config_name* subject to the paper's
    accuracy filter (models below *min_accuracy* are treated as infeasible
    and can never be the search winner), over a simulation budget of
    ``population_size * generations`` models — identical for every strategy,
    which is what makes the strategies comparable at fixed cost.

    Parameters
    ----------
    strategy:
        ``"random"`` evaluates fresh unique samples every generation
        (the baseline); ``"evolution"`` is regularized evolution
        (tournament select → mutate → age out the oldest); ``"predictor"``
        scores a ``pool_factor``-times larger mutant pool with
        :meth:`repro.service.SweepService.predict` and simulates only the
        most promising ``population_size`` candidates.
    population_size:
        Models simulated per generation; also the size of the evolutionary
        population and of the aging window.
    tournament_size:
        Candidates drawn per tournament when selecting a mutation parent.
    pool_factor:
        Predictor strategy only: mutant-pool size as a multiple of
        *population_size* (the simulated "top fraction" is its inverse).
    arch_space:
        ``"cell"`` searches cells expanded through the shared backbone;
        ``"macro"`` searches staged :class:`~repro.nasbench.macro.MacroSpec`
        architectures (per-stage cells, depth and width schedules).  The
        predictor strategy is cell-only: its features are cell-structural.
    predictor_settings:
        Hyperparameters of the learned model the predictor strategy refits
        each generation on all measurements so far (fewer epochs than the
        :class:`TrainingSettings` default: the model is retrained often on
        small populations).
    """

    strategy: str = "evolution"
    config_name: str = "V1"
    metric: str = "latency"
    min_accuracy: float = 0.70
    population_size: int = 24
    generations: int = 8
    tournament_size: int = 4
    pool_factor: int = 4
    seed: int = 0
    max_vertices: int = MAX_VERTICES
    max_edges: int = MAX_EDGES
    predictor_settings: TrainingSettings = field(default_factory=lambda: TrainingSettings(epochs=8))
    enable_parameter_caching: bool = True
    arch_space: str = "cell"

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise SearchError(
                f"unknown search strategy {self.strategy!r}; expected one of {STRATEGIES}"
            )
        if self.arch_space not in ARCH_SPACES:
            raise SearchError(
                f"unknown architecture space {self.arch_space!r}; "
                f"expected one of {ARCH_SPACES}"
            )
        if self.arch_space == "macro" and self.strategy == "predictor":
            raise SearchError(
                "the predictor strategy only supports the cell space "
                "(its features are cell-structural)"
            )
        if self.metric not in SUPPORTED_METRICS:
            raise SearchError(
                f"unknown metric {self.metric!r}; expected one of {SUPPORTED_METRICS}"
            )
        if self.population_size < 2:
            raise SearchError("population_size must be at least 2")
        if self.generations < 1:
            raise SearchError("a search needs at least one generation")
        if self.tournament_size < 1:
            raise SearchError("tournament_size must be at least 1")
        if self.pool_factor < 2:
            raise SearchError(
                "pool_factor must be at least 2 (the predictor must have "
                "more candidates than it simulates)"
            )
        if (
            self.strategy == "predictor"
            and self.population_size < LearnedPerformanceModel.MIN_FIT_SAMPLES
        ):
            raise SearchError(
                "the predictor strategy needs population_size >= "
                f"{LearnedPerformanceModel.MIN_FIT_SAMPLES} so the first "
                "generation can train the learned model"
            )
        if not 3 <= self.max_vertices <= MAX_VERTICES:
            raise SearchError(f"max_vertices must be in [3, {MAX_VERTICES}]")
        if not 2 <= self.max_edges <= MAX_EDGES:
            raise SearchError(
                f"max_edges must be in [2, {MAX_EDGES}]: a random draw has at least "
                "3 vertices, so it needs at least 2 edges"
            )

    @property
    def simulation_budget(self) -> int:
        """Total models simulated by the search (identical across strategies)."""
        return self.population_size * self.generations
