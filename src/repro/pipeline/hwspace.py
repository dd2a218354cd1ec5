"""Cached hardware design-space sweep experiments.

Gives a hardware grid sweep the same lifecycle the model grid and the
architecture searches have: the experiment hashes to a stable key (the
space's content digest × the population spec × the compiler mode), the
per-configuration measurements persist as
:class:`~repro.service.MeasurementStore` shards under ``hwsweep-<key>``, and
re-running an unchanged experiment replays entirely from disk while an
interrupted grid sweep resumes with exactly the missing configurations.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

from .. import obs
from ..errors import PipelineError
from ..hwspace.frontier import COST_PROXIES, ConfigPoint, HardwareFrontier
from ..hwspace.space import AcceleratorSpace
from ..service.store import MeasurementStore, StoreStats
from ..simulator.runner import MeasurementSet
from .experiment import CACHE_FORMAT_VERSION, PopulationSpec, stable_key


@dataclass(frozen=True)
class HardwareSweepExperiment:
    """One named, cacheable hardware design-space sweep."""

    name: str
    space: AcceleratorSpace
    population: PopulationSpec = field(default_factory=PopulationSpec)
    enable_parameter_caching: bool = True
    min_accuracy: float = 0.70

    def sweep_key(self) -> str:
        """Stable digest of everything that determines the sweep's arrays.

        The experiment *name* is deliberately excluded (renaming must not
        invalidate cached shards); the space enters through its content
        digest, so rewriting the same grid differently changes nothing.
        """
        return stable_key(
            {
                "kind": "hwsweep",
                "version": CACHE_FORMAT_VERSION,
                "population": asdict(self.population),
                "space": self.space.digest,
                "parameter_caching": self.enable_parameter_caching,
            }
        )


@dataclass
class HardwareSweepResult:
    """A finished (or replayed) hardware sweep with its Pareto frontiers."""

    experiment: HardwareSweepExperiment
    points: list[ConfigPoint]
    #: One frontier per cost proxy (performance = mean latency).
    frontiers: dict[str, list[ConfigPoint]]
    measurements: MeasurementSet
    store_stats: StoreStats
    replayed: bool
    elapsed_seconds: float


def run_hardware_sweep(
    experiment: HardwareSweepExperiment,
    cache_dir: str | Path | None = None,
    progress_callback: Callable[[str, int, int], None] | None = None,
    compact: bool = False,
) -> HardwareSweepResult:
    """Sweep the experiment's population over its whole hardware grid.

    With *cache_dir* set, measurements live under ``hwsweep-<key>`` shards in
    that directory: a repeated run with an unchanged experiment simulates
    nothing (``result.replayed`` is ``True``) and an interrupted sweep
    resumes with only the missing (shard, configuration) pairs.  The result
    carries one hardware Pareto frontier per cost proxy (peak TOPS and total
    SRAM), both measured as mean latency over the accuracy-filtered
    population.

    With *compact* (requires *cache_dir*), the finished grid sweep is merged
    into one memory-mapped consolidated file — a wide hardware grid is
    exactly the many-small-files regime compaction exists for (pairs scale
    with ``shards × grid points``), so warm replays become O(open).
    """
    start = time.perf_counter()
    store = None
    if cache_dir is not None:
        store = MeasurementStore(
            Path(cache_dir),
            enable_parameter_caching=experiment.enable_parameter_caching,
            prefix=f"hwsweep-{experiment.sweep_key()}",
        )
    with obs.span("hwsweep.build", models=experiment.population.num_models):
        dataset = experiment.population.build()
    frontier = HardwareFrontier(
        dataset,
        store=store,
        enable_parameter_caching=experiment.enable_parameter_caching,
        min_accuracy=experiment.min_accuracy,
    )
    configs = list(experiment.space.enumerate())
    with obs.span("hwsweep.sweep", configs=len(configs), models=len(dataset)):
        measurements = frontier.sweep(configs, progress_callback=progress_callback)
    if compact:
        if store is None:
            raise PipelineError("compact=True requires a cache_dir to compact into")
        with obs.span("hwsweep.compact"):
            store.compact(dataset, configs=configs)
    with obs.span("hwsweep.frontier", points=len(configs)):
        points = frontier.summarize(configs, measurements)
        frontiers = {
            cost: frontier.pareto(points, metric="mean_latency_ms", cost=cost)
            for cost in COST_PROXIES
        }
    return HardwareSweepResult(
        experiment=experiment,
        points=points,
        frontiers=frontiers,
        measurements=measurements,
        store_stats=store.stats if store is not None else StoreStats(),
        replayed=store is not None and store.stats.pairs_simulated == 0,
        elapsed_seconds=time.perf_counter() - start,
    )
