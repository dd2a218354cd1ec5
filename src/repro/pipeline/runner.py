"""End-to-end experiment runner: sample → label → split → train → evaluate.

:func:`run_experiment` executes the paper's Table 8 workflow as one call:

1. **sample** the population described by the experiment's
   :class:`~repro.pipeline.experiment.PopulationSpec` (deterministic seed);
2. **label** it with the vectorized :class:`~repro.simulator.batch.BatchSimulator`
   sweep over every configuration of the grid (cached as npz);
3. **pack** the cells into one :class:`~repro.core.graph_table.GraphTable`
   shared by every model of the grid;
4. **train** one :class:`~repro.core.predictor.LearnedPerformanceModel` per
   (configuration, metric) cell of the grid — 60/20/20 split and shuffling
   seeded from the experiment settings — restoring weights from the cache
   when an identical model was trained before;
5. **evaluate** each model on its held-out test split (Table 8 metrics).

The returned :class:`ExperimentResult` carries the raw
:class:`~repro.simulator.runner.MeasurementSet`, so pipeline output flows
straight into the array-based ``repro.analysis`` entry points.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .. import obs
from ..arch.config import get_config
from ..core.graph_table import GraphTable
from ..core.metrics import EstimationReport
from ..core.predictor import LearnedPerformanceModel, metric_targets
from ..errors import ModelError, PipelineError
from ..nasbench.dataset import NASBenchDataset
from ..simulator.batch import BatchSimulator
from ..simulator.runner import MeasurementSet
from .cache import CacheStats, ExperimentCache
from .experiment import Experiment


@dataclass(frozen=True)
class GridCellResult:
    """One (configuration, metric) cell of the experiment grid."""

    config_name: str
    metric: str
    model: LearnedPerformanceModel
    report: EstimationReport
    from_cache: bool


@dataclass
class ExperimentResult:
    """Everything one :func:`run_experiment` call produced."""

    experiment: Experiment
    dataset: NASBenchDataset
    measurements: MeasurementSet
    models: dict[tuple[str, str], GridCellResult]
    skipped: list[tuple[str, str, str]] = field(default_factory=list)
    cache_stats: CacheStats = field(default_factory=CacheStats)
    elapsed_seconds: float = 0.0

    def model(self, config_name: str, metric: str = "latency") -> LearnedPerformanceModel:
        """The trained model of one grid cell."""
        return self._cell(config_name, metric).model

    def report(self, config_name: str, metric: str = "latency") -> EstimationReport:
        """The held-out Table 8 report of one grid cell."""
        return self._cell(config_name, metric).report

    def summary_lines(self) -> list[str]:
        """Human-readable Table 8-style summary of the whole grid."""
        lines = [
            f"Experiment {self.experiment.name!r}: "
            f"{len(self.dataset)} models, grid "
            f"{len(self.experiment.config_names)} configs x "
            f"{len(self.experiment.metrics)} metrics, "
            f"cache {self.cache_stats.hits} hits / {self.cache_stats.misses} misses, "
            f"{self.elapsed_seconds:.2f}s"
        ]
        header = (
            f"{'config':<8}{'metric':<10}{'accuracy':>10}"
            f"{'spearman':>10}{'pearson':>10}{'cached':>8}"
        )
        lines.append(header)
        for (config_name, metric), cell in sorted(self.models.items()):
            lines.append(
                f"{config_name:<8}{metric:<10}"
                f"{cell.report.average_accuracy:>10.4f}"
                f"{cell.report.spearman:>10.5f}"
                f"{cell.report.pearson:>10.5f}"
                f"{'yes' if cell.from_cache else 'no':>8}"
            )
        for config_name, metric, reason in self.skipped:
            lines.append(f"{config_name:<8}{metric:<10}  skipped: {reason}")
        return lines

    def _cell(self, config_name: str, metric: str) -> GridCellResult:
        try:
            return self.models[(config_name, metric)]
        except KeyError as exc:
            raise PipelineError(
                f"experiment has no trained model for ({config_name!r}, {metric!r})"
            ) from exc


def run_experiment(
    experiment: Experiment,
    cache_dir: str | Path | None = None,
    progress: Callable[[str], None] | None = None,
    compact: bool = False,
) -> ExperimentResult:
    """Run *experiment* end to end, reusing cached artifacts when possible.

    With *cache_dir* set, simulator measurements and trained weights are
    stored as npz files keyed by the experiment's stable hashes; a repeated
    run with an unchanged spec then skips both the sweep and every training
    loop.  Grid cells whose metric is unavailable for a configuration (energy
    on V3) are skipped and listed in ``result.skipped``.

    With *compact* (requires *cache_dir*), the finished labeling sweep is
    additionally merged into one memory-mapped consolidated file
    (:meth:`~repro.service.store.MeasurementStore.compact`), so warm re-runs
    load the measurements in O(open) instead of one npz per (shard,
    configuration) pair.
    """
    start = time.perf_counter()
    say = progress or (lambda message: None)

    say(f"sampling population ({experiment.population.num_models} models)")
    with obs.span("pipeline.sample", models=experiment.population.num_models):
        dataset = experiment.population.build()

    cache = ExperimentCache(Path(cache_dir)) if cache_dir is not None else None
    configs = [get_config(name) for name in experiment.config_names]

    if cache is not None:
        # Labeling goes through the resumable shard store: shards already on
        # disk are loaded and only the missing (shard, config) pairs are
        # simulated, so an interrupted labeling sweep resumes where it
        # stopped instead of restarting.
        store = cache.measurement_store(
            experiment.measurement_key(),
            enable_parameter_caching=experiment.enable_parameter_caching,
        )
        say(f"labeling population on {len(configs)} configurations (sharded sweep)")
        with obs.span("pipeline.label", configs=len(configs), models=len(dataset)):
            measurements = store.extend(dataset, configs=configs)
        if store.stats.pairs_simulated == 0:
            cache.stats.measurement_hits += 1
            say("labeling: measurement store hit (every shard on disk)")
        else:
            cache.stats.measurement_misses += 1
            say(
                f"labeling: simulated {store.stats.pairs_simulated} and loaded "
                f"{store.stats.pairs_loaded} (shard, config) pairs"
            )
        if compact:
            with obs.span("pipeline.compact"):
                result = store.compact(dataset, configs=configs)
            say(
                f"compacted {result.pairs} (shard, config) pairs into "
                f"{result.data_path.name} ({result.loose_removed} loose files removed)"
            )
    else:
        if compact:
            raise PipelineError("compact=True requires a cache_dir to compact into")
        say(f"labeling population on {len(configs)} configurations (vectorized sweep)")
        with obs.span("pipeline.label", configs=len(configs), models=len(dataset)):
            simulator = BatchSimulator(
                enable_parameter_caching=experiment.enable_parameter_caching
            )
            measurements = simulator.evaluate(dataset, configs=configs)

    say("packing graph table")
    with obs.span("pipeline.pack", models=len(dataset)):
        table = GraphTable.from_cells([record.cell for record in dataset])

    models: dict[tuple[str, str], GridCellResult] = {}
    skipped: list[tuple[str, str, str]] = []
    for config_name in experiment.config_names:
        for metric in experiment.metrics:
            try:
                targets = metric_targets(measurements, config_name, metric)
            except ModelError as exc:
                say(f"skipping {config_name}/{metric}: {exc}")
                skipped.append((config_name, metric, str(exc)))
                continue
            key = experiment.model_key(config_name, metric)
            model = LearnedPerformanceModel(config_name, experiment.settings)
            state = cache.load_model_state(key) if cache is not None else None
            if state is not None:
                try:
                    model.restore_state(table, state)
                except ModelError as exc:
                    # Stale artifact (e.g. the sampler changed under an
                    # unchanged spec): recompute instead of mislabeling.
                    say(f"discarding stale cache for {config_name}/{metric}: {exc}")
                    cache.reclassify_model_hit_as_miss()
                    state = None
                    model = LearnedPerformanceModel(config_name, experiment.settings)
            if state is not None:
                say(f"restoring {config_name}/{metric} from cache")
                from_cache = True
            else:
                say(f"training {config_name}/{metric} ({experiment.settings.epochs} epochs)")
                with obs.span(
                    "pipeline.train",
                    config=config_name,
                    metric=metric,
                    epochs=experiment.settings.epochs,
                ):
                    model.fit_table(table, targets)
                if cache is not None:
                    cache.save_model_state(key, model.export_state())
                from_cache = False
            models[(config_name, metric)] = GridCellResult(
                config_name=config_name,
                metric=metric,
                model=model,
                report=model.evaluate("test"),
                from_cache=from_cache,
            )

    if not models:
        raise PipelineError("every grid cell of the experiment was skipped; nothing was trained")
    return ExperimentResult(
        experiment=experiment,
        dataset=dataset,
        measurements=measurements,
        models=models,
        skipped=skipped,
        cache_stats=cache.stats if cache is not None else CacheStats(),
        elapsed_seconds=time.perf_counter() - start,
    )
