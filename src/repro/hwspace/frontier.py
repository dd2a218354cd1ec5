"""Hardware-only Pareto analysis over a configuration grid.

Sweeping a workload population over an :class:`~repro.hwspace.space.AcceleratorSpace`
answers the paper's architectural question directly: which
microarchitectures are worth building?  A big accelerator is trivially
fast — the interesting designs are the ones no cheaper design beats.
:class:`HardwareFrontier` therefore summarizes each configuration's
performance over the population (mean/median latency, mean energy) next to
**cost proxies** derived from the configuration itself — peak TOPS (compute
area/power proxy) and total on-chip SRAM (die-area proxy) — and extracts the
(performance ↓, cost ↓) non-dominated set with the same
:func:`~repro.analysis.pareto.pareto_front_mask` kernel the accuracy/latency
analyses use.

Sweeps run through :meth:`BatchSimulator.evaluate_table_grid` — one
config-axis vectorized pass per population — or, with a
:class:`~repro.service.MeasurementStore`, through resumable shards keyed by
each grid point's content digest name (``hw-<digest>``), so an interrupted
grid sweep resumes with exactly the missing configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from ..analysis.pareto import pareto_front_mask
from ..arch.config import MIB, AcceleratorConfig
from ..errors import InvalidConfigError
from ..nasbench.dataset import NASBenchDataset
from ..service.store import MeasurementStore
from ..simulator.batch import BatchSimulator
from ..simulator.runner import MeasurementSet
from .space import config_digest

#: Attributes of :class:`ConfigPoint` usable as the performance objective.
PERFORMANCE_METRICS: tuple[str, ...] = ("mean_latency_ms", "median_latency_ms", "mean_energy_mj")

#: Attributes of :class:`ConfigPoint` usable as the hardware cost proxy.
COST_PROXIES: tuple[str, ...] = ("peak_tops", "total_sram_mib")


@dataclass(frozen=True)
class ConfigPoint:
    """One configuration's population summary plus its cost proxies."""

    config: AcceleratorConfig
    digest: str
    #: Models of the population meeting the accuracy floor (summary basis).
    num_models: int
    mean_latency_ms: float
    median_latency_ms: float
    #: NaN when the configuration has no energy model.
    mean_energy_mj: float
    peak_tops: float
    total_sram_mib: float


class HardwareFrontier:
    """Population-level hardware design-space analysis.

    Parameters
    ----------
    dataset:
        The workload population every configuration is summarized over.
    store:
        Optional resumable measurement store; without one, sweeps run
        in-memory through a :class:`BatchSimulator`.
    enable_parameter_caching:
        Compiler mode of the sweeps (must match the store's).
    min_accuracy:
        The paper's accuracy floor: summaries cover only models at or above
        it, so a configuration cannot look good by being fast on junk.
    """

    def __init__(
        self,
        dataset: NASBenchDataset,
        store: MeasurementStore | None = None,
        enable_parameter_caching: bool = True,
        min_accuracy: float = 0.70,
    ):
        if store is not None and store.enable_parameter_caching != enable_parameter_caching:
            raise InvalidConfigError(
                "measurement store and frontier disagree on parameter caching "
                f"(store={store.enable_parameter_caching}, "
                f"frontier={enable_parameter_caching}); the store would serve "
                "wrong-mode measurements"
            )
        self.dataset = dataset
        self.store = store
        self.min_accuracy = float(min_accuracy)
        self._simulator = BatchSimulator(enable_parameter_caching=enable_parameter_caching)
        self._mask = dataset.accuracies() >= self.min_accuracy
        if not self._mask.any():
            raise InvalidConfigError(
                f"no model of the population reaches accuracy {min_accuracy}; "
                "the frontier summaries would be empty"
            )

    # ------------------------------------------------------------------ #
    # Sweeping
    # ------------------------------------------------------------------ #
    def sweep(
        self,
        configs: Sequence[AcceleratorConfig],
        progress_callback: Callable[[str, int, int], None] | None = None,
    ) -> MeasurementSet:
        """Measure the population on every configuration of the grid."""
        configs = list(configs)
        if self.store is not None:
            return self.store.extend(
                self.dataset, configs=configs, progress_callback=progress_callback
            )
        return self._simulator.evaluate(
            self.dataset, configs=configs, progress_callback=progress_callback
        )

    def summarize(
        self,
        configs: Sequence[AcceleratorConfig],
        measurements: MeasurementSet | None = None,
    ) -> list[ConfigPoint]:
        """One :class:`ConfigPoint` per configuration (sweeping if needed)."""
        configs = list(configs)
        if measurements is None:
            measurements = self.sweep(configs)
        points = []
        for config in configs:
            latencies = measurements.latencies(config.name)[self._mask]
            energies = measurements.energies(config.name)[self._mask]
            finite_energy = energies[np.isfinite(energies)]
            points.append(
                ConfigPoint(
                    config=config,
                    digest=config_digest(config),
                    num_models=int(self._mask.sum()),
                    mean_latency_ms=float(latencies.mean()),
                    median_latency_ms=float(np.median(latencies)),
                    mean_energy_mj=(
                        float(finite_energy.mean()) if finite_energy.size else float("nan")
                    ),
                    peak_tops=float(config.peak_tops),
                    total_sram_mib=config.total_on_chip_memory_bytes / MIB,
                )
            )
        return points

    # ------------------------------------------------------------------ #
    # Pareto extraction
    # ------------------------------------------------------------------ #
    @staticmethod
    def pareto(
        points: Iterable[ConfigPoint],
        metric: str = "mean_latency_ms",
        cost: str = "peak_tops",
    ) -> list[ConfigPoint]:
        """The (performance ↓, cost ↓) non-dominated configurations.

        *metric* is one of :data:`PERFORMANCE_METRICS`, *cost* one of
        :data:`COST_PROXIES`.  Reuses the (min, max) Pareto kernel by
        negating the cost axis; points with a NaN metric (e.g. energy on a
        configuration without an energy model) are excluded.  The frontier
        is returned sorted by ascending performance.
        """
        if metric not in PERFORMANCE_METRICS:
            raise InvalidConfigError(
                f"unknown performance metric {metric!r}; expected one of "
                f"{PERFORMANCE_METRICS}"
            )
        if cost not in COST_PROXIES:
            raise InvalidConfigError(f"unknown cost proxy {cost!r}; expected one of {COST_PROXIES}")
        points = list(points)
        metric_values = np.array([getattr(point, metric) for point in points])
        cost_values = np.array([getattr(point, cost) for point in points])
        usable = np.isfinite(metric_values) & np.isfinite(cost_values)
        mask = np.zeros(len(points), dtype=bool)
        if usable.any():
            front = pareto_front_mask(metric_values[usable], -cost_values[usable])
            mask[np.flatnonzero(usable)[front]] = True
        frontier = [point for point, keep in zip(points, mask) if keep]
        return sorted(frontier, key=lambda point: getattr(point, metric))
