"""Batch evaluation of a dataset of models across accelerator configurations.

The paper's headline experiment simulates every NASBench model on all three
Edge TPU classes (Section 6, "Inference latency and energy measurements"):
roughly 1.5 million latency measurements and 900 thousand energy measurements.
:func:`evaluate_dataset` reproduces that sweep over a
:class:`~repro.nasbench.dataset.NASBenchDataset`, and
:class:`MeasurementSet` stores the aligned result arrays that the analysis
and benchmark modules consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from ..arch.config import STUDIED_CONFIGS, AcceleratorConfig
from ..errors import SimulationError
from ..nasbench.dataset import ModelRecord, NASBenchDataset
from .engine import PerformanceSimulator
from .results import SimulationResult


@dataclass(frozen=True)
class ModelMeasurement:
    """Latency/energy of one model on one accelerator configuration."""

    model_index: int
    fingerprint: str
    config_name: str
    latency_ms: float
    energy_mj: float | None


class MeasurementSet:
    """Aligned latency/energy arrays for a dataset across configurations.

    The arrays returned by :meth:`latencies` and :meth:`energies` are indexed
    exactly like ``dataset.records``, which makes joint filtering (for example
    the paper's 70% accuracy threshold) a matter of boolean masking.
    """

    def __init__(
        self,
        dataset: NASBenchDataset,
        latencies_ms: dict[str, np.ndarray],
        energies_mj: dict[str, np.ndarray],
    ):
        self._dataset = dataset
        self._latencies = {
            name: np.asarray(values, dtype=float) for name, values in latencies_ms.items()
        }
        self._energies = {
            name: np.asarray(values, dtype=float) for name, values in energies_mj.items()
        }
        if set(self._latencies) != set(self._energies):
            raise SimulationError(
                "latency and energy arrays cover different configurations: "
                f"{sorted(set(self._latencies) ^ set(self._energies))} "
                "(configurations without an energy model must pass NaN arrays)"
            )
        for kind, arrays in (("latency", self._latencies), ("energy", self._energies)):
            for name, values in arrays.items():
                if len(values) != len(dataset):
                    raise SimulationError(
                        f"{kind} array for {name} has {len(values)} entries for "
                        f"{len(dataset)} models"
                    )

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def dataset(self) -> NASBenchDataset:
        """The dataset the measurements were taken on."""
        return self._dataset

    @property
    def config_names(self) -> list[str]:
        """Names of the accelerator configurations measured."""
        return list(self._latencies)

    def latencies(self, config_name: str) -> np.ndarray:
        """Latency in ms of every model on *config_name* (dataset order)."""
        return self._latencies[config_name]

    def energies(self, config_name: str) -> np.ndarray:
        """Energy in mJ of every model on *config_name* (NaN when unavailable)."""
        return self._energies[config_name]

    def has_energy(self, config_name: str) -> bool:
        """Whether an energy model was available for *config_name*."""
        return bool(np.isfinite(self._energies[config_name]).any())

    def latency_of(self, record: ModelRecord, config_name: str) -> float:
        """Latency of one dataset record on *config_name*."""
        return float(self._latencies[config_name][record.index])

    def energy_of(self, record: ModelRecord, config_name: str) -> float | None:
        """Energy of one dataset record on *config_name* (None if unavailable)."""
        value = float(self._energies[config_name][record.index])
        return None if np.isnan(value) else value

    # ------------------------------------------------------------------ #
    # Derived groupings
    # ------------------------------------------------------------------ #
    def best_config_per_model(self) -> list[str]:
        """Name of the lowest-latency configuration for every model."""
        names = self.config_names
        stacked = np.vstack([self._latencies[name] for name in names])
        winners = np.argmin(stacked, axis=0)
        return [names[index] for index in winners]

    def accuracy_mask(self, min_accuracy: float = 0.70) -> np.ndarray:
        """Boolean mask of models meeting the accuracy threshold."""
        return self._dataset.accuracies() >= min_accuracy

    def subset(self, mask: np.ndarray) -> "MeasurementSubset":
        """Return a filtered view (used for the >=70% accuracy population)."""
        return MeasurementSubset(self, np.asarray(mask, dtype=bool))


class MeasurementSubset:
    """A boolean-mask view over a :class:`MeasurementSet`."""

    def __init__(self, measurements: MeasurementSet, mask: np.ndarray):
        if mask.shape != (len(measurements.dataset),):
            raise SimulationError("mask shape does not match the dataset")
        self._measurements = measurements
        self._mask = mask

    @property
    def mask(self) -> np.ndarray:
        """The boolean mask defining the subset."""
        return self._mask

    @property
    def size(self) -> int:
        """Number of models in the subset."""
        return int(self._mask.sum())

    def latencies(self, config_name: str) -> np.ndarray:
        """Latencies of the subset on *config_name*."""
        return self._measurements.latencies(config_name)[self._mask]

    def energies(self, config_name: str) -> np.ndarray:
        """Energies of the subset on *config_name*."""
        return self._measurements.energies(config_name)[self._mask]

    def accuracies(self) -> np.ndarray:
        """Accuracies of the subset models."""
        return self._measurements.dataset.accuracies()[self._mask]

    def records(self) -> list[ModelRecord]:
        """Dataset records of the subset."""
        return [
            record
            for record, keep in zip(self._measurements.dataset.records, self._mask)
            if keep
        ]


def evaluate_dataset(
    dataset: NASBenchDataset,
    configs: Iterable[AcceleratorConfig] | None = None,
    enable_parameter_caching: bool = True,
    progress_callback: Callable[[str, int, int], None] | None = None,
    strategy: str = "vectorized",
) -> MeasurementSet:
    """Simulate every model of *dataset* on every configuration, in memory.

    A sweep that must persist and resume goes through
    :meth:`~repro.service.store.MeasurementStore.extend`; one shared across
    processes or hosts through :class:`~repro.service.worker.SweepWorker`.

    Parameters
    ----------
    dataset:
        The model population.
    configs:
        Accelerator configurations to evaluate (defaults to the paper's V1,
        V2 and V3).
    enable_parameter_caching:
        Forwarded to the simulator; the paper's results have it enabled.
    progress_callback:
        Optional ``callback(config_name, done, total)`` hook for long sweeps.
        The scalar walk ticks every 500 models plus a guaranteed final
        ``(total, total)`` tick; the vectorized engine reports once per
        completed configuration.
    strategy:
        ``"vectorized"`` (default) dispatches to the structure-of-arrays
        :class:`~repro.simulator.batch.BatchSimulator`; ``"scalar"`` walks the
        population one model at a time through the
        :class:`PerformanceSimulator` (escape hatch, used by the equivalence
        tests and throughput benchmarks).
    """
    if strategy == "vectorized":
        from .batch import BatchSimulator  # deferred: batch imports MeasurementSet

        return BatchSimulator(enable_parameter_caching=enable_parameter_caching).evaluate(
            dataset, configs=configs, progress_callback=progress_callback
        )
    if strategy != "scalar":
        raise SimulationError(
            f"unknown sweep strategy {strategy!r}; expected 'vectorized' or 'scalar'"
        )

    config_list: Sequence[AcceleratorConfig] = (
        list(configs) if configs is not None else list(STUDIED_CONFIGS.values())
    )
    if not config_list:
        raise SimulationError("no accelerator configurations were provided")

    latencies: dict[str, np.ndarray] = {}
    energies: dict[str, np.ndarray] = {}
    total = len(dataset)

    # Networks are built once and shared across configurations (they do not
    # depend on the accelerator), instead of once per configuration.
    networks = [record.build_network(dataset.network_config) for record in dataset]

    for config in config_list:
        simulator = PerformanceSimulator(config, enable_parameter_caching=enable_parameter_caching)
        latency_array = np.empty(total, dtype=float)
        energy_array = np.full(total, np.nan, dtype=float)
        for index, network in enumerate(networks):
            result = simulator.simulate(network)
            latency_array[index] = result.latency_ms
            if result.energy_mj is not None:
                energy_array[index] = result.energy_mj
            if progress_callback is not None and (index + 1) % 500 == 0:
                progress_callback(config.name, index + 1, total)
        # The 500-model cadence alone would skip the completion tick whenever
        # the population size is not a multiple of 500.
        if progress_callback is not None and total % 500 != 0:
            progress_callback(config.name, total, total)
        latencies[config.name] = latency_array
        energies[config.name] = energy_array

    return MeasurementSet(dataset, latencies, energies)


def simulate_records(
    records: Iterable[ModelRecord],
    config: AcceleratorConfig,
    enable_parameter_caching: bool = True,
) -> list[SimulationResult]:
    """Simulate a handful of records on one configuration (detailed results)."""
    simulator = PerformanceSimulator(
        config,
        enable_parameter_caching=enable_parameter_caching,
        collect_layer_results=True,
    )
    return [simulator.simulate(record.build_network()) for record in records]
