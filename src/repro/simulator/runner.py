"""Aligned measurement arrays of a dataset across accelerator configurations.

The paper's headline experiment simulates every NASBench model on all three
Edge TPU classes (Section 6, "Inference latency and energy measurements"):
roughly 1.5 million latency measurements and 900 thousand energy measurements.
:meth:`~repro.simulator.batch.BatchSimulator.evaluate` reproduces that sweep
over a :class:`~repro.nasbench.dataset.NASBenchDataset`, and
:class:`MeasurementSet` stores the aligned result arrays that the analysis
and benchmark modules consume.
"""

from __future__ import annotations

import numpy as np

from ..errors import SimulationError
from ..nasbench.dataset import ModelRecord, NASBenchDataset


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
