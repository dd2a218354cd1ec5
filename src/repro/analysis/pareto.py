"""Accuracy-latency trade-off analyses (paper Figures 5, 7, 8 and 9).

Figure 5 is the accuracy-vs-latency scatter of the whole (filtered)
population per accelerator class; Figures 7/8 look at the two most accurate
cells individually; Figure 9 ranks the top-five most accurate models and
reports which accelerator class serves each with the lowest latency.

The entry points are array-first: :func:`accuracy_latency_arrays` and
:func:`pareto_front_mask` operate directly on the aligned arrays of a
:class:`~repro.simulator.runner.MeasurementSet` (the shape every sweep
produces), and the point-list functions the figure benchmarks
consume are thin wrappers that materialize those arrays into dataclasses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DatasetError
from ..nasbench.dataset import ModelRecord
from ..simulator.runner import MeasurementSet


@dataclass(frozen=True)
class AccuracyLatencyPoint:
    """One point of the Figure 5 scatter."""

    latency_ms: float
    accuracy: float
    model_index: int


def accuracy_latency_arrays(
    measurements: MeasurementSet,
    config_name: str,
    min_accuracy: float = 0.70,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Aligned ``(latencies, accuracies, model_indices)`` arrays of Figure 5.

    Applies the paper's accuracy filter and returns plain arrays, so sweep
    output feeds the analysis without per-model loops.
    """
    mask = measurements.accuracy_mask(min_accuracy)
    indices = np.nonzero(mask)[0]
    return (
        measurements.latencies(config_name)[indices],
        measurements.dataset.accuracies()[indices],
        indices,
    )


def pareto_front_mask(latencies: np.ndarray, accuracies: np.ndarray) -> np.ndarray:
    """Boolean mask of the non-dominated (latency ↓, accuracy ↑) points.

    Vectorized: points are ranked by latency ascending, then accuracy
    descending (stable, so exact duplicates keep input order), and a point
    survives iff its accuracy strictly exceeds the running maximum of every
    earlier-ranked point.  Latency ties are therefore resolved correctly:
    among equal-latency points only the most accurate survives (the earlier
    one in input order on exact duplicates), since the cheaper-or-equal
    better point dominates the rest.
    """
    latencies = np.asarray(latencies, dtype=float)
    accuracies = np.asarray(accuracies, dtype=float)
    if latencies.shape != accuracies.shape or latencies.ndim != 1:
        raise DatasetError("latencies and accuracies must be 1-D arrays of equal length")
    if latencies.size == 0:
        return np.zeros(0, dtype=bool)
    # lexsort is stable and keys right-to-left: latency is primary.
    order = np.lexsort((-accuracies, latencies))
    ordered_accuracy = accuracies[order]
    best_before = np.concatenate([[-np.inf], np.maximum.accumulate(ordered_accuracy)[:-1]])
    mask = np.zeros(latencies.size, dtype=bool)
    mask[order[ordered_accuracy > best_before]] = True
    return mask


def pareto_front_indices(
    measurements: MeasurementSet,
    config_name: str,
    min_accuracy: float = 0.70,
) -> np.ndarray:
    """Dataset indices of the frontier models, sorted by ascending latency.

    The array form of :func:`latency_accuracy_frontier`, used by the sweep
    service to answer Pareto queries without materializing point objects.
    """
    latencies, accuracies, indices = accuracy_latency_arrays(
        measurements, config_name, min_accuracy
    )
    mask = pareto_front_mask(latencies, accuracies)
    order = np.argsort(latencies[mask], kind="stable")
    return indices[mask][order]


def accuracy_latency_scatter(
    measurements: MeasurementSet,
    config_name: str,
    min_accuracy: float = 0.70,
) -> list[AccuracyLatencyPoint]:
    """Figure 5 series for one configuration (models above the accuracy filter)."""
    latencies, accuracies, indices = accuracy_latency_arrays(
        measurements, config_name, min_accuracy
    )
    return [
        AccuracyLatencyPoint(float(latency), float(accuracy), int(index))
        for latency, accuracy, index in zip(latencies, accuracies, indices)
    ]


@dataclass(frozen=True)
class TopModelEntry:
    """Figure 9 entry: one of the top-k accuracy models with its latencies."""

    rank: int
    record: ModelRecord
    accuracy: float
    latency_ms: dict[str, float]
    fastest_config: str
    speedup_over_best_model: dict[str, float]


def top_models_by_accuracy(
    measurements: MeasurementSet, k: int = 5
) -> list[TopModelEntry]:
    """Figure 9: the top-*k* accuracy models, annotated with per-config latency.

    The ``speedup_over_best_model`` field expresses, per configuration, how
    much faster the entry runs than the rank-1 (highest accuracy) model on the
    same configuration — the Figure 8 "1.78x" style numbers.
    """
    if k < 1:
        raise DatasetError("k must be at least 1")
    ranked = measurements.dataset.top_k_by_accuracy(k)
    best = ranked[0]
    entries = []
    for rank, record in enumerate(ranked, start=1):
        latency = {
            name: float(measurements.latencies(name)[record.index])
            for name in measurements.config_names
        }
        best_latency = {
            name: float(measurements.latencies(name)[best.index])
            for name in measurements.config_names
        }
        entries.append(
            TopModelEntry(
                rank=rank,
                record=record,
                accuracy=record.mean_validation_accuracy,
                latency_ms=latency,
                fastest_config=min(latency, key=latency.get),
                speedup_over_best_model={
                    name: best_latency[name] / latency[name] for name in latency
                },
            )
        )
    return entries


def latency_accuracy_frontier(
    measurements: MeasurementSet, config_name: str, min_accuracy: float = 0.70
) -> list[AccuracyLatencyPoint]:
    """Pareto frontier (non-dominated points) of the Figure 5 scatter."""
    latencies, accuracies, indices = accuracy_latency_arrays(
        measurements, config_name, min_accuracy
    )
    mask = pareto_front_mask(latencies, accuracies)
    front_latencies = latencies[mask]
    front_accuracies = accuracies[mask]
    front_indices = indices[mask]
    order = np.argsort(front_latencies, kind="stable")
    return [
        AccuracyLatencyPoint(
            float(front_latencies[position]),
            float(front_accuracies[position]),
            int(front_indices[position]),
        )
        for position in order
    ]
