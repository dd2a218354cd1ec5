"""Evaluation metrics of the learned performance model (paper Table 8)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ModelError


def estimation_accuracy(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Average estimation accuracy: ``1 - mean(|pred - true| / true)``.

    This matches the paper's "average accuracy" of the learned model (~96-98%),
    i.e. one minus the mean absolute percentage error.
    """
    predictions, targets = _validate(predictions, targets)
    relative_error = np.abs(predictions - targets) / np.abs(targets)
    return float(1.0 - relative_error.mean())


def spearman_correlation(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Spearman rank-order correlation between predictions and ground truth.

    The Pearson correlation of the two arrays' average ranks: tied values share
    the mean of the ranks they span, as in ``scipy.stats.spearmanr``.  A
    constant argument (either one) has no defined correlation and returns
    ``nan`` without a warning, and so does a ``nan`` in either.
    """
    predictions, targets = _validate(predictions, targets)
    if np.isnan(predictions).any() or np.isnan(targets).any():
        return float("nan")  # ranking would give a nan a place of its own
    return _pearson(_average_ranks(predictions), _average_ranks(targets))


def pearson_correlation(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Pearson linear correlation between predictions and ground truth.

    Computed as ``scipy.stats.pearsonr`` computes it, so the two agree to
    rounding; two samples give exactly ``+1`` or ``-1``.  A constant argument
    (either one) has no defined correlation and returns ``nan`` without a
    warning.
    """
    predictions, targets = _validate(predictions, targets)
    return _pearson(predictions, targets)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of *values*; each run of ties gets the mean of its ranks."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2, ends - starts)
    return ranks


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    """The correlation of two equal-length arrays; ``nan`` if either is constant."""
    if np.all(x == x[0]) or np.all(y == y[0]):
        return float("nan")
    x_dev = x - x.mean()
    y_dev = y - y.mean()
    # Scaling by the largest deviation before the norm keeps it from overflowing.
    x_max = np.abs(x_dev).max()
    y_max = np.abs(y_dev).max()
    x_norm = x_max * np.linalg.norm(x_dev / x_max)
    y_norm = y_max * np.linalg.norm(y_dev / y_max)
    r = np.clip(np.dot(x_dev / x_norm, y_dev / y_norm), -1.0, 1.0)
    return float(np.round(r) if x.size == 2 else r)


@dataclass(frozen=True)
class EstimationReport:
    """Bundle of the three Table 8 metrics plus split sizes."""

    average_accuracy: float
    spearman: float
    pearson: float
    training_set_size: int
    test_set_size: int

    def as_row(self) -> dict[str, float | int]:
        """Return the report as a flat dict (one Table 8 column)."""
        return {
            "training_set_size": self.training_set_size,
            "test_set_size": self.test_set_size,
            "average_accuracy": round(self.average_accuracy, 4),
            "spearman_correlation": round(self.spearman, 5),
            "pearson_correlation": round(self.pearson, 5),
        }


def evaluate_predictions(
    predictions: np.ndarray,
    targets: np.ndarray,
    training_set_size: int = 0,
) -> EstimationReport:
    """Compute the full :class:`EstimationReport` for a prediction/target pair."""
    return EstimationReport(
        average_accuracy=estimation_accuracy(predictions, targets),
        spearman=spearman_correlation(predictions, targets),
        pearson=pearson_correlation(predictions, targets),
        training_set_size=training_set_size,
        test_set_size=len(np.asarray(targets).reshape(-1)),
    )


def _validate(predictions: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    predictions = np.asarray(predictions, dtype=float).reshape(-1)
    targets = np.asarray(targets, dtype=float).reshape(-1)
    if predictions.shape != targets.shape:
        raise ModelError(
            f"prediction/target length mismatch: {predictions.shape} vs {targets.shape}"
        )
    if predictions.size < 2:
        raise ModelError("at least two samples are required to compute metrics")
    if np.any(targets == 0):
        raise ModelError("targets must be non-zero to compute relative errors")
    return predictions, targets
