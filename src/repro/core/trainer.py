"""Training loop for the learned performance model.

Follows the paper's methodology (Section 5, "Learned performance model
training"): Adam with learning rate 1e-3, batch size 16, a 60/20/20
train/validation/test split, and a loss that averages the mean-squared
prediction error over every message-passing iteration so the model converges
quickly at all depths.

The loop runs on the pack-once :class:`~repro.core.graph_table.GraphTable`
representation: the dataset's graphs are flattened into shared arrays a single
time and every mini-batch is an array slice of that table. Each step is the
written-out forward/backward pass of :mod:`repro.core.step`: it writes the
gradients into named views of one flat gradient vector, which
:class:`~repro.core.optimizer.Adam` applies to the model's flat parameter
vector in place. The autodiff tape of ``tests/tape.py`` is the reference it
is tested against, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..errors import ModelError
from . import step
from .graph_table import GraphTable
from .model import EncodeProcessDecode
from .optimizer import Adam


@dataclass(frozen=True)
class DatasetSplit:
    """Index split of a dataset into train / validation / test parts."""

    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray

    @property
    def sizes(self) -> tuple[int, int, int]:
        """Sizes of the three parts."""
        return len(self.train), len(self.validation), len(self.test)


def split_dataset(
    num_samples: int,
    train_fraction: float = 0.6,
    validation_fraction: float = 0.2,
    seed: int = 0,
) -> DatasetSplit:
    """Randomly split ``range(num_samples)`` into train/validation/test indices."""
    if num_samples < 3:
        raise ModelError("need at least three samples to split")
    if train_fraction <= 0 or validation_fraction < 0:
        raise ModelError("split fractions must be positive")
    if train_fraction + validation_fraction >= 1.0:
        raise ModelError("train and validation fractions must leave room for the test set")
    rng = np.random.default_rng(seed)
    permutation = rng.permutation(num_samples)
    train_end = int(round(train_fraction * num_samples))
    validation_end = train_end + int(round(validation_fraction * num_samples))
    return DatasetSplit(
        train=permutation[:train_end],
        validation=permutation[train_end:validation_end],
        test=permutation[validation_end:],
    )


class TargetNormalizer:
    """Normalizes regression targets (optionally in log space).

    Latencies span roughly two orders of magnitude across the NASBench
    population, so training on ``log`` targets and standardizing them keeps
    the relative error balanced across the range.
    """

    def __init__(self, log_transform: bool = True):
        self.log_transform = log_transform
        self._mean = 0.0
        self._std = 1.0
        self._fitted = False

    @classmethod
    def from_stats(
        cls, mean: float, std: float, log_transform: bool = True
    ) -> "TargetNormalizer":
        """Rebuild a fitted normalizer from saved statistics (cache restore)."""
        normalizer = cls(log_transform)
        normalizer._mean = float(mean)
        normalizer._std = float(std)
        normalizer._fitted = True
        return normalizer

    @property
    def stats(self) -> tuple[float, float]:
        """The fitted ``(mean, std)`` pair (for serialization)."""
        self._require_fitted()
        return self._mean, self._std

    def fit(self, targets: np.ndarray) -> "TargetNormalizer":
        """Fit the normalizer on raw target values."""
        values = self._forward_transform(np.asarray(targets, dtype=float))
        self._mean = float(values.mean())
        self._std = float(values.std())
        if self._std == 0.0:
            self._std = 1.0
        self._fitted = True
        return self

    def transform(self, targets: np.ndarray) -> np.ndarray:
        """Map raw targets to normalized training space."""
        self._require_fitted()
        values = self._forward_transform(np.asarray(targets, dtype=float))
        return (values - self._mean) / self._std

    def inverse_transform(self, normalized: np.ndarray) -> np.ndarray:
        """Map normalized predictions back to raw target units."""
        self._require_fitted()
        values = np.asarray(normalized, dtype=float) * self._std + self._mean
        if self.log_transform:
            return np.exp(values)
        return values

    def _forward_transform(self, values: np.ndarray) -> np.ndarray:
        if self.log_transform:
            if np.any(values <= 0):
                raise ModelError("log-transform requires strictly positive targets")
            return np.log(values)
        return values

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise ModelError("TargetNormalizer used before fit()")


@dataclass
class TrainingHistory:
    """Per-epoch training and validation losses."""

    train_losses: list[float] = field(default_factory=list)
    validation_losses: list[float] = field(default_factory=list)

    @property
    def num_epochs(self) -> int:
        """Number of completed epochs."""
        return len(self.train_losses)


def _batches(table: GraphTable, batch_size: int):
    """Consecutive batches of *table*, with their graph indices."""
    for start in range(0, table.num_graphs, batch_size):
        indices = np.arange(start, min(start + batch_size, table.num_graphs))
        yield indices, table.slice_batch(indices)


def evaluate_loss(
    model: EncodeProcessDecode,
    table: GraphTable,
    targets: np.ndarray,
    batch_size: int = 256,
) -> float:
    """Average per-step MSE of *model* on a dataset (no gradient updates)."""
    targets = np.asarray(targets, dtype=float)
    if len(targets) != table.num_graphs:
        raise ModelError(
            f"{len(targets)} targets for a table of {table.num_graphs} graphs"
        )
    total = 0.0
    for indices, batch in _batches(table, batch_size):
        total += step.batch_loss(model, batch, targets[indices]) * len(indices)
    return total / table.num_graphs


def train_model(
    model: EncodeProcessDecode,
    table: GraphTable,
    train_targets: np.ndarray,
    validation_table: GraphTable | None = None,
    validation_targets: np.ndarray | None = None,
    epochs: int = 10,
    batch_size: int = 16,
    learning_rate: float = 1e-3,
    seed: int = 0,
) -> TrainingHistory:
    """Train *model* with minibatch Adam and return the loss history.

    Targets are expected to be already normalized (see
    :class:`TargetNormalizer`). Every mini-batch is a slice of the packed
    training *table*; the validation loss is recorded per epoch when
    *validation_table* and *validation_targets* are given, and they are
    given together or not at all.
    """
    num_train = table.num_graphs
    if num_train != len(train_targets):
        raise ModelError("training graphs and targets must have the same length")
    has_validation = validation_table is not None
    if has_validation != (validation_targets is not None):
        raise ModelError("validation_table and validation_targets must be given together")
    if has_validation and validation_table.num_graphs != len(validation_targets):
        raise ModelError("validation graphs and targets must have the same length")

    history = TrainingHistory()
    train_targets = np.asarray(train_targets, dtype=float)

    with obs.span("core.train", graphs=num_train, epochs=epochs, batch_size=batch_size):
        optimizer = Adam(model.values, learning_rate=learning_rate)
        gradient = np.zeros_like(model.values)
        grads = model.views(gradient)
        rng = np.random.default_rng(seed)
        steps = 0
        for _ in range(epochs):
            order = rng.permutation(num_train)
            epoch_loss, batches = 0.0, 0
            for start in range(0, num_train, batch_size):
                indices = order[start : start + batch_size]
                epoch_loss += step.loss_and_gradients(
                    model, table.slice_batch(indices), train_targets[indices], grads
                )
                optimizer.step(gradient)
                batches += 1
            steps += batches
            history.train_losses.append(epoch_loss / max(batches, 1))
            if has_validation:
                history.validation_losses.append(
                    evaluate_loss(model, validation_table, validation_targets)
                )
        obs.count("core.train_steps", steps)
    return history


def predict(
    model: EncodeProcessDecode, table: GraphTable, batch_size: int | None = None
) -> np.ndarray:
    """Final-step predictions of *model* over *table* (normalized space).

    With the default ``batch_size=None`` the whole dataset is evaluated in a
    **single** batched forward pass over the packed table; pass an explicit
    batch size to chunk very large populations.
    """
    if batch_size is None:
        return step.predict(model, table.to_batched())
    return np.concatenate(
        [step.predict(model, batch) for _, batch in _batches(table, batch_size)]
    )
