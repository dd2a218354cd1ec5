"""Training loop for the learned performance model.

Follows the paper's methodology (Section 5, "Learned performance model
training"): Adam with learning rate 1e-3, batch size 16, a 60/20/20
train/validation/test split, and a loss that averages the mean-squared
prediction error over every message-passing iteration so the model converges
quickly at all depths.

The loop runs on the pack-once :class:`~repro.core.graph_table.GraphTable`
representation: the dataset's graphs are flattened into shared arrays a single
time and every mini-batch is an array slice of that table. Each step is the
written-out forward/backward pass of :mod:`repro.core.step` feeding the flat
:class:`~repro.core.optimizer.Adam`. The recorded tape of
:mod:`repro.core.autodiff` (:func:`batched_loss` plus ``loss.backward()``) is
the reference it is tested against, bit for bit; it trains nothing here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .. import obs
from ..errors import ModelError
from . import step
from .autodiff import Tensor, mse_loss
from .features import GraphTuple
from .graph_net import BatchedGraphs
from .graph_table import GraphTable, as_graph_table
from .model import EncodeProcessDecode
from .optimizer import Adam

#: Inputs accepted by the training/inference entry points: either a packed
#: table or a legacy sequence of per-graph tuples.
GraphSource = Union[GraphTable, Sequence[GraphTuple]]


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


def batched_loss(
    model: EncodeProcessDecode, batched: BatchedGraphs, targets: np.ndarray
) -> Tensor:
    """Loss of one batch on the tape: MSE averaged over message-passing steps.

    This is the reference :func:`repro.core.step.loss_and_gradients` must
    match bit for bit; training itself records no tape.
    """
    predictions = model(batched)
    target_tensor = Tensor(np.asarray(targets, dtype=float).reshape(-1, 1))
    loss = mse_loss(predictions[0], target_tensor)
    for prediction in predictions[1:]:
        loss = loss + mse_loss(prediction, target_tensor)
    return loss * Tensor(1.0 / len(predictions))


def _is_empty(graphs: GraphSource) -> bool:
    return not isinstance(graphs, GraphTable) and len(graphs) == 0


def _batches(table: GraphTable, batch_size: int):
    """Consecutive batches of *table*, with their graph indices."""
    for start in range(0, table.num_graphs, batch_size):
        indices = np.arange(start, min(start + batch_size, table.num_graphs))
        yield indices, step.GraphBatch(table.slice_batch(indices))


def evaluate_loss(
    model: EncodeProcessDecode,
    graphs: GraphSource,
    targets: np.ndarray,
    batch_size: int = 256,
) -> float:
    """Average per-step MSE of *model* on a dataset (no gradient updates)."""
    if _is_empty(graphs):
        return 0.0
    table = as_graph_table(graphs)
    targets = np.asarray(targets, dtype=float)
    total = 0.0
    for indices, batch in _batches(table, batch_size):
        total += step.batch_loss(model, batch, targets[indices]) * len(indices)
    return total / table.num_graphs


def train_model(
    model: EncodeProcessDecode,
    train_graphs: GraphSource,
    train_targets: np.ndarray,
    validation_graphs: GraphSource = (),
    validation_targets: np.ndarray | None = None,
    epochs: int = 10,
    batch_size: int = 16,
    learning_rate: float = 1e-3,
    seed: int = 0,
) -> TrainingHistory:
    """Train *model* with minibatch Adam and return the loss history.

    Targets are expected to be already normalized (see
    :class:`TargetNormalizer`). The training set is packed into a
    :class:`GraphTable` once and every mini-batch is a slice of it.
    """
    num_train = (
        train_graphs.num_graphs
        if isinstance(train_graphs, GraphTable)
        else len(train_graphs)
    )
    if num_train != len(train_targets):
        raise ModelError("training graphs and targets must have the same length")
    if num_train == 0:
        raise ModelError("training set is empty")

    table = as_graph_table(train_graphs)
    history = TrainingHistory()
    train_targets = np.asarray(train_targets, dtype=float)
    has_validation = not _is_empty(validation_graphs) and validation_targets is not None
    if has_validation:
        validation_graphs = as_graph_table(validation_graphs)

    with obs.span("core.train", graphs=num_train, epochs=epochs, batch_size=batch_size):
        optimizer = Adam(model.parameters(), learning_rate=learning_rate)
        rng = np.random.default_rng(seed)
        steps = 0
        for _ in range(epochs):
            order = rng.permutation(num_train)
            epoch_loss, batches = 0.0, 0
            for start in range(0, num_train, batch_size):
                indices = order[start : start + batch_size]
                batch = step.GraphBatch(table.slice_batch(indices))
                epoch_loss += step.loss_and_gradients(
                    model, batch, train_targets[indices], optimizer.slots
                )
                optimizer.step(optimizer.gradient)
                batches += 1
            steps += batches
            history.train_losses.append(epoch_loss / max(batches, 1))
            if has_validation:
                history.validation_losses.append(
                    evaluate_loss(model, validation_graphs, validation_targets)
                )
        obs.count("core.train_steps", steps)
    return history


def predict(
    model: EncodeProcessDecode, graphs: GraphSource, batch_size: int | None = None
) -> np.ndarray:
    """Final-step predictions of *model* over *graphs* (normalized space).

    With the default ``batch_size=None`` the whole dataset is evaluated in a
    **single** batched forward pass over the packed table; pass an explicit
    batch size to chunk very large populations.
    """
    if _is_empty(graphs):
        return np.zeros(0)
    table = as_graph_table(graphs)
    if batch_size is None:
        return step.predict(model, step.GraphBatch(table.to_batched()))
    return np.concatenate(
        [step.predict(model, batch) for _, batch in _batches(table, batch_size)]
    )
