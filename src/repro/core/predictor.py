"""High-level learned performance model API.

:class:`LearnedPerformanceModel` ties the pieces together the way the paper
uses them: one model is trained *per accelerator configuration and per metric*
(latency or energy) on simulator measurements of NASBench cells, using a
60/20/20 split, and is then evaluated with the Table 8 metrics (average
estimation accuracy, Spearman and Pearson correlation with ground truth).
Once trained, predictions take well under a millisecond per cell — the paper's
motivation for replacing cycle-accurate simulation in design-space
exploration.

The training population is packed **once** into a
:class:`~repro.core.graph_table.GraphTable`; every epoch's mini-batches are
slices of that table and whole-split inference is a single batched forward
pass.  Ground-truth labels come from a population-wide sweep
(:meth:`~repro.service.store.MeasurementStore.extend` or
:meth:`~repro.simulator.batch.BatchSimulator.evaluate`, read out by
:func:`metric_targets`) rather than per-cell scalar simulation, and a fitted
model round-trips through :meth:`export_state` / :meth:`restore_state` so
:meth:`~repro.service.query.SweepService.model` can cache trained weights on
disk.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..errors import ModelError
from ..nasbench.cell import Cell
from .graph_table import GraphTable
from .metrics import EstimationReport, evaluate_predictions
from .model import (
    DEFAULT_HIDDEN_SIZE,
    DEFAULT_LATENT_SIZE,
    DEFAULT_NUM_STEPS,
    DEFAULT_USE_LAYER_NORM,
    EncodeProcessDecode,
)
from .trainer import (
    DatasetSplit,
    TargetNormalizer,
    TrainingHistory,
    predict as predict_normalized,
    split_dataset,
    train_model,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..simulator.runner import MeasurementSet

#: Metrics a learned model can be trained on (one model per config × metric).
SUPPORTED_METRICS = ("latency", "energy")


@dataclass(frozen=True)
class TrainingSettings:
    """Hyperparameters of the learned performance model (paper Table 8)."""

    learning_rate: float = 1e-3
    batch_size: int = 16
    epochs: int = 10
    latent_size: int = DEFAULT_LATENT_SIZE
    hidden_size: int = DEFAULT_HIDDEN_SIZE
    num_message_passing_steps: int = DEFAULT_NUM_STEPS
    use_layer_norm: bool = DEFAULT_USE_LAYER_NORM
    train_fraction: float = 0.6
    validation_fraction: float = 0.2
    log_transform_targets: bool = True
    seed: int = 0


def metric_targets(
    measurements: "MeasurementSet", config_name: str, metric: str
) -> np.ndarray:
    """Ground-truth array of one (configuration, metric) pair.

    Raises :class:`ModelError` for unknown metrics or when the configuration
    has no published energy model (V3's energies are all NaN).
    """
    if metric == "latency":
        return measurements.latencies(config_name)
    if metric == "energy":
        energies = measurements.energies(config_name)
        if not np.isfinite(energies).all():
            raise ModelError(
                f"configuration {config_name!r} has no energy model; cannot "
                "train a learned energy estimator for it"
            )
        return energies
    raise ModelError(f"unknown metric {metric!r}; expected one of {SUPPORTED_METRICS}")


def table_digest(table: GraphTable) -> str:
    """Content digest of a packed population.

    Used as the cache-restore identity check of :meth:`restore_state` and by
    the sweep service to key cached trained-model states by population
    *content* (rather than by a sampling spec).
    """
    digest = hashlib.sha256()
    for array in (
        table.nodes, table.edges, table.globals_,
        table.senders, table.receivers,
        table.node_offsets, table.edge_offsets,
    ):
        digest.update(str(array.shape).encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


class LearnedPerformanceModel:
    """Per-configuration GNN estimator of an accelerator performance metric."""

    #: Smallest population the 60/20/20 split leaves usable test data for.
    MIN_FIT_SAMPLES = 10

    def __init__(self, config_name: str, settings: TrainingSettings | None = None):
        self.config_name = config_name
        self.settings = settings or TrainingSettings()
        self.normalizer = TargetNormalizer(self.settings.log_transform_targets)
        self.model = EncodeProcessDecode(
            latent_size=self.settings.latent_size,
            hidden_size=self.settings.hidden_size,
            num_message_passing_steps=self.settings.num_message_passing_steps,
            use_layer_norm=self.settings.use_layer_norm,
            seed=self.settings.seed,
        )
        self.history: TrainingHistory | None = None
        self.split: DatasetSplit | None = None
        self._table: GraphTable | None = None
        self._targets: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def fit(self, cells: Sequence[Cell], targets: Sequence[float]) -> TrainingHistory:
        """Train the model on (cell, measurement) pairs.

        The cells are featurized and packed once; see :meth:`fit_table` for
        the packed entry point the sweep service uses directly.
        """
        if len(cells) != len(targets):
            raise ModelError("cells and targets must have the same length")
        return self.fit_table(GraphTable.from_cells(cells), targets)

    def fit_table(
        self, table: GraphTable, targets: Sequence[float]
    ) -> TrainingHistory:
        """Train on an already-packed :class:`GraphTable` plus raw targets.

        The split into train/validation/test follows the paper (60/20/20); the
        held-out test indices are kept so :meth:`evaluate` reports honest
        generalization metrics.
        """
        if table.num_graphs != len(targets):
            raise ModelError("graph table and targets must have the same length")
        if table.num_graphs < self.MIN_FIT_SAMPLES:
            raise ModelError(
                f"need at least {self.MIN_FIT_SAMPLES} samples to fit the learned model"
            )
        self._table = table
        self._targets = np.asarray(targets, dtype=float)
        self.normalizer.fit(self._targets)
        normalized = self.normalizer.transform(self._targets)

        self.split = split_dataset(
            table.num_graphs,
            train_fraction=self.settings.train_fraction,
            validation_fraction=self.settings.validation_fraction,
            seed=self.settings.seed,
        )
        self.history = train_model(
            self.model,
            table.subset(self.split.train),
            normalized[self.split.train],
            table.subset(self.split.validation) if len(self.split.validation) else None,
            normalized[self.split.validation] if len(self.split.validation) else None,
            epochs=self.settings.epochs,
            batch_size=self.settings.batch_size,
            learning_rate=self.settings.learning_rate,
            seed=self.settings.seed,
        )
        return self.history

    # ------------------------------------------------------------------ #
    # Inference
    # ------------------------------------------------------------------ #
    def predict_cells(self, cells: Sequence[Cell]) -> np.ndarray:
        """Predict the performance metric for a list of cells (raw units).

        The query cells are packed once and evaluated in a single forward
        pass.
        """
        self._require_fitted()
        if len(cells) == 0:
            return np.zeros(0)
        normalized = predict_normalized(self.model, GraphTable.from_cells(cells))
        return self.normalizer.inverse_transform(normalized)

    def predict_cell(self, cell: Cell) -> float:
        """Predict the performance metric of a single cell (raw units)."""
        return float(self.predict_cells([cell])[0])

    # ------------------------------------------------------------------ #
    # Evaluation (Table 8)
    # ------------------------------------------------------------------ #
    def evaluate(self, subset: str = "test") -> EstimationReport:
        """Evaluate on the held-out split (``"test"``, ``"validation"`` or ``"train"``)."""
        self._require_fitted()
        assert self.split is not None and self._table is not None and self._targets is not None
        indices = {
            "train": self.split.train,
            "validation": self.split.validation,
            "test": self.split.test,
        }.get(subset)
        if indices is None:
            raise ModelError(f"unknown subset {subset!r}")
        normalized = predict_normalized(self.model, self._table.subset(indices))
        predictions = self.normalizer.inverse_transform(normalized)
        return evaluate_predictions(
            predictions,
            self._targets[indices],
            training_set_size=len(self.split.train),
        )

    # ------------------------------------------------------------------ #
    # Serialization (the sweep service's weight cache)
    # ------------------------------------------------------------------ #
    def export_state(self) -> dict[str, np.ndarray]:
        """Flat array dict capturing everything a cache hit must restore.

        The keys are plain strings and every value is a NumPy array, so the
        state saves losslessly as an npz file
        (:func:`~repro.service.store.write_npz`).
        """
        self._require_fitted()
        assert self.split is not None and self.history is not None
        assert self._targets is not None
        assert self._table is not None
        mean, std = self.normalizer.stats
        state: dict[str, np.ndarray] = {
            "table_digest": np.array(table_digest(self._table)),
            "targets": self._targets,
            "split_train": self.split.train,
            "split_validation": self.split.validation,
            "split_test": self.split.test,
            "train_losses": np.asarray(self.history.train_losses, dtype=float),
            "validation_losses": np.asarray(self.history.validation_losses, dtype=float),
            "normalizer": np.array(
                [mean, std, 1.0 if self.normalizer.log_transform else 0.0]
            ),
        }
        for index, array in enumerate(self.model.export_arrays()):
            state[f"weight_{index:04d}"] = array
        return state

    def restore_state(
        self, table: GraphTable, state: dict[str, np.ndarray]
    ) -> None:
        """Restore a previously exported model against its (re-packed) table.

        Every entry is read and checked before the weights are written, so a
        rejected state leaves the model as it was.
        """

        def entry(key: str) -> np.ndarray:
            try:
                return state[key]
            except KeyError:
                raise ModelError(f"cached state lacks the {key!r} entry") from None

        targets = np.asarray(entry("targets"), dtype=float)
        if table.num_graphs != len(targets):
            raise ModelError(
                "cached state does not match the graph table "
                f"({len(targets)} targets for {table.num_graphs} graphs)"
            )
        if str(entry("table_digest")) != table_digest(table):
            raise ModelError(
                "cached state was trained on a different population than the "
                "given graph table (feature digest mismatch)"
            )
        stats = np.asarray(entry("normalizer"), dtype=float)
        if stats.shape != (3,):
            raise ModelError(
                f"cached state's 'normalizer' entry has shape {stats.shape}, expected (3,)"
            )
        mean, std, log_flag = stats
        normalizer = TargetNormalizer.from_stats(mean, std, bool(log_flag))

        def indices(key: str) -> np.ndarray:
            values = np.asarray(entry(key), dtype=np.int64)
            if values.size and not (0 <= values.min() and values.max() < table.num_graphs):
                raise ModelError(
                    f"cached state's {key!r} entry indexes outside a table of "
                    f"{table.num_graphs} graphs"
                )
            return values

        split = DatasetSplit(
            train=indices("split_train"),
            validation=indices("split_validation"),
            test=indices("split_test"),
        )
        history = TrainingHistory(
            train_losses=[float(v) for v in entry("train_losses")],
            validation_losses=[float(v) for v in entry("validation_losses")],
        )
        weight_keys = sorted(key for key in state if key.startswith("weight_"))
        self.model.load_arrays([state[key] for key in weight_keys])
        self.normalizer = normalizer
        self.split = split
        self.history = history
        self._table = table
        self._targets = targets

    def _require_fitted(self) -> None:
        if self.history is None:
            raise ModelError("the learned performance model has not been fitted yet")
