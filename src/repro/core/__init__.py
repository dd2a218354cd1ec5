"""Learned performance model: graph network, written-out training step, metrics.

The model (:mod:`.model`) holds its parameters as named views of one flat
vector; :mod:`.step` is its forward pass, loss and gradients written out on
numpy arrays, and :mod:`.trainer` trains it with the flat :class:`Adam`.
The autodiff tape this step is tested against lives in the tests
(``tests/tape.py``).
"""

from .features import GraphTuple, cell_to_graph, featurize_cells
from .graph_table import GraphTable
from .metrics import (
    EstimationReport,
    estimation_accuracy,
    evaluate_predictions,
    pearson_correlation,
    spearman_correlation,
)
from .model import EncodeProcessDecode
from .optimizer import Adam
from .predictor import (
    SUPPORTED_METRICS,
    LearnedPerformanceModel,
    TrainingSettings,
    metric_targets,
    table_digest,
)
from .trainer import (
    DatasetSplit,
    TargetNormalizer,
    TrainingHistory,
    evaluate_loss,
    split_dataset,
    train_model,
)

__all__ = [
    "Adam",
    "DatasetSplit",
    "EncodeProcessDecode",
    "EstimationReport",
    "GraphTable",
    "GraphTuple",
    "LearnedPerformanceModel",
    "SUPPORTED_METRICS",
    "TargetNormalizer",
    "TrainingHistory",
    "TrainingSettings",
    "cell_to_graph",
    "estimation_accuracy",
    "evaluate_loss",
    "evaluate_predictions",
    "featurize_cells",
    "metric_targets",
    "pearson_correlation",
    "spearman_correlation",
    "split_dataset",
    "table_digest",
    "train_model",
]
