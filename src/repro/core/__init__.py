"""Learned performance model: graph network, written-out training step, metrics.

The numpy autodiff tape (:mod:`.autodiff`) is the reference the written-out
step (:mod:`.step`) is tested against.
"""

from .autodiff import Tensor, mse_loss
from .features import GraphTuple, cell_to_graph, featurize_cells
from .graph_net import BatchedGraphs, GraphNetBlock, IndependentBlock, batch_graphs
from .graph_table import GraphTable, as_graph_table
from .layers import MLP, LayerNorm, Linear, Module
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
    batched_loss,
    evaluate_loss,
    split_dataset,
    train_model,
)

__all__ = [
    "Adam",
    "BatchedGraphs",
    "DatasetSplit",
    "EncodeProcessDecode",
    "EstimationReport",
    "GraphNetBlock",
    "GraphTable",
    "GraphTuple",
    "IndependentBlock",
    "LayerNorm",
    "LearnedPerformanceModel",
    "Linear",
    "MLP",
    "Module",
    "SUPPORTED_METRICS",
    "TargetNormalizer",
    "Tensor",
    "TrainingHistory",
    "TrainingSettings",
    "as_graph_table",
    "batch_graphs",
    "batched_loss",
    "cell_to_graph",
    "estimation_accuracy",
    "evaluate_loss",
    "evaluate_predictions",
    "featurize_cells",
    "metric_targets",
    "mse_loss",
    "pearson_correlation",
    "spearman_correlation",
    "split_dataset",
    "table_digest",
    "train_model",
]
