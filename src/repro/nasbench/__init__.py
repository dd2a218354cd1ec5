"""NASBench-101-style workload substrate.

This subpackage reproduces the model space used by the paper's evaluation:
cell DAGs over {3x3 conv, 1x1 conv, 3x3 max-pool}, their expansion into full
CIFAR-10 networks, trainable-parameter counting, structural graph metrics, and
a surrogate accuracy model standing in for the published training results.
"""

from .accuracy import SurrogateAccuracyModel
from .cell import Cell
from .dataset import ModelRecord, NASBenchDataset
from .famous_cells import (
    BEST_ACCURACY_CELL,
    BEST_ACCURACY_VALUE,
    DEEP_CONV_HEAVY_CELL,
    FAMOUS_CELLS,
    SECOND_BEST_ACCURACY_CELL,
    SECOND_BEST_ACCURACY_VALUE,
    SHALLOW_CONV_HEAVY_CELL,
)
from .generator import enumerate_cells, random_cell, sample_unique_cells
from .graph_metrics import CellMetrics, compute_metrics
from .hashing import cell_fingerprint, hash_graph, permute_cell
from .macro import (
    MAX_STAGES,
    MAX_STAGE_DEPTH,
    WIDTH_MULTIPLIERS,
    MacroSpec,
    StageSpec,
    architecture_from_dict,
    architecture_to_dict,
    expand_architecture,
    random_macro,
)
from .mutation import (
    MACRO_MUTATION_KINDS,
    MUTATION_KINDS,
    add_vertex,
    flip_edge,
    mutate_cell,
    mutate_macro,
    mutate_macro_unique,
    mutate_unique,
    remove_vertex,
    swap_op,
)
from .layer_table import KIND_CODES, LayerTable
from .network import (
    LayerSpec,
    NetworkConfig,
    NetworkSpec,
    build_network,
    compute_vertex_channels,
)
from .ops import (
    ALL_OPS,
    CONV1X1,
    CONV3X3,
    INPUT,
    INTERIOR_OPS,
    MAXPOOL3X3,
    MAX_EDGES,
    MAX_VERTICES,
    OUTPUT,
)
from .params import ParameterInterval, count_parameters, parameter_distribution

__all__ = [
    "ALL_OPS",
    "BEST_ACCURACY_CELL",
    "BEST_ACCURACY_VALUE",
    "CONV1X1",
    "CONV3X3",
    "Cell",
    "CellMetrics",
    "DEEP_CONV_HEAVY_CELL",
    "FAMOUS_CELLS",
    "INPUT",
    "INTERIOR_OPS",
    "KIND_CODES",
    "LayerSpec",
    "LayerTable",
    "MACRO_MUTATION_KINDS",
    "MAXPOOL3X3",
    "MAX_EDGES",
    "MAX_STAGES",
    "MAX_STAGE_DEPTH",
    "MAX_VERTICES",
    "MUTATION_KINDS",
    "MacroSpec",
    "ModelRecord",
    "NASBenchDataset",
    "NetworkConfig",
    "NetworkSpec",
    "OUTPUT",
    "ParameterInterval",
    "StageSpec",
    "SECOND_BEST_ACCURACY_CELL",
    "SECOND_BEST_ACCURACY_VALUE",
    "SHALLOW_CONV_HEAVY_CELL",
    "SurrogateAccuracyModel",
    "WIDTH_MULTIPLIERS",
    "add_vertex",
    "architecture_from_dict",
    "architecture_to_dict",
    "build_network",
    "cell_fingerprint",
    "compute_metrics",
    "compute_vertex_channels",
    "count_parameters",
    "enumerate_cells",
    "expand_architecture",
    "flip_edge",
    "hash_graph",
    "mutate_cell",
    "mutate_macro",
    "mutate_macro_unique",
    "mutate_unique",
    "parameter_distribution",
    "permute_cell",
    "random_cell",
    "random_macro",
    "remove_vertex",
    "sample_unique_cells",
    "swap_op",
]
