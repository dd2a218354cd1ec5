"""Expansion of a NASBench cell into a full convolutional network.

NASBench-101 evaluates each cell inside a fixed macro-architecture on
CIFAR-10: a 3x3 convolution stem with 128 output channels, followed by three
stacks of three cells each, with a 2x2 max-pool downsampling layer between
stacks (halving the spatial resolution and doubling the channel count), and a
global-average-pool plus dense classifier head.  Channel counts inside a cell
follow NASBench's ``compute_vertex_channels`` rule, and every edge leaving the
cell-input vertex passes through a 1x1 projection convolution.

This module holds the one expansion rule of a cell instance,
:func:`cell_rows`, which emits plain layer rows.  The rows are the single
source of truth: :class:`~repro.nasbench.layer_table.LayerTable` packs them
straight into its columns for the batch kernels, and :func:`layer_specs`
turns them into the named :class:`LayerSpec` records the scalar simulator
(the oracle) walks.  Parameter counts use :func:`cell_trainable_parameters`,
the closed form of :func:`layer_trainable_parameters` summed over a cell's
rows, computed from the vertex channel counts alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..errors import InvalidCellError
from .cell import Cell
from .ops import CONV1X1, CONV3X3, MAXPOOL3X3

# Layer kinds emitted by the expansion.
KIND_CONV = "conv"
KIND_PROJECTION = "projection"  # 1x1 convolution inserted on edges from the cell input
KIND_MAXPOOL = "maxpool"
KIND_DOWNSAMPLE = "downsample"  # 2x2/stride-2 max-pool between stacks
KIND_ADD = "add"
KIND_CONCAT = "concat"
KIND_GLOBAL_POOL = "global_pool"
KIND_DENSE = "dense"

#: Layer kinds that carry trainable weights.
WEIGHTED_KINDS = frozenset({KIND_CONV, KIND_PROJECTION, KIND_DENSE})

#: Layer kinds the expansion follows with batch normalization.
BATCH_NORM_KINDS = frozenset({KIND_CONV, KIND_PROJECTION})

#: One emitted layer: ``(name suffix, kind, in_channels, out_channels,
#: kernel_size, stride)``.  Its spatial input size is its block's.
LayerRow = tuple[str, str, int, int, int, int]

#: Consecutive layers at one spatial input size: ``(name prefix, height,
#: width, rows)``.  Repeated cells of a stage share one row list.
LayerBlock = tuple[str, int, int, Sequence[LayerRow]]


def layer_trainable_parameters(
    kind: str, in_channels: int, out_channels: int, kernel_size: int, has_batch_norm: bool
) -> int:
    """Trainable parameters of one layer, matching the training-time model.

    Convolutions carry ``k*k*in*out`` kernel weights plus 2 batch-norm
    parameters per output channel (scale and offset); the dense classifier
    carries weights plus biases; pooling and element-wise layers have no
    parameters.
    """
    if kind in (KIND_CONV, KIND_PROJECTION):
        kernel = kernel_size * kernel_size * in_channels * out_channels
        return kernel + (2 * out_channels if has_batch_norm else 0)
    if kind == KIND_DENSE:
        return in_channels * out_channels + out_channels
    return 0


@dataclass(frozen=True)
class LayerSpec:
    """A single operation of the expanded network.

    The record carries enough shape information for parameter counting and
    for the accelerator cost model: spatial input size, channel counts,
    kernel size and stride.  Quantities such as MAC count and weight bytes are
    derived properties so they can never drift out of sync with the shapes.
    """

    name: str
    kind: str
    input_height: int
    input_width: int
    in_channels: int
    out_channels: int
    kernel_size: int = 1
    stride: int = 1
    has_batch_norm: bool = False

    # ------------------------------------------------------------------ #
    # Shape arithmetic
    # ------------------------------------------------------------------ #
    @property
    def output_height(self) -> int:
        """Output spatial height (SAME padding semantics)."""
        if self.kind in (KIND_GLOBAL_POOL, KIND_DENSE):
            return 1
        return math.ceil(self.input_height / self.stride)

    @property
    def output_width(self) -> int:
        """Output spatial width (SAME padding semantics)."""
        if self.kind in (KIND_GLOBAL_POOL, KIND_DENSE):
            return 1
        return math.ceil(self.input_width / self.stride)

    # ------------------------------------------------------------------ #
    # Cost-model quantities
    # ------------------------------------------------------------------ #
    @property
    def macs(self) -> int:
        """Multiply-accumulate operations performed by this layer."""
        if self.kind in (KIND_CONV, KIND_PROJECTION):
            return (
                self.kernel_size
                * self.kernel_size
                * self.in_channels
                * self.out_channels
                * self.output_height
                * self.output_width
            )
        if self.kind == KIND_DENSE:
            return self.in_channels * self.out_channels
        return 0

    @property
    def trainable_parameters(self) -> int:
        """Trainable parameters (see :func:`layer_trainable_parameters`)."""
        return layer_trainable_parameters(
            self.kind, self.in_channels, self.out_channels, self.kernel_size, self.has_batch_norm
        )

    @property
    def weight_bytes(self) -> int:
        """Inference-time weight footprint in bytes (int8 quantized).

        Batch-norm is folded into the convolution at inference time (as the
        Edge TPU compiler does), leaving one int8 weight per kernel element
        and one int32 bias per output channel.
        """
        if self.kind in (KIND_CONV, KIND_PROJECTION):
            kernel = self.kernel_size * self.kernel_size * self.in_channels * self.out_channels
            return kernel + 4 * self.out_channels
        if self.kind == KIND_DENSE:
            return self.in_channels * self.out_channels + 4 * self.out_channels
        return 0

    @property
    def input_activation_bytes(self) -> int:
        """Input activation footprint in bytes (int8 quantized)."""
        return self.input_height * self.input_width * self.in_channels

    @property
    def output_activation_bytes(self) -> int:
        """Output activation footprint in bytes (int8 quantized)."""
        return self.output_height * self.output_width * self.out_channels

    @property
    def is_weighted(self) -> bool:
        """``True`` when the layer carries weights that must be fetched."""
        return self.kind in WEIGHTED_KINDS


@dataclass(frozen=True)
class NetworkConfig:
    """Macro-architecture settings of the NASBench-101 CIFAR-10 network."""

    stem_channels: int = 128
    num_stacks: int = 3
    cells_per_stack: int = 3
    image_size: int = 32
    image_channels: int = 3
    num_classes: int = 10

    def __post_init__(self) -> None:
        for name in (
            "stem_channels",
            "num_stacks",
            "cells_per_stack",
            "image_size",
            "image_channels",
            "num_classes",
        ):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise InvalidCellError(
                    f"network configuration field {name} must be an integer, got {value!r}"
                )
            if value <= 0:
                raise InvalidCellError(
                    f"network configuration field {name} must be positive, got {value}"
                )
        if self.image_size < 2 ** (self.num_stacks - 1):
            raise InvalidCellError(
                "image size too small for the requested number of downsampling stages"
            )


@dataclass(frozen=True)
class NetworkSpec:
    """A fully expanded network: the cell, the macro config, and all layers."""

    cell: Cell
    config: NetworkConfig
    layers: tuple[LayerSpec, ...] = field(repr=False)

    @property
    def trainable_parameters(self) -> int:
        """Total trainable parameters of the network."""
        return sum(layer.trainable_parameters for layer in self.layers)

    @property
    def total_macs(self) -> int:
        """Total multiply-accumulate operations of one inference."""
        return sum(layer.macs for layer in self.layers)

    @property
    def total_weight_bytes(self) -> int:
        """Total inference-time weight footprint in bytes."""
        return sum(layer.weight_bytes for layer in self.layers)

    @property
    def num_layers(self) -> int:
        """Number of emitted layer records (including add/concat glue)."""
        return len(self.layers)

    def weighted_layers(self) -> list[LayerSpec]:
        """Return only layers that carry weights (convolutions and dense)."""
        return [layer for layer in self.layers if layer.is_weighted]

    def to_layer_table(self):
        """Flatten this network into a single-model :class:`LayerTable`.

        The table is the structure-of-arrays form consumed by the vectorized
        compiler/simulator kernels (see :mod:`repro.nasbench.layer_table`).
        """
        from .layer_table import LayerTable

        return LayerTable.from_specs(self.layers)


# ---------------------------------------------------------------------- #
# Channel inference (NASBench-101 ``compute_vertex_channels``)
# ---------------------------------------------------------------------- #
def compute_vertex_channels(
    input_channels: int, output_channels: int, matrix: np.ndarray | Sequence[Sequence[int]]
) -> list[int]:
    """Compute per-vertex channel counts for a pruned cell.

    The rule follows NASBench-101: vertices with a direct edge to the output
    split the output channel count evenly (earlier vertices absorb the
    remainder); every other interior vertex uses the maximum channel count of
    its successors, which allows channel truncation (never padding) along
    interior edges.
    """
    rows = matrix.tolist() if isinstance(matrix, np.ndarray) else matrix
    num_vertices = len(rows)
    output = num_vertices - 1
    vertex_channels = [0] * num_vertices
    vertex_channels[0] = input_channels
    vertex_channels[-1] = output_channels
    if num_vertices == 2:
        return vertex_channels

    # Fan-in of the output counting only edges from interior vertices.
    output_fan_in = sum(row[output] for row in rows[1:])
    if output_fan_in == 0:
        raise InvalidCellError("pruned cell output is fed only by the input vertex")

    interior_channels = output_channels // output_fan_in
    correction = output_channels % output_fan_in

    for v in range(1, output):
        if rows[v][output]:
            vertex_channels[v] = interior_channels
            if correction:
                vertex_channels[v] += 1
                correction -= 1

    for v in range(num_vertices - 3, 0, -1):
        if not rows[v][output]:
            for dst in range(v + 1, output):
                if rows[v][dst]:
                    vertex_channels[v] = max(vertex_channels[v], vertex_channels[dst])

    return vertex_channels


# ---------------------------------------------------------------------- #
# Cell and network expansion
# ---------------------------------------------------------------------- #
_OP_LAYERS = {
    CONV3X3: ("conv3x3", KIND_CONV, 3),
    CONV1X1: ("conv1x1", KIND_CONV, 1),
    MAXPOOL3X3: ("maxpool3x3", KIND_MAXPOOL, 3),
}


def cell_rows(cell: Cell, input_channels: int, output_channels: int) -> list[LayerRow]:
    """Expand one (pruned) cell instance into its layer rows.

    This is the expansion rule every consumer shares.  Every row keeps the
    spatial size of the tensor entering the cell and has stride 1.

    Parameters
    ----------
    cell:
        The pruned cell to expand.
    input_channels / output_channels:
        Channel count of the tensor entering / leaving the cell.
    """
    matrix = cell.matrix
    num_vertices = len(matrix)
    output = num_vertices - 1
    if num_vertices == 2:
        # Degenerate input->output cell: a single projection carries the
        # tensor (and adapts the channel count when the stack doubles it).
        return [("output_projection", KIND_PROJECTION, input_channels, output_channels, 1, 1)]

    channels = compute_vertex_channels(input_channels, output_channels, matrix)
    rows: list[LayerRow] = []
    for v in range(1, output):
        op = cell.ops[v]
        if op not in _OP_LAYERS:  # pragma: no cover - guarded by Cell validation
            raise InvalidCellError(f"unknown interior operation {op!r}")
        width = channels[v]
        takes_cell_input = matrix[0][v]

        # Edges from the cell input pass through a 1x1 projection so the
        # channel counts line up with the vertex.
        if takes_cell_input:
            rows.append(
                (f"vertex{v}/input_projection", KIND_PROJECTION, input_channels, width, 1, 1)
            )

        # Element-wise sum of all incoming tensors (projected input plus
        # truncated interior tensors).  Emitted only when there is more than
        # one producer, as a zero-weight data-movement layer.
        num_inputs = sum(matrix[src][v] for src in range(1, v)) + takes_cell_input
        if num_inputs > 1:
            rows.append((f"vertex{v}/add", KIND_ADD, width * num_inputs, width, 1, 1))

        # The vertex operation itself.
        name, kind, kernel = _OP_LAYERS[op]
        rows.append((f"vertex{v}/{name}", kind, width, width, kernel, 1))

    # Output vertex: concatenate every interior vertex feeding the output.
    concat_sources = [v for v in range(1, output) if matrix[v][output]]
    if len(concat_sources) > 1:
        concat_channels = sum(channels[v] for v in concat_sources)
        rows.append(("output_concat", KIND_CONCAT, concat_channels, output_channels, 1, 1))

    # An edge from the cell input directly to the output adds a projected
    # copy of the input to the concatenated result.
    if matrix[0][output]:
        rows.append(("output_projection", KIND_PROJECTION, input_channels, output_channels, 1, 1))
        rows.append(("output_add", KIND_ADD, 2 * output_channels, output_channels, 1, 1))
    return rows


#: ``k * k`` of each interior operation that carries a convolution kernel.
_KERNEL_AREA = {op: k * k for op, (_name, kind, k) in _OP_LAYERS.items() if kind in WEIGHTED_KINDS}


def cell_trainable_parameters(
    cell: Cell, input_channels: int, output_channels: int, depth: int
) -> int:
    """Trainable parameters of *depth* stacked instances of a (pruned) cell.

    The first instance takes *input_channels*, the others *output_channels*
    (one stage of the expansion); each emits *output_channels*.  The count
    equals :func:`layer_trainable_parameters` summed over :func:`cell_rows`,
    without expanding the rows, vertex by vertex from
    :func:`compute_vertex_channels`: a vertex of width ``w`` costs
    ``(9w + 2) * w`` as a 3x3 and ``(w + 2) * w`` as a 1x1 convolution and
    nothing as a pooling layer, plus ``(cin + 2) * w`` for the projection of
    the cell input when the input feeds it; the projection on an
    input-to-output edge (the only layer of a 2-vertex cell) costs
    ``(cin + 2) * cout``.  Adds and concatenations carry no weights.  The
    interior widths do not depend on ``cin``, so one channel count serves
    every instance.
    """
    matrix = cell.matrix
    output = len(matrix) - 1
    # A 1x1 projection with batch norm costs (cin + 2) per output channel;
    # the first instance projects input_channels, the others output_channels.
    projection = input_channels + 2 + (depth - 1) * (output_channels + 2)
    if output == 1:
        return projection * output_channels
    channels = compute_vertex_channels(input_channels, output_channels, matrix)
    projected = output_channels if matrix[0][output] else 0
    weights = 0
    for v in range(1, output):
        width = channels[v]
        if matrix[0][v]:
            projected += width
        area = _KERNEL_AREA.get(cell.ops[v])
        if area:
            weights += (area * width + 2) * width
    return depth * weights + projection * projected


def layer_specs(blocks: Iterable[LayerBlock]) -> list[LayerSpec]:
    """Named :class:`LayerSpec` records of layer blocks (the scalar view)."""
    return [
        LayerSpec(
            name=f"{prefix}/{suffix}",
            kind=kind,
            input_height=height,
            input_width=width,
            in_channels=in_channels,
            out_channels=out_channels,
            kernel_size=kernel_size,
            stride=stride,
            has_batch_norm=kind in BATCH_NORM_KINDS,
        )
        for prefix, height, width, rows in blocks
        for suffix, kind, in_channels, out_channels, kernel_size, stride in rows
    ]


def build_network(cell: Cell, config: NetworkConfig | None = None) -> NetworkSpec:
    """Expand *cell* into the full NASBench-101 CIFAR-10 network.

    A thin wrapper over the staged macro expansion: the legacy backbone is
    exactly the trivial :class:`~repro.nasbench.macro.MacroSpec` (the same
    pruned cell in every stage, stage-0 width multiplier 1, multiplier 2
    after every downsample), so this delegates to
    :meth:`~repro.nasbench.macro.MacroSpec.from_network_config` and produces
    bit-for-bit the layer list the inline loop used to emit.
    """
    from .macro import MacroSpec  # deferred: macro imports this module

    if config is None:
        config = NetworkConfig()
    network = MacroSpec.from_network_config(cell, config).build_network()
    # The derived config of the trivial macro round-trips the input exactly;
    # return the caller's instance so identity-based callers see their own.
    return NetworkSpec(cell=network.cell, config=config, layers=network.layers)
