"""Structure-of-arrays representation of expanded networks.

The analytical cost model is arithmetic over per-layer scalars, which makes a
population sweep embarrassingly data-parallel: instead of walking Python
:class:`~repro.nasbench.network.LayerSpec` objects one at a time, the layers
of one or many networks can be flattened once into aligned NumPy arrays and
every downstream formula (tiling, cache planning, timing, energy) applied to
the whole population at once.  :class:`LayerTable` is that flattening — the
"compile once, simulate wide" substrate shared by the batch engine in
:mod:`repro.simulator.batch` and the array kernels in :mod:`repro.compiler`.

Per-model boundaries are kept as *segment offsets* (``model_offsets[m]`` is
the first layer row of model ``m``; ``model_offsets[-1]`` is the total row
count), so whole-model reductions are ``np.add.reduceat`` calls over the
layer axis.  The derived quantities (output sizes, MACs, weight bytes,
activation footprints) are computed vectorized with exactly the same formulas
as the corresponding :class:`LayerSpec` properties.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..errors import CompilationError, DatasetError
from .cell import Cell
from .macro import MacroSpec, architecture_blocks
from .network import (
    KIND_ADD,
    KIND_CONCAT,
    KIND_CONV,
    KIND_DENSE,
    KIND_DOWNSAMPLE,
    KIND_GLOBAL_POOL,
    KIND_MAXPOOL,
    KIND_PROJECTION,
    LayerSpec,
    NetworkConfig,
    NetworkSpec,
    layer_specs,
)

#: Integer codes of the layer kinds (stable, used by the array kernels).
CODE_CONV = 0
CODE_PROJECTION = 1
CODE_DENSE = 2
CODE_MAXPOOL = 3
CODE_DOWNSAMPLE = 4
CODE_ADD = 5
CODE_CONCAT = 6
CODE_GLOBAL_POOL = 7

#: Mapping from the string layer kinds to their integer codes.
KIND_CODES: dict[str, int] = {
    KIND_CONV: CODE_CONV,
    KIND_PROJECTION: CODE_PROJECTION,
    KIND_DENSE: CODE_DENSE,
    KIND_MAXPOOL: CODE_MAXPOOL,
    KIND_DOWNSAMPLE: CODE_DOWNSAMPLE,
    KIND_ADD: CODE_ADD,
    KIND_CONCAT: CODE_CONCAT,
    KIND_GLOBAL_POOL: CODE_GLOBAL_POOL,
}

#: Codes executed on the MAC datapath (mirrors ``tiling._MAC_KINDS``).
MAC_CODES = (CODE_CONV, CODE_PROJECTION, CODE_DENSE)


def ceil_div(numerator, denominator):
    """Exact integer ceiling division (no float round-trip); elementwise."""
    return -(-numerator // denominator)


@dataclass(frozen=True)
class LayerTable:
    """Aligned per-layer arrays for one or many expanded networks.

    All arrays share the layer axis; ``model_offsets`` (length
    ``num_models + 1``) marks the segment of rows belonging to each model.
    Instances are built with :meth:`from_architectures` (rows packed straight
    from cells and macro specs), :meth:`from_networks` / :meth:`from_specs`
    (or :meth:`NetworkSpec.to_layer_table`), which also compute the derived
    quantities vectorized.
    """

    #: Integer layer-kind codes (see :data:`KIND_CODES`).
    kind_codes: np.ndarray
    input_height: np.ndarray
    input_width: np.ndarray
    in_channels: np.ndarray
    out_channels: np.ndarray
    kernel_size: np.ndarray
    stride: np.ndarray
    #: Segment offsets: layer rows of model ``m`` are
    #: ``model_offsets[m]:model_offsets[m + 1]``.
    model_offsets: np.ndarray
    # Derived, aligned with the layer axis.
    output_height: np.ndarray
    output_width: np.ndarray
    macs: np.ndarray
    weight_bytes: np.ndarray
    input_activation_bytes: np.ndarray
    output_activation_bytes: np.ndarray
    #: ``True`` for rows executed on the MAC datapath.
    is_mac: np.ndarray

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_specs(
        cls,
        specs: Sequence[LayerSpec],
        model_offsets: Sequence[int] | np.ndarray | None = None,
    ) -> "LayerTable":
        """Build a table from a flat layer list (one model unless offsets given)."""
        if not specs:
            raise DatasetError("cannot build a LayerTable from zero layers")
        try:
            rows = np.array(
                [
                    (
                        KIND_CODES[spec.kind],
                        spec.input_height,
                        spec.input_width,
                        spec.in_channels,
                        spec.out_channels,
                        spec.kernel_size,
                        spec.stride,
                    )
                    for spec in specs
                ],
                dtype=np.int64,
            )
        except KeyError as exc:
            bad = next(spec for spec in specs if spec.kind not in KIND_CODES)
            raise CompilationError(
                f"layer {bad.name!r} has kind {bad.kind!r}, which is not "
                "supported by the Edge TPU mapping"
            ) from exc
        invalid = (rows[:, 3] <= 0) | (rows[:, 4] <= 0)
        if invalid.any():
            bad = specs[int(np.argmax(invalid))]
            raise CompilationError(
                f"layer {bad.name!r} has non-positive channel counts "
                f"({bad.in_channels} -> {bad.out_channels})"
            )
        if model_offsets is None:
            offsets = np.array([0, len(specs)], dtype=np.int64)
        else:
            offsets = np.asarray(model_offsets, dtype=np.int64)
            if offsets[0] != 0 or offsets[-1] != len(specs) or np.any(np.diff(offsets) <= 0):
                raise DatasetError("model_offsets must partition the layer rows")
        return cls._finalize(rows, offsets)

    @classmethod
    def from_networks(cls, networks: Iterable[NetworkSpec]) -> "LayerTable":
        """Flatten many networks into one table with per-model segment offsets."""
        specs: list[LayerSpec] = []
        offsets = [0]
        for network in networks:
            specs.extend(network.layers)
            offsets.append(len(specs))
        if len(offsets) == 1:
            raise DatasetError("cannot build a LayerTable from zero networks")
        return cls.from_specs(specs, model_offsets=offsets)

    @classmethod
    def from_architectures(
        cls,
        archs: Iterable[Cell | MacroSpec],
        network_config: NetworkConfig | None = None,
    ) -> "LayerTable":
        """Pack architectures' layer rows straight into one table.

        Equal, column for column, to :meth:`from_networks` over
        :func:`~repro.nasbench.macro.expand_architecture` of each entry (bare
        cells expand through *network_config*, macro specs through their own
        stages), without building a :class:`LayerSpec` per layer: every
        block of :func:`~repro.nasbench.macro.architecture_blocks` is packed
        once per occurrence, straight from its rows.
        """
        archs = list(archs)
        if not archs:
            raise DatasetError("cannot build a LayerTable from zero architectures")
        codes = KIND_CODES
        values: list[int] = []
        offsets = [0]
        for arch in archs:
            for _prefix, height, width, rows in architecture_blocks(arch, network_config):
                for _suffix, kind, cin, cout, kernel, stride in rows:
                    values += (codes[kind], height, width, cin, cout, kernel, stride)
            offsets.append(len(values) // 7)
        table = np.array(values, dtype=np.int64).reshape(-1, 7)
        invalid = (table[:, 3] <= 0) | (table[:, 4] <= 0)
        if invalid.any():
            # Raise from_specs' error, naming the offending layer.
            model = int(np.searchsorted(offsets, np.argmax(invalid), side="right")) - 1
            cls.from_specs(layer_specs(architecture_blocks(archs[model], network_config)))
        return cls._finalize(table, np.asarray(offsets, dtype=np.int64))

    @classmethod
    def _finalize(cls, rows: np.ndarray, offsets: np.ndarray) -> "LayerTable":
        """Compute the derived columns (same formulas as ``LayerSpec``)."""
        code, ih, iw, cin, cout, kernel, stride = rows.T
        headless = (code == CODE_GLOBAL_POOL) | (code == CODE_DENSE)
        oh = np.where(headless, 1, ceil_div(ih, stride))
        ow = np.where(headless, 1, ceil_div(iw, stride))

        is_conv = (code == CODE_CONV) | (code == CODE_PROJECTION)
        is_dense = code == CODE_DENSE
        kernel_weights = kernel * kernel * cin * cout
        macs = np.where(is_conv, kernel_weights * oh * ow, np.where(is_dense, cin * cout, 0))
        weight_bytes = np.where(
            is_conv,
            kernel_weights + 4 * cout,
            np.where(is_dense, cin * cout + 4 * cout, 0),
        )
        return cls(
            kind_codes=code,
            input_height=ih,
            input_width=iw,
            in_channels=cin,
            out_channels=cout,
            kernel_size=kernel,
            stride=stride,
            model_offsets=offsets,
            output_height=oh,
            output_width=ow,
            macs=macs,
            weight_bytes=weight_bytes,
            input_activation_bytes=ih * iw * cin,
            output_activation_bytes=oh * ow * cout,
            is_mac=np.isin(code, MAC_CODES),
        )

    # ------------------------------------------------------------------ #
    # Shape and segment helpers
    # ------------------------------------------------------------------ #
    @property
    def num_models(self) -> int:
        """Number of model segments in the table."""
        return len(self.model_offsets) - 1

    @property
    def num_layers(self) -> int:
        """Total number of layer rows across all models."""
        return int(self.model_offsets[-1])

    def __len__(self) -> int:
        return self.num_layers

    @property
    def segment_starts(self) -> np.ndarray:
        """First layer row of every model (``reduceat`` offsets)."""
        return self.model_offsets[:-1]

    @property
    def model_ids(self) -> np.ndarray:
        """Model index of every layer row."""
        return np.repeat(np.arange(self.num_models), np.diff(self.model_offsets))

    def segment_sum(self, values: np.ndarray) -> np.ndarray:
        """Per-model sum of a layer-aligned array."""
        return np.add.reduceat(np.asarray(values), self.segment_starts)

    def model_slice(self, model_index: int) -> slice:
        """Layer-row slice of one model."""
        return slice(int(self.model_offsets[model_index]), int(self.model_offsets[model_index + 1]))
