"""Structure-of-arrays batch of accelerator configurations.

The batch engine of PR 1 made the *layer* axis an array axis: one
:class:`~repro.nasbench.layer_table.LayerTable` row per layer, kernels as
NumPy arithmetic over the whole population.  :class:`ConfigTable` does the
same for the *configuration* axis.  Every :class:`AcceleratorConfig` field
and derived quantity is stored as a column of shape ``(num_configs, 1)``, so
the existing compiler and simulator kernels — written against the scalar
attribute names — broadcast against the layer axis and produce
``(num_configs, num_layers)`` results in a single pass instead of being
re-run once per configuration.

The derived columns use exactly the same formulas as the corresponding
:class:`AcceleratorConfig` properties over the same integer/float values, so
the config-axis path is bit-for-bit the per-config loop (the equivalence
tests assert exact equality, not a tolerance).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from ..errors import InvalidConfigError
from .config import AcceleratorConfig

#: AcceleratorConfig fields stored as int64 columns.
_INT_FIELDS = (
    "pes_x",
    "pes_y",
    "pe_memory_bytes",
    "cores_per_pe",
    "core_memory_bytes",
    "compute_lanes",
    "macs_per_lane",
    "instruction_memory_entries",
    "parameter_memory_entries",
    "activation_memory_entries",
    "inference_overhead_cycles",
    "layer_overhead_cycles",
    "batch_size",
    "weight_bits",
    "activation_bits",
)

#: AcceleratorConfig fields stored as float64 columns.
_FLOAT_FIELDS = ("clock_mhz", "io_bandwidth_gbps", "pe_memory_cache_fraction")


class ConfigTable:
    """Aligned per-configuration columns for a batch of accelerator configs.

    Each column has shape ``(num_configs, 1)`` — the trailing singleton axis
    is what lets a column broadcast against layer-aligned ``(num_layers,)``
    arrays inside the compiler/simulator kernels.  The original
    :class:`AcceleratorConfig` objects stay reachable through
    :attr:`configs` / :meth:`row` for anything that needs scalar access
    (energy-model availability, names, reporting).
    """

    def __init__(self, configs: Iterable[AcceleratorConfig]):
        resolved = tuple(configs)
        if not resolved:
            raise InvalidConfigError("a ConfigTable needs at least one configuration")
        names = [config.name for config in resolved]
        if len(set(names)) != len(names):
            duplicates = sorted({name for name in names if names.count(name) > 1})
            raise InvalidConfigError(
                "configuration names must be unique within a ConfigTable "
                f"(duplicated: {', '.join(duplicates)}); results are keyed by name"
            )
        self.configs = resolved
        self.names = names
        for field in _INT_FIELDS:
            values = np.array([getattr(c, field) for c in resolved], dtype=np.int64)
            setattr(self, field, values[:, None])
        for field in _FLOAT_FIELDS:
            values = np.array([getattr(c, field) for c in resolved], dtype=np.float64)
            setattr(self, field, values[:, None])

    # ------------------------------------------------------------------ #
    # Container protocol
    # ------------------------------------------------------------------ #
    @classmethod
    def from_configs(
        cls, configs: "Iterable[AcceleratorConfig] | ConfigTable"
    ) -> "ConfigTable":
        """Coerce a configuration iterable (or an existing table) to a table."""
        if isinstance(configs, cls):
            return configs
        return cls(configs)

    def __len__(self) -> int:
        return len(self.configs)

    def __iter__(self) -> Iterator[AcceleratorConfig]:
        return iter(self.configs)

    def row(self, index: int) -> AcceleratorConfig:
        """The scalar configuration of one row."""
        return self.configs[index]

    def factor(self, field_names: Sequence[str]) -> "tuple[ConfigTable, np.ndarray]":
        """Deduplicate rows by a subset of fields: ``(unique_table, inverse)``.

        A kernel that only reads *field_names* produces identical rows for
        configurations agreeing on them, so it can run on the returned
        (smaller) table and gather its output back through *inverse*
        (``len(self)`` indices into the unique table).  On a design-space
        grid this collapses whole axes: a clock sweep never re-runs the
        mapping kernel, a lane sweep never re-runs the cache planner.
        """
        first_row: dict[tuple, int] = {}
        inverse = np.empty(len(self.configs), dtype=np.int64)
        representatives: list[AcceleratorConfig] = []
        for index, config in enumerate(self.configs):
            key = tuple(getattr(config, name) for name in field_names)
            position = first_row.get(key)
            if position is None:
                position = len(representatives)
                first_row[key] = position
                representatives.append(config)
            inverse[index] = position
        if len(representatives) == len(self.configs):
            return self, inverse
        return ConfigTable(representatives), inverse

    @property
    def num_configs(self) -> int:
        """Number of configuration rows."""
        return len(self.configs)

    # ------------------------------------------------------------------ #
    # Derived compute quantities (same formulas as AcceleratorConfig)
    # ------------------------------------------------------------------ #
    @property
    def num_pes(self) -> np.ndarray:
        """Per-config total number of processing elements, shape ``(C, 1)``."""
        return self.pes_x * self.pes_y

    @property
    def total_cores(self) -> np.ndarray:
        """Per-config total number of compute cores, shape ``(C, 1)``."""
        return self.num_pes * self.cores_per_pe

    @property
    def clock_hz(self) -> np.ndarray:
        """Per-config system clock in Hz, shape ``(C, 1)``."""
        return self.clock_mhz * 1e6

    @property
    def macs_per_cycle(self) -> np.ndarray:
        """Per-config peak MACs per cycle, shape ``(C, 1)``."""
        return self.total_cores * self.compute_lanes * self.macs_per_lane

    @property
    def peak_tops(self) -> np.ndarray:
        """Per-config peak tera-operations per second, shape ``(C, 1)``."""
        return 2.0 * self.macs_per_cycle * self.clock_hz / 1e12

    # ------------------------------------------------------------------ #
    # Derived memory quantities
    # ------------------------------------------------------------------ #
    @property
    def total_pe_memory_bytes(self) -> np.ndarray:
        """Per-config aggregate PE memory, shape ``(C, 1)``."""
        return self.pe_memory_bytes * self.num_pes

    @property
    def total_core_memory_bytes(self) -> np.ndarray:
        """Per-config aggregate core memory, shape ``(C, 1)``."""
        return self.core_memory_bytes * self.total_cores

    @property
    def total_on_chip_memory_bytes(self) -> np.ndarray:
        """Per-config total on-chip SRAM, shape ``(C, 1)``."""
        return self.total_pe_memory_bytes + self.total_core_memory_bytes

    @property
    def io_bandwidth_bytes_per_second(self) -> np.ndarray:
        """Per-config peak off-chip bandwidth in B/s, shape ``(C, 1)``."""
        return self.io_bandwidth_gbps * 1e9
