"""Compiled-model representation: per-layer mappings plus the cache plan.

:class:`CompiledModel` holds scalar per-layer objects for one network
(detailed inspection, layer breakdowns).  The table sweeps never build it:
the fused kernel of :mod:`repro.simulator.fused` keeps the mapping and cache
results of a whole :class:`~repro.nasbench.layer_table.LayerTable` as arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..arch.config import AcceleratorConfig
from ..nasbench.network import LayerSpec, NetworkSpec
from .param_cache import CachePlan
from .tiling import LayerMapping


@dataclass(frozen=True)
class CompiledLayer:
    """One operation of the compiled model with its mapping and weight residency."""

    spec: LayerSpec
    mapping: LayerMapping
    cached_weight_bytes: int
    streamed_weight_bytes: int

    @property
    def name(self) -> str:
        """Name of the underlying layer."""
        return self.spec.name


@dataclass(frozen=True)
class CompiledModel:
    """Ahead-of-time compilation result of one network for one configuration."""

    config: AcceleratorConfig
    network: NetworkSpec
    layers: tuple[CompiledLayer, ...]
    cache_plan: CachePlan

    @property
    def total_compute_cycles(self) -> int:
        """Sum of per-layer datapath cycles (no memory stalls or overheads)."""
        return sum(layer.mapping.compute_cycles for layer in self.layers)

    @property
    def total_weight_bytes(self) -> int:
        """Total weight footprint of the model in bytes."""
        return self.cache_plan.total_weight_bytes

    @property
    def average_utilization(self) -> float:
        """MAC-work-weighted average datapath utilization."""
        total_macs = sum(layer.spec.macs for layer in self.layers)
        if total_macs == 0:
            return 0.0
        issued = sum(
            layer.mapping.compute_cycles * self.config.macs_per_cycle
            for layer in self.layers
            if layer.spec.macs > 0
        )
        return total_macs / issued if issued else 0.0

