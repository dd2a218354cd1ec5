"""Result records produced by the performance simulator."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class LayerResult:
    """Per-layer timing and energy breakdown."""

    name: str
    kind: str
    compute_cycles: int
    dram_bytes: int
    on_chip_refill_bytes: int
    memory_cycles: float
    total_cycles: float
    energy_mj: float
    utilization: float


@dataclass(frozen=True)
class SimulationResult:
    """Whole-model simulation outcome on one accelerator configuration."""

    config_name: str
    latency_ms: float
    energy_mj: float | None
    total_cycles: float
    compute_cycles: int
    memory_cycles: float
    dram_bytes: int
    cached_weight_bytes: int
    streamed_weight_bytes: int
    total_weight_bytes: int
    average_utilization: float
    layer_results: tuple[LayerResult, ...] = field(repr=False, default=())

    @property
    def energy_available(self) -> bool:
        """Whether an energy model was available for the configuration."""
        return self.energy_mj is not None

    @property
    def fully_cached(self) -> bool:
        """``True`` when all weights were resident on-chip (no DRAM weight traffic)."""
        return self.streamed_weight_bytes == 0
