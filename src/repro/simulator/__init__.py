"""Cycle-level Edge TPU performance and energy simulator."""

from .batch import BatchSimulator
from .engine import PerformanceSimulator
from .fused import compile_and_time_table
from .latency import (
    LayerTiming,
    activation_spill_bytes,
    cycles_to_milliseconds,
    model_latency_cycles,
    time_layer,
)
from .results import LayerResult, SimulationResult
from .runner import MeasurementSet, MeasurementSubset

__all__ = [
    "BatchSimulator",
    "LayerResult",
    "LayerTiming",
    "MeasurementSet",
    "MeasurementSubset",
    "PerformanceSimulator",
    "SimulationResult",
    "activation_spill_bytes",
    "compile_and_time_table",
    "cycles_to_milliseconds",
    "model_latency_cycles",
    "time_layer",
]
