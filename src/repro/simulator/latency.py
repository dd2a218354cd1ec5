"""Per-layer latency model.

Each layer's execution time is the maximum of three overlapped activities plus
a small fixed dispatch overhead:

* datapath cycles (from the compiler's :class:`LayerMapping`);
* DRAM transfer cycles for weights that are not resident on-chip and for
  activation traffic that does not fit in PE memory;
* on-chip refill cycles moving cached weights from the parameter cache into
  the per-core staging memories.

Weight streaming is double buffered against compute (as in the real device),
hence the ``max`` rather than a sum.  The whole-model latency adds a fixed
per-inference overhead covering host synchronization and input/output DMA.

Latency is per *batched* inference: compute cycles and activation DRAM
traffic scale with ``config.batch_size`` while weight streaming and cache
refills are charged once per batch (the batch amortizes weight fetch).
Activation byte counts are rescaled from the canonical int8 footprints by
``config.activation_bits`` before they touch the roofline.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..arch.config import AcceleratorConfig, scaled_bytes
from ..arch.interconnect import on_chip_bytes_per_cycle, sustained_bytes_per_cycle
from ..compiler.schedule import CompiledLayer, CompiledModel


@dataclass(frozen=True)
class LayerTiming:
    """Timing decomposition of one compiled layer."""

    compute_cycles: int
    dram_bytes: int
    on_chip_refill_bytes: int
    memory_cycles: float
    total_cycles: float


def activation_spill_bytes(layer: CompiledLayer, config: AcceleratorConfig) -> int:
    """Per-image DRAM activation traffic when the working set overflows PE memory."""
    working_set = scaled_bytes(
        layer.spec.input_activation_bytes + layer.spec.output_activation_bytes,
        config.activation_bits,
    )
    if working_set > config.total_pe_memory_bytes:
        return working_set
    return 0


def time_layer(
    layer: CompiledLayer,
    config: AcceleratorConfig,
    extra_dram_bytes: int = 0,
) -> LayerTiming:
    """Compute the :class:`LayerTiming` of one compiled layer.

    ``extra_dram_bytes`` lets the engine charge the model input/output tensors
    to the first/last layer; like the spill traffic it is per-image activation
    data (already bit-width scaled) and is multiplied by the batch size, while
    the weight stream and cache refill are charged once per batch.
    """
    activation_dram = activation_spill_bytes(layer, config) + extra_dram_bytes
    dram_bytes = layer.streamed_weight_bytes + config.batch_size * activation_dram
    refill_bytes = layer.cached_weight_bytes
    compute_cycles = config.batch_size * layer.mapping.compute_cycles

    dram_cycles = dram_bytes / sustained_bytes_per_cycle(config) if dram_bytes else 0.0
    refill_cycles = refill_bytes / on_chip_bytes_per_cycle(config) if refill_bytes else 0.0
    memory_cycles = max(dram_cycles, refill_cycles)

    total = max(compute_cycles, memory_cycles) + config.layer_overhead_cycles
    return LayerTiming(
        compute_cycles=compute_cycles,
        dram_bytes=dram_bytes,
        on_chip_refill_bytes=refill_bytes,
        memory_cycles=memory_cycles,
        total_cycles=total,
    )


def model_latency_cycles(timings: list[LayerTiming], config: AcceleratorConfig) -> float:
    """Total model latency in cycles, including the per-inference overhead."""
    return config.inference_overhead_cycles + sum(timing.total_cycles for timing in timings)


def cycles_to_milliseconds(cycles: float, config: AcceleratorConfig) -> float:
    """Convert accelerator cycles to milliseconds for *config*."""
    return cycles / config.clock_hz * 1e3


def model_input_output_bytes(model: CompiledModel) -> tuple[int, int]:
    """Per-image DRAM bytes for the model input image and the classifier output.

    Scaled to the configuration's activation bit-width so the scalar engine's
    ``extra_dram_bytes`` matches the fused kernel exactly.
    """
    bits = model.config.activation_bits
    first = model.layers[0].spec
    last = model.layers[-1].spec
    return (
        scaled_bytes(first.input_activation_bytes, bits),
        scaled_bytes(last.output_activation_bytes, bits),
    )
