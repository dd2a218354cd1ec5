"""Per-layer and whole-model energy accounting.

See :mod:`repro.arch.energy` for the coefficient definitions.  The model adds
up, per layer: useful-MAC switching energy, idle-lane clocking energy (the
penalty a wide accelerator pays on thin layers), on-chip SRAM traffic (weights
staged into core memory plus activations through PE memory), and DRAM traffic;
the whole-model energy adds static power integrated over the latency.
"""

from __future__ import annotations

from ..arch.config import AcceleratorConfig, scaled_bytes
from ..arch.energy import EnergyParameters
from ..compiler.schedule import CompiledLayer
from .latency import LayerTiming

_PJ_TO_MJ = 1e-9


def layer_energy_mj(
    layer: CompiledLayer,
    timing: LayerTiming,
    config: AcceleratorConfig,
    params: EnergyParameters,
) -> float:
    """Dynamic energy of one layer in millijoules (no static contribution).

    Per batched inference: MAC, idle-lane and activation-SRAM terms scale
    with ``config.batch_size`` (``timing.compute_cycles`` is already per
    batch), while the weight-SRAM staging traffic is charged once per batch.
    Byte footprints are rescaled by the configured bit-widths.
    """
    batch = config.batch_size
    macs = batch * layer.spec.macs
    mac_energy = params.mac_energy_pj * macs

    idle_energy = 0.0
    if macs > 0:
        issued_slots = timing.compute_cycles * config.macs_per_cycle
        idle_energy = params.idle_lane_energy_pj * max(0, issued_slots - macs)

    sram_bytes = scaled_bytes(layer.spec.weight_bytes, config.weight_bits) + batch * (
        scaled_bytes(
            layer.spec.input_activation_bytes + layer.spec.output_activation_bytes,
            config.activation_bits,
        )
    )
    sram_energy = params.sram_byte_energy_pj * sram_bytes
    dram_energy = params.dram_byte_energy_pj * timing.dram_bytes

    return (mac_energy + idle_energy + sram_energy + dram_energy) * _PJ_TO_MJ


def static_energy_mj(latency_ms: float, params: EnergyParameters) -> float:
    """Static (leakage + always-on clock) energy over the inference, in mJ."""
    return params.static_power_w * latency_ms  # W * ms == mJ
