"""Energy model parameters for the studied Edge TPU classes.

The paper reports total inference energy for the V1 and V2 configurations (the
V3 energy model was not available at submission time).  The energy model used
here is a standard accelerator decomposition:

``E = E_mac * MACs  +  E_idle * idle_lane_cycles  +  E_sram * on_chip_bytes
      +  E_dram * off_chip_bytes  +  P_static * latency``

* ``E_mac`` — switching energy of one useful int8 multiply-accumulate,
  including its share of datapath/control overhead.  V1 runs at a lower clock
  (800 MHz vs 1066 MHz) and therefore a lower voltage point, so its per-MAC
  energy is slightly lower.
* ``E_idle`` — clocking energy of an unoccupied MAC lane-slot.  This term is
  what makes a wide accelerator (V1) less energy efficient than a narrow one
  (V2) on models that cannot fill it, reproducing the low-latency half of
  Figure 6, while highly utilized large models amortize it away.
* ``E_sram`` / ``E_dram`` — per-byte access energies; DRAM traffic is roughly
  two orders of magnitude more expensive, which is why parameter caching wins
  back energy on the large models (the high-latency half of Figure 6).
* ``P_static`` — leakage plus always-on clocking, proportional to the amount
  of compute and SRAM on the die.

The constants are calibrated so the magnitudes land in the paper's range
(average ~4 mJ, maximum ~24 mJ) and the V1/V2 crossover sits near 3 ms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .config import MIB, AcceleratorConfig


@dataclass(frozen=True)
class EnergyParameters:
    """Per-configuration energy coefficients (pJ per event, W for static)."""

    mac_energy_pj: float
    idle_lane_energy_pj: float
    sram_byte_energy_pj: float
    dram_byte_energy_pj: float
    static_power_w: float
    #: Whether the paper published an energy model for this configuration.
    available: bool = True

    def __post_init__(self) -> None:
        if min(
            self.mac_energy_pj,
            self.idle_lane_energy_pj,
            self.sram_byte_energy_pj,
            self.dram_byte_energy_pj,
            self.static_power_w,
        ) < 0:
            raise ValueError("energy coefficients must be non-negative")


#: Per-byte DRAM access energy (LPDDR4-class interface).
_DRAM_BYTE_PJ = 40.0
#: Per-byte on-chip SRAM access energy.
_SRAM_BYTE_PJ = 1.0
#: Switching energy of a useful int8 MAC including its datapath share.
_MAC_PJ = 3.2
#: Clocking energy of an idle MAC lane-slot.
_IDLE_LANE_PJ = 3.0


def energy_parameters_for(config: AcceleratorConfig) -> EnergyParameters:
    """Derive :class:`EnergyParameters` for an accelerator configuration.

    The dynamic per-event coefficients are technology constants shared by all
    configurations; the static power scales with the amount of compute (and
    its clock/voltage point) and SRAM on the die, so custom configurations
    created with :meth:`AcceleratorConfig.with_overrides` also receive
    sensible values.  The V3 energy model is marked unavailable to mirror the
    paper.
    """
    # Voltage/frequency scaling proxy: 800 MHz -> 1.0, 1066 MHz -> ~1.18.
    frequency_factor = 0.45 + 0.55 * (config.clock_mhz / 800.0)

    compute_static = 4e-6 * config.macs_per_cycle * frequency_factor
    sram_static = 0.002 * (config.total_on_chip_memory_bytes / MIB)
    static_power = 0.04 + compute_static + sram_static

    return EnergyParameters(
        mac_energy_pj=_MAC_PJ,
        idle_lane_energy_pj=_IDLE_LANE_PJ,
        sram_byte_energy_pj=_SRAM_BYTE_PJ,
        dram_byte_energy_pj=_DRAM_BYTE_PJ,
        static_power_w=static_power,
        available=config.name.upper() != "V3",
    )


@dataclass(frozen=True)
class EnergyTable:
    """The per-configuration energy values the fused kernel reads.

    ``static_power_w`` is a ``(num_configs, 1)`` column of
    :attr:`EnergyParameters.static_power_w`; ``available`` is the
    per-config availability mask (shape ``(num_configs,)``): rows without a
    published energy model are masked to NaN after the shared arithmetic.
    The per-event coefficients are technology constants shared by every
    configuration, so the kernel of :mod:`repro.simulator.fused` applies
    them as scalars and they have no column here.
    """

    static_power_w: np.ndarray
    available: np.ndarray


def energy_parameters_table(configs: Iterable[AcceleratorConfig]) -> EnergyTable:
    """Stack :func:`energy_parameters_for` over a batch of configurations.

    The static power becomes a ``(num_configs, 1)`` column built from the
    scalar derivation, so the config-axis energy path reuses the per-config
    values verbatim.
    """
    params = [energy_parameters_for(config) for config in configs]
    return EnergyTable(
        static_power_w=np.array([p.static_power_w for p in params], dtype=np.float64)[:, None],
        available=np.array([p.available for p in params], dtype=bool),
    )
