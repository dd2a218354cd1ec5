"""Accelerator configurations for the three studied Edge TPU classes.

Table 2 of the paper lists the microarchitectural parameters of the three
accelerator classes (V1, V2, V3).  :class:`AcceleratorConfig` captures every
one of those fields, validates them, and exposes the derived quantities used
by the compiler and the performance model (MACs per cycle, peak TOPS, total
on-chip capacities).

The per-lane MAC width is not listed explicitly in the paper, but it follows
from the published peak TOPS: for every class,
``peak TOPS = 2 * PEs * cores * lanes * macs_per_lane * clock`` holds exactly
with ``macs_per_lane = 4`` (e.g. V1: 2 * 16 * 4 * 64 * 4 * 800 MHz =
26.2 TOPS), so 4-way MAC units are used as the default.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from ..errors import InvalidConfigError

KIB = 1024
MIB = 1024 * 1024


def scaled_bytes(byte_counts, bits):
    """``ceil(bytes * bits / 8)``: rescale canonical int8 byte footprints.

    Pure integer arithmetic (no float round-trip), elementwise over arrays and
    exact under broadcasting, so the scalar and ``(C, L)`` table kernels agree
    bit for bit.  At 8 bits this is the identity.
    """
    return -(-(byte_counts * bits) // 8)


@dataclass(frozen=True)
class AcceleratorConfig:
    """Microarchitectural description of one Edge TPU accelerator class.

    Attributes mirror Table 2 of the paper; memory sizes are stored in bytes.
    """

    name: str
    clock_mhz: float
    pes_x: int
    pes_y: int
    pe_memory_bytes: int
    cores_per_pe: int
    core_memory_bytes: int
    compute_lanes: int
    macs_per_lane: int = 4
    instruction_memory_entries: int = 16384
    parameter_memory_entries: int = 16384
    activation_memory_entries: int = 1024
    io_bandwidth_gbps: float = 17.0
    #: Fraction of PE memory the compiler may devote to the cross-inference
    #: parameter cache; the rest is reserved for activations, partial sums and
    #: double buffering.
    pe_memory_cache_fraction: float = 0.5
    #: Fixed per-inference overhead (host synchronization, input/output DMA
    #: setup, instruction fetch), in accelerator cycles.
    inference_overhead_cycles: int = 36_000
    #: Fixed per-layer overhead (descriptor dispatch, weight-staging setup,
    #: pipeline fill/drain), in accelerator cycles.
    layer_overhead_cycles: int = 300
    #: Images processed per batched inference.  Batching multiplies compute
    #: and activation traffic while weight fetch (DRAM streaming and cache
    #: refill) is paid once per batch, so larger batches amortize it.
    batch_size: int = 1
    #: Storage width of weights in bits.  Weight footprints (cache pressure,
    #: streamed DRAM traffic, SRAM staging) scale as ``ceil(bytes * bits / 8)``
    #: from the canonical int8 layer footprints.
    weight_bits: int = 8
    #: Storage width of activations in bits; scales activation footprints
    #: (spill working sets, model I/O, SRAM activation traffic) the same way.
    activation_bits: int = 8

    def __post_init__(self) -> None:
        if self.clock_mhz <= 0:
            raise InvalidConfigError(f"{self.name}: clock frequency must be positive")
        if self.pes_x <= 0 or self.pes_y <= 0:
            raise InvalidConfigError(f"{self.name}: PE grid dimensions must be positive")
        if self.cores_per_pe <= 0 or self.compute_lanes <= 0 or self.macs_per_lane <= 0:
            raise InvalidConfigError(f"{self.name}: compute resources must be positive")
        if self.pe_memory_bytes <= 0 or self.core_memory_bytes <= 0:
            raise InvalidConfigError(f"{self.name}: memory capacities must be positive")
        if self.io_bandwidth_gbps <= 0:
            raise InvalidConfigError(f"{self.name}: I/O bandwidth must be positive")
        if not 0.0 <= self.pe_memory_cache_fraction <= 1.0:
            raise InvalidConfigError(f"{self.name}: pe_memory_cache_fraction must be within [0, 1]")
        if self.batch_size < 1:
            raise InvalidConfigError(f"{self.name}: batch_size must be at least 1")
        for field_name in ("weight_bits", "activation_bits"):
            bits = getattr(self, field_name)
            if not 1 <= bits <= 32:
                raise InvalidConfigError(f"{self.name}: {field_name} must be within [1, 32]")

    # ------------------------------------------------------------------ #
    # Derived compute quantities
    # ------------------------------------------------------------------ #
    @property
    def num_pes(self) -> int:
        """Total number of processing elements in the 2D array."""
        return self.pes_x * self.pes_y

    @property
    def total_cores(self) -> int:
        """Total number of compute cores across all PEs."""
        return self.num_pes * self.cores_per_pe

    @property
    def clock_hz(self) -> float:
        """System clock in Hz."""
        return self.clock_mhz * 1e6

    @property
    def macs_per_cycle(self) -> int:
        """Peak multiply-accumulate operations per cycle across the chip."""
        return self.total_cores * self.compute_lanes * self.macs_per_lane

    @property
    def peak_tops(self) -> float:
        """Peak tera-operations per second (1 MAC = 2 ops)."""
        return 2.0 * self.macs_per_cycle * self.clock_hz / 1e12

    # ------------------------------------------------------------------ #
    # Derived memory quantities
    # ------------------------------------------------------------------ #
    @property
    def total_pe_memory_bytes(self) -> int:
        """Aggregate PE (activation) memory across the chip."""
        return self.pe_memory_bytes * self.num_pes

    @property
    def total_core_memory_bytes(self) -> int:
        """Aggregate core (parameter) memory across the chip."""
        return self.core_memory_bytes * self.total_cores

    @property
    def total_on_chip_memory_bytes(self) -> int:
        """All on-chip SRAM: PE memory plus core memory."""
        return self.total_pe_memory_bytes + self.total_core_memory_bytes

    @property
    def io_bandwidth_bytes_per_second(self) -> float:
        """Peak off-chip bandwidth in bytes per second."""
        return self.io_bandwidth_gbps * 1e9

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #
    def with_overrides(self, **overrides: object) -> "AcceleratorConfig":
        """Return a copy of the configuration with some fields replaced.

        This is the hook used for architecture exploration (for example the
        tile-size ablation discussed in Section 6.1 of the paper, and the
        :class:`~repro.hwspace.AcceleratorSpace` design-space grids).

        Raises
        ------
        InvalidConfigError
            If an override names a field :class:`AcceleratorConfig` does not
            have, or if the resulting configuration violates an invariant.
        """
        known = {spec.name for spec in fields(self)}
        unknown = sorted(set(overrides) - known)
        if unknown:
            raise InvalidConfigError(
                f"{self.name}: unknown configuration field(s) "
                f"{', '.join(repr(name) for name in unknown)}; valid fields are "
                f"{', '.join(sorted(known))}"
            )
        return replace(self, **overrides)

    def summary(self) -> dict[str, object]:
        """Return the Table 2 style description of this configuration."""
        return {
            "name": self.name,
            "clock_mhz": self.clock_mhz,
            "pes": f"({self.pes_x}, {self.pes_y})",
            "pe_memory_bytes": self.pe_memory_bytes,
            "cores_per_pe": self.cores_per_pe,
            "core_memory_bytes": self.core_memory_bytes,
            "compute_lanes": self.compute_lanes,
            "instruction_memory_entries": self.instruction_memory_entries,
            "parameter_memory_entries": self.parameter_memory_entries,
            "activation_memory_entries": self.activation_memory_entries,
            "io_bandwidth_gbps": self.io_bandwidth_gbps,
            "peak_tops": round(self.peak_tops, 2),
        }


#: Table 2, configuration V1: high peak TOPS, large on-chip memory, lower
#: clock and I/O bandwidth.  Deployed-class accelerator.
EDGE_TPU_V1 = AcceleratorConfig(
    name="V1",
    clock_mhz=800.0,
    pes_x=4,
    pes_y=4,
    pe_memory_bytes=2 * MIB,
    cores_per_pe=4,
    core_memory_bytes=32 * KIB,
    compute_lanes=64,
    instruction_memory_entries=16384,
    parameter_memory_entries=16384,
    activation_memory_entries=1024,
    io_bandwidth_gbps=17.0,
)

#: Table 2, configuration V2: low peak TOPS with small on-chip memory but
#: high I/O bandwidth.
EDGE_TPU_V2 = AcceleratorConfig(
    name="V2",
    clock_mhz=1066.0,
    pes_x=4,
    pes_y=4,
    pe_memory_bytes=384 * KIB,
    cores_per_pe=1,
    core_memory_bytes=32 * KIB,
    compute_lanes=64,
    instruction_memory_entries=16384,
    parameter_memory_entries=8192,
    activation_memory_entries=1024,
    io_bandwidth_gbps=32.0,
)

#: Table 2, configuration V3: low peak TOPS with large on-chip memory,
#: fewer PEs but more cores per PE.
EDGE_TPU_V3 = AcceleratorConfig(
    name="V3",
    clock_mhz=1066.0,
    pes_x=4,
    pes_y=1,
    pe_memory_bytes=2 * MIB,
    cores_per_pe=8,
    core_memory_bytes=8 * KIB,
    compute_lanes=32,
    instruction_memory_entries=16384,
    parameter_memory_entries=8192,
    activation_memory_entries=1024,
    io_bandwidth_gbps=32.0,
)

#: The three studied accelerator classes, keyed by name.
STUDIED_CONFIGS: dict[str, AcceleratorConfig] = {
    "V1": EDGE_TPU_V1,
    "V2": EDGE_TPU_V2,
    "V3": EDGE_TPU_V3,
}


def get_config(name: str) -> AcceleratorConfig:
    """Look up one of the studied configurations by name (``"V1"``/``"V2"``/``"V3"``)."""
    try:
        return STUDIED_CONFIGS[name.upper()]
    except KeyError as exc:
        raise InvalidConfigError(
            f"unknown accelerator configuration {name!r}; expected one of "
            f"{sorted(STUDIED_CONFIGS)}"
        ) from exc
