"""Trainable-parameter counting for NASBench networks.

The paper uses the number of trainable parameters as its primary proxy for
model size (Table 1, Table 6, Table 7, Figure 14).  Counting walks the stage
schedule of the expansion and counts each cell instance from its vertex
channel counts (:attr:`MacroSpec.trainable_parameters`), without expanding
the layer rows the simulator's tables are packed from; the tests hold it
equal to the sum over the expanded network's layers.  This module adds the
interval-histogram helper used to regenerate Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .cell import Cell
from .macro import MacroSpec
from .network import NetworkConfig


def count_parameters(arch: Cell | MacroSpec, config: NetworkConfig | None = None) -> int:
    """Return the number of trainable parameters of the network built from *arch*.

    A bare cell expands through *config* (the paper's backbone by default);
    a macro spec through its own stages.
    """
    if not isinstance(arch, MacroSpec):
        arch = MacroSpec.from_network_config(arch, config)
    return arch.trainable_parameters


@dataclass(frozen=True)
class ParameterInterval:
    """One row of the Table 1 histogram: a half-open parameter interval."""

    lower: int
    upper: int
    count: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.lower:,} — {self.upper:,}): {self.count} models"


def parameter_distribution(
    parameter_counts: Iterable[int],
    num_intervals: int = 10,
    bounds: tuple[int, int] | None = None,
) -> list[ParameterInterval]:
    """Histogram parameter counts into equal-width half-open intervals.

    This regenerates the structure of Table 1 of the paper: the population of
    models split into ``num_intervals`` equally wide trainable-parameter
    intervals.  When *bounds* is omitted the minimum and maximum of the data
    are used (as the paper does with 227,274 and 49,979,274).
    """
    counts: Sequence[int] = sorted(parameter_counts)
    if not counts:
        return []
    lower_bound, upper_bound = bounds if bounds is not None else (counts[0], counts[-1])
    if upper_bound <= lower_bound:
        return [ParameterInterval(lower_bound, upper_bound + 1, len(counts))]

    width = (upper_bound - lower_bound) / num_intervals
    intervals: list[ParameterInterval] = []
    for index in range(num_intervals):
        low = lower_bound + index * width
        high = lower_bound + (index + 1) * width
        if index == num_intervals - 1:
            # The final interval is closed on the right so the maximum lands in it.
            in_interval = sum(1 for value in counts if low <= value <= high)
        else:
            in_interval = sum(1 for value in counts if low <= value < high)
        intervals.append(ParameterInterval(int(round(low)), int(round(high)), in_interval))
    return intervals
