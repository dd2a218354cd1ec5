"""Operation-swap impact analysis (paper Figure 15).

The paper measures how replacing one cell operation type with another changes
inference latency: for every NASBench cell, each operation of type A is
replaced by type B (keeping the adjacency matrix), the resulting model is
evaluated, and the latency differences are averaged into a 3x3 matrix per
accelerator class (absolute change in ms and percentage change).

The original methodology looks the swapped cell up in the NASBench dataset
(skipping swaps whose result does not exist there); since this reproduction
owns the performance simulator, the swapped cell is simulated directly, which
evaluates every swap instead of a subset.  Swaps that do not change the cell
(the operation does not occur) are skipped, as in the paper.

Every baseline and swapped network of the population is flattened into
**one** vectorized :class:`~repro.simulator.batch.BatchSimulator` sweep (up to
seven networks per model) instead of thousands of scalar ``simulate()`` calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..arch.config import AcceleratorConfig
from ..nasbench.cell import Cell
from ..nasbench.dataset import ModelRecord
from ..nasbench.network import NetworkConfig
from ..nasbench.ops import CONV1X1, CONV3X3, INTERIOR_OPS, MAXPOOL3X3
from ..simulator.batch import BatchSimulator

#: Display order of the Figure 15 rows/columns.
SWAP_OPERATIONS: tuple[str, ...] = (CONV3X3, CONV1X1, MAXPOOL3X3)


def swap_operations(cell: Cell, from_op: str, to_op: str) -> Cell | None:
    """Return *cell* with every *from_op* vertex relabelled to *to_op*.

    Returns ``None`` when the cell does not contain *from_op* (the swap would
    be a no-op) or when the swap is the identity.
    """
    if from_op == to_op:
        return None
    if from_op not in INTERIOR_OPS or to_op not in INTERIOR_OPS:
        raise ValueError(f"swap operations must be interior ops, got {from_op!r} -> {to_op!r}")
    if cell.op_count(from_op) == 0:
        return None
    new_ops = [to_op if op == from_op else op for op in cell.ops]
    return Cell(cell.matrix, new_ops)


@dataclass(frozen=True)
class SwapImpact:
    """Aggregate latency impact of one (from_op -> to_op) replacement."""

    from_op: str
    to_op: str
    num_swaps: int
    avg_change_ms: float
    avg_change_percent: float


@dataclass(frozen=True)
class SwapMatrix:
    """Figure 15 for one accelerator configuration."""

    config_name: str
    impacts: dict[tuple[str, str], SwapImpact]

    def change_ms(self, from_op: str, to_op: str) -> float:
        """Average absolute latency change of one swap (0 for the diagonal)."""
        if from_op == to_op:
            return 0.0
        return self.impacts[(from_op, to_op)].avg_change_ms

    def change_percent(self, from_op: str, to_op: str) -> float:
        """Average percentage latency change of one swap (0 for the diagonal)."""
        if from_op == to_op:
            return 0.0
        return self.impacts[(from_op, to_op)].avg_change_percent


def operation_swap_matrix(
    records: Sequence[ModelRecord],
    config: AcceleratorConfig,
    network_config: NetworkConfig | None = None,
    max_models: int | None = None,
    seed: int = 0,
) -> SwapMatrix:
    """Compute the Figure 15 matrix for one configuration.

    Each model contributes its baseline cell plus one cell per applicable
    swap; the whole collection is packed into one table and swept by the
    batch engine, and the per-pair deltas are computed as array arithmetic
    over index vectors into the resulting latency array.

    Parameters
    ----------
    records:
        The model population to average over.
    config:
        Target accelerator configuration.
    max_models:
        Optional cap on how many models are swapped (a deterministic random
        subset is used); the full population is used when ``None``.
    """
    if max_models is not None and len(records) > max_models:
        rng = np.random.default_rng(seed)
        chosen = rng.choice(len(records), size=max_models, replace=False)
        records = [records[int(i)] for i in chosen]

    pairs = [(a, b) for a in SWAP_OPERATIONS for b in SWAP_OPERATIONS if a != b]
    cells = []
    pair_indices: dict[tuple[str, str], list[tuple[int, int]]] = {pair: [] for pair in pairs}
    for record in records:
        baseline_index = len(cells)
        cells.append(record.cell)
        for pair in pairs:
            swapped = swap_operations(record.cell, *pair)
            if swapped is None:
                continue
            pair_indices[pair].append((baseline_index, len(cells)))
            cells.append(swapped)

    latencies = None
    if cells:
        latencies, _ = BatchSimulator().evaluate_cells(cells, config, network_config)

    impacts = {}
    for pair in pairs:
        if not pair_indices[pair]:
            impacts[pair] = SwapImpact(pair[0], pair[1], 0, 0.0, 0.0)
            continue
        index_pairs = np.asarray(pair_indices[pair], dtype=np.int64)
        baselines = latencies[index_pairs[:, 0]]
        swapped_latencies = latencies[index_pairs[:, 1]]
        deltas = swapped_latencies - baselines
        percents = 100.0 * deltas / baselines
        impacts[pair] = SwapImpact(
            from_op=pair[0],
            to_op=pair[1],
            num_swaps=len(index_pairs),
            avg_change_ms=float(deltas.mean()),
            avg_change_percent=float(percents.mean()),
        )
    return SwapMatrix(config_name=config.name, impacts=impacts)
