"""Accelerator design-space exploration.

The hardware axis of the paper as a subsystem: validated configuration grids
(:class:`AcceleratorSpace`), population-level hardware Pareto analysis
(:class:`HardwareFrontier`, performance vs. derived cost proxies) and joint
NAS × hardware co-search (:class:`CoSearchEngine`), all running on the
config-axis vectorized sweep of
:meth:`~repro.simulator.batch.BatchSimulator.evaluate_table_grid` and
persisting through :class:`~repro.service.MeasurementStore` shards keyed by
each configuration's content digest (DESIGN.md §8).
"""

from .cosearch import (
    CoSearchEngine,
    CoSearchResult,
    PairRecord,
    pair_key,
    studied_baselines,
)
from .frontier import (
    COST_PROXIES,
    PERFORMANCE_METRICS,
    ConfigPoint,
    HardwareFrontier,
)
from .space import SEARCHABLE_FIELDS, AcceleratorSpace, config_digest

__all__ = [
    "AcceleratorSpace",
    "COST_PROXIES",
    "CoSearchEngine",
    "CoSearchResult",
    "ConfigPoint",
    "HardwareFrontier",
    "PERFORMANCE_METRICS",
    "PairRecord",
    "SEARCHABLE_FIELDS",
    "config_digest",
    "pair_key",
    "studied_baselines",
]
