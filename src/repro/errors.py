"""Exception hierarchy for the ``repro`` package.

All exceptions raised by this library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while still
being able to distinguish the failing subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class InvalidCellError(ReproError):
    """Raised when a NASBench cell specification violates the space rules.

    Examples include: too many vertices, too many edges, a cyclic adjacency
    matrix, an unknown operation label, or a graph with no path from the
    input vertex to the output vertex.
    """


class InvalidConfigError(ReproError):
    """Raised when an accelerator configuration is malformed.

    For example a non-positive clock frequency, a zero-sized PE array, or
    memory capacities that cannot hold a single tile.
    """


class CompilationError(ReproError):
    """Raised when a network cannot be lowered or mapped onto an accelerator."""


class SimulationError(ReproError):
    """Raised when the performance simulator is given inconsistent inputs."""


class ModelError(ReproError):
    """Raised for failures in the learned performance model (shapes, training)."""


class DatasetError(ReproError):
    """Raised when dataset generation or querying fails."""


class ServiceError(ReproError):
    """Raised by the measurement store / sweep service (missing shards, bad I/O)."""


class SearchError(ReproError):
    """Raised when an architecture search is misconfigured or cannot proceed.

    Examples include an unknown strategy name, a simulation store whose shard
    size does not align with the search's generation size, or an objective
    metric the target configuration cannot provide (energy on V3).
    """
