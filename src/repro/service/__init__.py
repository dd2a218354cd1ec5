"""Resumable sweep storage, distributed draining and serving.

The paper's headline sweep (~1.5M latency / ~900K energy simulations) is too
big to be all-or-nothing.  This subsystem persists sweeps as per-shard,
content-keyed npz files, lets independent workers drain them, and serves
queries from the result:

* :class:`MeasurementStore` — append-only, fingerprint-verified shard store;
  :meth:`~MeasurementStore.extend` simulates only the missing (shard,
  configuration) pairs, so sweeps survive interruption and grow
  incrementally; :meth:`~MeasurementStore.compact` merges a finished sweep
  into one memory-mapped consolidated file so warm loads are O(open), not
  O(files) (see DESIGN.md §6 and §10);
* :class:`SweepManifest` / :class:`SweepWorker` / :class:`SweepCoordinator`
  — a filesystem-backed lease queue over the (shard, configuration) pairs:
  N crash-tolerant worker processes or hosts sharing the store directory
  drain one sweep (``python -m repro.service.worker <store_dir>``), stolen
  leases recover ``kill -9``-ed workers, and the coordinator reports fleet
  progress (see DESIGN.md §10);
* :class:`SweepService` — read-only query API that never invokes the
  simulator.  Every query (top-k, Pareto frontier, fingerprint lookups,
  learned-model predictions for unseen cells) is one typed request of
  :mod:`repro.service.api` answered by :meth:`SweepService.query` in a
  :class:`QueryResponse` envelope, which is also the wire format of
  :mod:`repro.server`; :meth:`SweepService.model` restores or fits the
  learned model behind the predictions, its weights cached next to the
  shards.
"""

from .api import (
    QUERY_METRICS,
    SERVED_FROM,
    MetricRequest,
    ParetoRequest,
    PredictRequest,
    QueryRequest,
    QueryResponse,
    TopKRequest,
    cache_key,
    canonical_request_key,
    request_from_dict,
    resolve_configs,
)
from .query import SweepService
from .store import (
    DEFAULT_SHARD_SIZE,
    STORE_FORMAT_VERSION,
    CompactionResult,
    MeasurementStore,
    StoreStats,
    read_npz,
    stable_digest,
    write_npz,
)


#: Lazily-imported queue/worker symbols: the modules stay unimported until
#: first use, so ``python -m repro.service.worker`` (and ``.queue``) execute
#: as ``__main__`` without runpy's "found in sys.modules" warning.
_LAZY = {
    "DEFAULT_LEASE_EXPIRY": "queue",
    "QUEUE_FORMAT_VERSION": "queue",
    "QueueProgress": "queue",
    "SweepCoordinator": "queue",
    "SweepManifest": "queue",
    "SweepPair": "queue",
    "WorkQueue": "queue",
    "WorkerStatus": "queue",
    "SweepWorker": "worker",
    "WorkerResult": "worker",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is not None:
        import importlib

        return getattr(importlib.import_module(f".{module_name}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "CompactionResult",
    "DEFAULT_LEASE_EXPIRY",
    "DEFAULT_SHARD_SIZE",
    "MeasurementStore",
    "MetricRequest",
    "ParetoRequest",
    "PredictRequest",
    "QUERY_METRICS",
    "QUEUE_FORMAT_VERSION",
    "QueryRequest",
    "QueryResponse",
    "QueueProgress",
    "SERVED_FROM",
    "STORE_FORMAT_VERSION",
    "StoreStats",
    "SweepCoordinator",
    "SweepManifest",
    "SweepPair",
    "SweepService",
    "SweepWorker",
    "TopKRequest",
    "WorkQueue",
    "WorkerResult",
    "WorkerStatus",
    "cache_key",
    "canonical_request_key",
    "read_npz",
    "request_from_dict",
    "resolve_configs",
    "stable_digest",
    "write_npz",
]
