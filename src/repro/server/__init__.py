"""Async micro-batched query/prediction service over a warm store.

The serving layer of the repo (stdlib asyncio only — no new dependencies):
``python -m repro.server <store_dir>`` fronts a warm
:class:`~repro.service.query.SweepService` with a small HTTP API speaking
the typed wire format of :mod:`repro.service.api`.  Store-backed queries
sit behind an LRU hot-cache keyed by (store digest, canonical request);
concurrent predictions micro-batch into single packed forward passes;
saturation fails fast with 429/503 + ``Retry-After`` instead of unbounded
queues.  See DESIGN.md §13 for the architecture.

* :class:`SweepServer` / :class:`ServerConfig` — the asyncio front-end
  (:mod:`repro.server.app`);
* :class:`MicroBatcher` — predict coalescing (:mod:`repro.server.batching`);
* :class:`QueryCache` — the LRU hot-cache (:mod:`repro.server.cache`);
* :class:`ServiceClient` — the matching stdlib client
  (:mod:`repro.server.client`);
* :func:`build_service` — rebuild a servable service from a store
  directory through its sweep manifest (it needs nothing else).
"""

from .app import ServerConfig, SweepServer
from .batching import MicroBatcher, ServerSaturated
from .cache import QueryCache
from .client import ServerBusy, ServerError, ServiceClient
from .protocol import HttpRequest, ProtocolError, encode_response, read_request


def build_service(store_dir, **kwargs):
    """See :func:`repro.server.__main__.build_service` (lazy to keep
    ``python -m repro.server`` runpy-clean)."""
    from .__main__ import build_service as _build_service

    return _build_service(store_dir, **kwargs)


__all__ = [
    "HttpRequest",
    "MicroBatcher",
    "ProtocolError",
    "QueryCache",
    "ServerBusy",
    "ServerConfig",
    "ServerError",
    "ServerSaturated",
    "ServiceClient",
    "SweepServer",
    "build_service",
    "encode_response",
    "read_request",
]
