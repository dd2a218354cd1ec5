"""The asyncio query server: routing, admission control, drain.

:class:`SweepServer` fronts one warm :class:`~repro.service.query.SweepService`
with a small HTTP surface (stdlib asyncio only):

==========================  =====================================================
``GET /healthz``            liveness + store digest
``GET /v1/stats``           cache / batching / admission counters
``POST /v1/query``          any :mod:`repro.service.api` request, wire-form
==========================  =====================================================

Every question reaches the service one way: ``POST /v1/query`` decodes its
body with :func:`~repro.service.api.request_from_dict` and hands the typed
request to :meth:`SweepService.query`; there is no query logic in this
module.  Store-backed answers sit behind the LRU hot-cache
(:mod:`repro.server.cache`); predictions flow through the micro-batcher
(:mod:`repro.server.batching`); both the batched forward pass and uncached
store queries run on a single-worker executor so the event loop never
blocks on numpy.

**Admission control.**  At most ``max_inflight`` requests are being
answered at once; past that the server fails fast with ``429`` and a
``Retry-After`` hint rather than queueing unboundedly (the predict queue is
additionally bounded in cells — see :class:`MicroBatcher`).  During
shutdown the server stops accepting, answers ``503`` on kept-alive
connections, and drains in-flight work before closing (crash/drain states
in DESIGN.md §13).

Error mapping: malformed HTTP/JSON → ``400``; unknown fingerprints →
``404``; domain errors (:class:`ReproError`) → ``400``; saturation →
``429``/``503`` + ``Retry-After``; anything else → ``500`` with the
exception logged through :mod:`repro.obs` — never a crashed event loop.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .. import obs
from ..errors import DatasetError, ReproError
from ..service.api import (
    PredictRequest,
    QueryRequest,
    QueryResponse,
    cache_key,
    request_from_dict,
)
from .batching import MicroBatcher, ServerSaturated
from .cache import QueryCache
from .protocol import HttpRequest, ProtocolError, encode_response, read_request

#: The header of every 429 and 503 answer: retry after one second.
RETRY_AFTER = {"Retry-After": "1"}

#: The routes the server answers, path → method.
_ROUTES = {"/healthz": "GET", "/v1/stats": "GET", "/v1/query": "POST"}


@dataclass(frozen=True)
class ServerConfig:
    """Tunables of one server instance (all bounds, no behavior switches).

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`SweepServer.port` — the test suite and benchmark run this way).
    ``window_ms=0`` disables predict coalescing; ``cache_size=0`` disables
    the hot cache.
    """

    host: str = "127.0.0.1"
    port: int = 8787
    window_ms: float = 5.0
    max_batch: int = 256
    max_pending: int = 4096
    cache_size: int = 256
    max_inflight: int = 128


class SweepServer:
    """Asyncio HTTP front-end over one warm sweep service."""

    def __init__(self, service, config: ServerConfig | None = None):
        self.service = service
        self.config = config or ServerConfig()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-server"
        )
        self.cache = QueryCache(self.config.cache_size)
        self.batcher = MicroBatcher(
            service,
            self._executor,
            window_ms=self.config.window_ms,
            max_batch=self.config.max_batch,
            max_pending=self.config.max_pending,
        )
        self._server: asyncio.AbstractServer | None = None
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._inflight = 0
        self._draining = False
        self._idle = asyncio.Event()
        self._idle.set()
        self.requests_served = 0
        self.requests_rejected = 0
        # Pre-warm the store digest off the request path: the first digest
        # computation walks every measurement array.
        self._store_digest = service.store_digest

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the kernel's choice)."""
        if self._server is None or not self._server.sockets:
            return self.config.port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        obs.log(
            "server.started",
            f"serving store {self._store_digest} on "
            f"{self.config.host}:{self.port}",
        )

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Graceful drain: stop accepting, finish in-flight work, shut down."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._idle.wait()
        await self.batcher.drain()
        # Idle keep-alive connections are parked in read_request; closing
        # their transports ends them through the normal EOF path (no work is
        # dropped, and no task finishes cancelled).
        for writer in list(self._connections.values()):
            writer.close()
        if self._connections:
            await asyncio.gather(*list(self._connections), return_exceptions=True)
        self._executor.shutdown(wait=True)
        obs.log("server.stopped", "drained and shut down")

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections[task] = writer
        try:
            while True:
                try:
                    request = await read_request(reader)
                except ProtocolError as exc:
                    writer.write(
                        encode_response(
                            exc.status, {"error": str(exc)}, keep_alive=False
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                payload = await self._respond(request)
                writer.write(payload)
                await writer.drain()
                if not request.keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        finally:
            if task is not None:
                self._connections.pop(task, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(self, request: HttpRequest) -> bytes:
        """Admission control + dispatch + error mapping, to response bytes."""
        if self._draining:
            self.requests_rejected += 1
            obs.count("server.rejected_draining")
            return encode_response(
                503,
                {"error": "server is draining"},
                keep_alive=False,
                extra_headers=RETRY_AFTER,
            )
        if self._inflight >= self.config.max_inflight:
            self.requests_rejected += 1
            obs.count("server.rejected_inflight")
            return encode_response(
                429,
                {
                    "error": (
                        f"too many in-flight requests "
                        f"(bound {self.config.max_inflight})"
                    )
                },
                extra_headers=RETRY_AFTER,
            )
        self._inflight += 1
        self._idle.clear()
        started = time.perf_counter()
        endpoint = request.path
        headers = None
        try:
            status, payload = await self._dispatch(request)
        except ProtocolError as exc:
            status, payload = exc.status, {"error": str(exc)}
        except ServerSaturated as exc:
            obs.count("server.rejected_saturated")
            self.requests_rejected += 1
            status, payload, headers = 429, {"error": str(exc)}, RETRY_AFTER
        except DatasetError as exc:
            status, payload = 404, {"error": str(exc)}
        except ReproError as exc:
            status, payload = 400, {"error": str(exc)}
        except Exception as exc:  # never crash the loop on a handler bug
            obs.log(
                "server.handler_error",
                f"{type(exc).__name__} answering {endpoint}: {exc}",
                level="error",
            )
            status, payload = 500, {"error": "internal server error"}
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()
        elapsed_ms = (time.perf_counter() - started) * 1e3
        obs.observe(f"server.request_ms.{endpoint.strip('/').replace('/', '_')}", elapsed_ms)
        obs.count("server.requests")
        if status == 200:
            self.requests_served += 1
        return encode_response(
            status, payload, keep_alive=request.keep_alive, extra_headers=headers
        )

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    async def _dispatch(self, request: HttpRequest) -> tuple[int, dict]:
        method, path = request.method, request.path
        if path not in _ROUTES:
            return 404, {"error": f"no route for {method} {path}"}
        if method != _ROUTES[path]:
            return 405, {"error": f"method {method} not allowed for {path}"}
        if path == "/healthz":
            return 200, {"status": "ok", "store_digest": self._store_digest}
        if path == "/v1/stats":
            return 200, self.stats()
        response = await self._answer(request_from_dict(request.json()))
        return 200, response.to_dict()

    async def _answer(self, query: QueryRequest) -> QueryResponse:
        """One typed request → one envelope, through batcher or cache."""
        if isinstance(query, PredictRequest):
            return await self.batcher.submit(query)
        key = cache_key(self._store_digest, query)
        cached = self.cache.get(key)
        if cached is not None:
            obs.count("server.cache_hits")
            return cached
        obs.count("server.cache_misses")
        response = await asyncio.get_running_loop().run_in_executor(
            self._executor, self.service.query, query
        )
        self.cache.put(key, response)
        return response

    def stats(self) -> dict:
        """Operational counters (the ``/v1/stats`` payload)."""
        return {
            "store_digest": self._store_digest,
            "configs": list(self.service.config_names),
            "models": len(self.service.dataset),
            "inflight": self._inflight,
            "draining": self._draining,
            "requests_served": self.requests_served,
            "requests_rejected": self.requests_rejected,
            "cache": self.cache.stats(),
            "batching": self.batcher.stats(),
        }


__all__ = ["ServerConfig", "SweepServer"]
