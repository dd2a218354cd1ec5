"""Micro-batching of concurrent predict requests.

A learned-model forward pass over a packed :class:`GraphTable` costs almost
the same for 1 cell as for 100 — the per-call overhead (feature packing,
normalizer round-trip, segmented reduction setup) dominates tiny batches.
:class:`MicroBatcher` therefore coalesces concurrent
:class:`~repro.service.api.PredictRequest` submissions that share a
``(config_name, metric)`` model into **one** merged request: the first
arrival opens a bounded window (``window_ms``), later arrivals join it, and
the window flushes early the moment the batch reaches ``max_batch`` cells.
The merged forward pass runs on a single-worker executor so the event loop
stays responsive, and each caller receives exactly its slice of the packed
result.  A coalesced batch is **bit-identical** to a direct
``SweepService.predict`` call over the same merged cells (asserted by the
server test suite); across *different* batch compositions, per-cell values
agree to within BLAS reduction-order noise (~1 ULP) — the same variation
``predict_cells`` itself exhibits between batch sizes, so coalescing adds
no numerical deviation of its own.

``window_ms=0`` disables coalescing — every request is its own batch
through the identical code path — which is the benchmark's control arm.
Pending work is bounded by ``max_pending`` cells; past it, submissions fail
fast with :class:`ServerSaturated` (the server answers 429) instead of
queueing unboundedly.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import Executor

from .. import obs
from ..errors import ReproError
from ..service.api import PredictRequest, QueryResponse


class ServerSaturated(ReproError):
    """The server's bounded queue is full; retry after backing off."""


class _Group:
    """Requests waiting to be flushed for one ``(config, metric)`` model."""

    __slots__ = ("entries", "cells", "handle")

    def __init__(self):
        self.entries: list[tuple[PredictRequest, asyncio.Future]] = []
        self.cells = 0
        self.handle: asyncio.TimerHandle | None = None


class MicroBatcher:
    """Coalesce concurrent predict requests into merged forward passes.

    All state is touched only from the event loop thread; the executor runs
    nothing but the service's ``query`` call.
    """

    def __init__(
        self,
        service,
        executor: Executor,
        *,
        window_ms: float = 5.0,
        max_batch: int = 256,
        max_pending: int = 4096,
    ):
        self._service = service
        self._executor = executor
        self.window_ms = float(window_ms)
        self.max_batch = int(max_batch)
        self.max_pending = int(max_pending)
        self._groups: dict[tuple[str, str], _Group] = {}
        self._pending_cells = 0
        self._inflight: set[asyncio.Task] = set()
        self._closed = False
        # Accounting surfaced via /v1/stats and the benchmark report.
        self.batches = 0
        self.requests = 0
        self.cells_predicted = 0
        self.largest_batch = 0

    # ------------------------------------------------------------------ #
    async def submit(self, request: PredictRequest) -> QueryResponse:
        """Enqueue one predict request; resolves with this caller's slice."""
        if self._closed:
            raise ServerSaturated("server is draining")
        size = len(request.cells)
        if self._pending_cells and self._pending_cells + size > self.max_pending:
            raise ServerSaturated(
                f"predict queue is full ({self._pending_cells} cells pending, "
                f"bound {self.max_pending})"
            )
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        key = (request.config_name, request.metric)
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = _Group()
        group.entries.append((request, future))
        group.cells += size
        self._pending_cells += size
        if self.window_ms <= 0 or group.cells >= self.max_batch:
            self._flush(key)
        elif group.handle is None:
            group.handle = loop.call_later(self.window_ms / 1e3, self._flush, key)
        return await future

    def _flush(self, key: tuple[str, str]) -> None:
        group = self._groups.pop(key, None)
        if group is None:
            return
        if group.handle is not None:
            group.handle.cancel()
        self._pending_cells -= group.cells
        task = asyncio.get_running_loop().create_task(self._run_batch(key, group))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    async def _run_batch(self, key: tuple[str, str], group: _Group) -> None:
        config_name, metric = key
        merged = PredictRequest(
            cells=tuple(cell for request, _ in group.entries for cell in request.cells),
            config_name=config_name,
            metric=metric,
        )
        loop = asyncio.get_running_loop()
        try:
            response = await loop.run_in_executor(
                self._executor, self._service.query, merged
            )
        except Exception as exc:
            for _, future in group.entries:
                if not future.done():
                    future.set_exception(exc)
            return
        self.batches += 1
        self.requests += len(group.entries)
        self.cells_predicted += group.cells
        self.largest_batch = max(self.largest_batch, len(group.entries))
        obs.observe("server.batch_size", len(group.entries))
        obs.count("server.batches")
        obs.count("server.batched_cells", group.cells)
        values = response.result["values"]
        offset = 0
        for request, future in group.entries:
            chunk = values[offset : offset + len(request.cells)]
            offset += len(request.cells)
            if not future.done():
                future.set_result(
                    QueryResponse(
                        kind=request.kind,
                        result={"values": chunk},
                        store_digest=response.store_digest,
                        served_from="model",
                    )
                )

    # ------------------------------------------------------------------ #
    async def drain(self) -> None:
        """Flush everything pending and wait for in-flight batches to finish.

        New submissions are rejected (:class:`ServerSaturated`) from the
        moment drain starts.
        """
        self._closed = True
        for key in list(self._groups):
            self._flush(key)
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)

    def stats(self) -> dict:
        """Batching counters for ``/v1/stats`` and the benchmark report."""
        return {
            "batches": self.batches,
            "requests": self.requests,
            "cells_predicted": self.cells_predicted,
            "largest_batch": self.largest_batch,
            "pending_cells": self._pending_cells,
            "window_ms": self.window_ms,
            "max_batch": self.max_batch,
            "requests_per_batch": round(self.requests / self.batches, 3)
            if self.batches
            else 0.0,
        }
