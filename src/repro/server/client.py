"""Asyncio client for the query server (stdlib only).

:class:`ServiceClient` keeps one HTTP/1.1 connection alive and speaks the
typed wire format of :mod:`repro.service.api`: :meth:`ServiceClient.query`
POSTs one request variant to ``/v1/query`` and decodes the
:class:`QueryResponse` envelope back — so a client-side answer is the same
object an in-process ``SweepService.query`` call would have produced.
Backpressure statuses (429/503) surface as :class:`ServerBusy` carrying the
server's ``Retry-After`` hint; other non-200 answers raise
:class:`ServerError` with the server's error message.

One client serializes its own requests (single connection); concurrency
comes from running many clients, as the load benchmark does.
"""

from __future__ import annotations

import asyncio
import json

from ..errors import ReproError
from ..service.api import QueryRequest, QueryResponse
from .protocol import MAX_HEAD_BYTES


class ServerError(ReproError):
    """A non-200 answer from the server (the message is the server's)."""

    def __init__(self, message: str, status: int):
        super().__init__(message)
        self.status = status


class ServerBusy(ServerError):
    """429/503 backpressure answer; ``retry_after`` is the server's hint."""

    def __init__(self, message: str, status: int, retry_after: float):
        super().__init__(message, status)
        self.retry_after = retry_after


class ServiceClient:
    """One keep-alive connection to a :class:`~repro.server.app.SweepServer`."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8787):
        self.host = host
        self.port = int(port)
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._lock = asyncio.Lock()

    async def __aenter__(self) -> "ServiceClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def connect(self) -> None:
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port, limit=MAX_HEAD_BYTES
            )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._reader = self._writer = None

    # ------------------------------------------------------------------ #
    # Raw HTTP round-trip
    # ------------------------------------------------------------------ #
    async def request(
        self, method: str, path: str, payload: object | None = None
    ) -> tuple[int, dict[str, str], object]:
        """One round-trip: returns ``(status, headers, decoded JSON body)``."""
        async with self._lock:
            await self.connect()
            assert self._reader is not None and self._writer is not None
            body = b""
            if payload is not None:
                body = json.dumps(payload).encode("utf-8")
            head = (
                f"{method} {path} HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Content-Type: application/json\r\n"
                "Connection: keep-alive\r\n\r\n"
            )
            self._writer.write(head.encode("latin-1") + body)
            await self._writer.drain()
            try:
                status, headers, raw = await self._read_response()
            except (ConnectionError, asyncio.IncompleteReadError, EOFError):
                # The server closed the connection (drain, restart); drop it
                # so the next call reconnects.
                await self.close()
                raise
            if headers.get("connection", "").lower() == "close":
                await self.close()
            return status, headers, json.loads(raw.decode("utf-8")) if raw else None

    async def _read_response(self) -> tuple[int, dict[str, str], bytes]:
        assert self._reader is not None
        head = await self._reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        body = await self._reader.readexactly(length) if length else b""
        return status, headers, body

    # ------------------------------------------------------------------ #
    # Typed API
    # ------------------------------------------------------------------ #
    async def query(self, request: QueryRequest) -> QueryResponse:
        """POST one typed request to ``/v1/query`` and decode the envelope."""
        status, headers, payload = await self.request(
            "POST", "/v1/query", request.to_dict()
        )
        if status in (429, 503):
            raise ServerBusy(
                (payload or {}).get("error", "server busy"),
                status,
                float(headers.get("retry-after", "1")),
            )
        if status != 200:
            raise ServerError(
                (payload or {}).get("error", f"server answered {status}"), status
            )
        return QueryResponse.from_dict(payload)

    async def stats(self) -> dict:
        status, _, payload = await self.request("GET", "/v1/stats")
        if status != 200:
            raise ServerError(f"stats endpoint answered {status}", status)
        return payload

    async def health(self) -> dict:
        status, _, payload = await self.request("GET", "/healthz")
        if status != 200:
            raise ServerError(f"health endpoint answered {status}", status)
        return payload
