"""Minimal HTTP/1.1 framing over asyncio streams (stdlib only).

Just enough protocol for the query service: request-line + headers +
optional ``Content-Length`` body in, status + JSON body out, keep-alive by
default.  No chunked transfer, no TLS, no multipart — the server speaks to
:class:`repro.server.client.ServiceClient`, ``curl`` and load generators,
not to arbitrary browsers.  Malformed input raises :class:`ProtocolError`
carrying the HTTP status the connection handler should answer with before
closing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from urllib.parse import unquote, urlsplit

from ..errors import ReproError

#: Upper bound on the request head (request line + headers), in bytes.
MAX_HEAD_BYTES = 16 * 1024

#: Upper bound on a request body, in bytes (predict payloads are the largest).
MAX_BODY_BYTES = 8 * 1024 * 1024

STATUS_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ProtocolError(ReproError):
    """Malformed or oversized HTTP input; carries the status to answer with."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


@dataclass
class HttpRequest:
    """One parsed request: method, target path, lowercase headers, raw body.

    The target's query string is dropped: every request parameter travels in
    the JSON body of ``POST /v1/query``.
    """

    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "keep-alive").lower() != "close"

    def json(self) -> object:
        """Decode the body as JSON (``400`` on anything that is not JSON).

        Nesting too deep for the decoder and integers over Python's digit
        limit are rejected like malformed JSON.
        """
        try:
            return json.loads(self.body.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            raise ProtocolError(f"request body is not valid JSON: {exc}") from exc


async def read_request(reader) -> HttpRequest | None:
    """Read one request off the stream; ``None`` on clean end-of-stream.

    Raises :class:`ProtocolError` (with an HTTP status) on malformed
    framing, an oversized head/body, or a connection cut mid-request.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except EOFError:
        return None
    except Exception as exc:  # IncompleteReadError / LimitOverrunError
        partial = getattr(exc, "partial", b"")
        if not partial:
            return None
        if len(partial) >= MAX_HEAD_BYTES or type(exc).__name__ == "LimitOverrunError":
            raise ProtocolError("request head too large", status=413) from exc
        raise ProtocolError("connection closed mid-request", status=400) from exc
    if len(head) > MAX_HEAD_BYTES:
        raise ProtocolError("request head too large", status=413)
    try:
        lines = head.decode("latin-1").split("\r\n")
        method, target, version = lines[0].split(" ", 2)
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError("malformed request line") from exc
    if not version.startswith("HTTP/1."):
        raise ProtocolError(f"unsupported protocol version {version!r}")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    try:
        split = urlsplit(target)
    except ValueError as exc:  # e.g. an unclosed IPv6 host: "http://[::1/"
        raise ProtocolError(f"malformed request target {target!r}") from exc
    body = b""
    raw_length = headers.get("content-length")
    if raw_length is not None:
        try:
            length = int(raw_length)
        except ValueError as exc:
            raise ProtocolError(f"malformed Content-Length {raw_length!r}") from exc
        if length < 0:
            raise ProtocolError(f"malformed Content-Length {raw_length!r}")
        if length > MAX_BODY_BYTES:
            raise ProtocolError("request body too large", status=413)
        if length:
            try:
                body = await reader.readexactly(length)
            except Exception as exc:
                raise ProtocolError("connection closed mid-body") from exc
    return HttpRequest(
        method=method.upper(),
        path=unquote(split.path) or "/",
        headers=headers,
        body=body,
    )


def encode_response(
    status: int,
    payload: object,
    *,
    keep_alive: bool = True,
    extra_headers: dict[str, str] | None = None,
) -> bytes:
    """Encode one JSON response (status line + headers + body) to bytes."""
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    reason = STATUS_REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
