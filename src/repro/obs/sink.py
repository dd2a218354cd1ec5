"""Append-only JSONL sink with size-based rotation and fork safety."""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from pathlib import Path

DEFAULT_MAX_BYTES = 64 * 1024 * 1024
SCHEMA_VERSION = 1


def _hostname() -> str:
    try:
        return socket.gethostname().split(".", 1)[0] or "unknown"
    except OSError:  # pragma: no cover - hostname lookup never fails in CI
        return "unknown"


class JsonlSink:
    """One newline-delimited JSON stream per process.

    Records are serialized to a single line and written with one
    ``write()`` call followed by a flush, so concurrent writers (threads
    here, sibling processes on their own files) never interleave partial
    lines and a ``SIGKILL`` loses at most the line in flight.  The active
    file is ``<prefix>-<host>-<pid>.jsonl``; when it would exceed
    ``max_bytes`` it is rotated aside to ``<prefix>-<host>-<pid>.<k>.jsonl``
    and a fresh file is opened.  A pid change (a ``fork``-ed child) is
    detected on the next write and re-opens the stream under the child's
    pid, so every process in a fleet owns exactly one stream.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        prefix: str = "trace",
        max_bytes: int = DEFAULT_MAX_BYTES,
        stream: str | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.prefix = prefix
        self.max_bytes = int(max_bytes)
        self.host = _hostname()
        self._stream = stream or os.urandom(4).hex()
        self._lock = threading.Lock()
        self._handle = None
        self._pid = -1
        self._size = 0

    # ------------------------------------------------------------------ #
    @property
    def path(self) -> Path:
        """Path of the active trace file for this process."""
        return self.directory / f"{self.prefix}-{self.host}-{os.getpid()}.jsonl"

    def write(self, record: dict) -> None:
        """Append ``record`` as one flushed JSONL line (thread-safe)."""
        line = json.dumps(record, separators=(",", ":"), default=str) + "\n"
        data = line.encode("utf-8")
        with self._lock:
            if self._handle is None or os.getpid() != self._pid:
                self._open_locked()
            elif self._size + len(data) > self.max_bytes and self._size > 0:
                self._rotate_locked()
            self._handle.write(data)
            self._handle.flush()
            self._size += len(data)

    def flush(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
                self._pid = -1
                self._size = 0

    # ------------------------------------------------------------------ #
    def _open_locked(self) -> None:
        if self._handle is not None:
            self._handle.close()
        self._pid = os.getpid()
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path
        self._handle = open(path, "ab")
        self._size = path.stat().st_size
        if self._size == 0:
            self._write_meta_locked()

    def _rotate_locked(self) -> None:
        self._handle.close()
        self._handle = None
        active = self.path
        k = 1
        while (rotated := active.with_suffix(f".{k}.jsonl")).exists():
            k += 1
        active.rename(rotated)
        self._open_locked()

    def _write_meta_locked(self) -> None:
        meta = {
            "t": "meta",
            "version": SCHEMA_VERSION,
            "host": self.host,
            "pid": self._pid,
            "stream": self._stream,
            "ts": time.time(),
        }
        data = (json.dumps(meta, separators=(",", ":")) + "\n").encode("utf-8")
        self._handle.write(data)
        self._handle.flush()
        self._size += len(data)
