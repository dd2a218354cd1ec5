"""Structured tracing, metrics and fleet-wide telemetry (``repro.obs``).

Every other subsystem is instrumented against this package: hierarchical
spans around the sweep/search/training hot paths, counters that mirror the
bookkeeping the subsystems already do (store pair hits/misses, worker lease
accounting, search dedup pressure), and structured diagnostic events that
replace scattered ``warnings.warn``/``print`` calls.  The design contract:

* **Off by default, ~free when off.**  The active tracer is a process-wide
  singleton resolved lazily from the ``REPRO_TRACE`` environment variable;
  when unset the :data:`NOOP_TRACER` serves every call — a handful of cheap
  no-op method calls per *shard* (never per layer), so the instrumented hot
  paths run within noise of the uninstrumented code (gated by
  ``benchmarks/bench_obs_overhead.py``).
* **One JSONL stream per process.**  An enabled tracer appends
  newline-delimited JSON records (spans, events, metric snapshots) to
  ``trace-<host>-<pid>.jsonl`` in the trace directory, one atomic
  line-sized write each, with size-based rotation.  Worker processes
  (``python -m repro.service.worker`` fleets, forked children) each get
  their own file, so a distributed drain leaves one trace per worker.
* **Merge closes the loop.**  :func:`trace_summary` aggregates one or many
  trace files into a per-span count/total/mean/p95/self-time tree plus
  fleet-summed counters; ``python -m repro.obs <trace.jsonl | dir>...``
  prints (or ``--json``-dumps) the same summary from the command line.

See DESIGN.md §12 for the event schema, the span taxonomy and the merge
semantics.
"""

from __future__ import annotations

from .events import guarded_progress, log, reset_once
from .metrics import DEFAULT_BUCKETS_MS, Histogram, MetricsRegistry
from .sink import JsonlSink
from .summary import SpanStats, TraceSummary, read_trace, trace_summary
from .tracer import (
    NOOP_TRACER,
    TRACE_DIR_ENV,
    TRACE_ENV,
    Tracer,
    active_tracer,
    capture,
    configure_tracing,
    traced,
)

__all__ = [
    "DEFAULT_BUCKETS_MS",
    "Histogram",
    "JsonlSink",
    "MetricsRegistry",
    "NOOP_TRACER",
    "SpanStats",
    "TRACE_DIR_ENV",
    "TRACE_ENV",
    "TraceSummary",
    "Tracer",
    "active_tracer",
    "capture",
    "configure_tracing",
    "count",
    "enabled",
    "flush",
    "gauge",
    "guarded_progress",
    "log",
    "observe",
    "read_trace",
    "reset_once",
    "span",
    "span_breakdown",
    "trace_summary",
    "traced",
]


# ---------------------------------------------------------------------- #
# Module-level conveniences over the active tracer (the call sites the
# instrumented subsystems use; all of them no-op when tracing is off).
# ---------------------------------------------------------------------- #
def span(name: str, **attrs):
    """Context manager timing one named span on the active tracer."""
    return active_tracer().span(name, **attrs)


def count(name: str, value: int = 1) -> None:
    """Increment a fleet-summable counter on the active tracer."""
    active_tracer().count(name, value)


def gauge(name: str, value: float) -> None:
    """Set a point-in-time gauge on the active tracer."""
    active_tracer().gauge(name, value)


def observe(name: str, value: float) -> None:
    """Record one latency observation into a fixed-bucket histogram."""
    active_tracer().observe(name, value)


def flush() -> None:
    """Flush the active tracer (metrics snapshot + sink flush)."""
    active_tracer().flush()


def enabled() -> bool:
    """Whether the active tracer records anything."""
    return active_tracer().enabled


def span_breakdown() -> dict:
    """In-process per-span aggregates (``{}`` when tracing is off).

    The shape benchmarks embed into ``BENCH_*.json``: span name →
    ``{"count", "total_ms", "self_ms"}``, totals rounded to microseconds.
    """
    return active_tracer().span_aggregates()
