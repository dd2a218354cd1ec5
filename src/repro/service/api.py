"""Typed query API shared by the library, the server and the CLI.

Per-method signatures (``top_k(k)``, ``pareto_front(config, min_accuracy)``,
...) cannot travel over a wire, cannot be cached by content, and force every
front-end to duplicate argument handling.  This module is the sweep
service's one query surface instead:

* **Request variants** — one frozen dataclass per query kind
  (:class:`TopKRequest`, :class:`ParetoRequest`, :class:`MetricRequest` —
  the symmetric latency/energy lookup, with :func:`LatencyRequest` /
  :func:`EnergyRequest` constructors — and :class:`PredictRequest`), each
  eagerly validated and JSON round-trippable via ``to_dict`` /
  :func:`request_from_dict`.
* **Response envelope** — :class:`QueryResponse` wraps every answer with the
  serving store's content digest and a ``served_from`` provenance tag
  (``"cache"`` / ``"store"`` / ``"model"``), so a client can always tell
  what population answered and whether a model was in the loop.
* **Canonical keys** — :func:`canonical_request_key` digests the canonical
  JSON form of a request (dict-order invariant), and :func:`cache_key`
  scopes it by store digest; this is the LRU hot-cache key of
  :mod:`repro.server`.
* **Config normalization** — :func:`resolve_configs` is the one place
  configuration arguments (names or :class:`AcceleratorConfig` objects) are
  normalized, shared by :class:`~repro.service.query.SweepService` and the
  server's CLI/config parsing; unknown names fail eagerly, naming the
  offenders.

``SweepService.query(request)`` dispatches on these types straight into the
analysis kernels, so every front-end — in-process calls, the asyncio server,
benchmarks — answers queries through identical code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Iterable, Mapping, Sequence, Union

from ..arch.config import STUDIED_CONFIGS, AcceleratorConfig
from ..errors import ServiceError
from ..nasbench.cell import Cell
from .store import stable_digest

#: Metrics a point lookup / prediction can dispatch on.
QUERY_METRICS = ("latency", "energy")

#: Provenance values a :class:`QueryResponse` may carry.
SERVED_FROM = ("cache", "store", "model")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ServiceError(message)


# --------------------------------------------------------------------------- #
# Request variants
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class TopKRequest:
    """The *k* most accurate models with per-configuration latency."""

    kind: ClassVar[str] = "top_k"

    k: int = 5

    def __post_init__(self) -> None:
        _require(
            isinstance(self.k, int) and not isinstance(self.k, bool) and self.k >= 1,
            f"top_k requires a positive integer k, got {self.k!r}",
        )

    def to_dict(self) -> dict:
        return {"kind": self.kind, "k": self.k}


@dataclass(frozen=True)
class ParetoRequest:
    """The non-dominated accuracy/latency frontier of one configuration."""

    kind: ClassVar[str] = "pareto"

    config_name: str
    min_accuracy: float = 0.70

    def __post_init__(self) -> None:
        _require(
            isinstance(self.config_name, str) and bool(self.config_name),
            "pareto requires a non-empty config_name",
        )
        _require(
            isinstance(self.min_accuracy, (int, float))
            and not isinstance(self.min_accuracy, bool)
            and 0.0 <= float(self.min_accuracy) <= 1.0,
            f"min_accuracy must be in [0, 1], got {self.min_accuracy!r}",
        )
        object.__setattr__(self, "min_accuracy", float(self.min_accuracy))

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "config_name": self.config_name,
            "min_accuracy": self.min_accuracy,
        }


@dataclass(frozen=True)
class MetricRequest:
    """One measured metric of one cell, looked up by isomorphism fingerprint.

    The ``metric`` field is what makes the latency and energy lookups one
    request shape instead of two near-duplicate methods; use
    :func:`LatencyRequest` / :func:`EnergyRequest` for the spelled-out
    constructors.
    """

    kind: ClassVar[str] = "metric"

    fingerprint: str
    config_name: str
    metric: str = "latency"

    def __post_init__(self) -> None:
        _require(
            isinstance(self.fingerprint, str) and bool(self.fingerprint),
            "metric lookup requires a non-empty fingerprint",
        )
        _require(
            isinstance(self.config_name, str) and bool(self.config_name),
            "metric lookup requires a non-empty config_name",
        )
        _require(
            self.metric in QUERY_METRICS,
            f"unknown metric {self.metric!r}; expected one of {QUERY_METRICS}",
        )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "fingerprint": self.fingerprint,
            "config_name": self.config_name,
            "metric": self.metric,
        }


def LatencyRequest(fingerprint: str, config_name: str) -> MetricRequest:
    """Measured latency (ms) of one cell — a ``metric="latency"`` lookup."""
    return MetricRequest(fingerprint, config_name, metric="latency")


def EnergyRequest(fingerprint: str, config_name: str) -> MetricRequest:
    """Measured energy (mJ) of one cell — a ``metric="energy"`` lookup."""
    return MetricRequest(fingerprint, config_name, metric="energy")


@dataclass(frozen=True)
class PredictRequest:
    """Learned-model metric predictions for unseen cells (no simulation)."""

    kind: ClassVar[str] = "predict"

    cells: tuple[Cell, ...]
    config_name: str
    metric: str = "latency"

    def __post_init__(self) -> None:
        cells = tuple(self.cells)
        _require(len(cells) > 0, "predict requires at least one cell")
        _require(
            all(isinstance(cell, Cell) for cell in cells),
            "predict cells must be Cell instances",
        )
        object.__setattr__(self, "cells", cells)
        _require(
            isinstance(self.config_name, str) and bool(self.config_name),
            "predict requires a non-empty config_name",
        )
        _require(
            self.metric in QUERY_METRICS,
            f"unknown metric {self.metric!r}; expected one of {QUERY_METRICS}",
        )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "cells": [cell.to_dict() for cell in self.cells],
            "config_name": self.config_name,
            "metric": self.metric,
        }

    @classmethod
    def _from_fields(cls, fields: dict) -> "PredictRequest":
        payloads = fields.pop("cells", None)
        _require(
            isinstance(payloads, list) and len(payloads) > 0,
            "predict requires a non-empty 'cells' list",
        )
        try:
            cells = tuple(Cell.from_dict(entry) for entry in payloads)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ServiceError(f"malformed predict cell: {exc!r}") from exc
        return cls(cells=cells, **fields)


QueryRequest = Union[TopKRequest, ParetoRequest, MetricRequest, PredictRequest]

#: Wire ``kind`` tag → request class (the :func:`request_from_dict` registry).
REQUEST_KINDS: dict[str, type] = {
    cls.kind: cls for cls in (TopKRequest, ParetoRequest, MetricRequest, PredictRequest)
}


def request_from_dict(payload: object) -> QueryRequest:
    """Decode one request variant from its ``to_dict`` wire form."""
    _require(isinstance(payload, Mapping), "query request payload must be a JSON object")
    assert isinstance(payload, Mapping)
    kind = payload.get("kind")
    cls = REQUEST_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ServiceError(
            f"unknown query request kind {kind!r}; expected one of {sorted(REQUEST_KINDS)}"
        )
    fields = {key: value for key, value in payload.items() if key != "kind"}
    builder = getattr(cls, "_from_fields", None)
    try:
        if builder is not None:
            return builder(fields)
        return cls(**fields)
    except TypeError as exc:
        raise ServiceError(f"malformed {kind!r} request: {exc}") from exc


def canonical_request_key(request: QueryRequest) -> str:
    """Content digest of a request's canonical JSON form.

    Dict-order invariant by construction: the digest is taken over the
    recursively key-sorted JSON serialization, so two payloads that decode
    to the same request always share a key.
    """
    return stable_digest({"kind": "query-request", "request": request.to_dict()})


def cache_key(store_digest: str, request: QueryRequest) -> str:
    """LRU hot-cache key: the canonical request scoped by the store content.

    Two services over different populations (or a store that was extended in
    between) can never serve each other's cached answers.
    """
    return stable_digest(
        {"kind": "query-cache", "store": store_digest, "request": request.to_dict()}
    )


# --------------------------------------------------------------------------- #
# Response envelope
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class QueryResponse:
    """Envelope of every query answer: payload + provenance.

    ``result`` is a JSON-serializable dict (the wire payload — servers
    encode it verbatim), ``store_digest`` names the measurement content the
    answer was derived from, and ``served_from`` records whether it came
    out of the hot cache, straight from the stored measurements, or through
    a learned model's forward pass.
    """

    kind: str
    result: dict
    store_digest: str
    served_from: str

    def __post_init__(self) -> None:
        _require(
            self.kind in REQUEST_KINDS,
            f"unknown response kind {self.kind!r}; expected one of {sorted(REQUEST_KINDS)}",
        )
        _require(
            self.served_from in SERVED_FROM,
            f"served_from must be one of {SERVED_FROM}, got {self.served_from!r}",
        )
        _require(isinstance(self.result, dict), "response result must be a dict payload")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "result": self.result,
            "store_digest": self.store_digest,
            "served_from": self.served_from,
        }

    @classmethod
    def from_dict(cls, payload: object) -> "QueryResponse":
        _require(isinstance(payload, Mapping), "query response payload must be a JSON object")
        assert isinstance(payload, Mapping)
        try:
            return cls(
                kind=payload["kind"],
                result=payload["result"],
                store_digest=payload["store_digest"],
                served_from=payload["served_from"],
            )
        except KeyError as exc:
            raise ServiceError(f"query response payload is missing field {exc}") from exc


# --------------------------------------------------------------------------- #
# Configuration normalization (service constructor + server config parsing)
# --------------------------------------------------------------------------- #
def resolve_configs(
    configs: Iterable[AcceleratorConfig | str] | None,
    available: Sequence[str] | None = None,
) -> list[str]:
    """Normalize a configuration argument to a list of canonical names.

    ``None`` means the paper's studied configurations.  Strings naming a
    studied configuration are case-normalized (``"v1"`` → ``"V1"``);
    :class:`AcceleratorConfig` objects contribute their own name (they carry
    their definition, so they are always resolvable).  With *available*
    given — the names a store or measurement set can actually serve — any
    string that is neither a studied configuration nor available raises
    :class:`ServiceError` naming **all** offenders at once, instead of the
    late, less specific missing-shards failure a bad name used to produce.
    """
    if configs is None:
        names = [config.name for config in STUDIED_CONFIGS.values()]
        object_names: set[str] = set()
    else:
        names = []
        object_names = set()
        for entry in configs:
            if isinstance(entry, AcceleratorConfig):
                names.append(entry.name)
                object_names.add(entry.name)
            else:
                name = str(entry)
                names.append(name.upper() if name.upper() in STUDIED_CONFIGS else name)
        if not names:
            raise ServiceError("no accelerator configurations were provided")
    if available is not None:
        known = set(available) | set(STUDIED_CONFIGS) | object_names
        unknown = sorted({name for name in names if name not in known})
        if unknown:
            raise ServiceError(
                f"unknown accelerator configurations {unknown}; "
                f"available: {sorted(set(available))}"
            )
    return names
