"""Tests of the asyncio query server (protocol, cache, batching, app)."""

from __future__ import annotations

import asyncio
import json
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import TrainingSettings
from repro.nasbench import NASBenchDataset, sample_unique_cells
from repro.server import (
    QueryCache,
    ServerBusy,
    ServerConfig,
    ServiceClient,
    SweepServer,
    build_service,
    encode_response,
    read_request,
)
from repro.server.protocol import MAX_HEAD_BYTES, ProtocolError
from repro.service import MeasurementStore, SweepService
from repro.service.api import (
    MetricRequest,
    ParetoRequest,
    PredictRequest,
    QueryResponse,
    TopKRequest,
)

SHARD = 8
CONFIGS = ("V1", "V3")


@pytest.fixture(scope="module")
def server_dataset():
    return NASBenchDataset.generate(num_models=24, seed=31)


@pytest.fixture(scope="module")
def warm_root(tmp_path_factory, server_dataset):
    root = tmp_path_factory.mktemp("server-store")
    store = MeasurementStore(root, shard_size=SHARD)
    store.extend(server_dataset, configs=CONFIGS)
    store.publish_manifest(server_dataset, configs=CONFIGS)
    return root


@pytest.fixture(scope="module")
def service(warm_root, server_dataset):
    return SweepService(
        MeasurementStore(warm_root, shard_size=SHARD),
        server_dataset,
        configs=CONFIGS,
        settings=TrainingSettings(epochs=2, seed=0),
    )


def run(coroutine):
    return asyncio.run(coroutine)


async def serve(service, **overrides):
    """A started server on an ephemeral port."""
    options = dict(port=0, window_ms=5.0, cache_size=32)
    options.update(overrides)
    server = SweepServer(service, ServerConfig(**options))
    await server.start()
    return server


# --------------------------------------------------------------------------- #
# Protocol unit tests
# --------------------------------------------------------------------------- #
def feed(payload: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader(limit=MAX_HEAD_BYTES)
    reader.feed_data(payload)
    reader.feed_eof()
    return reader


def framed(line: bytes, headers: list[bytes], body: bytes) -> bytes:
    """A request with *body* framed by a matching ``Content-Length``."""
    head = [line, *headers, b"Content-Length: " + str(len(body)).encode()]
    return b"\r\n".join(head) + b"\r\n\r\n" + body


#: A nesting deeper than the JSON decoder's recursion limit (100 KB).
DEEP_JSON = framed(b"POST /v1/query HTTP/1.1", [], b"[" * 100_000)
#: An unclosed IPv6 host in the request target.
BAD_TARGET = b"GET http://[::1/healthz HTTP/1.1\r\n\r\n"
#: An integer over Python's 4,300-digit string conversion limit.
HUGE_INTEGER = framed(b"POST /v1/query HTTP/1.1", [], b'{"k": ' + b"9" * 5000 + b"}")

_TOKENS = st.sampled_from(
    [b"GET", b"POST", b"/v1/query", b"/healthz?x=%ff&y", b"http://[::1/", b"HTTP/1.1", b"HTTP/2"]
)
_LINES = st.lists(_TOKENS | st.binary(max_size=12), min_size=1, max_size=4).map(b" ".join)
_HEADERS = st.lists(
    st.sampled_from([b"Connection: close", b"Content-Length: -1", b"Host"])
    | st.binary(max_size=24).filter(lambda header: b"\r\n" not in header),
    max_size=3,
)
_BODIES = (
    st.binary(max_size=64)
    | st.text(max_size=32).map(str.encode)
    | st.integers(0, 5000).map(lambda depth: b"[" * depth)
)
REQUEST_BYTES = st.builds(framed, _LINES, _HEADERS, _BODIES) | st.binary(max_size=256)


async def parse(raw: bytes) -> None:
    request = await read_request(feed(raw))
    if request is not None:
        request.json()


class TestProtocol:
    def test_parses_target_query_and_body(self):
        async def scenario():
            body = b'{"k": 3}'
            raw = (
                b"POST /v1/query?trace=1&label=a%20b HTTP/1.1\r\n"
                b"Host: x\r\nContent-Length: " + str(len(body)).encode() + b"\r\n"
                b"Connection: close\r\n\r\n" + body
            )
            request = await read_request(feed(raw))
            assert request.method == "POST"
            assert request.path == "/v1/query"
            assert request.json() == {"k": 3}
            assert not request.keep_alive
            assert await read_request(feed(b"")) is None

        run(scenario())

    def test_malformed_input_raises_protocol_error(self):
        async def scenario():
            with pytest.raises(ProtocolError, match="request line"):
                await read_request(feed(b"NOT-HTTP\r\n\r\n"))
            with pytest.raises(ProtocolError, match="Content-Length"):
                await read_request(
                    feed(b"GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n")
                )
            with pytest.raises(ProtocolError, match="mid-body"):
                await read_request(
                    feed(b"GET / HTTP/1.1\r\nContent-Length: 99\r\n\r\nshort")
                )

        run(scenario())

    @settings(max_examples=200, deadline=None)
    @given(raw=REQUEST_BYTES)
    @example(raw=DEEP_JSON)
    @example(raw=BAD_TARGET)
    @example(raw=HUGE_INTEGER)
    def test_any_request_bytes_parse_or_raise_protocol_error(self, raw):
        # Whatever arrives, framing and JSON decoding either succeed or raise
        # ProtocolError (answered as a 4xx), never anything that becomes a 500.
        try:
            run(parse(raw))
        except ProtocolError:
            pass

    def test_encode_response_is_parseable_json(self):
        raw = encode_response(200, {"b": 2, "a": 1}, extra_headers={"Retry-After": "1"})
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Retry-After: 1" in head
        assert json.loads(body) == {"a": 1, "b": 2}
        assert int(dict(
            line.split(b": ", 1) for line in head.split(b"\r\n")[1:]
        )[b"Content-Length"]) == len(body)


class TestQueryCache:
    def response(self, tag: str) -> QueryResponse:
        return QueryResponse(
            kind="top_k", result={"tag": tag}, store_digest="d", served_from="store"
        )

    def test_hits_are_retagged_and_lru_evicts(self):
        cache = QueryCache(capacity=2)
        cache.put("a", self.response("a"))
        cache.put("b", self.response("b"))
        hit = cache.get("a")  # refreshes "a"; "b" is now least recent
        assert hit.served_from == "cache" and hit.result == {"tag": "a"}
        cache.put("c", self.response("c"))
        assert cache.get("b") is None
        assert cache.get("a") is not None
        stats = cache.stats()
        assert stats["evictions"] == 1 and stats["hits"] == 2 and stats["misses"] == 1

    def test_capacity_zero_disables(self):
        cache = QueryCache(capacity=0)
        cache.put("a", self.response("a"))
        assert cache.get("a") is None
        assert len(cache) == 0


# --------------------------------------------------------------------------- #
# End-to-end: wire answers vs direct service calls
# --------------------------------------------------------------------------- #
class TestServerEquivalence:
    @pytest.mark.parametrize("cache_size", [0, 32])
    def test_store_endpoints_match_direct_calls(self, service, server_dataset, cache_size):
        record = server_dataset[0]

        async def scenario():
            server = await serve(service, cache_size=cache_size)
            try:
                async with ServiceClient(port=server.port) as client:
                    assert (await client.health())["store_digest"] == service.store_digest

                    wire = await client.query(TopKRequest(k=3))
                    direct = service.query(TopKRequest(k=3))
                    assert wire.result == direct.result
                    assert wire.store_digest == direct.store_digest

                    wire = await client.query(ParetoRequest("V1", 0.6))
                    assert wire.result == service.query(ParetoRequest("V1", 0.6)).result

                    measured = service.measurements
                    for config, metric, value in (
                        ("V1", "latency", measured.latency_of(record, "V1")),
                        ("V1", "energy", measured.energy_of(record, "V1")),
                        ("V3", "energy", None),
                    ):
                        request = MetricRequest(record.fingerprint, config, metric)
                        assert (await client.query(request)).result["value"] == value
            finally:
                await server.stop()

        run(scenario())

    def test_cache_provenance_and_identical_payload(self, service):
        async def scenario():
            server = await serve(service, cache_size=8)
            try:
                async with ServiceClient(port=server.port) as client:
                    first = await client.query(TopKRequest(k=4))
                    second = await client.query(TopKRequest(k=4))
                    assert first.served_from == "store"
                    assert second.served_from == "cache"
                    assert second.result == first.result
                    stats = await client.stats()
                    assert stats["cache"]["hits"] >= 1
            finally:
                await server.stop()

        run(scenario())


class TestMicroBatching:
    def test_concurrent_predicts_coalesce_bit_identically(self, service, server_dataset):
        cells = [record.cell for record in server_dataset.records[:6]]
        merged_direct = service.predict(cells, "V1", "latency")

        async def scenario():
            server = await serve(service, window_ms=50.0, cache_size=0)
            try:
                clients = [ServiceClient(port=server.port) for _ in cells]
                responses = await asyncio.gather(
                    *[c.query(PredictRequest((cell,), "V1")) for c, cell in zip(clients, cells)]
                )
                for client in clients:
                    await client.close()
                values = np.array([r.result["values"][0] for r in responses])
                stats = server.batcher.stats()
                # One merged forward pass, sliced back bit-identically.
                assert stats["batches"] == 1
                assert stats["requests"] == len(cells)
                assert np.array_equal(values, merged_direct)
                assert all(r.served_from == "model" for r in responses)
            finally:
                await server.stop()

        run(scenario())

    def test_window_disabled_is_bit_identical_per_request(self, service):
        cells = sample_unique_cells(3, seed=123)

        async def scenario():
            server = await serve(service, window_ms=0.0, cache_size=0)
            try:
                async with ServiceClient(port=server.port) as client:
                    for cell in cells:
                        response = await client.query(PredictRequest((cell,), "V1"))
                        wire = response.result["values"][0]
                        direct = float(service.predict([cell], "V1", "latency")[0])
                        assert wire == direct
                assert server.batcher.stats()["batches"] == len(cells)
            finally:
                await server.stop()

        run(scenario())

    def test_batches_never_mix_configs_or_metrics(self, service, server_dataset):
        cell = server_dataset[0].cell

        async def scenario():
            server = await serve(service, window_ms=50.0, cache_size=0)
            try:
                clients = [ServiceClient(port=server.port) for _ in range(3)]
                v1, v3, energy = await asyncio.gather(
                    clients[0].query(PredictRequest((cell,), "V1")),
                    clients[1].query(PredictRequest((cell,), "V3")),
                    clients[2].query(PredictRequest((cell,), "V1", "energy")),
                )
                for client in clients:
                    await client.close()
                # Three distinct (config, metric) groups → three batches.
                assert server.batcher.stats()["batches"] == 3
                assert v1.result["values"] != v3.result["values"]
                assert energy.result["values"] != v1.result["values"]
            finally:
                await server.stop()

        run(scenario())


# --------------------------------------------------------------------------- #
# Backpressure and error mapping
# --------------------------------------------------------------------------- #
class _SlowService:
    """Wraps a real service, stretching each query to an eternity (~0.2 s)."""

    def __init__(self, inner, delay=0.2):
        self._inner = inner
        self._delay = delay
        self.store_digest = inner.store_digest
        self.config_names = inner.config_names
        self.dataset = inner.dataset

    def query(self, request):
        time.sleep(self._delay)
        return self._inner.query(request)


class TestBackpressure:
    def test_saturated_server_answers_429_with_retry_after(self, service):
        async def scenario():
            server = await serve(
                _SlowService(service), max_inflight=1, cache_size=0, window_ms=0.0
            )
            try:
                clients = [ServiceClient(port=server.port) for _ in range(5)]
                outcomes = await asyncio.gather(
                    *[client.query(TopKRequest(k=k + 1)) for k, client in enumerate(clients)],
                    return_exceptions=True,
                )
                for client in clients:
                    await client.close()
                served = [r for r in outcomes if isinstance(r, QueryResponse)]
                rejected = [r for r in outcomes if isinstance(r, ServerBusy)]
                assert served, "at least one request must get through"
                assert rejected, "saturation must reject, not queue"
                assert all(r.status == 429 for r in rejected)
                assert all(r.retry_after >= 1.0 for r in rejected)
                # The loop stayed alive: a follow-up request succeeds.
                async with ServiceClient(port=server.port) as client:
                    assert (await client.health())["status"] == "ok"
            finally:
                await server.stop()

        run(scenario())

    def test_full_predict_queue_answers_429(self, service, server_dataset):
        cells = [record.cell for record in server_dataset.records[:8]]

        async def scenario():
            server = await serve(
                service, window_ms=200.0, max_pending=4, max_batch=1024, cache_size=0
            )
            try:
                first = ServiceClient(port=server.port)
                second = ServiceClient(port=server.port)
                task = asyncio.ensure_future(first.query(PredictRequest(tuple(cells[:4]), "V1")))
                await asyncio.sleep(0.05)  # first request parks in the window
                with pytest.raises(ServerBusy) as excinfo:
                    await second.query(PredictRequest(tuple(cells[4:]), "V1"))
                assert excinfo.value.status == 429
                response = await task  # the parked batch still completes
                assert len(response.result["values"]) == 4
                await first.close()
                await second.close()
            finally:
                await server.stop()

        run(scenario())

    def test_draining_server_answers_503_and_completes_inflight(self, service):
        async def scenario():
            server = await serve(service, cache_size=0)
            try:
                async with ServiceClient(port=server.port) as client:
                    assert (await client.health())["status"] == "ok"
                    server._draining = True  # enter the drain state
                    with pytest.raises(ServerBusy) as excinfo:
                        await client.query(TopKRequest(k=2))
                    assert excinfo.value.status == 503
                    assert excinfo.value.retry_after >= 1.0
            finally:
                await server.stop()

        run(scenario())


class TestErrorMapping:
    def test_status_codes(self, service, server_dataset):
        fingerprint = server_dataset[0].fingerprint

        async def scenario():
            server = await serve(service, cache_size=0)
            try:
                client = ServiceClient(port=server.port)

                async def ask(**payload):
                    status, _, body = await client.request("POST", "/v1/query", payload)
                    return status, body

                # Unknown fingerprint → 404 (DatasetError).
                status, body = await ask(kind="metric", fingerprint="nope", config_name="V1")
                assert status == 404 and "nope" in body["error"]
                # Config not served → 400 (ServiceError).
                status, _ = await ask(kind="metric", fingerprint=fingerprint, config_name="V9")
                assert status == 400
                # Bad metric name → 400 before any lookup.
                status, body = await ask(
                    kind="metric", fingerprint=fingerprint, config_name="V1", metric="flops"
                )
                assert status == 400 and "flops" in body["error"]
                # Missing required field → 400.
                status, _ = await ask(kind="pareto")
                assert status == 400
                # Unknown route → 404; wrong method → 405.
                status, _, _ = await client.request("GET", "/v1/nothing")
                assert status == 404
                status, _, _ = await client.request("GET", "/v1/query")
                assert status == 405
                # Unknown request kind → 400.
                status, _ = await ask(kind="frontier")
                assert status == 400
                # The connection survived every error above (keep-alive).
                assert (await client.health())["status"] == "ok"
                await client.close()
            finally:
                await server.stop()

        run(scenario())

    @pytest.mark.parametrize(
        "method, target",
        [
            ("GET", "/v1/top_k?k=2"),
            ("GET", "/v1/pareto?config=V1"),
            ("GET", "/v1/metric?fingerprint={fp}&config=V1&metric=energy"),
            ("GET", "/v1/latency?fingerprint={fp}&config=V1"),
            ("GET", "/v1/energy?fingerprint={fp}&config=V1"),
            ("POST", "/v1/predict"),
        ],
        ids=["top_k", "pareto", "metric", "latency", "energy", "predict"],
    )
    def test_only_post_query_asks_the_service(self, service, server_dataset, method, target):
        record = server_dataset[0]
        body = {"cells": [record.cell.to_dict()], "config_name": "V1"}

        async def scenario():
            server = await serve(service, cache_size=0)
            try:
                async with ServiceClient(port=server.port) as client:
                    status, _, answer = await client.request(
                        method,
                        target.format(fp=record.fingerprint),
                        body if method == "POST" else None,
                    )
                    assert status == 404, answer
                    assert "no route" in answer["error"]
            finally:
                await server.stop()

        run(scenario())

    def test_malformed_query_bodies_are_400(self, service):
        async def scenario():
            server = await serve(service, cache_size=0)
            try:
                client = ServiceClient(port=server.port)
                for payload in (
                    {"kind": []},
                    {"kind": "predict", "config_name": "V1", "cells": [{}]},
                    {"kind": "predict", "config_name": "V1", "cells": [{"matrix": [["a"]]}]},
                ):
                    status, _, body = await client.request("POST", "/v1/query", payload)
                    assert status == 400, body
                await client.close()
            finally:
                await server.stop()

        run(scenario())

    def test_invalid_json_body_is_400(self, service):
        async def scenario():
            server = await serve(service, cache_size=0)
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                body = b"{not json"
                writer.write(
                    b"POST /v1/query HTTP/1.1\r\nContent-Length: "
                    + str(len(body)).encode()
                    + b"\r\nConnection: close\r\n\r\n"
                    + body
                )
                await writer.drain()
                head = await reader.readuntil(b"\r\n\r\n")
                assert b"400 Bad Request" in head
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()

        run(scenario())


    @pytest.mark.parametrize("raw", [DEEP_JSON, BAD_TARGET], ids=["deep-json", "bad-target"])
    def test_malformed_requests_are_400(self, service, raw):
        async def scenario():
            server = await serve(service, cache_size=0)
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                writer.write(raw)
                await writer.drain()
                head = await reader.readuntil(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 400 Bad Request")
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()

        run(scenario())


# --------------------------------------------------------------------------- #
# Standalone bring-up from a bare store directory
# --------------------------------------------------------------------------- #
class TestBuildService:
    def test_manifest_store_rebuilds_an_equivalent_service(self, warm_root, service):
        rebuilt = build_service(warm_root)
        assert rebuilt.config_names == list(CONFIGS)
        assert rebuilt.store_digest == service.store_digest
        assert rebuilt.query(TopKRequest(k=3)).result == service.query(TopKRequest(k=3)).result

    def test_manifest_less_store_is_refused(self, tmp_path):
        from repro.errors import ServiceError

        with pytest.raises(ServiceError, match="publish_manifest"):
            build_service(tmp_path)
