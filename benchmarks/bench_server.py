"""Serving-layer load benchmark: micro-batch efficiency and tail latency.

Two questions about ``repro.server`` (DESIGN.md §13):

* **Does micro-batching pay?**  N concurrent clients issue single-cell
  ``predict`` requests against two server arms that differ only in the
  coalescing window: ``window_ms>0`` (batched) vs ``window_ms=0`` (every
  request its own forward pass).  The headline ``predict_batch_speedup`` is
  the throughput ratio; the acceptance bound is >= 3x at >= 64 clients.
  ``requests_per_batch`` reports how many concurrent requests the window
  actually coalesced per forward pass.
* **What does the tail look like under offered load?**  An open-loop
  generator fires metric lookups at fixed offered QPS levels and records
  per-request p50/p99 wall latency plus the achieved rate and any
  backpressure rejections — the latency-vs-QPS table of the report.

Both arms run the server in-process on an ephemeral loopback port, so the
measured path is the real one: HTTP framing, admission control, executor
hop, packed forward pass / store lookup, envelope encode.
"""

from __future__ import annotations

import asyncio
import os
import time

import numpy as np

from repro.core import TrainingSettings
from repro.nasbench import NASBenchDataset
from repro.server import ServerBusy, ServerConfig, ServiceClient, SweepServer
from repro.service import MeasurementStore, MetricRequest, PredictRequest, SweepService

from _reporting import report, report_json

#: Models of the served population (small on purpose: serving overhead, not
#: sweep throughput, is what this benchmark isolates).
SERVER_MODELS = int(os.environ.get("REPRO_BENCH_SERVER_MODELS", "24"))
#: Concurrent predict clients (the acceptance criterion needs >= 64).
SERVER_CLIENTS = int(os.environ.get("REPRO_BENCH_SERVER_CLIENTS", "64"))
#: Sequential predict requests each client issues per arm.
SERVER_REQUESTS = int(os.environ.get("REPRO_BENCH_SERVER_REQUESTS", "6"))
#: Coalescing window of the batched arm (ms).
SERVER_WINDOW_MS = float(os.environ.get("REPRO_BENCH_SERVER_WINDOW_MS", "6"))
#: Offered-QPS levels of the open-loop latency sweep.
SERVER_QPS_LEVELS = tuple(
    int(level)
    for level in os.environ.get("REPRO_BENCH_SERVER_QPS", "100,400,800").split(",")
)
#: Seconds of open-loop load per QPS level.
SERVER_QPS_SECONDS = float(os.environ.get("REPRO_BENCH_SERVER_QPS_SECONDS", "1.5"))

#: The acceptance bound on the batched/unbatched throughput ratio.
BATCH_SPEEDUP_BOUND = 3.0

SEED = 31
CONFIG = "V1"


def _build_service(root) -> SweepService:
    dataset = NASBenchDataset.generate(num_models=SERVER_MODELS, seed=SEED)
    store = MeasurementStore(root, shard_size=8)
    store.extend(dataset, configs=(CONFIG,))
    service = SweepService(
        store, dataset, configs=(CONFIG,), settings=TrainingSettings(epochs=2, seed=0)
    )
    # Train/restore the predict model and compute the store digest up front;
    # the benchmark measures serving, not warm-up.
    service.predict([dataset[0].cell], CONFIG)
    return service


async def _start(service, window_ms: float) -> SweepServer:
    server = SweepServer(
        service,
        ServerConfig(
            port=0,
            window_ms=window_ms,
            max_batch=1024,
            max_pending=1_000_000,
            cache_size=0,  # cold answers only: caching would hide the work
            max_inflight=8 * SERVER_CLIENTS,
        ),
    )
    await server.start()
    return server


async def _predict_arm(service, cells, window_ms: float) -> dict:
    """One throughput arm: SERVER_CLIENTS concurrent single-cell predictors."""
    server = await _start(service, window_ms)
    clients = [ServiceClient(port=server.port) for _ in range(SERVER_CLIENTS)]
    values: dict[int, list[float]] = {}

    async def drive(index: int, client: ServiceClient) -> None:
        cell = cells[index % len(cells)]
        got = []
        for _ in range(SERVER_REQUESTS):
            response = await client.query(PredictRequest((cell,), CONFIG))
            got.append(response.result["values"][0])
        values[index] = got

    started = time.perf_counter()
    await asyncio.gather(*[drive(i, c) for i, c in enumerate(clients)])
    elapsed = time.perf_counter() - started
    stats = server.batcher.stats()
    for client in clients:
        await client.close()
    await server.stop()

    # Sanity: every client's repeated answers are self-consistent, and close
    # to the direct call (bit-identity per batch composition is asserted by
    # the server test suite; across compositions BLAS noise is ~1 ULP).
    for index, got in values.items():
        assert len(set(got)) == 1
        direct = float(service.predict([cells[index % len(cells)]], CONFIG)[0])
        assert np.isclose(got[0], direct, rtol=1e-9)

    total = SERVER_CLIENTS * SERVER_REQUESTS
    return {
        "throughput_rps": total / elapsed,
        "elapsed_s": elapsed,
        "batches": stats["batches"],
        "requests_per_batch": stats["requests_per_batch"],
        "largest_batch": stats["largest_batch"],
    }


async def _qps_level(service, offered_qps: int) -> dict:
    """Open-loop metric lookups at a fixed offered rate; per-request latency."""
    server = await _start(service, window_ms=SERVER_WINDOW_MS)
    pool = [ServiceClient(port=server.port) for _ in range(16)]
    dataset = service.dataset
    total = max(1, int(offered_qps * SERVER_QPS_SECONDS))
    latencies: list[float] = []
    rejected = 0

    async def fire(index: int) -> None:
        nonlocal rejected
        client = pool[index % len(pool)]
        fingerprint = dataset[index % len(dataset)].fingerprint
        started = time.perf_counter()
        try:
            await client.query(MetricRequest(fingerprint, CONFIG, "latency"))
        except ServerBusy:
            rejected += 1
            return
        latencies.append((time.perf_counter() - started) * 1e3)

    loop = asyncio.get_running_loop()
    epoch = loop.time()
    tasks = []
    for index in range(total):
        delay = epoch + index / offered_qps - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(loop.create_task(fire(index)))
    started = time.perf_counter()
    await asyncio.gather(*tasks)
    drained = time.perf_counter()
    for client in pool:
        await client.close()
    await server.stop()

    elapsed = max(drained - started + total / offered_qps, 1e-9)
    completed = len(latencies)
    ordered = np.sort(np.asarray(latencies)) if latencies else np.zeros(1)
    return {
        "offered_qps": offered_qps,
        "achieved_qps": completed / elapsed,
        "completed": completed,
        "rejected": rejected,
        "p50_ms": float(np.percentile(ordered, 50)),
        "p99_ms": float(np.percentile(ordered, 99)),
    }


def test_server_load(benchmark, tmp_path):
    service = _build_service(tmp_path / "store")
    cells = [record.cell for record in service.dataset]

    async def arms():
        batched = await _predict_arm(service, cells, window_ms=SERVER_WINDOW_MS)
        unbatched = await _predict_arm(service, cells, window_ms=0.0)
        levels = [await _qps_level(service, qps) for qps in SERVER_QPS_LEVELS]
        return batched, unbatched, levels

    batched, unbatched, levels = asyncio.run(arms())
    speedup = batched["throughput_rps"] / unbatched["throughput_rps"]

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info["predict_batch_speedup"] = round(speedup, 3)
    benchmark.extra_info["requests_per_batch"] = batched["requests_per_batch"]

    lines = [
        f"Serving load — {SERVER_CLIENTS} concurrent predict clients x "
        f"{SERVER_REQUESTS} requests ({SERVER_MODELS} models, config {CONFIG})",
        f"{'arm':<28}{'req/s':>10}{'batches':>9}{'req/batch':>11}",
        f"{'micro-batched (%.1f ms)' % SERVER_WINDOW_MS:<28}"
        f"{batched['throughput_rps']:>10.1f}{batched['batches']:>9}"
        f"{batched['requests_per_batch']:>11.2f}",
        f"{'window disabled':<28}{unbatched['throughput_rps']:>10.1f}"
        f"{unbatched['batches']:>9}{unbatched['requests_per_batch']:>11.2f}",
        f"predict_batch_speedup: {speedup:.2f}x (bound >= {BATCH_SPEEDUP_BOUND:.0f}x)",
        "",
        f"{'offered QPS':>12}{'achieved':>10}{'p50 ms':>9}{'p99 ms':>9}{'rejected':>10}",
    ]
    for level in levels:
        lines.append(
            f"{level['offered_qps']:>12}{level['achieved_qps']:>10.1f}"
            f"{level['p50_ms']:>9.2f}{level['p99_ms']:>9.2f}{level['rejected']:>10}"
        )
    report("server", lines)

    metrics = {
        "batched_rps": batched["throughput_rps"],
        "unbatched_rps": unbatched["throughput_rps"],
        "batched_batches": batched["batches"],
        "largest_batch": batched["largest_batch"],
    }
    for level in levels:
        prefix = f"qps{level['offered_qps']}"
        metrics[f"{prefix}_achieved"] = level["achieved_qps"]
        metrics[f"{prefix}_p50_ms"] = level["p50_ms"]
        metrics[f"{prefix}_p99_ms"] = level["p99_ms"]
        metrics[f"{prefix}_rejected"] = level["rejected"]
    report_json(
        "server",
        headline={
            "predict_batch_speedup": speedup,
            "requests_per_batch": batched["requests_per_batch"],
        },
        population={
            "models": SERVER_MODELS,
            "clients": SERVER_CLIENTS,
            "requests_per_client": SERVER_REQUESTS,
        },
        metrics=metrics,
    )

    assert speedup >= BATCH_SPEEDUP_BOUND, (
        f"micro-batching bought only {speedup:.2f}x over the window-disabled "
        f"server at {SERVER_CLIENTS} clients (bound {BATCH_SPEEDUP_BOUND:.0f}x)"
    )
