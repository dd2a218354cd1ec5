#!/usr/bin/env python3
"""Resumable sweeps and disk-backed queries with the service subsystem.

The paper's headline experiment is ~1.5M latency / ~900K energy simulations;
run monolithically, an interruption throws everything away and nothing can
be queried until the whole sweep finishes.  This example shows the
alternative:

1. sweep a sampled population through a :class:`repro.MeasurementStore` —
   results persist shard-by-shard as content-keyed npz files, so the run is
   interruptible and the second invocation of this script loads instead of
   simulating (delete the store directory to go cold again);
2. ``extend()`` the same store with an extra accelerator configuration —
   only the missing (shard, configuration) pairs are simulated;
3. stand up a :class:`repro.SweepService` over the warm store and answer the
   evaluation-section queries from disk, each one a typed request to
   ``SweepService.query()``: top-k by accuracy, the Pareto frontier,
   latency/energy of a cell by fingerprint, and learned-model predictions
   for cells that were never simulated;
4. re-run the warm load under ``repro.obs`` tracing and print the merged
   trace summary — the same view ``python -m repro.obs <dir>`` gives a
   whole worker fleet (set ``REPRO_TRACE=1`` to trace this script end to
   end instead);
5. serve the same warm service over HTTP — :class:`repro.SweepServer` on an
   ephemeral loopback port, queried through the async
   :class:`repro.ServiceClient` — and check the answers match the direct
   calls bit for bit (``python -m repro.server <store_dir>`` runs the same
   server standalone; see DESIGN.md §13).

Run with:  python examples/sweep_service.py [num_models]
"""

import asyncio
import os
import sys
import time

from repro import (
    MeasurementStore,
    ParetoRequest,
    PredictRequest,
    SweepService,
    TopKRequest,
    obs,
    trace_summary,
)
from repro.core import TrainingSettings
from repro.nasbench import NASBenchDataset, cell_fingerprint, sample_unique_cells
from repro.service import EnergyRequest, LatencyRequest

STORE_DIR = os.environ.get("REPRO_STORE_DIR", ".repro-store")


def main(num_models: int = 300) -> None:
    dataset = NASBenchDataset.generate(num_models=num_models, seed=7)

    # 1. Resumable sweep: every completed shard lands on disk immediately.
    store = MeasurementStore(STORE_DIR, shard_size=64)
    start = time.perf_counter()
    store.extend(dataset, configs=("V1", "V2"))
    elapsed = time.perf_counter() - start
    print(
        f"sweep of {num_models} models on V1/V2: "
        f"{store.stats.pairs_simulated} (shard, config) pairs simulated, "
        f"{store.stats.pairs_loaded} loaded from {STORE_DIR!r} "
        f"({elapsed:.2f}s — rerun this script for a warm start)"
    )

    # 2. Incremental extension: V3 shards are the only new work.
    before = store.stats.pairs_simulated
    store.extend(dataset, configs=("V1", "V2", "V3"))
    print(f"extend with V3: {store.stats.pairs_simulated - before} pairs simulated")

    # 3. Queries are answered from disk — no simulator in the loop.
    service = SweepService(
        MeasurementStore(STORE_DIR, shard_size=64),
        dataset,
        configs=("V1", "V2", "V3"),
        settings=TrainingSettings(epochs=8, seed=1),
    )
    print("\ntop-3 models by accuracy (latency in ms):")
    top = service.query(TopKRequest(k=3)).result["entries"]
    for entry in top:
        latencies = ", ".join(f"{name}={value:.3f}" for name, value in entry["latency_ms"].items())
        print(
            f"  #{entry['rank']} {entry['fingerprint'][:12]}  "
            f"acc={entry['accuracy']:.4f}  {latencies}  fastest={entry['fastest_config']}"
        )

    front = service.query(ParetoRequest("V2")).result["points"]
    print(f"\nV2 accuracy/latency Pareto frontier: {len(front)} points")
    best = top[0]["fingerprint"]
    latency = service.query(LatencyRequest(best, "V2")).result["value"]
    energy = service.query(EnergyRequest(best, "V1")).result["value"]
    print(
        f"lookup by fingerprint {best[:12]}: "
        f"latency V2 = {latency:.3f} ms, energy V1 = {energy:.3f} mJ"
    )

    unseen = sample_unique_cells(3, seed=12345)
    start = time.perf_counter()
    predictions = service.query(PredictRequest(tuple(unseen), "V2")).result["values"]
    elapsed_ms = (time.perf_counter() - start) * 1e3
    print("\nlearned-model latency predictions for unseen cells (V2):")
    for cell, value in zip(unseen, predictions):
        print(f"  {cell_fingerprint(cell)[:12]:<14}{value:.3f} ms (predicted)")
    print(f"(3 predictions in {elapsed_ms:.1f} ms; weights cached in {STORE_DIR!r})")

    # 4. Traced leg: the warm load again, under scoped tracing.  Stages become
    #    spans, store accounting becomes counters, and the per-process JSONL
    #    stream merges into the same fleet summary `python -m repro.obs` prints.
    trace_dir = os.path.join(STORE_DIR, "traces")
    with obs.capture(trace_dir):
        warm = MeasurementStore(STORE_DIR, shard_size=64)
        warm.load(dataset, configs=("V1", "V2", "V3"))
    summary = trace_summary(trace_dir)
    loaded = summary.counters.get("store.pairs_loaded", 0)
    print(f"\ntraced warm load (streams in {trace_dir!r}):")
    print(
        f"  store.pairs_loaded counter = {loaded:.0f}"
        f" (StoreStats agrees: {warm.stats.pairs_loaded})"
    )
    for line in summary.lines()[:6]:
        print(f"  {line}")

    # 5. The same service over HTTP: every endpoint routes through the typed
    #    SweepService.query() dispatch, so served answers equal direct calls.
    asyncio.run(_serve_and_query(service, best))


async def _serve_and_query(service: SweepService, fingerprint: str) -> None:
    from repro import ServerConfig, ServiceClient, SweepServer

    server = SweepServer(service, ServerConfig(port=0))
    await server.start()
    print(f"\nserving on 127.0.0.1:{server.port} (store digest {service.store_digest}):")
    async with ServiceClient(port=server.port) as client:
        top = await client.top_k(3)
        print(f"  top_k(k=3)            -> {len(top.result['entries'])} entries")
        latency = await client.query(LatencyRequest(fingerprint, "V2"))
        assert latency.result == service.query(LatencyRequest(fingerprint, "V2")).result
        print(
            f"  latency(V2)           -> {latency.result['value']:.3f} ms "
            f"(served from {latency.served_from})"
        )
        again = await client.query(LatencyRequest(fingerprint, "V2"))
        print(f"  latency(V2) repeat    -> served from {again.served_from}")
        health = await client.health()
        print(f"  GET /healthz          -> {health['status']}")
    await server.stop()
    print("  drained and stopped cleanly")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 300)
