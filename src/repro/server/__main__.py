"""``python -m repro.server <store_dir>`` — serve a warm store over HTTP.

The store directory must hold a sweep manifest (written by
:meth:`MeasurementStore.publish_manifest`).  The server opens the store only
through it: the population is rebuilt from the manifest's embedded
architectures and network configuration — the same standalone rebuild a
distributed :class:`SweepWorker` performs — and the store from its layout,
so the server needs nothing but the directory.  To serve a store swept
without a manifest, publish one with ``store.publish_manifest(dataset,
configs)``.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal
from pathlib import Path
from typing import Sequence

from ..nasbench.dataset import NASBenchDataset
from ..nasbench.macro import MacroSpec
from ..service.query import SweepService
from ..service.queue import SweepManifest
from .app import ServerConfig, SweepServer


def build_service(
    store_dir: str | Path,
    *,
    configs: Sequence[str] | None = None,
    manifest_digest: str | None = None,
) -> SweepService:
    """A warm :class:`SweepService` over *store_dir*, opened through its manifest."""
    manifest = SweepManifest.find(store_dir, digest=manifest_digest)
    archs = [arch for shard in range(manifest.num_shards) for arch in manifest.shard_archs(shard)]
    network_config = manifest.network_config()
    if any(isinstance(arch, MacroSpec) for arch in archs):
        dataset = NASBenchDataset.from_macros(archs, network_config)
    else:
        dataset = NASBenchDataset.from_cells(archs, network_config)
    if configs is None:
        configs = [manifest.config(name) for name in manifest.config_names()]
    return SweepService(manifest.open_store(store_dir), dataset, configs=configs)


async def _serve(service: SweepService, config: ServerConfig) -> None:
    server = SweepServer(service, config)
    await server.start()
    print(
        f"repro.server: {len(service.dataset)} models x "
        f"{service.config_names} on http://{config.host}:{server.port} "
        f"(store {service.store_digest}); Ctrl-C to drain and stop"
    )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(signum, stop.set)
    try:
        await stop.wait()
    finally:
        print("repro.server: draining ...")
        await server.stop()
        print("repro.server: stopped")


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description=(
            "Serve top-k/pareto/metric lookups and micro-batched predictions "
            "over a warm measurement store."
        ),
    )
    parser.add_argument("store_dir", help="measurement store directory")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8787, help="0 = ephemeral")
    parser.add_argument(
        "--configs", nargs="*", default=None, help="configurations to serve"
    )
    parser.add_argument(
        "--manifest", default=None, help="manifest digest (if several)"
    )
    parser.add_argument(
        "--window-ms",
        type=float,
        default=5.0,
        help="predict micro-batch window (0 disables coalescing)",
    )
    parser.add_argument("--max-batch", type=int, default=256)
    parser.add_argument("--cache-size", type=int, default=256, help="0 disables")
    parser.add_argument("--max-inflight", type=int, default=128)
    args = parser.parse_args(argv)

    service = build_service(
        args.store_dir, configs=args.configs, manifest_digest=args.manifest
    )
    config = ServerConfig(
        host=args.host,
        port=args.port,
        window_ms=args.window_ms,
        max_batch=args.max_batch,
        cache_size=args.cache_size,
        max_inflight=args.max_inflight,
    )
    try:
        asyncio.run(_serve(service, config))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
