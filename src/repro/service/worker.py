"""Crash-tolerant sweep worker: claim → simulate → write → release.

``python -m repro.service.worker <store_dir>`` starts one worker against the
sweep manifest in *store_dir*.  N workers (processes or hosts sharing the
directory) drain the same manifest concurrently; none of them is special and
any of them may die — including ``kill -9`` at any instruction — without
losing the sweep:

* **before claiming** — nothing happened; the pair stays free;
* **while holding a lease** — the heartbeat stops, the lease passes its
  expiry window, and another worker steals it and re-simulates the pair;
* **mid-write** — the store's pair writer
  (:meth:`~repro.service.store.MeasurementStore.write_pair`) publishes via an
  atomic rename, so a partial temp file is garbage (never read) and the pair
  reads as missing; a truncated file that somehow lands at the final name
  (non-atomic network filesystem) is quarantined by
  :func:`~repro.service.store.read_npz` and re-simulated;
* **after the write, before the release** — the store holds the pair, so
  every scan counts it done; the stale lease is ignored (done pairs are
  never claimed) and costs nothing;
* **after the release, before the report** — the pair is done but recorded
  by no worker; a worker records a pair only once its release has shown
  that the lease still named it, so no pair is recorded twice.

Workers renew their lease heartbeat from a background thread while the
simulation kernel runs, and record every completion in an atomically-updated
per-worker report file that :class:`~repro.service.queue.SweepCoordinator`
aggregates into fleet progress.
"""

from __future__ import annotations

import os
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .. import obs
from ..errors import ServiceError
from ..nasbench.layer_table import LayerTable
from ..simulator.batch import BatchSimulator
from .queue import (
    DEFAULT_LEASE_EXPIRY,
    SweepManifest,
    SweepPair,
    WorkQueue,
    iter_pairs_rotated,
)


@dataclass
class WorkerResult:
    """What one worker's run loop accomplished."""

    owner: str
    pairs_completed: list[str] = field(default_factory=list)
    pairs_simulated: int = 0
    models_simulated: int = 0
    leases_stolen: int = 0
    leases_lost: int = 0
    elapsed_seconds: float = 0.0


class _Heartbeat:
    """Background lease renewal while the simulation kernel runs."""

    def __init__(self, queue: WorkQueue, lease, interval: float):
        self._queue = queue
        self._lease = lease
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            if not self._queue.renew(self._lease):
                return  # stolen from us; the run loop checks lease.lost


class SweepWorker:
    """One drain participant over a store directory's sweep manifest.

    Parameters
    ----------
    store_dir:
        The shared measurement-store directory (manifest + shards + queue).
    manifest:
        The manifest to drain (found in *store_dir* when omitted).
    owner:
        Worker identity used in leases and reports; defaults to
        ``<hostname-pid-random>`` so restarted workers never collide.
    expiry_seconds:
        Lease heartbeat expiry; heartbeats renew at a third of this, so the
        expiry must comfortably exceed one renewal interval under load.
    poll_seconds:
        Sleep between scans when every remaining pair is actively leased by
        someone else (waiting for completions or for orphans to expire).
    throttle_seconds:
        Artificial per-pair delay (tests use it to make "mid-sweep" a real
        window on populations that simulate in milliseconds).
    """

    def __init__(
        self,
        store_dir: str | Path,
        manifest: SweepManifest | None = None,
        owner: str | None = None,
        expiry_seconds: float = DEFAULT_LEASE_EXPIRY,
        poll_seconds: float = 0.5,
        throttle_seconds: float = 0.0,
    ):
        self.store_dir = Path(store_dir)
        self.manifest = manifest or SweepManifest.find(self.store_dir)
        self.owner = owner or f"{os.uname().nodename}-{os.getpid()}-{uuid.uuid4().hex[:6]}"
        self.queue = WorkQueue(self.store_dir, self.manifest, expiry_seconds=expiry_seconds)
        self.poll_seconds = float(poll_seconds)
        self.throttle_seconds = float(throttle_seconds)
        self._simulator = BatchSimulator(
            enable_parameter_caching=self.manifest.enable_parameter_caching
        )
        self._table_cache: tuple[int, LayerTable] | None = None
        self._started_at = time.time()

    # ------------------------------------------------------------------ #
    # Run loop
    # ------------------------------------------------------------------ #
    def run(self, max_pairs: int | None = None) -> WorkerResult:
        """Drain pairs until the sweep completes (or *max_pairs* were done).

        Every scan claims what it can; when nothing is claimable but pairs
        remain (all leased by live workers), the loop sleeps *poll_seconds*
        and rescans — a crashed peer's lease expires into a steal, a live
        peer's completion finishes the sweep.  The limit is checked before
        each claim, so ``max_pairs=0`` claims nothing (the worker still
        writes its report).
        """
        if max_pairs is not None and max_pairs < 0:
            raise ServiceError(f"max_pairs must be non-negative, got {max_pairs}")
        limit = float("inf") if max_pairs is None else max_pairs
        result = WorkerResult(owner=self.owner)
        start = time.perf_counter()
        self._write_report(result)
        while result.pairs_simulated < limit:
            remaining = 0
            claimed_any = False
            for pair in iter_pairs_rotated(self.manifest.pairs, self.owner):
                if result.pairs_simulated >= limit:
                    break
                if self.queue.is_done(pair):
                    continue
                remaining += 1
                lease = self.queue.try_claim(pair, self.owner)
                if lease is None:
                    continue
                claimed_any = True
                self._complete_pair(pair, lease, result)
            if remaining == 0:
                break
            if not claimed_any:
                # Every remaining pair is leased by someone else: wait for
                # their completions, or for an orphaned lease to expire.
                time.sleep(self.poll_seconds)
        result.elapsed_seconds = time.perf_counter() - start
        self._write_report(result)
        return result

    # ------------------------------------------------------------------ #
    # One pair
    # ------------------------------------------------------------------ #
    def _complete_pair(self, pair: SweepPair, lease, result: WorkerResult) -> None:
        """Simulate and persist one claimed pair, heartbeating throughout."""
        fingerprints = self.manifest.shard_fingerprints(pair.shard_index)
        config = self.manifest.config(pair.config_name)
        if lease.stolen:
            result.leases_stolen += 1
            obs.count("worker.leases_stolen")
        pair_start = time.perf_counter()
        with obs.span(
            "worker.pair",
            pair=pair.pair_id,
            shard=pair.shard_index,
            config=pair.config_name,
            models=len(fingerprints),
        ):
            interval = max(self.queue.expiry_seconds / 3.0, 0.05)
            with _Heartbeat(self.queue, lease, interval):
                if self.throttle_seconds:
                    time.sleep(self.throttle_seconds)
                table = self._shard_table(pair.shard_index)
                latency, energy = self._simulator.evaluate_table_grid(table, [config])
            self.queue.store.write_pair(
                fingerprints, pair.config_name, pair.key, latency[0], energy[0]
            )
        obs.observe("worker.pair_ms", (time.perf_counter() - pair_start) * 1e3)
        result.pairs_simulated += 1
        result.models_simulated += len(fingerprints)
        obs.count("worker.pairs_simulated")
        obs.count("worker.models_simulated", len(fingerprints))
        if lease.lost or not self.queue.release(lease):
            # Someone stole the lease (e.g. a paused VM past its expiry), seen
            # by the heartbeat or, after the last renewal, by the release.
            # The write above is idempotent and correct, but the thief will
            # record this pair — don't double-count it, and leave the lease
            # file alone (it is the thief's now).
            result.leases_lost += 1
            obs.count("worker.leases_lost")
            obs.log(
                "worker.lease_lost",
                f"lease for {pair.pair_id} was stolen; the thief records this pair",
                level="warning",
                pair=pair.pair_id,
            )
            return
        result.pairs_completed.append(pair.pair_id)
        self._write_report(result)

    def _shard_table(self, shard_index: int) -> LayerTable:
        """LayerTable of one shard, cached so consecutive configurations of
        the same shard skip re-packing it."""
        if self._table_cache is not None and self._table_cache[0] == shard_index:
            return self._table_cache[1]
        table = LayerTable.from_architectures(
            self.manifest.shard_archs(shard_index), self.manifest.network_config()
        )
        self._table_cache = (shard_index, table)
        return table

    def _write_report(self, result: WorkerResult) -> None:
        report = {
            "kind": "worker-report",
            "owner": self.owner,
            "pid": os.getpid(),
            "started_at": self._started_at,
            "heartbeat": time.time(),
            "completed": list(result.pairs_completed),
            "pairs_simulated": result.pairs_simulated,
            "models_simulated": result.models_simulated,
            "leases_stolen": result.leases_stolen,
            "leases_lost": result.leases_lost,
        }
        tracer = obs.active_tracer()
        if tracer.enabled:
            # Fold the telemetry stream into the report so the coordinator
            # surfaces it, and snapshot the metrics alongside every report —
            # a SIGKILL then loses at most the pair in flight from both.
            report["trace"] = str(tracer.path)
            report["events"] = dict(tracer.event_counts)
        self.queue.write_worker_report(self.owner, report)
        if tracer.enabled:
            tracer.flush()


def main(argv: Sequence[str] | None = None) -> int:
    """CLI: ``python -m repro.service.worker <store_dir> [options]``."""
    import argparse

    parser = argparse.ArgumentParser(
        description=(
            "Drain one sweep manifest as a crash-tolerant worker; run N of "
            "these against one store directory to parallelize the sweep."
        )
    )
    parser.add_argument("store_dir", help="shared measurement store directory")
    parser.add_argument("--manifest", default=None, help="manifest digest (if several)")
    parser.add_argument("--owner", default=None, help="worker identity (default: host-pid-random)")
    parser.add_argument(
        "--expiry", type=float, default=DEFAULT_LEASE_EXPIRY,
        help="lease heartbeat expiry in seconds",
    )
    parser.add_argument(
        "--poll-interval", type=float, default=0.5,
        help="seconds between scans while waiting on other workers' leases",
    )
    parser.add_argument(
        "--throttle", type=float, default=0.0,
        help="artificial per-pair delay in seconds (testing aid)",
    )
    parser.add_argument(
        "--max-pairs", type=int, default=None,
        help="exit after simulating this many pairs (default: run to completion)",
    )
    args = parser.parse_args(argv)
    manifest = SweepManifest.find(args.store_dir, digest=args.manifest)
    worker = SweepWorker(
        args.store_dir,
        manifest=manifest,
        owner=args.owner,
        expiry_seconds=args.expiry,
        poll_seconds=args.poll_interval,
        throttle_seconds=args.throttle,
    )
    result = worker.run(max_pairs=args.max_pairs)
    obs.log(
        "worker.done",
        f"[{result.owner}] simulated {result.pairs_simulated} pairs "
        f"({result.models_simulated} models) in {result.elapsed_seconds:.2f}s; "
        f"{len(result.pairs_completed)} recorded, {result.leases_lost} lost leases",
        echo=True,
        owner=result.owner,
        pairs_simulated=result.pairs_simulated,
        models_simulated=result.models_simulated,
        leases_lost=result.leases_lost,
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
