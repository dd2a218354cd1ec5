"""Filesystem-backed work queue for distributed sweep draining.

This is the one way to share a sweep across processes or hosts.
``MeasurementStore.extend`` simulates a sweep's missing pairs in the calling
process; this module promotes the (shard, configuration) pair to a
first-class work unit that *independent* worker processes — on one host or
on hosts sharing the store directory over a network filesystem — can drain
without any coordinator process (an ``extend`` after the drain then loads
their results and simulates nothing):

* :class:`SweepManifest` — the full pair list of one sweep, built from the
  store's own shard walk and content keys.  The manifest embeds each shard's
  architectures once, so a worker needs nothing but the store directory to
  rebuild and simulate any pair, and :meth:`SweepManifest.open_store` is how
  every reader of a published sweep opens its store.
* **Lease files** — a worker claims a pair by *atomically creating*
  ``queue/<manifest>/lease-<pair>.json`` carrying its owner id, a heartbeat
  timestamp and an expiry window.  Heartbeats are renewed while simulating;
  any worker may steal a lease whose heartbeat is past expiry (the owner
  crashed or was ``kill -9``-ed).  Steal races are resolved by an atomic
  replace plus read-back, and are harmless even when lost: shard writes are
  content-keyed and idempotent, so double completion produces identical
  bytes.
* :class:`SweepCoordinator` — a read-only observer reporting fleet progress
  (pairs done / leased / orphaned, per-worker throughput from the worker
  report files) and detecting completion.  ``python -m repro.service.queue
  <store_dir>`` prints a status snapshot.

A pair is done when the store holds it, as a loose file or in a compacted
file (:meth:`~repro.service.store.MeasurementStore.has_pair`).  Nothing here
ever blocks on a lock: every transition is an atomic filesystem operation
(``link``/``replace``/``unlink``), so a worker dying at *any* instruction
leaves either a claimable pair, a stealable lease, or a completed pair.
"""

from __future__ import annotations

import json
import os
import socket
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from .. import obs
from ..arch.config import AcceleratorConfig
from ..errors import ServiceError
from ..nasbench.cell import Cell
from ..nasbench.macro import MacroSpec, architecture_from_dict, architecture_to_dict
from ..nasbench.network import NetworkConfig
from .store import (
    FILE_PREFIX,
    STORE_FORMAT_VERSION,
    MeasurementStore,
    atomic_write,
    stable_digest,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..nasbench.dataset import NASBenchDataset

#: Bump when the manifest/lease on-disk format changes.
QUEUE_FORMAT_VERSION = 1

#: Default seconds without a heartbeat before a lease counts as orphaned.
DEFAULT_LEASE_EXPIRY = 30.0

#: Subdirectory of the store root holding lease and worker files.
QUEUE_DIR_NAME = "queue"


def _write_json_atomic(path: Path, payload: dict) -> None:
    """Publish *payload* as compact JSON through the store's :func:`atomic_write`."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    atomic_write(path, lambda handle: handle.write(text.encode()))


def _read_json(path: Path) -> dict | None:
    """Read a JSON file; missing, truncated or partial content is ``None``."""
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


def _create_exclusive(path: Path, payload: dict) -> bool:
    """Atomically create *path* with complete JSON content; False if it exists.

    A plain ``open(path, "x")`` creates the name before the bytes, so a
    concurrent reader could observe a half-written lease.  Writing a private
    temp file and hard-linking it into place publishes the name and the full
    content in one atomic step.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.claim-{os.getpid()}-{uuid.uuid4().hex[:8]}")
    tmp.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    try:
        os.link(tmp, path)
        return True
    except FileExistsError:
        return False
    except OSError:
        # Filesystem without hard links: fall back to exclusive open.  The
        # content is tiny, so the non-atomic window is a single write call.
        try:
            with open(path, "x") as handle:
                handle.write(tmp.read_text())
            return True
        except FileExistsError:
            return False
    finally:
        tmp.unlink(missing_ok=True)


# --------------------------------------------------------------------------- #
# Manifest
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SweepPair:
    """One unit of work: a (shard, configuration) pair and its content key."""

    shard_index: int
    config_name: str
    key: str

    @property
    def pair_id(self) -> str:
        """Stable filename-safe identity (the key already encodes the shard)."""
        return f"{self.config_name}-{self.key}"


class SweepManifest:
    """The complete, content-keyed pair list of one sweep.

    Everything a worker needs is embedded: each shard's architectures (tagged
    JSON form, once each), the accelerator configurations (full field dicts,
    so grid-generated configs outside ``STUDIED_CONFIGS`` work), the network
    config, the store's layout (shard size, compiler mode) and the per-pair
    shard keys.  The digest covers the pair list, whose keys encode
    the shard content, so two manifests describe the same sweep iff they
    share a digest.
    """

    def __init__(self, payload: dict):
        if payload.get("kind") != "sweep-manifest":
            raise ServiceError("not a sweep manifest payload")
        if payload.get("version") != QUEUE_FORMAT_VERSION:
            raise ServiceError(
                f"unsupported manifest version {payload.get('version')!r} "
                f"(expected {QUEUE_FORMAT_VERSION})"
            )
        self._payload = payload
        self.pairs: tuple[SweepPair, ...] = tuple(
            SweepPair(entry["shard"], entry["config"], entry["key"])
            for entry in payload["pairs"]
        )

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        store: MeasurementStore,
        dataset: "NASBenchDataset",
        configs: Sequence[AcceleratorConfig],
    ) -> "SweepManifest":
        """Describe the sweep of *dataset* × *configs* in *store* as claimable pairs."""
        if not configs:
            raise ServiceError("a sweep manifest needs at least one configuration")
        shards = []
        pairs = []
        for shard in store.shards(dataset, [config.name for config in configs]):
            records = dataset.records[shard.start : shard.stop]
            shards.append(
                {
                    "fingerprints": shard.fingerprints,
                    "archs": [architecture_to_dict(record.architecture) for record in records],
                }
            )
            pairs.extend(
                {"shard": shard.index, "config": config.name, "key": shard.keys[config.name]}
                for config in configs
            )
        content = {
            "kind": "sweep-manifest",
            "version": QUEUE_FORMAT_VERSION,
            "store_version": STORE_FORMAT_VERSION,
            "prefix": FILE_PREFIX,
            "shard_size": store.shard_size,
            "parameter_caching": store.enable_parameter_caching,
            "network_config": {
                "stem_channels": dataset.network_config.stem_channels,
                "num_stacks": dataset.network_config.num_stacks,
                "cells_per_stack": dataset.network_config.cells_per_stack,
                "image_size": dataset.network_config.image_size,
                "image_channels": dataset.network_config.image_channels,
                "num_classes": dataset.network_config.num_classes,
            },
            "configs": [_config_to_dict(config) for config in configs],
            "shards": shards,
            "pairs": pairs,
        }
        content["digest"] = stable_digest(
            {
                "kind": "sweep-manifest",
                "version": QUEUE_FORMAT_VERSION,
                "prefix": FILE_PREFIX,
                "parameter_caching": store.enable_parameter_caching,
                "pairs": [(entry["shard"], entry["config"], entry["key"]) for entry in pairs],
            }
        )
        return cls(content)

    @classmethod
    def load(cls, path: str | Path) -> "SweepManifest":
        """Load a manifest file, verifying its digest field is present."""
        payload = _read_json(Path(path))
        if payload is None:
            raise ServiceError(f"unreadable sweep manifest at {path}")
        return cls(payload)

    @classmethod
    def find(cls, store_dir: str | Path, digest: str | None = None) -> "SweepManifest":
        """Load the manifest of *store_dir* (by digest, or the only one).

        With several manifests present and no digest given, the choice would
        be ambiguous — that is an error, not a guess.
        """
        root = Path(store_dir)
        if digest is not None:
            return cls.load(root / f"manifest-{digest}.json")
        candidates = sorted(root.glob("manifest-*.json"))
        if not candidates:
            raise ServiceError(
                f"no sweep manifest found in {root}; publish one with "
                "MeasurementStore.publish_manifest(dataset, configs)"
            )
        if len(candidates) > 1:
            names = ", ".join(path.name for path in candidates)
            raise ServiceError(
                f"multiple sweep manifests in {root} ({names}); pass the digest "
                "of the one to drain"
            )
        return cls.load(candidates[0])

    def save(self, store_dir: str | Path) -> Path:
        """Persist the manifest as ``manifest-<digest>.json`` in *store_dir*."""
        path = Path(store_dir) / f"manifest-{self.digest}.json"
        _write_json_atomic(path, self._payload)
        return path

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def digest(self) -> str:
        return self._payload["digest"]

    @property
    def shard_size(self) -> int:
        return self._payload["shard_size"]

    @property
    def enable_parameter_caching(self) -> bool:
        return self._payload["parameter_caching"]

    @property
    def num_shards(self) -> int:
        return len(self._payload["shards"])

    def network_config(self) -> NetworkConfig:
        return NetworkConfig(**self._payload["network_config"])

    def config(self, name: str) -> AcceleratorConfig:
        for entry in self._payload["configs"]:
            if entry["name"] == name:
                return AcceleratorConfig(**entry)
        raise ServiceError(f"manifest has no configuration named {name!r}")

    def config_names(self) -> list[str]:
        return [entry["name"] for entry in self._payload["configs"]]

    def shard_fingerprints(self, shard_index: int) -> list[str]:
        return list(self._payload["shards"][shard_index]["fingerprints"])

    def shard_archs(self, shard_index: int) -> list[Cell | MacroSpec]:
        """Architectures of one shard — macro specs when the sweep used them.

        Manifests written before the macro-space release carry untagged
        ``cells`` instead of ``archs``; both read through the same decoder.
        """
        shard = self._payload["shards"][shard_index]
        entries = shard["archs"] if "archs" in shard else shard["cells"]
        return [architecture_from_dict(entry) for entry in entries]

    def open_store(self, store_dir: str | Path) -> MeasurementStore:
        """The store this manifest describes (shard size, compiler mode)."""
        return MeasurementStore(
            store_dir,
            shard_size=self.shard_size,
            enable_parameter_caching=self.enable_parameter_caching,
        )


def _config_to_dict(config: AcceleratorConfig) -> dict:
    """All constructor fields of an AcceleratorConfig as a plain dict."""
    return {
        name: getattr(config, name)
        for name in config.__dataclass_fields__
    }


# --------------------------------------------------------------------------- #
# Leases
# --------------------------------------------------------------------------- #
@dataclass
class PairLease:
    """A worker's claim on one pair; ``lost`` flips when a steal is observed."""

    pair: SweepPair
    owner: str
    path: Path
    expiry_seconds: float
    claimed_at: float
    #: The claim replaced an orphaned lease instead of creating a fresh one.
    stolen: bool = field(default=False)
    #: Another worker stole this lease from *us* (observed at renewal).
    lost: bool = field(default=False)

    def payload(self, heartbeat: float | None = None) -> dict:
        return {
            "kind": "pair-lease",
            "version": QUEUE_FORMAT_VERSION,
            "pair": self.pair.pair_id,
            "owner": self.owner,
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "claimed_at": self.claimed_at,
            "heartbeat": heartbeat if heartbeat is not None else time.time(),
            "expiry_seconds": self.expiry_seconds,
        }


class WorkQueue:
    """Lease-based claim/renew/steal/release over one manifest's pairs."""

    def __init__(
        self,
        store_dir: str | Path,
        manifest: SweepManifest,
        expiry_seconds: float = DEFAULT_LEASE_EXPIRY,
    ):
        if expiry_seconds <= 0:
            raise ServiceError(f"lease expiry must be positive, got {expiry_seconds}")
        self.store_dir = Path(store_dir)
        self.manifest = manifest
        self.expiry_seconds = float(expiry_seconds)
        self.queue_dir = self.store_dir / QUEUE_DIR_NAME / manifest.digest
        self.store = manifest.open_store(self.store_dir)

    # ------------------------------------------------------------------ #
    # Pair state
    # ------------------------------------------------------------------ #
    def lease_path(self, pair: SweepPair) -> Path:
        return self.queue_dir / f"lease-{pair.pair_id}.json"

    def is_done(self, pair: SweepPair) -> bool:
        """A pair is complete iff the store holds it, loose or compacted."""
        return self.store.has_pair(pair.config_name, pair.key)

    def lease_state(self, pair: SweepPair, now: float | None = None) -> str:
        """``"free"``, ``"leased"`` or ``"orphaned"`` (ignoring completion)."""
        path = self.lease_path(pair)
        if not path.exists():
            return "free"
        payload = _read_json(path)
        if payload is None:
            # Truncated lease from a crashed fallback writer: stealable once
            # the file itself is old enough to be past expiry.
            try:
                age = (now or time.time()) - path.stat().st_mtime
            except OSError:
                return "free"
            return "orphaned" if age > self.expiry_seconds else "leased"
        heartbeat = float(payload.get("heartbeat", 0.0))
        expiry = float(payload.get("expiry_seconds", self.expiry_seconds))
        return "orphaned" if (now or time.time()) > heartbeat + expiry else "leased"

    # ------------------------------------------------------------------ #
    # Transitions
    # ------------------------------------------------------------------ #
    def try_claim(self, pair: SweepPair, owner: str) -> PairLease | None:
        """Claim *pair* by atomic lease creation (or by stealing an orphan)."""
        lease = PairLease(
            pair=pair,
            owner=owner,
            path=self.lease_path(pair),
            expiry_seconds=self.expiry_seconds,
            claimed_at=time.time(),
        )
        if _create_exclusive(lease.path, lease.payload()):
            obs.log("queue.claim", pair=pair.pair_id, owner=owner)
            return lease
        if self.lease_state(pair) == "orphaned":
            return self._try_steal(lease)
        return None

    def _try_steal(self, lease: PairLease) -> PairLease | None:
        """Replace an orphaned lease with our own, then confirm by read-back.

        Two workers may race to steal the same orphan; the atomic replace
        makes exactly one payload final, and the read-back tells each worker
        whether it was the winner.  (Even a lost race only costs a duplicate
        simulation, which the content-keyed shard write makes harmless.)
        """
        _write_json_atomic(lease.path, lease.payload())
        current = _read_json(lease.path)
        if current is not None and current.get("owner") == lease.owner:
            lease.stolen = True
            obs.log("queue.steal", pair=lease.pair.pair_id, owner=lease.owner)
            return lease
        return None

    def renew(self, lease: PairLease) -> bool:
        """Refresh the lease heartbeat; False (and ``lost``) if stolen."""
        current = _read_json(lease.path)
        if current is None or current.get("owner") != lease.owner:
            lease.lost = True
            obs.log(
                "queue.renew_lost",
                level="warning",
                pair=lease.pair.pair_id,
                owner=lease.owner,
            )
            return False
        _write_json_atomic(lease.path, lease.payload())
        return True

    def release(self, lease: PairLease) -> bool:
        """Drop the lease (after the pair file is durably in place).

        Releases only a lease we still own: if a thief replaced it after the
        last heartbeat, unlinking would silently drop *their* claim.  Returns
        whether the lease still named us: a steal after the last renewal is
        seen here or nowhere.  A lease that is gone or unreadable names us
        no more than it does for :meth:`renew`: a thief finished and released
        it, or a new claim is being written.
        """
        current = _read_json(lease.path)
        if current is None or current.get("owner") != lease.owner:
            return False
        lease.path.unlink(missing_ok=True)
        obs.log("queue.release", pair=lease.pair.pair_id, owner=lease.owner)
        return True

    # ------------------------------------------------------------------ #
    # Worker reports
    # ------------------------------------------------------------------ #
    def worker_report_path(self, owner: str) -> Path:
        return self.queue_dir / f"worker-{owner}.json"

    def write_worker_report(self, owner: str, report: dict) -> None:
        _write_json_atomic(self.worker_report_path(owner), report)

    def worker_reports(self) -> list[dict]:
        reports = []
        for path in sorted(self.queue_dir.glob("worker-*.json")):
            payload = _read_json(path)
            if payload is not None:
                reports.append(payload)
        return reports


# --------------------------------------------------------------------------- #
# Coordinator
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class WorkerStatus:
    """One worker's contribution, read from its atomically-updated report."""

    owner: str
    pairs_completed: int
    models_simulated: int
    pairs_per_second: float
    seconds_since_heartbeat: float
    leases_stolen: int = 0
    leases_lost: int = 0
    #: Path of the worker's JSONL trace stream, when it ran with tracing on
    #: (merge the fleet's with ``python -m repro.obs``).
    trace: str | None = None


@dataclass(frozen=True)
class QueueProgress:
    """Fleet-level snapshot of one sweep's drain."""

    pairs_total: int
    pairs_done: int
    pairs_leased: int
    pairs_orphaned: int
    workers: tuple[WorkerStatus, ...]

    @property
    def pairs_remaining(self) -> int:
        return self.pairs_total - self.pairs_done

    @property
    def complete(self) -> bool:
        return self.pairs_done >= self.pairs_total

    def summary(self) -> str:
        lines = [
            f"pairs: {self.pairs_done}/{self.pairs_total} done, "
            f"{self.pairs_leased} leased, {self.pairs_orphaned} orphaned"
        ]
        for worker in self.workers:
            line = (
                f"  {worker.owner}: {worker.pairs_completed} pairs "
                f"({worker.models_simulated} models, "
                f"{worker.pairs_per_second:.2f} pairs/s, heartbeat "
                f"{worker.seconds_since_heartbeat:.1f}s ago)"
            )
            if worker.leases_stolen or worker.leases_lost:
                line += f" [{worker.leases_stolen} stolen, {worker.leases_lost} lost]"
            lines.append(line)
        return "\n".join(lines)


class SweepCoordinator:
    """Read-only fleet observer over one store directory's work queue."""

    def __init__(
        self,
        store_dir: str | Path,
        manifest: SweepManifest | None = None,
        expiry_seconds: float = DEFAULT_LEASE_EXPIRY,
    ):
        self.store_dir = Path(store_dir)
        self.manifest = manifest or SweepManifest.find(self.store_dir)
        self.queue = WorkQueue(self.store_dir, self.manifest, expiry_seconds=expiry_seconds)

    def progress(self) -> QueueProgress:
        now = time.time()
        done = leased = orphaned = 0
        for pair in self.manifest.pairs:
            if self.queue.is_done(pair):
                done += 1
                continue
            state = self.queue.lease_state(pair, now=now)
            if state == "leased":
                leased += 1
            elif state == "orphaned":
                orphaned += 1
        workers = []
        for report in self.queue.worker_reports():
            started = float(report.get("started_at", now))
            heartbeat = float(report.get("heartbeat", started))
            completed = len(report.get("completed", []))
            elapsed = max(heartbeat - started, 1e-9)
            workers.append(
                WorkerStatus(
                    owner=str(report.get("owner", "?")),
                    pairs_completed=completed,
                    models_simulated=int(report.get("models_simulated", 0)),
                    pairs_per_second=completed / elapsed,
                    seconds_since_heartbeat=max(now - heartbeat, 0.0),
                    leases_stolen=int(report.get("leases_stolen", 0)),
                    leases_lost=int(report.get("leases_lost", 0)),
                    trace=report.get("trace"),
                )
            )
        return QueueProgress(
            pairs_total=len(self.manifest.pairs),
            pairs_done=done,
            pairs_leased=leased,
            pairs_orphaned=orphaned,
            workers=tuple(workers),
        )

    def is_complete(self) -> bool:
        return all(self.queue.is_done(pair) for pair in self.manifest.pairs)

    def wait(self, timeout: float | None = None, poll_seconds: float = 0.5) -> bool:
        """Block until the sweep completes; False on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self.is_complete():
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(poll_seconds)
        return True


def iter_pairs_rotated(pairs: Sequence[SweepPair], owner: str) -> Iterable[SweepPair]:
    """Iterate *pairs* starting at an owner-specific offset.

    Workers scanning the pair list from different offsets mostly claim
    disjoint pairs, so the common case pays one lease creation per pair
    instead of N workers colliding on pair 0.
    """
    if not pairs:
        return
    offset = int(stable_digest({"owner": owner}), 16) % len(pairs)
    for index in range(len(pairs)):
        yield pairs[(index + offset) % len(pairs)]


def _main(argv: Sequence[str] | None = None) -> int:  # pragma: no cover - CLI
    import argparse

    parser = argparse.ArgumentParser(
        description="Print a status snapshot of a distributed sweep's work queue."
    )
    parser.add_argument("store_dir", help="measurement store directory holding the manifest")
    parser.add_argument("--manifest", default=None, help="manifest digest (if several)")
    parser.add_argument(
        "--expiry", type=float, default=DEFAULT_LEASE_EXPIRY,
        help="seconds without heartbeat before a lease counts as orphaned",
    )
    args = parser.parse_args(argv)
    manifest = SweepManifest.find(args.store_dir, digest=args.manifest)
    coordinator = SweepCoordinator(args.store_dir, manifest=manifest, expiry_seconds=args.expiry)
    progress = coordinator.progress()
    obs.log(
        "queue.status",
        f"manifest {manifest.digest} ({manifest.num_shards} shards)\n"
        + progress.summary(),
        echo=True,
        pairs_done=progress.pairs_done,
        pairs_total=progress.pairs_total,
        pairs_orphaned=progress.pairs_orphaned,
    )
    return 0 if progress.complete else 1


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(_main())
