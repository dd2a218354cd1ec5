"""Resumable, sharded on-disk measurement store.

The paper's headline sweep is ~1.5M latency and ~900K energy simulations;
done monolithically it is all-or-nothing — one in-RAM
:class:`~repro.simulator.runner.MeasurementSet`, recomputed from scratch when
interrupted.  :class:`MeasurementStore` instead persists the sweep as
**per-(shard, configuration) npz files**, where a shard is a fixed-size
contiguous slice of the population:

* **content-keyed** — a shard file's name embeds a SHA-256 digest of the
  shard's cell fingerprints (plus the configuration name, the compiler's
  parameter-caching mode and a format version), and the fingerprints are
  stored inside the file and re-verified on load.  A stale or corrupt file
  degrades to a miss, never to silent mislabeling.
* **append-only** — the same shard content always maps to the same key, so
  files are only ever added (or atomically rewritten with identical bytes);
  :meth:`extend` after growing the population or the configuration grid
  simulates exactly the missing (shard, configuration) pairs.
* **resumable** — every completed pair is written before the next one is
  simulated, so a sweep interrupted after ``k`` of ``n`` shards resumes with
  exactly ``n - k`` shard simulations (:class:`StoreStats` reports the
  split).

Pair files are stored uncompressed: a pair is written once and, after
:meth:`compact`, deleted, so deflating it costs more than the disk it saves.
A store object also keeps its own copy of every pair it wrote until a
compaction merges it, so its later reads of those pairs (and the compaction
itself) never re-open the files it just wrote.

This module is the one owner of what a pair is: :meth:`shards` walks a
sweep's shards and pair keys, :meth:`shard_path` names a pair's file,
:meth:`write_pair` writes it, :meth:`has_pair` says whether the store holds
it (loose or compacted), and :func:`atomic_write` publishes every file the
store and the lease queue write.

:meth:`extend` is the single write path (the drjit-style "record once,
replay over shards" discipline): it loads what exists, simulates what does
not through a :class:`~repro.simulator.batch.BatchSimulator`, and returns
the assembled :class:`~repro.simulator.runner.MeasurementSet`.  :meth:`load`
is the read-only path used by :class:`~repro.service.query.SweepService` —
it never simulates and raises :class:`~repro.errors.ServiceError` when
shards are missing.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import uuid
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence

import numpy as np

from .. import obs
from ..arch.config import STUDIED_CONFIGS, AcceleratorConfig, get_config
from ..errors import ServiceError
from ..nasbench.dataset import NASBenchDataset
from ..nasbench.layer_table import LayerTable
from ..simulator.batch import BatchSimulator
from ..simulator.runner import MeasurementSet

#: Bump to invalidate every stored shard when the on-disk format changes.
STORE_FORMAT_VERSION = 1

#: Default number of models per shard.  Small enough that an interrupted
#: sweep loses little work, large enough that the vectorized kernels stay
#: wide and the file count stays manageable.
DEFAULT_SHARD_SIZE = 128

#: Hex characters of the shard content digest kept in file names.
_DIGEST_CHARS = 16


def stable_digest(payload: object) -> str:
    """Short stable SHA-256 digest of a JSON-serializable payload."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:_DIGEST_CHARS]


# --------------------------------------------------------------------------- #
# Atomic file I/O (shared by the store's pair and compacted files, the lease
# queue's JSON files and the sweep service's cached predictor weights)
# --------------------------------------------------------------------------- #
def atomic_write(path: Path, write: Callable[[BinaryIO], object]) -> Path:
    """Publish *path* atomically: *write* fills a temp file beside it, then ``replace()``.

    Concurrent writers race only on the rename, never on the bytes.  On an
    ``OSError`` the temp file is removed and a :class:`ServiceError` names
    *path*, so a failed write leaves nothing behind.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}-{uuid.uuid4().hex[:8]}")
    try:
        with open(tmp, "wb") as handle:
            write(handle)
        tmp.replace(path)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise ServiceError(f"failed to write {path}: {exc}") from exc
    return path


def read_npz(path: Path) -> dict[str, np.ndarray] | None:
    """Load an npz artifact; a missing or corrupt file is ``None`` (a miss).

    Corruption can happen when concurrent runs share a store directory and a
    writer dies mid-``write_npz`` on a filesystem whose rename is not atomic
    (or truncates the file some other way); degrading to a miss re-computes
    the artifact instead of crashing or mislabeling.  The corrupt file is
    quarantined to ``<name>.corrupt`` so the miss is durable — the next
    writer re-simulates and publishes a fresh file instead of tripping over
    the same truncated bytes forever.
    """
    path = Path(path)
    if not path.exists():
        return None
    try:
        # Opened here, not by np.load: on a truncated archive NpzFile raises
        # before it keeps the handle, and nothing would close it.
        with open(path, "rb") as handle, np.load(handle, allow_pickle=False) as archive:
            return {name: archive[name] for name in archive.files}
    except (OSError, ValueError, zipfile.BadZipFile):
        quarantine = path.with_name(path.name + ".corrupt")
        try:
            path.replace(quarantine)
        except OSError:  # pragma: no cover - racing readers; either one wins
            pass
        obs.log(
            "store.quarantine",
            f"quarantined corrupt npz {path.name}; treating as a miss",
            level="warning",
            path=str(path),
        )
        obs.count("store.pairs_quarantined")
        return None


def write_npz(path: Path, payload: dict[str, np.ndarray]) -> Path:
    """Persist *payload* as an uncompressed npz at *path* through :func:`atomic_write`.

    Written through an open handle, so numpy appends no suffix to the temp
    name.  :func:`read_npz` loads compressed and uncompressed archives alike.
    """
    return atomic_write(path, lambda handle: np.savez(handle, **payload))


@dataclass(frozen=True)
class Shard:
    """One shard of a sweep: its model range, fingerprints and pair keys."""

    index: int
    start: int
    stop: int
    fingerprints: list[str]
    #: Configuration name → the :meth:`MeasurementStore.shard_key` of its pair.
    keys: dict[str, str]


@dataclass
class StoreStats:
    """What one store's lifetime of sweeps was served from.

    A *pair* is one (shard, configuration) combination — the store's unit of
    persistence and of incremental work.
    """

    pairs_loaded: int = 0
    pairs_simulated: int = 0
    models_loaded: int = 0
    models_simulated: int = 0
    #: Of the loaded pairs, how many were served from a compacted file's
    #: memory map rather than a loose per-pair npz (a subset of
    #: ``pairs_loaded``).
    pairs_compacted: int = 0

    @property
    def pairs(self) -> int:
        """Total (shard, configuration) pairs touched."""
        return self.pairs_loaded + self.pairs_simulated


@dataclass(frozen=True)
class CompactionResult:
    """Outcome of one :meth:`MeasurementStore.compact` run."""

    data_path: Path
    index_path: Path
    pairs: int
    rows: int
    loose_removed: int


class MeasurementStore:
    """Sharded, fingerprint-verified npz store of sweep measurements.

    Parameters
    ----------
    root:
        Directory holding the shard files (created on first write).
    shard_size:
        Models per shard; shards are contiguous slices of the dataset.
    enable_parameter_caching:
        Compiler mode the stored measurements were produced with; part of
        every shard key, so the two modes can never be confused.
    prefix:
        File-name prefix of this store's shards (defaults to ``"shard"``).
        Lets several logical stores — e.g. one per search strategy — share
        a flat directory.
    """

    def __init__(
        self,
        root: str | Path,
        shard_size: int = DEFAULT_SHARD_SIZE,
        enable_parameter_caching: bool = True,
        prefix: str = "shard",
    ):
        if shard_size < 1:
            raise ServiceError(f"shard_size must be positive, got {shard_size}")
        self.root = Path(root)
        self.shard_size = int(shard_size)
        self.enable_parameter_caching = bool(enable_parameter_caching)
        self.prefix = prefix
        self.stats = StoreStats()
        self._simulator = BatchSimulator(enable_parameter_caching=enable_parameter_caching)
        #: (config, key) → (data path, offset, length, fingerprints); ``None``
        #: until the first read scans the compacted indices.
        self._compact_entries: dict[tuple[str, str], tuple[Path, int, int, list[str]]] | None = None
        #: Memory-mapped compacted data arrays, one per data file.
        self._compact_data: dict[Path, np.ndarray] = {}
        #: (config, key) → (fingerprints, latency, energy) of every pair this
        #: object wrote since a compaction last merged it: read back from
        #: memory instead of from its file.  At most one copy of the values
        #: not yet compacted.
        self._written: dict[tuple[str, str], tuple[list[str], np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------ #
    # Bookkeeping
    # ------------------------------------------------------------------ #
    def _tally(self, **deltas: int) -> None:
        """Increment :class:`StoreStats` fields and their mirror counters.

        The obs counters (``store.pairs_loaded`` etc.) are incremented at
        the same call site as the stats fields, so a merged fleet trace is
        guaranteed to agree with ``StoreStats`` exactly.
        """
        for name, delta in deltas.items():
            setattr(self.stats, name, getattr(self.stats, name) + delta)
            obs.count(f"store.{name}", delta)

    # ------------------------------------------------------------------ #
    # Shard layout and keying
    # ------------------------------------------------------------------ #
    def shard_ranges(self, num_models: int) -> list[tuple[int, int]]:
        """Contiguous ``(start, stop)`` model ranges, one per shard."""
        return [
            (start, min(start + self.shard_size, num_models))
            for start in range(0, num_models, self.shard_size)
        ]

    def shard_key(self, fingerprints: Sequence[str], config_name: str) -> str:
        """Content key of one (shard, configuration) pair.

        Keyed by the shard's cell fingerprints rather than its position, so
        appending models to the population leaves every full earlier shard's
        key — and file — intact.
        """
        return stable_digest(
            {
                "kind": "measurement-shard",
                "version": STORE_FORMAT_VERSION,
                "config": config_name,
                "parameter_caching": self.enable_parameter_caching,
                "fingerprints": list(fingerprints),
            }
        )

    def shard_path(self, config_name: str, key: str) -> Path:
        """File path of one (shard, configuration) pair."""
        return self.root / f"{self.prefix}-{config_name}-{key}.npz"

    def shards(self, dataset: NASBenchDataset, config_names: Sequence[str]) -> Iterator[Shard]:
        """Walk *dataset*'s shards in order, each with its pair keys.

        The one enumeration of a sweep's pairs (shards first, then
        configurations): every pair's key is computed once per walk.
        """
        for index, (start, stop) in enumerate(self.shard_ranges(len(dataset))):
            prints = [record.fingerprint for record in dataset.records[start:stop]]
            keys = {name: self.shard_key(prints, name) for name in config_names}
            yield Shard(index, start, stop, prints, keys)

    def has_pair(self, config_name: str, key: str) -> bool:
        """Whether the store holds a pair, loose or compacted; reads no pair file."""
        if (config_name, key) in self._compaction_entries():
            return True
        return self.shard_path(config_name, key).exists()

    def available_configs(self) -> list[str]:
        """Configuration names with at least one shard on disk.

        Counts both loose per-pair files and pairs merged into a compacted
        file (after compaction the loose files are gone).
        """
        if not self.root.is_dir():
            return []
        pattern = re.compile(re.escape(self.prefix) + r"-(.+)-[0-9a-f]{%d}\.npz$" % _DIGEST_CHARS)
        names = set()
        for path in self.root.iterdir():
            match = pattern.match(path.name)
            if match:
                names.add(match.group(1))
        names.update(config for config, _key in self._compaction_entries())
        return sorted(names)

    # ------------------------------------------------------------------ #
    # Sweeping (the single write path)
    # ------------------------------------------------------------------ #
    def extend(
        self,
        dataset: NASBenchDataset,
        configs: Iterable[AcceleratorConfig | str] | None = None,
        progress_callback: Callable[[str, int, int], None] | None = None,
    ) -> MeasurementSet:
        """Bring the store up to date with *dataset* × *configs* and load it.

        Only the missing (shard, configuration) pairs are simulated; every
        completed pair is persisted before the next shard starts, so the
        sweep survives interruption and a re-run resumes with exactly the
        remaining shards.  To spread the missing pairs over several cores or
        hosts, first drain a published manifest with
        :class:`~repro.service.worker.SweepWorker` processes; this call then
        loads what they wrote.

        *progress_callback* receives ``(config_name, done_models, total)``
        per completed shard (loaded or simulated), in monotonically
        increasing ``done_models`` order per configuration.  A raising
        callback cannot abort the sweep: its exceptions are caught, logged
        as obs error events, and the sweep continues.
        """
        progress_callback = obs.guarded_progress(progress_callback, origin="store.extend")
        config_list = self._config_objects(configs)
        total = len(dataset)
        latencies = {c.name: np.empty(total, dtype=float) for c in config_list}
        energies = {c.name: np.full(total, np.nan, dtype=float) for c in config_list}
        if total == 0:
            return MeasurementSet(dataset, latencies, energies)

        with obs.span("store.extend", configs=len(config_list), models=total):
            for shard in self.shards(dataset, [config.name for config in config_list]):
                start, stop = shard.start, shard.stop
                missing: list[AcceleratorConfig] = []
                for config in config_list:
                    pair = self._load_pair(shard.fingerprints, config.name, shard.keys[config.name])
                    if pair is None:
                        missing.append(config)
                        obs.count("store.pair_misses")
                    else:
                        latencies[config.name][start:stop] = pair[0]
                        energies[config.name][start:stop] = pair[1]
                        self._tally(pairs_loaded=1, models_loaded=stop - start)
                if missing:
                    # One LayerTable per shard, shared across its missing
                    # configs, and one config-axis vectorized pass over all
                    # of them.
                    with obs.span("store.simulate", models=stop - start, configs=len(missing)):
                        table = LayerTable.from_architectures(
                            [record.architecture for record in dataset.records[start:stop]],
                            dataset.network_config,
                        )
                        grid_latency, grid_energy = self._simulator.evaluate_table_grid(
                            table, missing
                        )
                    for index, config in enumerate(missing):
                        latency, energy = grid_latency[index], grid_energy[index]
                        key = shard.keys[config.name]
                        payload = self.write_pair(
                            shard.fingerprints, config.name, key, latency, energy
                        )
                        self._written[(config.name, key)] = (
                            shard.fingerprints, payload["latency"], payload["energy"]
                        )
                        latencies[config.name][start:stop] = latency
                        energies[config.name][start:stop] = energy
                        self._tally(pairs_simulated=1, models_simulated=stop - start)
                if progress_callback is not None:
                    for config in config_list:
                        progress_callback(config.name, stop, total)
        return MeasurementSet(dataset, latencies, energies)

    # ------------------------------------------------------------------ #
    # Read-only access (the service path)
    # ------------------------------------------------------------------ #
    @obs.traced("store.load")
    def load(
        self,
        dataset: NASBenchDataset,
        configs: Iterable[AcceleratorConfig | str] | None = None,
    ) -> MeasurementSet:
        """Assemble the measurement set of *dataset* × *configs* from disk.

        Never simulates: raises :class:`ServiceError` naming the missing
        (shard, configuration) pairs when the store is not warm.
        """
        config_names = self._config_names(configs)
        total = len(dataset)
        latencies = {name: np.empty(total, dtype=float) for name in config_names}
        energies = {name: np.full(total, np.nan, dtype=float) for name in config_names}
        missing: list[tuple[int, str]] = []
        for shard, name, pair in self._stored_pairs(dataset, config_names):
            if pair is None:
                missing.append((shard.index, name))
                continue
            latencies[name][shard.start : shard.stop] = pair[0]
            energies[name][shard.start : shard.stop] = pair[1]
            self._tally(pairs_loaded=1, models_loaded=shard.stop - shard.start)
        if missing:
            raise self._missing_error(
                missing, total, config_names, "run MeasurementStore.extend() to simulate them"
            )
        return MeasurementSet(dataset, latencies, energies)

    def missing_pairs(
        self,
        dataset: NASBenchDataset,
        configs: Iterable[AcceleratorConfig | str] | None = None,
    ) -> list[tuple[int, str]]:
        """The ``(shard_index, config_name)`` pairs not yet on disk.

        A pure query — no stats are counted and nothing is simulated.
        """
        stored = self._stored_pairs(dataset, self._config_names(configs), count_stats=False)
        return [(shard.index, name) for shard, name, pair in stored if pair is None]

    # ------------------------------------------------------------------ #
    # Compaction (O(files) loose stores → O(open) memory-mapped loads)
    # ------------------------------------------------------------------ #
    @obs.traced("store.compact")
    def compact(
        self,
        dataset: NASBenchDataset,
        configs: Iterable[AcceleratorConfig | str] | None = None,
    ) -> CompactionResult:
        """Merge a *finished* sweep into one memory-mapped consolidated file.

        A warm million-pair store costs O(files) opens before the first
        query; compaction rewrites it as a single uncompressed ``.npy`` data
        file — row 0 latency, row 1 energy, pairs concatenated column-wise —
        plus a JSON index header mapping ``(config name, shard key)`` to its
        column range and fingerprints.  :meth:`load` then serves every pair
        as a slice of one ``mmap``.

        The sweep must be complete for the requested grid (compaction of a
        half-drained sweep would freeze the missing pairs out of the fast
        path); :meth:`extend` afterwards appends new pairs as loose files
        that the *next* compaction folds in.  Re-compacting reads through
        the existing compacted file, so it is cheap and idempotent, and the
        pairs this object wrote itself are merged from memory, not re-read.

        The merged per-pair files — and any superseded earlier compacted
        generation — are deleted once the new consolidated file is durably in
        place.
        """
        config_names = self._config_names(configs)
        entries: list[dict] = []
        latency_parts: list[np.ndarray] = []
        energy_parts: list[np.ndarray] = []
        missing: list[tuple[int, str]] = []
        offset = 0
        for shard, name, pair in self._stored_pairs(dataset, config_names, count_stats=False):
            if pair is None:
                missing.append((shard.index, name))
                continue
            length = shard.stop - shard.start
            entries.append(
                {
                    "config": name,
                    "key": shard.keys[name],
                    "offset": offset,
                    "length": length,
                    "fingerprints": shard.fingerprints,
                }
            )
            latency_parts.append(pair[0])
            energy_parts.append(pair[1])
            offset += length
        if missing:
            raise self._missing_error(
                missing,
                len(dataset),
                config_names,
                "compaction requires a finished sweep; run extend() first",
            )
        digest = stable_digest(
            {
                "kind": "compacted-store",
                "version": STORE_FORMAT_VERSION,
                "prefix": self.prefix,
                "parameter_caching": self.enable_parameter_caching,
                "pairs": [(entry["config"], entry["key"]) for entry in entries],
            }
        )
        data = np.empty((2, offset), dtype=float)
        np.concatenate(latency_parts, out=data[0])
        np.concatenate(energy_parts, out=data[1])
        data_path = self.root / f"{self.prefix}-compact-{digest}.npy"
        index_path = self.root / f"{self.prefix}-compact-{digest}.json"
        atomic_write(data_path, lambda handle: np.save(handle, data))
        index_text = json.dumps(
            {
                "kind": "compacted-index",
                "version": STORE_FORMAT_VERSION,
                "prefix": self.prefix,
                "parameter_caching": self.enable_parameter_caching,
                "data": data_path.name,
                "entries": entries,
            },
            sort_keys=True,
        )
        atomic_write(index_path, lambda handle: handle.write(index_text.encode()))

        loose_removed = 0
        for entry in entries:
            loose = self.shard_path(entry["config"], entry["key"])
            try:
                loose.unlink()
                loose_removed += 1
            except OSError:
                pass
        for stale in self.root.glob(f"{self.prefix}-compact-*"):
            if stale.name not in (data_path.name, index_path.name):
                stale.unlink(missing_ok=True)
        self._compact_entries = None
        self._compact_data = {}
        for entry in entries:
            self._written.pop((entry["config"], entry["key"]), None)
        obs.count("store.compactions")
        obs.log(
            "store.compacted",
            pairs=len(entries),
            rows=int(data.shape[1]),
            bytes=int(data_path.stat().st_size),
            loose_removed=loose_removed,
        )
        return CompactionResult(
            data_path=data_path,
            index_path=index_path,
            pairs=len(entries),
            rows=int(data.shape[1]),
            loose_removed=loose_removed,
        )

    def publish_manifest(self, dataset, configs=None):
        """Persist a :class:`~repro.service.queue.SweepManifest` for this sweep.

        The manifest makes the store directory drainable by independent
        ``python -m repro.service.worker`` processes (or hosts); see
        :mod:`repro.service.queue`.  Returns the saved manifest.
        """
        from .queue import SweepManifest  # deferred: queue imports our helpers

        manifest = SweepManifest.build(self, dataset, self._config_objects(configs))
        manifest.save(self.root)
        return manifest

    def _compaction_entries(self) -> dict[tuple[str, str], tuple[Path, int, int, list[str]]]:
        """Lazy map of (config, key) → compacted location, from index files."""
        if self._compact_entries is None:
            entries: dict[tuple[str, str], tuple[Path, int, int, list[str]]] = {}
            if self.root.is_dir():
                for index_path in sorted(self.root.glob(f"{self.prefix}-compact-*.json")):
                    try:
                        payload = json.loads(index_path.read_text())
                    except (OSError, json.JSONDecodeError):
                        continue
                    if (
                        payload.get("kind") != "compacted-index"
                        or payload.get("version") != STORE_FORMAT_VERSION
                        or payload.get("parameter_caching") != self.enable_parameter_caching
                    ):
                        continue
                    data_path = self.root / payload.get("data", "")
                    if not data_path.exists():
                        continue
                    for entry in payload.get("entries", []):
                        entries[(entry["config"], entry["key"])] = (
                            data_path,
                            int(entry["offset"]),
                            int(entry["length"]),
                            list(entry["fingerprints"]),
                        )
            self._compact_entries = entries
        return self._compact_entries

    def _compacted_array(self, data_path: Path) -> np.ndarray | None:
        """The memory-mapped ``(2, rows)`` data array of one compacted file."""
        array = self._compact_data.get(data_path)
        if array is None:
            try:
                array = np.load(data_path, mmap_mode="r", allow_pickle=False)
            except (OSError, ValueError):
                return None
            if array.ndim != 2 or array.shape[0] != 2:
                return None
            self._compact_data[data_path] = array
        return array

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _load_pair(
        self,
        fingerprints: Sequence[str],
        config_name: str,
        key: str,
        count_stats: bool = True,
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Load one verified (shard, configuration) pair, or ``None``.

        *key* is the pair's :meth:`shard_key`.  Prefers the compacted
        consolidated file (one mmap slice, no file open), then the copy of a
        pair this object wrote itself, and falls back to the loose per-pair
        npz; every source must hold exactly *fingerprints*.  *count_stats*
        suppresses the ``pairs_compacted`` bookkeeping for pure queries.
        The arrays of a written pair are returned as they are held: callers
        copy them into their own arrays and never write to them.
        """
        compacted = self._compaction_entries().get((config_name, key))
        if compacted is not None:
            data_path, offset, length, stored_prints = compacted
            if length == len(fingerprints) and list(fingerprints) == stored_prints:
                array = self._compacted_array(data_path)
                if array is not None and offset + length <= array.shape[1]:
                    rows = array[:, offset : offset + length]
                    if count_stats:
                        self._tally(pairs_compacted=1)
                    return (
                        np.array(rows[0], dtype=float),
                        np.array(rows[1], dtype=float),
                    )
        written = self._written.get((config_name, key))
        if written is not None and list(fingerprints) == written[0]:
            return written[1], written[2]
        stored = read_npz(self.shard_path(config_name, key))
        if stored is None:
            return None
        expected = np.asarray(fingerprints)
        if not np.array_equal(stored.get("fingerprints"), expected):
            return None
        latency = stored.get("latency")
        energy = stored.get("energy")
        if latency is None or energy is None:
            return None
        if len(latency) != len(expected) or len(energy) != len(expected):
            return None
        return np.asarray(latency, dtype=float), np.asarray(energy, dtype=float)

    def write_pair(
        self,
        fingerprints: Sequence[str],
        config_name: str,
        key: str,
        latency: np.ndarray,
        energy: np.ndarray,
    ) -> dict[str, np.ndarray]:
        """Persist one pair under its :meth:`shard_key` *key*; returns the payload.

        The one writer of pair files, for :meth:`extend` and the sweep worker
        alike.  The payload's latency and energy arrays are fresh copies, so
        it never aliases the caller's arrays.
        """
        payload = {
            "fingerprints": np.asarray(fingerprints),
            "latency": np.array(latency, dtype=float),
            "energy": np.array(energy, dtype=float),
        }
        with obs.span("store.save_pair", config=config_name, models=len(fingerprints)) as span:
            path = write_npz(self.shard_path(config_name, key), payload)
            if obs.enabled():
                span.set(bytes=path.stat().st_size)
        return payload

    def _stored_pairs(
        self, dataset: NASBenchDataset, config_names: Sequence[str], count_stats: bool = True
    ) -> Iterator[tuple[Shard, str, tuple[np.ndarray, np.ndarray] | None]]:
        """Each pair of the sweep with its stored arrays, or ``None`` if absent."""
        for shard in self.shards(dataset, config_names):
            for name in config_names:
                yield shard, name, self._load_pair(
                    shard.fingerprints, name, shard.keys[name], count_stats=count_stats
                )

    def _missing_error(
        self,
        missing: list[tuple[int, str]],
        num_models: int,
        config_names: Sequence[str],
        remedy: str,
    ) -> ServiceError:
        """The error naming the pairs :meth:`load` or :meth:`compact` lacks."""
        total = len(self.shard_ranges(num_models)) * len(config_names)
        shown = ", ".join(f"(shard {i}, {name})" for i, name in missing[:5])
        return ServiceError(
            f"measurement store at {self.root} is missing {len(missing)} of {total} "
            f"(shard, configuration) pairs (e.g. {shown}); {remedy}"
        )

    @staticmethod
    def _config_objects(
        configs: Iterable[AcceleratorConfig | str] | None,
    ) -> list[AcceleratorConfig]:
        """Resolve the configurations to simulate (names via ``get_config``)."""
        if configs is None:
            return list(STUDIED_CONFIGS.values())
        resolved = [
            config if isinstance(config, AcceleratorConfig) else get_config(str(config))
            for config in configs
        ]
        if not resolved:
            raise ServiceError("no accelerator configurations were provided")
        return resolved

    @staticmethod
    def _config_names(
        configs: Iterable[AcceleratorConfig | str] | None,
    ) -> list[str]:
        """Resolve configuration *names* (read paths never need the objects)."""
        if configs is None:
            return [config.name for config in STUDIED_CONFIGS.values()]
        names = [
            config.name if isinstance(config, AcceleratorConfig) else str(config)
            for config in configs
        ]
        if not names:
            raise ServiceError("no accelerator configurations were provided")
        return names
