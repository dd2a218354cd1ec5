"""Tests of the distributed sweep queue: manifest, leases, workers, coordinator.

The crash-tolerance matrix (worker dies before claiming / holding a lease /
mid-write / after the write) is exercised both inline — by forging lease
files into the states a dead worker leaves behind — and for real, by running
three ``python -m repro.service.worker`` processes against one store and
``SIGKILL``-ing one of them mid-sweep.
"""

from __future__ import annotations

import errno
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.arch import get_config
from repro.errors import ServiceError
from repro.nasbench import MacroSpec, NASBenchDataset, random_macro
from repro.service import (
    MeasurementStore,
    SweepCoordinator,
    SweepManifest,
    SweepWorker,
    WorkQueue,
)
from repro.service.queue import iter_pairs_rotated
from repro.simulator import BatchSimulator

SRC = Path(__file__).resolve().parent.parent / "src"
SHARD = 8
CONFIGS = ("V1", "V2")


@pytest.fixture(scope="module")
def queue_dataset():
    """24 models → three shards of 8 at SHARD=8; × 2 configs → 6 pairs."""
    return NASBenchDataset.generate(num_models=24, seed=11)


@pytest.fixture(scope="module")
def reference(queue_dataset):
    """The sweep straight through the batch engine (no store, no queue)."""
    return BatchSimulator().evaluate(
        queue_dataset, configs=[get_config(name) for name in CONFIGS]
    )


def publish(root, dataset, configs=CONFIGS, shard_size=SHARD):
    store = MeasurementStore(root, shard_size=shard_size)
    manifest = store.publish_manifest(dataset, configs=configs)
    return store, manifest


def assert_store_matches_reference(root, dataset, reference, shard_size=SHARD):
    """The drained store must be *byte-identical* to the direct sweep."""
    warm = MeasurementStore(root, shard_size=shard_size)
    loaded = warm.load(dataset, configs=CONFIGS)
    for name in CONFIGS:
        np.testing.assert_array_equal(loaded.latencies(name), reference.latencies(name))
        np.testing.assert_array_equal(loaded.energies(name), reference.energies(name))


def forge_lease(queue, pair, owner, heartbeat):
    """Write a lease file as a (possibly dead) worker would have left it."""
    path = queue.lease_path(pair)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(
            {
                "kind": "pair-lease",
                "version": 1,
                "pair": pair.pair_id,
                "owner": owner,
                "claimed_at": heartbeat,
                "heartbeat": heartbeat,
                "expiry_seconds": queue.expiry_seconds,
            }
        )
    )
    return path


class TestSweepManifest:
    def test_build_save_find_roundtrip(self, tmp_path, queue_dataset):
        store, manifest = publish(tmp_path, queue_dataset)
        assert manifest.num_shards == 3
        assert len(manifest.pairs) == 3 * len(CONFIGS)
        assert (tmp_path / f"manifest-{manifest.digest}.json").exists()

        found = SweepManifest.find(tmp_path)
        assert found.digest == manifest.digest
        assert found.prefix == store.prefix
        assert found.shard_size == SHARD
        assert found.config_names() == list(CONFIGS)
        # Configurations and the network config round-trip exactly.
        for name in CONFIGS:
            assert found.config(name) == get_config(name)
        assert found.network_config() == queue_dataset.network_config

    def test_pair_keys_match_the_store_layout(self, tmp_path, queue_dataset):
        store, manifest = publish(tmp_path, queue_dataset)
        ranges = store.shard_ranges(len(queue_dataset))
        for pair in manifest.pairs:
            start, stop = ranges[pair.shard_index]
            prints = [record.fingerprint for record in queue_dataset.records[start:stop]]
            assert pair.key == store.shard_key(prints, pair.config_name)
        opened = manifest.open_store(tmp_path)
        assert (opened.root, opened.shard_size, opened.prefix) == (tmp_path, SHARD, store.prefix)
        assert opened.enable_parameter_caching == store.enable_parameter_caching

    def test_shard_cells_rebuild_the_population(self, tmp_path, queue_dataset):
        _, manifest = publish(tmp_path, queue_dataset)
        cells = manifest.shard_archs(1)
        originals = [record.cell for record in queue_dataset.records[SHARD : 2 * SHARD]]
        assert [cell.to_dict() for cell in cells] == [cell.to_dict() for cell in originals]

    def test_digest_covers_the_pair_list(self, tmp_path, queue_dataset):
        store, manifest = publish(tmp_path, queue_dataset)
        other = SweepManifest.build(
            store,
            queue_dataset,
            [get_config("V1")],  # different grid → different sweep
        )
        assert other.digest != manifest.digest

    def test_find_requires_exactly_one_manifest(self, tmp_path, queue_dataset):
        with pytest.raises(ServiceError, match="no sweep manifest"):
            SweepManifest.find(tmp_path)
        store, first = publish(tmp_path, queue_dataset)
        second = SweepManifest.build(store, queue_dataset, [get_config("V1")])
        second.save(tmp_path)
        with pytest.raises(ServiceError, match="multiple sweep manifests"):
            SweepManifest.find(tmp_path)
        assert SweepManifest.find(tmp_path, digest=first.digest).digest == first.digest

    def test_build_rejects_empty_grid(self, tmp_path, queue_dataset):
        store = MeasurementStore(tmp_path, shard_size=SHARD)
        with pytest.raises(ServiceError, match="at least one configuration"):
            SweepManifest.build(store, queue_dataset, [])


class TestWorkQueue:
    @pytest.fixture()
    def queue(self, tmp_path, queue_dataset):
        _, manifest = publish(tmp_path, queue_dataset)
        return WorkQueue(tmp_path, manifest, expiry_seconds=30.0)

    def test_claim_is_exclusive(self, queue):
        pair = queue.manifest.pairs[0]
        lease = queue.try_claim(pair, "alice")
        assert lease is not None and not lease.stolen
        assert queue.lease_path(pair).exists()
        assert queue.lease_state(pair) == "leased"
        assert queue.try_claim(pair, "bob") is None

    def test_release_frees_the_pair(self, queue):
        pair = queue.manifest.pairs[0]
        lease = queue.try_claim(pair, "alice")
        queue.release(lease)
        assert queue.lease_state(pair) == "free"
        assert queue.try_claim(pair, "bob") is not None

    def test_orphaned_lease_is_stolen(self, queue):
        # A dead worker's lease: heartbeat far in the past.
        pair = queue.manifest.pairs[0]
        forge_lease(queue, pair, "dead-worker", heartbeat=time.time() - 1000.0)
        assert queue.lease_state(pair) == "orphaned"
        lease = queue.try_claim(pair, "bob")
        assert lease is not None and lease.stolen
        assert queue.lease_state(pair) == "leased"

    def test_live_lease_is_not_stolen(self, queue):
        pair = queue.manifest.pairs[0]
        forge_lease(queue, pair, "alive-worker", heartbeat=time.time())
        assert queue.lease_state(pair) == "leased"
        assert queue.try_claim(pair, "bob") is None

    def test_renew_detects_theft(self, queue):
        pair = queue.manifest.pairs[0]
        lease = queue.try_claim(pair, "alice")
        assert queue.renew(lease) and not lease.lost
        forge_lease(queue, pair, "thief", heartbeat=time.time())
        assert not queue.renew(lease)
        assert lease.lost

    def test_release_never_drops_a_thiefs_lease(self, queue):
        pair = queue.manifest.pairs[0]
        lease = queue.try_claim(pair, "alice")
        forge_lease(queue, pair, "thief", heartbeat=time.time())
        queue.release(lease)
        assert queue.lease_path(pair).exists()  # the thief's claim survives
        assert json.loads(queue.lease_path(pair).read_text())["owner"] == "thief"

    def test_truncated_lease_becomes_stealable_by_age(self, queue):
        # A worker killed inside the non-atomic fallback writer leaves a
        # partial file; it must not wedge the pair forever.
        pair = queue.manifest.pairs[0]
        path = queue.lease_path(pair)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text('{"kind": "pair-le')
        assert queue.lease_state(pair) == "leased"  # fresh: benefit of the doubt
        old = time.time() - 1000.0
        os.utime(path, (old, old))
        assert queue.lease_state(pair) == "orphaned"
        assert queue.try_claim(pair, "bob") is not None

    def test_done_pairs_are_detected_from_shard_files(self, queue, tmp_path):
        pair = queue.manifest.pairs[0]
        assert not queue.is_done(pair)
        queue.store.shard_path(pair.config_name, pair.key).write_bytes(b"placeholder")
        assert queue.is_done(pair)

    def test_rotation_covers_every_pair_once(self, queue):
        pairs = queue.manifest.pairs
        for owner in ("alice", "bob", "carol"):
            rotated = list(iter_pairs_rotated(pairs, owner))
            assert sorted(p.pair_id for p in rotated) == sorted(p.pair_id for p in pairs)
        offsets = {
            iter_pairs_rotated(pairs, owner).__next__().pair_id
            for owner in ("w0", "w1", "w2", "w3", "w4")
        }
        assert len(offsets) > 1  # different owners start at different offsets

    def test_invalid_expiry_rejected(self, tmp_path, queue_dataset):
        _, manifest = publish(tmp_path, queue_dataset)
        with pytest.raises(ServiceError, match="expiry"):
            WorkQueue(tmp_path, manifest, expiry_seconds=0.0)


class TestSweepWorker:
    def test_single_worker_drains_the_manifest(self, tmp_path, queue_dataset, reference):
        _, manifest = publish(tmp_path, queue_dataset)
        worker = SweepWorker(tmp_path, owner="solo", poll_seconds=0.05)
        result = worker.run()
        assert result.pairs_simulated == len(manifest.pairs)
        assert sorted(result.pairs_completed) == sorted(p.pair_id for p in manifest.pairs)
        assert result.models_simulated == len(queue_dataset) * len(CONFIGS)
        assert result.leases_lost == 0
        assert_store_matches_reference(tmp_path, queue_dataset, reference)
        # No lease outlives its pair.
        assert not list((tmp_path / "queue" / manifest.digest).glob("lease-*.json"))

    def test_two_workers_split_without_duplicates(self, tmp_path, queue_dataset, reference):
        _, manifest = publish(tmp_path, queue_dataset)
        first = SweepWorker(tmp_path, owner="w-a", poll_seconds=0.05).run(max_pairs=2)
        assert first.pairs_simulated == 2
        second = SweepWorker(tmp_path, owner="w-b", poll_seconds=0.05).run()
        assert second.pairs_simulated == len(manifest.pairs) - 2
        completed = first.pairs_completed + second.pairs_completed
        assert len(completed) == len(set(completed)) == len(manifest.pairs)
        assert_store_matches_reference(tmp_path, queue_dataset, reference)

    def test_extend_after_a_worker_drain_loads_every_pair(
        self, tmp_path, queue_dataset, reference
    ):
        # The multi-core sweep: workers drain the manifest, then one extend on
        # a fresh store object assembles the result without simulating.
        _, manifest = publish(tmp_path, queue_dataset)
        half = len(manifest.pairs) // 2
        first = SweepWorker(tmp_path, owner="core-0", poll_seconds=0.05).run(max_pairs=half)
        second = SweepWorker(tmp_path, owner="core-1", poll_seconds=0.05).run()
        assert (first.pairs_simulated, second.pairs_simulated) == (
            half,
            len(manifest.pairs) - half,
        )
        store = MeasurementStore(tmp_path, shard_size=SHARD)
        ticks = []
        measurements = store.extend(
            queue_dataset,
            configs=CONFIGS,
            progress_callback=lambda name, done, total: ticks.append((name, done, total)),
        )
        assert store.stats.pairs_simulated == 0
        assert store.stats.pairs_loaded == len(manifest.pairs)
        for name in CONFIGS:
            counts = [done for tick_name, done, _ in ticks if tick_name == name]
            assert counts == sorted(counts)
            assert counts[-1] == len(queue_dataset)
            assert measurements.latencies(name).tobytes() == reference.latencies(name).tobytes()
            assert measurements.energies(name).tobytes() == reference.energies(name).tobytes()

    def test_worker_steals_a_dead_peers_lease(self, tmp_path, queue_dataset, reference):
        _, manifest = publish(tmp_path, queue_dataset)
        queue = WorkQueue(tmp_path, manifest, expiry_seconds=30.0)
        forge_lease(queue, manifest.pairs[0], "kill-niner", heartbeat=time.time() - 1000.0)
        result = SweepWorker(tmp_path, owner="survivor", poll_seconds=0.05).run()
        assert result.pairs_simulated == len(manifest.pairs)
        assert result.leases_stolen == 1
        assert_store_matches_reference(tmp_path, queue_dataset, reference)

    def test_done_pairs_are_never_resimulated(self, tmp_path, queue_dataset):
        # Crash *after the write, before the release*: the shard file exists
        # and a stale lease remains.  The next worker must skip the pair.
        _, manifest = publish(tmp_path, queue_dataset)
        SweepWorker(tmp_path, owner="first", poll_seconds=0.05).run(max_pairs=1)
        queue = WorkQueue(tmp_path, manifest, expiry_seconds=30.0)
        done = [pair for pair in manifest.pairs if queue.is_done(pair)]
        assert len(done) == 1
        forge_lease(queue, done[0], "first", heartbeat=time.time() - 1000.0)
        result = SweepWorker(tmp_path, owner="second", poll_seconds=0.05).run()
        assert result.pairs_simulated == len(manifest.pairs) - 1
        assert result.leases_stolen == 0

    def test_max_pairs_zero_claims_nothing(self, tmp_path, queue_dataset):
        _, manifest = publish(tmp_path, queue_dataset)
        result = SweepWorker(tmp_path, owner="idle", poll_seconds=0.05).run(max_pairs=0)
        assert result.pairs_simulated == 0 and result.pairs_completed == []
        queue = WorkQueue(tmp_path, manifest)
        assert not any(queue.is_done(pair) for pair in manifest.pairs)
        assert not list(queue.queue_dir.glob("lease-*.json"))
        assert [report["owner"] for report in queue.worker_reports()] == ["idle"]

    def test_negative_max_pairs_is_refused(self, tmp_path, queue_dataset):
        _, manifest = publish(tmp_path, queue_dataset)
        with pytest.raises(ServiceError, match="max_pairs must be non-negative"):
            SweepWorker(tmp_path, owner="negative", poll_seconds=0.05).run(max_pairs=-1)
        queue = WorkQueue(tmp_path, manifest)
        assert not any(queue.is_done(pair) for pair in manifest.pairs)

    def test_manifest_naming_a_grid_strategy_still_drains(self, tmp_path, queue_dataset, reference):
        # Manifests written while the grid kernel was selectable carry
        # "strategy": "fused".  The key is outside the digest, so the file
        # name is unchanged, and a worker must drain it like any other.
        _, manifest = publish(tmp_path, queue_dataset)
        path = tmp_path / f"manifest-{manifest.digest}.json"
        payload = json.loads(path.read_text())
        assert "strategy" not in payload
        payload["strategy"] = "fused"
        path.write_text(json.dumps(payload))
        assert SweepManifest.find(tmp_path).digest == manifest.digest
        result = SweepWorker(tmp_path, owner="older", poll_seconds=0.05).run()
        assert result.pairs_simulated == len(manifest.pairs)
        assert_store_matches_reference(tmp_path, queue_dataset, reference)

    def test_traced_drain_merges_to_exact_fleet_counts(
        self, tmp_path, queue_dataset, reference
    ):
        """A traced drain yields a merged fleet view whose counters match the
        queue accounting exactly, with byte-identical numerical results."""
        _, manifest = publish(tmp_path, queue_dataset)
        traces = tmp_path / "traces"
        with obs.capture(traces):
            SweepWorker(tmp_path, owner="t-a", poll_seconds=0.05).run(max_pairs=2)
            SweepWorker(tmp_path, owner="t-b", poll_seconds=0.05).run()
        assert_store_matches_reference(tmp_path, queue_dataset, reference)

        merged = obs.trace_summary(traces)
        assert merged.counters["worker.pairs_simulated"] == len(manifest.pairs)
        assert merged.counters["worker.models_simulated"] == (
            len(queue_dataset) * len(CONFIGS)
        )
        assert merged.spans["worker.pair"].count == len(manifest.pairs)
        assert merged.histograms["worker.pair_ms"].count == len(manifest.pairs)
        assert merged.counters.get("worker.leases_lost", 0) == 0

        # Worker reports fold the telemetry stream in, and the coordinator
        # surfaces it per worker.
        coordinator = SweepCoordinator(tmp_path, manifest=manifest)
        progress = coordinator.progress()
        assert progress.workers and all(worker.trace for worker in progress.workers)

        # Loading the drained store back counts exactly what StoreStats says.
        with obs.capture(tmp_path / "traces-load") as tracer:
            warm = MeasurementStore(tmp_path, shard_size=SHARD)
            warm.load(queue_dataset, configs=CONFIGS)
        assert warm.stats.pairs_loaded == len(manifest.pairs)
        assert tracer.metrics.counter_value("store.pairs_loaded") == (
            warm.stats.pairs_loaded
        )
        assert tracer.metrics.counter_value("store.models_loaded") == (
            warm.stats.models_loaded
        )


class TestCompactedSweep:
    """A pair is done for the queue iff the store holds it, loose or compacted."""

    ALL = ("V1", "V2", "V3")

    @pytest.fixture(scope="class")
    def population(self):
        return NASBenchDataset.generate(num_models=30, seed=13)

    @settings(max_examples=20, deadline=None)
    @given(
        models=st.integers(min_value=1, max_value=30),
        shard_size=st.integers(min_value=1, max_value=12),
        configs=st.lists(st.sampled_from(ALL), min_size=1, max_size=3, unique=True),
    )
    def test_done_pairs_are_the_stored_pairs(self, population, models, shard_size, configs):
        dataset = NASBenchDataset(population.records[:models], population.network_config)
        with tempfile.TemporaryDirectory() as root:
            store = MeasurementStore(root, shard_size=shard_size)
            manifest = store.publish_manifest(dataset, configs=self.ALL)

            def assert_done_means_stored():
                queue = WorkQueue(root, manifest)
                done = {pair for pair in manifest.pairs if queue.is_done(pair)}
                missing = set(store.missing_pairs(dataset, configs=self.ALL))
                stored = {
                    pair
                    for pair in manifest.pairs
                    if (pair.shard_index, pair.config_name) not in missing
                }
                assert done == stored

            store.extend(dataset, configs=configs)
            assert_done_means_stored()
            store.compact(dataset, configs=configs)
            assert_done_means_stored()
            store.extend(dataset, configs=self.ALL)
            assert_done_means_stored()

    def test_status_cli_and_a_worker_see_a_finished_compacted_sweep(
        self, tmp_path, queue_dataset
    ):
        store = MeasurementStore(tmp_path, shard_size=SHARD)
        store.extend(queue_dataset, configs=CONFIGS)
        store.compact(queue_dataset, configs=CONFIGS)
        manifest = store.publish_manifest(queue_dataset, configs=CONFIGS)
        status = subprocess.run(
            [sys.executable, "-m", "repro.service.queue", str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert status.returncode == 0, status.stdout + status.stderr
        total = len(manifest.pairs)
        assert f"{total}/{total} done" in status.stdout
        result = SweepWorker(tmp_path, owner="late", poll_seconds=0.05).run()
        assert result.pairs_simulated == 0


class TestAtomicWrites:
    """A write that fails at its rename removes its temp file and names its target."""

    @staticmethod
    def fail_replace(monkeypatch, suffix):
        """Make every ``Path.replace`` onto a *suffix* file fail as a full disk would."""
        replace = Path.replace

        def failing(self, target):
            if Path(target).suffix == suffix:
                raise OSError(errno.ENOSPC, "No space left on device")
            return replace(self, target)

        monkeypatch.setattr(Path, "replace", failing)

    @staticmethod
    def assert_no_temp_file(root):
        assert [path.name for path in Path(root).rglob("*") if ".tmp-" in path.name] == []

    def test_pair_write(self, tmp_path, queue_dataset, monkeypatch):
        store = MeasurementStore(tmp_path, shard_size=SHARD)
        self.fail_replace(monkeypatch, ".npz")
        with pytest.raises(ServiceError, match=r"shard-V1-[0-9a-f]{16}\.npz"):
            store.extend(queue_dataset, configs=("V1",))
        self.assert_no_temp_file(tmp_path)

    def test_compacted_index_write(self, tmp_path, queue_dataset, monkeypatch):
        store = MeasurementStore(tmp_path, shard_size=SHARD)
        store.extend(queue_dataset, configs=CONFIGS)
        self.fail_replace(monkeypatch, ".json")
        with pytest.raises(ServiceError, match=r"shard-compact-[0-9a-f]{16}\.json"):
            store.compact(queue_dataset, configs=CONFIGS)
        self.assert_no_temp_file(tmp_path)

    def test_lease_write(self, tmp_path, queue_dataset, monkeypatch):
        _, manifest = publish(tmp_path, queue_dataset)
        queue = WorkQueue(tmp_path, manifest)
        lease = queue.try_claim(manifest.pairs[0], "alice")
        self.fail_replace(monkeypatch, ".json")
        with pytest.raises(ServiceError, match=queue.lease_path(lease.pair).name):
            queue.renew(lease)
        self.assert_no_temp_file(tmp_path)


class TestMacroManifest:
    """Macro sweeps round-trip through the manifest and rebuild standalone."""

    @pytest.fixture(scope="class")
    def macro_dataset(self):
        rng = np.random.default_rng(23)
        return NASBenchDataset.from_macros([random_macro(rng) for _ in range(8)])

    def test_shard_archs_round_trip_the_macro_specs(self, tmp_path, macro_dataset):
        _, manifest = publish(tmp_path, macro_dataset, shard_size=4)
        rebuilt = [
            arch
            for shard_index in range(manifest.num_shards)
            for arch in manifest.shard_archs(shard_index)
        ]
        assert all(isinstance(arch, MacroSpec) for arch in rebuilt)
        assert [arch.fingerprint for arch in rebuilt] == [
            record.fingerprint for record in macro_dataset
        ]

    def test_worker_rebuilds_macros_bit_identically(self, tmp_path, macro_dataset):
        reference = BatchSimulator().evaluate(
            macro_dataset, configs=[get_config(name) for name in CONFIGS]
        )
        publish(tmp_path, macro_dataset, shard_size=4)
        result = SweepWorker(tmp_path, owner="macro-solo", poll_seconds=0.05).run()
        assert result.models_simulated == len(macro_dataset) * len(CONFIGS)
        assert_store_matches_reference(
            tmp_path, macro_dataset, reference, shard_size=4
        )

    def test_legacy_manifests_without_archs_still_load(self, tmp_path, queue_dataset):
        # Manifests written before the macro release only carry "cells";
        # shard_archs must fall back to them.
        _, manifest = publish(tmp_path, queue_dataset)
        for index, shard in enumerate(manifest._payload["shards"]):
            records = queue_dataset.records[index * SHARD : (index + 1) * SHARD]
            shard["cells"] = [record.cell.to_dict() for record in records]
            del shard["archs"]
        archs = manifest.shard_archs(0)
        assert [arch.to_dict() for arch in archs] == [
            record.cell.to_dict() for record in queue_dataset.records[:SHARD]
        ]


class TestSweepCoordinator:
    def test_progress_counts_every_state(self, tmp_path, queue_dataset):
        _, manifest = publish(tmp_path, queue_dataset)
        coordinator = SweepCoordinator(tmp_path, manifest=manifest)
        fresh = coordinator.progress()
        assert fresh.pairs_total == len(manifest.pairs)
        assert fresh.pairs_done == fresh.pairs_leased == fresh.pairs_orphaned == 0
        assert not fresh.complete

        queue = coordinator.queue
        queue.try_claim(manifest.pairs[0], "alice")
        forge_lease(queue, manifest.pairs[1], "dead", heartbeat=time.time() - 1000.0)
        SweepWorker(tmp_path, owner="w", poll_seconds=0.05).run(max_pairs=1)
        progress = coordinator.progress()
        assert progress.pairs_done == 1
        assert progress.pairs_leased == 1
        assert progress.pairs_orphaned == 1
        assert progress.pairs_remaining == len(manifest.pairs) - 1
        assert any(worker.owner == "w" for worker in progress.workers)
        assert "orphaned" in progress.summary()

    def test_completion_and_wait(self, tmp_path, queue_dataset):
        _, manifest = publish(tmp_path, queue_dataset)
        coordinator = SweepCoordinator(tmp_path, manifest=manifest)
        assert not coordinator.is_complete()
        assert not coordinator.wait(timeout=0.05, poll_seconds=0.01)
        SweepWorker(tmp_path, owner="w", poll_seconds=0.05).run()
        assert coordinator.is_complete()
        assert coordinator.wait(timeout=0.05, poll_seconds=0.01)
        assert coordinator.progress().complete


class TestMultiprocessDrain:
    """The acceptance scenario: three worker processes, one killed mid-sweep."""

    def worker_command(self, root, owner):
        return [
            sys.executable, "-m", "repro.service.worker", str(root),
            "--owner", owner, "--expiry", "1.0",
            "--throttle", "0.2", "--poll-interval", "0.1",
        ]

    def test_three_workers_survive_a_kill_dash_nine(self, tmp_path):
        dataset = NASBenchDataset.generate(num_models=24, seed=11)
        store = MeasurementStore(tmp_path, shard_size=4)
        manifest = store.publish_manifest(dataset, configs=CONFIGS)
        assert len(manifest.pairs) == 12

        traces = tmp_path / "traces"
        env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_TRACE=str(traces))
        procs = [
            subprocess.Popen(
                self.worker_command(tmp_path, f"w{index}"),
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for index in range(3)
        ]
        victim, survivors = procs[0], procs[1:]
        try:
            # Wait until the victim is actually draining (its report exists),
            # then give it time to be genuinely mid-pair before the SIGKILL.
            report = tmp_path / "queue" / manifest.digest / "worker-w0.json"
            deadline = time.monotonic() + 60.0
            while not report.exists() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert report.exists(), "victim worker never started draining"
            time.sleep(0.5)
            victim.kill()  # SIGKILL: no cleanup, no lease release
            victim.wait(timeout=30)

            for proc in survivors:
                stdout, stderr = proc.communicate(timeout=120)
                assert proc.returncode == 0, f"worker failed:\n{stdout}\n{stderr}"
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.communicate()

        coordinator = SweepCoordinator(tmp_path, manifest=manifest)
        assert coordinator.is_complete()
        progress = coordinator.progress()
        assert progress.pairs_done == len(manifest.pairs)

        # Byte-identical to the direct single-process sweep.
        reference = BatchSimulator().evaluate(
            dataset, configs=[get_config(name) for name in CONFIGS]
        )
        assert_store_matches_reference(tmp_path, dataset, reference, shard_size=4)

        # Zero duplicate completions recorded across the fleet; every pair is
        # accounted for except, at most, the single pair the victim was killed
        # between writing and recording.
        recorded = [
            pair_id
            for worker_report in coordinator.queue.worker_reports()
            for pair_id in worker_report["completed"]
        ]
        assert len(recorded) == len(set(recorded)), "a pair was recorded twice"
        pair_ids = {pair.pair_id for pair in manifest.pairs}
        assert set(recorded) <= pair_ids
        assert len(recorded) >= len(pair_ids) - 1

        # The status CLI agrees and exits 0 on a complete sweep.
        status = subprocess.run(
            [sys.executable, "-m", "repro.service.queue", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert status.returncode == 0, status.stderr
        assert "12/12" in status.stdout

        # Every worker process left a per-process JSONL trace behind, and the
        # fleet-merge CLI folds them into one summary.  The SIGKILL can lose at
        # most the victim's final unflushed snapshot, so the merged counters
        # must cover all but one completed pair (re-simulated stolen pairs may
        # push the total above pairs_done).
        trace_files = sorted(traces.glob("trace-*.jsonl"))
        assert len(trace_files) >= 2, "survivors did not write traces"
        fleet = subprocess.run(
            [sys.executable, "-m", "repro.obs", str(traces), "--json"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert fleet.returncode == 0, fleet.stderr
        summary = json.loads(fleet.stdout)
        simulated = summary["counters"].get("worker.pairs_simulated", 0)
        assert simulated >= progress.pairs_done - 1
        claims = summary["events"].get("queue.claim", 0)
        steals = summary["events"].get("queue.steal", 0)
        assert claims + steals >= simulated
        assert summary["files"] == len(trace_files)
