"""Tests of the resumable measurement store and the sweep query service."""

from __future__ import annotations

import gc
import shutil
import tempfile
import warnings
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import pareto_front_indices
from repro.core import LearnedPerformanceModel, TrainingSettings
from repro.errors import DatasetError, ServiceError
from repro.nasbench import NASBenchDataset, sample_unique_cells
from repro.service import (
    MeasurementStore,
    MetricRequest,
    ParetoRequest,
    SweepService,
    TopKRequest,
)
from repro.service import store as store_module
from repro.simulator import BatchSimulator

SHARD = 16
CONFIGS = ("V1", "V2", "V3")


@pytest.fixture(scope="module")
def store_dataset():
    """A population of 60 models → four shards of 16/16/16/12 at SHARD=16."""
    return NASBenchDataset.generate(num_models=60, seed=31)


@pytest.fixture(scope="module")
def direct_measurements(store_dataset):
    """Reference sweep straight through the batch engine (no store)."""
    return BatchSimulator().evaluate(store_dataset)


def make_store(root, **overrides) -> MeasurementStore:
    options = dict(shard_size=SHARD)
    options.update(overrides)
    return MeasurementStore(root, **options)


def assert_matches_reference(measurements, reference, configs=CONFIGS):
    for name in configs:
        np.testing.assert_allclose(
            measurements.latencies(name), reference.latencies(name), rtol=1e-9
        )
        np.testing.assert_allclose(measurements.energies(name), reference.energies(name), rtol=1e-9)


def assert_identical(measurements, reference, configs=CONFIGS):
    """Bit-identical latencies and energies (aligned NaNs count as equal)."""
    assert measurements.config_names == list(configs)
    for name in configs:
        np.testing.assert_array_equal(measurements.latencies(name), reference.latencies(name))
        np.testing.assert_array_equal(measurements.energies(name), reference.energies(name))


class TestMeasurementStore:
    def test_cold_sweep_simulates_every_pair(self, tmp_path, store_dataset, direct_measurements):
        store = make_store(tmp_path)
        measurements = store.extend(store_dataset, configs=CONFIGS)
        n_shards = len(store.shard_ranges(len(store_dataset)))
        assert n_shards == 4
        assert store.stats.pairs_simulated == n_shards * len(CONFIGS)
        assert store.stats.pairs_loaded == 0
        assert store.stats.models_simulated == len(store_dataset) * len(CONFIGS)
        assert_matches_reference(measurements, direct_measurements)

    def test_warm_store_serves_without_simulation(
        self, tmp_path, store_dataset, direct_measurements
    ):
        make_store(tmp_path).extend(store_dataset, configs=CONFIGS)
        warm = make_store(tmp_path)
        measurements = warm.extend(store_dataset, configs=CONFIGS)
        assert warm.stats.pairs_simulated == 0
        assert warm.stats.pairs_loaded == 4 * len(CONFIGS)
        assert_matches_reference(measurements, direct_measurements)

    def test_interrupted_sweep_resumes_with_exactly_missing_shards(
        self, tmp_path, store_dataset, direct_measurements
    ):
        # BaseException, not Exception: progress callbacks are non-fatal by
        # design (obs.guarded_progress swallows ordinary exceptions), so the
        # interruption is modeled the way real ones arrive — KeyboardInterrupt
        # / SIGTERM — which the guard deliberately lets propagate.
        class Interrupted(BaseException):
            pass

        store = make_store(tmp_path)
        completed_shards = 0

        def interrupt_after_two_shards(config_name, done, total):
            nonlocal completed_shards
            if config_name == CONFIGS[-1]:  # last config of the shard ticked
                completed_shards += 1
                if completed_shards == 2:
                    raise Interrupted

        with pytest.raises(Interrupted):
            store.extend(
                store_dataset, configs=CONFIGS,
                progress_callback=interrupt_after_two_shards,
            )
        assert store.stats.pairs_simulated == 2 * len(CONFIGS)

        # The acceptance criterion: k of n shards done, the re-run completes
        # with exactly (n - k) shard simulations per configuration.
        resumed = make_store(tmp_path)
        measurements = resumed.extend(store_dataset, configs=CONFIGS)
        assert resumed.stats.pairs_simulated == (4 - 2) * len(CONFIGS)
        assert resumed.stats.pairs_loaded == 2 * len(CONFIGS)
        assert_matches_reference(measurements, direct_measurements)

    def test_extend_with_new_config_simulates_only_that_config(
        self, tmp_path, store_dataset, direct_measurements
    ):
        make_store(tmp_path).extend(store_dataset, configs=("V1",))
        store = make_store(tmp_path)
        measurements = store.extend(store_dataset, configs=("V1", "V2"))
        assert store.stats.pairs_loaded == 4  # every V1 shard
        assert store.stats.pairs_simulated == 4  # every V2 shard
        assert_matches_reference(measurements, direct_measurements, configs=("V1", "V2"))

    def test_extend_with_new_cells_keeps_full_prefix_shards(
        self, tmp_path, store_dataset, direct_measurements
    ):
        # Shards are keyed by cell-fingerprint content, so sweeping a prefix
        # population produces exactly the files the grown population reuses.
        prefix = NASBenchDataset(store_dataset.records[: 2 * SHARD], store_dataset.network_config)
        make_store(tmp_path).extend(prefix, configs=("V1",))
        store = make_store(tmp_path)
        measurements = store.extend(store_dataset, configs=("V1",))
        assert store.stats.pairs_loaded == 2
        assert store.stats.pairs_simulated == 2
        np.testing.assert_allclose(
            measurements.latencies("V1"), direct_measurements.latencies("V1"), rtol=1e-9
        )

    def test_load_refuses_cold_store(self, tmp_path, store_dataset):
        with pytest.raises(ServiceError, match="missing"):
            make_store(tmp_path).load(store_dataset, configs=CONFIGS)

    def test_missing_pairs_and_available_configs(self, tmp_path, store_dataset):
        store = make_store(tmp_path)
        assert store.available_configs() == []
        assert len(store.missing_pairs(store_dataset, configs=CONFIGS)) == 4 * 3
        store.extend(store_dataset, configs=("V2",))
        assert store.available_configs() == ["V2"]
        missing = store.missing_pairs(store_dataset, configs=CONFIGS)
        assert len(missing) == 8
        assert all(name in ("V1", "V3") for _, name in missing)

    def test_read_paths_resolve_names_like_the_write_path(self, tmp_path, store_dataset):
        # extend simulates "v1" as V1; every read path must find those pairs.
        written = make_store(tmp_path).extend(store_dataset, configs=["v1"])
        assert written.config_names == ["V1"]
        assert make_store(tmp_path).missing_pairs(store_dataset, configs=["v1"]) == []
        assert_identical(make_store(tmp_path).load(store_dataset, configs=["v1"]), written, ("V1",))
        assert make_store(tmp_path).compact(store_dataset, configs=["v1"]).pairs == 4
        assert_identical(make_store(tmp_path).load(store_dataset, configs=["v1"]), written, ("V1",))

    def test_corrupt_shard_degrades_to_resimulation(self, tmp_path, store_dataset):
        make_store(tmp_path).extend(store_dataset, configs=("V1",))
        victim = sorted(tmp_path.glob("shard-V1-*.npz"))[0]
        victim.write_bytes(victim.read_bytes()[:40])
        store = make_store(tmp_path)
        store.extend(store_dataset, configs=("V1",))
        assert store.stats.pairs_simulated == 1
        assert store.stats.pairs_loaded == 3

    def test_corrupt_shard_is_quarantined_not_reread(self, tmp_path, store_dataset):
        # Regression: a truncated npz used to stay at its final name, so every
        # reader re-parsed (and re-failed on) the same broken bytes.  read_npz
        # must move it aside so the miss is durable and the rewrite is clean.
        make_store(tmp_path).extend(store_dataset, configs=("V1",))
        victim = sorted(tmp_path.glob("shard-V1-*.npz"))[0]
        victim.write_bytes(victim.read_bytes()[:40])
        store = make_store(tmp_path)
        store.extend(store_dataset, configs=("V1",))
        quarantined = victim.with_name(victim.name + ".corrupt")
        assert quarantined.exists()
        assert len(quarantined.read_bytes()) == 40  # the broken bytes, moved aside
        assert victim.exists()  # re-simulated and re-published at the real name
        clean = make_store(tmp_path)
        clean.extend(store_dataset, configs=("V1",))
        assert clean.stats.pairs_simulated == 0

    def test_corrupt_npz_read_closes_its_file(self, tmp_path):
        path = store_module.write_npz(tmp_path / "pair.npz", {"values": np.arange(64.0)})
        path.write_bytes(path.read_bytes()[:40])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert store_module.read_npz(path) is None
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_colliding_keys_never_mislabel(
        self, tmp_path, store_dataset, direct_measurements, monkeypatch
    ):
        # Every read path re-checks the stored fingerprints, the copy a store
        # keeps of its own writes included: with every shard of a config
        # forced onto one key, each shard must miss and be simulated afresh.
        monkeypatch.setattr(
            MeasurementStore, "shard_key", lambda self, fingerprints, config_name: "0" * 16
        )
        store = make_store(tmp_path)
        assert_identical(store.extend(store_dataset, configs=CONFIGS), direct_measurements)
        assert store.stats.pairs_simulated == 4 * len(CONFIGS)
        assert store.stats.pairs_loaded == 0

    def test_pair_files_are_stored_uncompressed(self, tmp_path, store_dataset):
        make_store(tmp_path).extend(store_dataset, configs=("V1",))
        for path in tmp_path.glob("shard-V1-*.npz"):
            with zipfile.ZipFile(path) as archive:
                assert {info.compress_type for info in archive.infolist()} == {zipfile.ZIP_STORED}

    def test_parameter_caching_mode_is_part_of_the_key(self, tmp_path, store_dataset):
        make_store(tmp_path).extend(store_dataset, configs=("V1",))
        other_mode = make_store(tmp_path, enable_parameter_caching=False)
        other_mode.extend(store_dataset, configs=("V1",))
        assert other_mode.stats.pairs_loaded == 0
        assert other_mode.stats.pairs_simulated == 4

    def test_invalid_arguments_rejected(self, tmp_path, store_dataset):
        with pytest.raises(ServiceError):
            MeasurementStore(tmp_path, shard_size=0)
        with pytest.raises(ServiceError):
            make_store(tmp_path).extend(store_dataset, configs=())


class TestCompaction:
    def warm_store(self, root, dataset, configs=CONFIGS):
        make_store(root).extend(dataset, configs=configs)
        return make_store(root)

    def test_compact_produces_one_mmapped_file(self, tmp_path, store_dataset):
        store = self.warm_store(tmp_path, store_dataset)
        result = store.compact(store_dataset, configs=CONFIGS)
        assert result.pairs == 4 * len(CONFIGS)
        assert result.rows == len(store_dataset) * len(CONFIGS)
        assert result.loose_removed == 4 * len(CONFIGS)
        assert result.data_path.exists() and result.index_path.exists()
        assert not list(tmp_path.glob("shard-V*-*.npz"))  # loose files merged away
        data = np.load(result.data_path, mmap_mode="r")
        assert data.shape == (2, result.rows)

    def test_compacted_load_is_byte_identical(self, tmp_path, store_dataset, direct_measurements):
        store = self.warm_store(tmp_path, store_dataset)
        loose = store.load(store_dataset, configs=CONFIGS)
        store.compact(store_dataset, configs=CONFIGS)
        compacted_store = make_store(tmp_path)
        compacted = compacted_store.load(store_dataset, configs=CONFIGS)
        for name in CONFIGS:
            np.testing.assert_array_equal(compacted.latencies(name), loose.latencies(name))
            np.testing.assert_array_equal(compacted.energies(name), loose.energies(name))
            # V3 energies are NaN throughout; array_equal treats aligned NaNs
            # as equal, so the no-energy-model marker survives compaction.
            np.testing.assert_array_equal(
                compacted.latencies(name), direct_measurements.latencies(name)
            )
        stats = compacted_store.stats
        assert stats.pairs_loaded == 4 * len(CONFIGS)
        assert stats.pairs_compacted == 4 * len(CONFIGS)  # every pair via the mmap
        assert stats.pairs_simulated == 0

    def test_compact_refuses_an_unfinished_sweep(self, tmp_path, store_dataset):
        store = self.warm_store(tmp_path, store_dataset, configs=("V1",))
        with pytest.raises(ServiceError, match="finished sweep"):
            store.compact(store_dataset, configs=CONFIGS)

    def test_extend_after_compaction_appends_loose_files(
        self, tmp_path, store_dataset, direct_measurements
    ):
        store = self.warm_store(tmp_path, store_dataset, configs=("V1", "V2"))
        store.compact(store_dataset, configs=("V1", "V2"))
        grown = make_store(tmp_path)
        measurements = grown.extend(store_dataset, configs=CONFIGS)
        assert grown.stats.pairs_compacted == 8  # V1/V2 from the mmap
        assert grown.stats.pairs_simulated == 4  # V3 simulated fresh
        assert sorted(path.name for path in tmp_path.glob("shard-*.npz")) == sorted(
            path.name for path in tmp_path.glob("shard-V3-*.npz")
        )
        assert_matches_reference(measurements, direct_measurements)

    def test_recompaction_folds_loose_files_in(self, tmp_path, store_dataset):
        store = self.warm_store(tmp_path, store_dataset, configs=("V1", "V2"))
        first = store.compact(store_dataset, configs=("V1", "V2"))
        grown = make_store(tmp_path)
        grown.extend(store_dataset, configs=CONFIGS)
        second = grown.compact(store_dataset, configs=CONFIGS)
        assert second.pairs == 4 * len(CONFIGS)
        assert not first.data_path.exists()  # superseded generation removed
        assert not list(tmp_path.glob("shard-V*-*.npz"))
        assert sorted(tmp_path.glob("shard-compact-*.npy")) == [second.data_path]
        final = make_store(tmp_path)
        final.load(store_dataset, configs=CONFIGS)
        assert final.stats.pairs_compacted == 4 * len(CONFIGS)

    def test_fully_compacted_store_reports_its_configs(self, tmp_path, store_dataset):
        store = self.warm_store(tmp_path, store_dataset)
        store.compact(store_dataset, configs=CONFIGS)
        assert make_store(tmp_path).available_configs() == sorted(CONFIGS)
        missing = make_store(tmp_path).missing_pairs(store_dataset, configs=CONFIGS)
        assert missing == []

    def test_parameter_caching_mode_isolates_compacted_files(self, tmp_path, store_dataset):
        store = self.warm_store(tmp_path, store_dataset, configs=("V1",))
        store.compact(store_dataset, configs=("V1",))
        other_mode = make_store(tmp_path, enable_parameter_caching=False)
        assert other_mode.missing_pairs(store_dataset, configs=("V1",)) != []

    def test_compaction_from_memory_matches_compaction_from_files(
        self, tmp_path, store_dataset, monkeypatch
    ):
        # The object that wrote the pairs compacts them from memory; a fresh
        # object compacts the same loose files from disk.  The bytes match.
        writer_root, reader_root = tmp_path / "writer", tmp_path / "reader"
        writer = make_store(writer_root)
        swept = writer.extend(store_dataset, configs=CONFIGS)
        shutil.copytree(writer_root, reader_root)
        files_read = []
        read_npz = store_module.read_npz

        def counting_read(path):
            stored = read_npz(path)
            if stored is not None:
                files_read.append(path)
            return stored

        monkeypatch.setattr(store_module, "read_npz", counting_read)
        from_memory = writer.compact(store_dataset, configs=CONFIGS)
        assert files_read == []  # no read-back of the writer's own files
        from_files = make_store(reader_root).compact(store_dataset, configs=CONFIGS)
        assert len(files_read) == 4 * len(CONFIGS)
        assert from_memory.data_path.name == from_files.data_path.name
        assert from_memory.data_path.read_bytes() == from_files.data_path.read_bytes()
        assert from_memory.index_path.read_bytes() == from_files.index_path.read_bytes()
        for root in (writer_root, reader_root):
            assert_identical(make_store(root).load(store_dataset, configs=CONFIGS), swept)

    def test_compressed_pair_files_load_and_compact(
        self, tmp_path, store_dataset, direct_measurements
    ):
        # Pair files used to be deflated (np.savez_compressed); stores
        # written that way keep loading as hits and compact as before.
        store = make_store(tmp_path)
        for start, stop in store.shard_ranges(len(store_dataset)):
            prints = [record.fingerprint for record in store_dataset.records[start:stop]]
            for name in CONFIGS:
                path = store.shard_path(name, store.shard_key(prints, name))
                np.savez_compressed(
                    path,
                    fingerprints=np.asarray(prints),
                    latency=direct_measurements.latencies(name)[start:stop],
                    energy=direct_measurements.energies(name)[start:stop],
                )
                with zipfile.ZipFile(path) as archive:
                    assert archive.infolist()[0].compress_type == zipfile.ZIP_DEFLATED
        loaded = make_store(tmp_path)
        assert_identical(loaded.extend(store_dataset, configs=CONFIGS), direct_measurements)
        assert loaded.stats.pairs_simulated == 0
        assert loaded.stats.pairs_loaded == 4 * len(CONFIGS)
        assert loaded.compact(store_dataset, configs=CONFIGS).pairs == 4 * len(CONFIGS)
        compacted = make_store(tmp_path)
        assert_identical(compacted.load(store_dataset, configs=CONFIGS), direct_measurements)
        assert compacted.stats.pairs_compacted == 4 * len(CONFIGS)

    def test_caller_mutation_does_not_reach_compaction(
        self, tmp_path, store_dataset, direct_measurements
    ):
        # The store holds its own copy of each pair it wrote: the arrays that
        # extend() returns belong to the caller.
        store = make_store(tmp_path)
        swept = store.extend(store_dataset, configs=CONFIGS)
        for name in CONFIGS:
            swept.latencies(name)[:] = -1.0
            swept.energies(name)[:] = -1.0
        store.compact(store_dataset, configs=CONFIGS)
        reloaded = make_store(tmp_path).load(store_dataset, configs=CONFIGS)
        assert_identical(reloaded, direct_measurements)

    def test_compacted_rows_are_copies_not_mmap_views(self, tmp_path, store_dataset):
        # Callers mutate measurement arrays (analysis normalizes in place);
        # handing out read-only mmap slices would crash them.
        store = self.warm_store(tmp_path, store_dataset, configs=("V1",))
        store.compact(store_dataset, configs=("V1",))
        loaded = make_store(tmp_path).load(store_dataset, configs=("V1",))
        latencies = loaded.latencies("V1")
        latencies[0] = -1.0  # must not raise (and must not touch the file)
        again = make_store(tmp_path).load(store_dataset, configs=("V1",))
        assert again.latencies("V1")[0] != -1.0


class TestStoreRoundTrip:
    """write → load → compact → load reproduces the in-memory sweep exactly."""

    @settings(max_examples=25, deadline=None)
    @given(
        models=st.integers(min_value=1, max_value=40),
        shard_size=st.integers(min_value=1, max_value=16),
        configs=st.lists(st.sampled_from(CONFIGS), min_size=1, max_size=3, unique=True),
        writer_compacts=st.booleans(),
    )
    def test_round_trip_is_bit_identical(
        self, store_dataset, models, shard_size, configs, writer_compacts
    ):
        dataset = NASBenchDataset(store_dataset.records[:models], store_dataset.network_config)
        with tempfile.TemporaryDirectory() as root:
            writer = make_store(root, shard_size=shard_size)
            swept = writer.extend(dataset, configs=configs)
            pairs = len(writer.shard_ranges(models)) * len(configs)
            assert writer.stats.pairs_simulated == pairs
            loose = make_store(root, shard_size=shard_size).load(dataset, configs=configs)
            assert_identical(loose, swept, configs)

            compactor = writer if writer_compacts else make_store(root, shard_size=shard_size)
            assert compactor.compact(dataset, configs=configs).pairs == pairs
            reader = make_store(root, shard_size=shard_size)
            assert_identical(reader.load(dataset, configs=configs), swept, configs)
            assert reader.stats.pairs_compacted == pairs

            fresh = make_store(root, shard_size=shard_size)
            assert fresh.missing_pairs(dataset, configs=configs) == []
            assert_identical(fresh.extend(dataset, configs=configs), swept, configs)
            assert fresh.stats.pairs_simulated == 0


class TestSweepService:
    @pytest.fixture()
    def warm_root(self, tmp_path, store_dataset):
        make_store(tmp_path).extend(store_dataset, configs=CONFIGS)
        return tmp_path

    @pytest.fixture()
    def no_simulation(self, monkeypatch):
        """Any BatchSimulator kernel invocation fails the test."""

        def forbidden(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("SweepService must not invoke the simulator")

        monkeypatch.setattr(BatchSimulator, "evaluate", forbidden)
        monkeypatch.setattr(BatchSimulator, "evaluate_table_grid", forbidden)

    @pytest.fixture()
    def fits(self, monkeypatch):
        """The configuration name of every learned-model fit, in call order."""
        calls = []
        fit_table = LearnedPerformanceModel.fit_table

        def counting(model, *args, **kwargs):
            calls.append(model.config_name)
            return fit_table(model, *args, **kwargs)

        monkeypatch.setattr(LearnedPerformanceModel, "fit_table", counting)
        return calls

    def test_queries_answered_from_disk_without_simulation(
        self, warm_root, store_dataset, direct_measurements, no_simulation
    ):
        service = SweepService(make_store(warm_root), store_dataset, configs=CONFIGS)
        assert service.config_names == list(CONFIGS)

        top = service.query(TopKRequest(k=3)).result["entries"]
        expected = store_dataset.top_k_by_accuracy(3)
        assert [entry["fingerprint"] for entry in top] == [
            record.fingerprint for record in expected
        ]

        front = service.query(ParetoRequest("V1")).result["points"]
        assert front, "frontier should not be empty"
        latencies = [point["latency_ms"] for point in front]
        accuracies = [point["accuracy"] for point in front]
        assert latencies == sorted(latencies)
        assert accuracies == sorted(accuracies)
        indices = pareto_front_indices(service.measurements, "V1")
        assert [point["model_index"] for point in front] == list(indices)

        record = expected[0]
        latency = service.query(MetricRequest(record.fingerprint, "V2")).result["value"]
        assert latency == pytest.approx(direct_measurements.latency_of(record, "V2"))
        energy = service.query(MetricRequest(record.fingerprint, "V1", "energy")).result["value"]
        assert energy == pytest.approx(direct_measurements.energy_of(record, "V1"))
        energy = service.query(MetricRequest(record.fingerprint, "V3", "energy"))
        assert energy.result["value"] is None

    def test_unknown_fingerprint_and_config_raise(self, warm_root, store_dataset, no_simulation):
        service = SweepService(make_store(warm_root), store_dataset, configs=CONFIGS)
        with pytest.raises(DatasetError):
            service.query(MetricRequest("not-a-fingerprint", "V1"))
        with pytest.raises(ServiceError, match="not served"):
            service.query(MetricRequest(store_dataset[0].fingerprint, "V9"))

    def test_cold_store_is_an_error_not_a_sweep(self, tmp_path, store_dataset, no_simulation):
        with pytest.raises(ServiceError, match="missing"):
            SweepService(make_store(tmp_path), store_dataset, configs=CONFIGS)

    def test_preloaded_measurements_skip_the_disk_load(
        self, tmp_path, store_dataset, direct_measurements, no_simulation
    ):
        # A *cold* store is fine when the caller hands over the measurements:
        # nothing is loaded, nothing is simulated.
        service = SweepService(
            make_store(tmp_path),
            store_dataset,
            configs=CONFIGS,
            measurements=direct_measurements,
        )
        assert service.measurements is direct_measurements
        assert service.query(TopKRequest(k=1)).result["entries"][0]["fingerprint"] == (
            store_dataset.top_k_by_accuracy(1)[0].fingerprint
        )

    def test_preloaded_measurements_are_validated(
        self, tmp_path, store_dataset, direct_measurements, no_simulation
    ):
        other = NASBenchDataset(store_dataset.records[:SHARD], store_dataset.network_config)
        with pytest.raises(ServiceError, match="different dataset"):
            SweepService(
                make_store(tmp_path),
                other,
                configs=CONFIGS,
                measurements=direct_measurements,
            )
        with pytest.raises(ServiceError, match="lacks configurations"):
            SweepService(
                make_store(tmp_path),
                store_dataset,
                configs=("V1", "V9"),
                measurements=direct_measurements,
            )

    def test_preloaded_measurements_accept_fingerprint_equal_dataset(
        self, tmp_path, store_dataset, direct_measurements, no_simulation
    ):
        # Regression: the preloaded path used to compare datasets by object
        # identity (`is not`), rejecting a worker-rebuilt dataset of the same
        # population; content (fingerprints + network config) is what matters.
        rebuilt = NASBenchDataset(list(store_dataset.records), store_dataset.network_config)
        assert rebuilt is not store_dataset
        service = SweepService(
            make_store(tmp_path),
            rebuilt,
            configs=CONFIGS,
            measurements=direct_measurements,
        )
        assert service.query(TopKRequest(k=1)).result["entries"][0]["fingerprint"] == (
            store_dataset.top_k_by_accuracy(1)[0].fingerprint
        )

    def test_predictions_for_unseen_cells_are_cached_on_disk(
        self, warm_root, store_dataset, monkeypatch
    ):
        settings = TrainingSettings(epochs=2, seed=0)
        service = SweepService(
            make_store(warm_root), store_dataset, configs=CONFIGS, settings=settings
        )
        unseen = sample_unique_cells(3, seed=9001)
        first = service.predict(unseen, "V1")
        assert first.shape == (3,)
        assert np.isfinite(first).all()
        assert service.model_state_path("V1").exists()
        fitted_report = service.model("V1").evaluate("test")

        # A fresh service over the same store must restore, never refit.
        def no_refit(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("cached weights should have been restored")

        monkeypatch.setattr(LearnedPerformanceModel, "fit_table", no_refit)
        restored = SweepService(
            make_store(warm_root), store_dataset, configs=CONFIGS, settings=settings
        )
        np.testing.assert_allclose(restored.predict(unseen, "V1"), first)
        assert restored.model("V1").evaluate("test") == fitted_report

    def test_weight_cache_keeps_parameter_caching_modes_apart(self, tmp_path, store_dataset):
        # One root, one population, both compiler modes: the V1 labels
        # differ, so each mode's service must train on its own labels and
        # never restore the other mode's weights.
        settings = TrainingSettings(epochs=2, seed=0)
        caching = make_store(tmp_path)
        no_caching = make_store(tmp_path, enable_parameter_caching=False)
        cached_labels = caching.extend(store_dataset, configs=("V1",)).latencies("V1")
        labels = no_caching.extend(store_dataset, configs=("V1",)).latencies("V1")
        assert not np.array_equal(cached_labels, labels)
        unseen = sample_unique_cells(3, seed=9002)
        SweepService(caching, store_dataset, configs=("V1",), settings=settings).predict(
            unseen, "V1"
        )
        served = SweepService(
            no_caching, store_dataset, configs=("V1",), settings=settings
        ).predict(unseen, "V1")
        reference = LearnedPerformanceModel("V1", settings)
        reference.fit([record.cell for record in store_dataset], labels)
        np.testing.assert_array_equal(served, reference.predict_cells(unseen))

    def test_weights_fitted_on_other_labels_are_refitted(self, tmp_path, store_dataset, fits):
        settings = TrainingSettings(epochs=2, seed=0)
        caching = make_store(tmp_path)
        no_caching = make_store(tmp_path, enable_parameter_caching=False)
        caching.extend(store_dataset, configs=("V1",))
        labels = no_caching.extend(store_dataset, configs=("V1",)).latencies("V1")
        donor = SweepService(caching, store_dataset, configs=("V1",), settings=settings)
        donor.model("V1")
        service = SweepService(no_caching, store_dataset, configs=("V1",), settings=settings)
        path = service.model_state_path("V1")
        assert path != donor.model_state_path("V1")
        # The other mode's weights under this mode's name: the stored labels
        # give them away, so they are refitted and overwritten.
        shutil.copyfile(donor.model_state_path("V1"), path)
        service.model("V1")
        assert fits == ["V1", "V1"]
        np.testing.assert_array_equal(store_module.read_npz(path)["targets"], labels)

    def test_changed_settings_refit_without_resimulating(self, warm_root, store_dataset, fits):
        def service(epochs):
            return SweepService(
                make_store(warm_root),
                store_dataset,
                configs=CONFIGS,
                settings=TrainingSettings(epochs=epochs, seed=0),
            )

        before, after = service(2), service(3)
        before.model("V1")
        after.model("V1")
        assert fits == ["V1", "V1"]
        assert before.model_state_path("V1") != after.model_state_path("V1")
        assert before.model_state_path("V1").exists() and after.model_state_path("V1").exists()
        fresh = make_store(warm_root)
        fresh.extend(store_dataset, configs=CONFIGS)
        assert fresh.stats.pairs_simulated == 0

    def test_truncated_weight_file_is_refitted_and_rewritten(self, warm_root, store_dataset, fits):
        def service():
            return SweepService(
                make_store(warm_root),
                store_dataset,
                configs=CONFIGS,
                settings=TrainingSettings(epochs=2, seed=0),
            )

        fitted = service().model("V1")
        path = service().model_state_path("V1")
        path.write_bytes(path.read_bytes()[:50])
        refitted = service().model("V1")
        assert len(path.with_name(path.name + ".corrupt").read_bytes()) == 50
        assert fits == ["V1", "V1"]
        assert refitted.evaluate("test") == fitted.evaluate("test")
        restored = service().model("V1")
        assert fits == ["V1", "V1"]
        assert restored.evaluate("test") == fitted.evaluate("test")

    def test_weight_file_without_an_entry_is_refitted_and_rewritten(
        self, warm_root, store_dataset, fits
    ):
        def service():
            return SweepService(
                make_store(warm_root),
                store_dataset,
                configs=CONFIGS,
                settings=TrainingSettings(epochs=2, seed=0),
            )

        fitted = service().model("V1")
        path = service().model_state_path("V1")
        state = store_module.read_npz(path)
        del state["train_losses"]
        store_module.write_npz(path, state)
        refitted = service().model("V1")
        assert fits == ["V1", "V1"]
        assert refitted.evaluate("test") == fitted.evaluate("test")
        assert "train_losses" in store_module.read_npz(path)

    def test_weight_file_with_a_short_normalizer_is_refitted_and_rewritten(
        self, warm_root, store_dataset, fits
    ):
        def service():
            return SweepService(
                make_store(warm_root),
                store_dataset,
                configs=CONFIGS,
                settings=TrainingSettings(epochs=2, seed=0),
            )

        fitted = service().model("V1")
        path = service().model_state_path("V1")
        state = store_module.read_npz(path)
        state["normalizer"] = state["normalizer"][:2]
        store_module.write_npz(path, state)
        refitted = service().model("V1")
        assert fits == ["V1", "V1"]
        assert refitted.evaluate("test") == fitted.evaluate("test")
        assert store_module.read_npz(path)["normalizer"].shape == (3,)

    def test_model_cache_does_not_pollute_shard_namespace(self, warm_root, store_dataset):
        # Regression: cached weights used to land next to the shard files and
        # match the shard filename pattern, surfacing a phantom "model"
        # configuration that poisoned available_configs()-driven loads.
        service = SweepService(
            make_store(warm_root), store_dataset, configs=CONFIGS,
            settings=TrainingSettings(epochs=2, seed=0),
        )
        service.predict(sample_unique_cells(2, seed=77), "V1")
        store = make_store(warm_root)
        assert store.available_configs() == sorted(CONFIGS)
        loaded = store.load(store_dataset, configs=store.available_configs())
        assert set(loaded.config_names) == set(CONFIGS)
