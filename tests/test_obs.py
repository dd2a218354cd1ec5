"""Tests of the observability core and its contract with the stack.

Covers the obs package's own invariants — span nesting and self-time
arithmetic, the atomic-append JSONL sink with rotation, histogram
percentiles against the numpy reference, thread safety, and the ~free
no-op path — plus the contracts the rest of the stack relies on:

* tracing never changes numerical results;
* the store's trace counters match :class:`~repro.service.StoreStats`
  exactly (the fleet-merge acceptance criterion);
* progress callbacks are non-fatal (a raising callback logs an event and
  the sweep completes);
* warn-once diagnostics stay warn-once through the structured ``log`` API.
"""

from __future__ import annotations

import json
import threading
import time
import warnings

import numpy as np
import pytest

from repro import obs
from repro.arch import EDGE_TPU_V1
from repro.nasbench import NASBenchDataset
from repro.obs.summary import _quantile
from repro.service import MeasurementStore
from repro.simulator import BatchSimulator


@pytest.fixture(autouse=True)
def _isolated_tracer():
    """Pin the off state regardless of ambient ``REPRO_TRACE`` (the CI
    traced leg runs the whole suite with it set) and clear warn-once latches
    so every test observes its own diagnostics."""
    obs.configure_tracing(False)
    obs.reset_once()
    yield
    obs.configure_tracing(False)


@pytest.fixture(scope="module")
def obs_dataset():
    return NASBenchDataset.generate(num_models=8, seed=11)


def span_records(source) -> list[dict]:
    return [record for record in obs.read_trace(source) if record.get("t") == "span"]


# ---------------------------------------------------------------------- #
# Tracer core
# ---------------------------------------------------------------------- #
class TestTracerCore:
    def test_span_nesting_and_self_time(self, tmp_path):
        with obs.capture(tmp_path / "trace"):
            with obs.span("outer", stage="test"):
                time.sleep(0.02)
                with obs.span("inner"):
                    time.sleep(0.01)

        spans = {record["name"]: record for record in span_records(tmp_path / "trace")}
        outer, inner = spans["outer"], spans["inner"]
        assert inner["parent"] == outer["id"]
        assert inner["depth"] == 1 and outer["depth"] == 0
        assert outer["attrs"]["stage"] == "test"
        # self = wall minus direct children's wall, precomputed at pop.
        assert outer["self_ms"] == pytest.approx(
            outer["wall_ms"] - inner["wall_ms"], abs=1e-2
        )
        summary = obs.trace_summary(tmp_path / "trace")
        assert summary.spans["inner"].parent == "outer"
        assert summary.spans["outer"].parent is None

    def test_traced_decorator_records_error_attribute(self, tmp_path):
        @obs.traced("deco.fn")
        def flaky(ok):
            if not ok:
                raise ValueError("boom")
            return 7

        with obs.capture(tmp_path / "trace"):
            assert flaky(True) == 7
            with pytest.raises(ValueError):
                flaky(False)

        spans = [r for r in span_records(tmp_path / "trace") if r["name"] == "deco.fn"]
        assert len(spans) == 2
        assert "error" not in spans[0].get("attrs", {})
        assert spans[1]["attrs"]["error"] == "ValueError"

    def test_thread_safety_exact_counts_and_unique_ids(self, tmp_path):
        tracer = obs.Tracer(tmp_path / "mt")
        threads_n, spans_each = 8, 200

        def work():
            for _ in range(spans_each):
                with tracer.span("mt.span"):
                    tracer.count("mt.count")

        threads = [threading.Thread(target=work) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        tracer.close()

        expected = threads_n * spans_each
        assert tracer.metrics.counter_value("mt.count") == expected
        spans = span_records(tmp_path / "mt")
        assert len(spans) == expected
        # Thread-local stacks: no cross-thread nesting, globally unique ids.
        assert all(span["depth"] == 0 for span in spans)
        assert len({span["id"] for span in spans}) == expected
        summary = obs.trace_summary(tmp_path / "mt")
        assert summary.counters["mt.count"] == expected

    def test_rotation_keeps_every_record_and_meta_lines(self, tmp_path):
        tracer = obs.Tracer(tmp_path / "rot", max_bytes=600)
        for _ in range(25):
            with tracer.span("rot.span"):
                pass
        tracer.close()

        files = sorted((tmp_path / "rot").glob("*.jsonl"))
        assert len(files) > 1, "tiny max_bytes must force rotation"
        for path in files:
            first = json.loads(path.read_text().splitlines()[0])
            assert first["t"] == "meta" and first["version"] == 1
        summary = obs.trace_summary(tmp_path / "rot")
        assert summary.spans["rot.span"].count == 25

    def test_noop_tracer_is_effectively_free(self):
        tracer = obs.active_tracer()
        assert not tracer.enabled and not obs.enabled()
        assert obs.span_breakdown() == {}
        start = time.perf_counter()
        for _ in range(50_000):
            with tracer.span("noop"):
                tracer.count("noop")
        elapsed = time.perf_counter() - start
        # ~0.5 us/call on a slow box; the generous bound catches accidental
        # work (allocation, I/O) sneaking into the off path.
        assert elapsed < 1.0, f"50k no-op spans took {elapsed:.3f}s"

    def test_environment_directory_configuration(self, tmp_path, monkeypatch):
        monkeypatch.setenv(obs.TRACE_ENV, "1")
        monkeypatch.setenv(obs.TRACE_DIR_ENV, str(tmp_path / "envtrace"))
        tracer = obs.configure_tracing(True)
        try:
            assert tracer.enabled
            with obs.span("env.span"):
                pass
            assert tracer.path.parent == tmp_path / "envtrace"
        finally:
            obs.configure_tracing(False)
        assert span_records(tmp_path / "envtrace")[0]["name"] == "env.span"


# ---------------------------------------------------------------------- #
# Metrics
# ---------------------------------------------------------------------- #
class TestMetrics:
    def test_summary_quantile_matches_numpy_exactly(self):
        rng = np.random.default_rng(0)
        samples = rng.random(137).tolist()
        for q in (0.0, 0.25, 0.5, 0.95, 0.99, 1.0):
            np.testing.assert_allclose(
                _quantile(samples, q), np.quantile(samples, q), rtol=1e-12
            )

    def test_histogram_percentiles_track_numpy_within_bucket_width(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(0.0, 100.0, size=5000)
        histogram = obs.Histogram(buckets=tuple(np.linspace(0.5, 100.0, 200)))
        for value in values:
            histogram.observe(value)
        width = 99.5 / 199
        for q in (0.50, 0.95, 0.99):
            assert histogram.percentile(q) == pytest.approx(
                np.quantile(values, q), abs=2 * width
            )
        summary = histogram.summary()
        assert summary["count"] == 5000
        assert summary["mean"] == pytest.approx(values.mean())
        assert summary["max"] == values.max()

    def test_histogram_round_trip_and_merge(self):
        left, right = obs.Histogram(), obs.Histogram()
        for value in (0.3, 4.0, 40.0):
            left.observe(value)
        right.observe(400.0)
        restored = obs.Histogram.from_dict(json.loads(json.dumps(left.to_dict())))
        restored.merge(right)
        assert restored.count == 4
        assert restored.total == pytest.approx(444.3)
        assert restored.minimum == pytest.approx(0.3)
        assert restored.maximum == pytest.approx(400.0)
        with pytest.raises(ValueError, match="buckets"):
            restored.merge(obs.Histogram(buckets=(1.0, 2.0)))

    def test_fleet_merge_keeps_latest_snapshot_per_stream(self):
        records = [
            {"t": "metrics", "seq": 1, "ts": 1.0, "stream": "a",
             "counters": {"x": 5}, "gauges": {"g": 1.0}},
            {"t": "metrics", "seq": 2, "ts": 2.0, "stream": "a",
             "counters": {"x": 9}, "gauges": {"g": 3.0}},
            {"t": "metrics", "seq": 1, "ts": 5.0, "stream": "b",
             "counters": {"x": 4}, "gauges": {"g": 7.0}},
        ]
        summary = obs.trace_summary(records)
        assert summary.streams == 2
        # Snapshots are cumulative: latest per stream, then summed across.
        assert summary.counters["x"] == 13
        # Gauges: the most recent write anywhere in the fleet wins.
        assert summary.gauges["g"] == 7.0

    def test_multi_process_style_merge_across_directories(self, tmp_path):
        for worker in ("w1", "w2"):
            with obs.capture(tmp_path / worker):
                with obs.span("work.unit"):
                    obs.count("work.done", 2)
                    obs.observe("work.ms", 3.0)
        summary = obs.trace_summary([tmp_path / "w1", tmp_path / "w2"])
        assert summary.files == 2
        assert summary.spans["work.unit"].count == 2
        assert summary.counters["work.done"] == 4
        assert summary.histograms["work.ms"].count == 2


# ---------------------------------------------------------------------- #
# Events and diagnostics
# ---------------------------------------------------------------------- #
class TestEvents:
    def test_warn_once_dedup_records_every_event(self, tmp_path):
        with obs.capture(tmp_path / "trace") as tracer:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                obs.log("x.warned", "trouble", warn=True, once="key")
                obs.log("x.warned", "trouble", warn=True, once="key")
                obs.reset_once("key")
                obs.log("x.warned", "trouble", warn=True, once="key")
        runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 2
        # The trace sees each occurrence even when the console saw one.
        assert tracer.event_counts["x.warned"] == 3

    def test_echo_prints_message_and_records_event(self, tmp_path, capsys):
        with obs.capture(tmp_path / "trace") as tracer:
            obs.log("cli.status", "hello fleet", echo=True, pairs=3)
        assert "hello fleet" in capsys.readouterr().out
        assert tracer.event_counts["cli.status"] == 1
        summary = obs.trace_summary(tmp_path / "trace")
        assert summary.events["cli.status"] == 1


# ---------------------------------------------------------------------- #
# Stack contracts
# ---------------------------------------------------------------------- #
class TestStackContracts:
    def test_tracing_does_not_change_results(self, tmp_path, obs_dataset):
        baseline = BatchSimulator().evaluate(obs_dataset, configs=[EDGE_TPU_V1])
        with obs.capture(tmp_path / "trace"):
            traced = BatchSimulator().evaluate(obs_dataset, configs=[EDGE_TPU_V1])
        np.testing.assert_array_equal(traced.latencies("V1"), baseline.latencies("V1"))
        np.testing.assert_array_equal(traced.energies("V1"), baseline.energies("V1"))

    def test_store_counters_match_store_stats_exactly(self, tmp_path, obs_dataset):
        cold = MeasurementStore(tmp_path / "store", shard_size=4)
        with obs.capture(tmp_path / "t-cold") as tracer:
            cold.extend(obs_dataset, configs=("V1", "V2"))
        assert tracer.metrics.counter_value("store.pairs_simulated") == (
            cold.stats.pairs_simulated
        )
        assert tracer.metrics.counter_value("store.models_simulated") == (
            cold.stats.models_simulated
        )
        assert tracer.metrics.counter_value("store.pairs_loaded") == 0

        warm = MeasurementStore(tmp_path / "store", shard_size=4)
        with obs.capture(tmp_path / "t-warm") as tracer:
            warm.extend(obs_dataset, configs=("V1", "V2"))
        assert tracer.metrics.counter_value("store.pairs_loaded") == warm.stats.pairs_loaded
        assert tracer.metrics.counter_value("store.models_loaded") == warm.stats.models_loaded
        assert tracer.metrics.counter_value("store.pairs_simulated") == 0
        # The flushed trace merges to the same numbers (the fleet criterion).
        summary = obs.trace_summary(tmp_path / "t-warm")
        assert summary.counters["store.pairs_loaded"] == warm.stats.pairs_loaded

    def test_raising_progress_callback_does_not_abort_extend(self, tmp_path, obs_dataset):
        reference = BatchSimulator().evaluate(obs_dataset, configs=[EDGE_TPU_V1])
        store = MeasurementStore(tmp_path / "store", shard_size=4)
        calls = []

        def bad_callback(config_name, done, total):
            calls.append(config_name)
            raise ValueError("progress boom")

        with obs.capture(tmp_path / "trace") as tracer:
            with pytest.warns(RuntimeWarning, match="progress boom"):
                measurements = store.extend(
                    obs_dataset, configs=("V1",), progress_callback=bad_callback
                )
        assert calls, "the callback must still be invoked"
        assert tracer.event_counts["progress_callback.error"] == len(calls)
        np.testing.assert_allclose(
            measurements.latencies("V1"), reference.latencies("V1"), rtol=1e-9
        )

    def test_raising_progress_callback_does_not_abort_evaluate(self, tmp_path, obs_dataset):
        reference = BatchSimulator().evaluate(obs_dataset, configs=[EDGE_TPU_V1])

        def bad_callback(config_name, done, total):
            raise RuntimeError("tick boom")

        with obs.capture(tmp_path / "trace") as tracer:
            with pytest.warns(RuntimeWarning, match="tick boom"):
                measurements = BatchSimulator().evaluate(
                    obs_dataset, configs=[EDGE_TPU_V1], progress_callback=bad_callback
                )
        assert tracer.event_counts["progress_callback.error"] >= 1
        np.testing.assert_allclose(
            measurements.latencies("V1"), reference.latencies("V1"), rtol=1e-9
        )

    def test_package_level_exports(self):
        import repro

        assert repro.obs is obs
        assert repro.trace_summary is obs.trace_summary


# ---------------------------------------------------------------------- #
# CLI
# ---------------------------------------------------------------------- #
class TestCli:
    def test_cli_merges_prints_and_writes(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        with obs.capture(tmp_path / "traces"):
            with obs.span("cli.root"):
                obs.count("cli.hits", 3)

        output = tmp_path / "summary.json"
        assert main([str(tmp_path / "traces"), "--json", "--output", str(output)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counters"]["cli.hits"] == 3
        assert payload["spans"]["cli.root"]["count"] == 1
        assert json.loads(output.read_text())["counters"]["cli.hits"] == 3

        assert main([str(tmp_path / "traces")]) == 0
        assert "trace summary" in capsys.readouterr().out

    def test_cli_exits_2_without_trace_files(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        assert main([str(tmp_path / "missing")]) == 2
        assert "no trace files" in capsys.readouterr().err
