"""Resumable sweep: warm-resume cost ≈ only the missing shards.

The paper's headline sweep is ~1.5M latency simulations; an interruption used
to throw the whole run away.  This benchmark measures the four regimes of
the sharded :class:`~repro.service.MeasurementStore`:

* **cold** — every (shard, configuration) pair simulated and persisted;
* **interrupted resume** — half the shards already on disk (an interrupted
  run), the re-run simulates exactly the missing half;
* **fully warm** — every pair on disk, the "sweep" is pure loading (the
  regime :class:`~repro.service.SweepService` serves queries from);
* **compacted** — the finished sweep merged into one memory-mapped file
  (:meth:`~repro.service.MeasurementStore.compact`), turning the warm load
  from O(files) npz opens into O(open) plus mmap slices.

The tracked pytest-benchmark metric is the fully-warm load; the table
reports elapsed time, the simulated/loaded pair split from the store stats
and effective models/sec for all regimes, plus the disk bytes per pair of
the loose (uncompressed npz) and compacted (npy + JSON index) layouts.
``test_store_compaction`` below repeats the loose-vs-compacted comparison at
a ≥1000-pair scale where the per-file cost dominates (set
``REPRO_BENCH_COMPACT_MODELS=0`` to skip it).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.arch import STUDIED_CONFIGS
from repro.nasbench import NASBenchDataset
from repro.service import MeasurementStore

from _reporting import report, report_json

#: Population size of the sweep (small by paper standards, enough shards to
#: make the resume arithmetic visible).
STORE_MODELS = int(os.environ.get("REPRO_BENCH_STORE_MODELS", "480"))
#: Models per shard.
STORE_SHARD = int(os.environ.get("REPRO_BENCH_STORE_SHARD", "64"))
#: Seed of the sampled population.
STORE_SEED = int(os.environ.get("REPRO_BENCH_STORE_SEED", "2022"))

#: Population of the full-scale compaction benchmark; 0 skips it.  The tiny
#: shard size is the point: models/shard × configs ≥ 1000 pairs puts the
#: store deep in the many-small-files regime compaction exists for.
COMPACT_MODELS = int(os.environ.get("REPRO_BENCH_COMPACT_MODELS", "700"))
COMPACT_SHARD = int(os.environ.get("REPRO_BENCH_COMPACT_SHARD", "2"))


def _timed_sweep(root, dataset, configs, shard_size=None):
    """One store sweep; returns (store, elapsed seconds)."""
    store = MeasurementStore(root, shard_size=shard_size or STORE_SHARD)
    start = time.perf_counter()
    store.extend(dataset, configs=configs)
    return store, time.perf_counter() - start


def _bytes_per_pair(paths, n_pairs):
    """Disk bytes of *paths* per (shard, config) pair."""
    return sum(path.stat().st_size for path in paths) / n_pairs


def _best_load_seconds(root, dataset, configs, shard_size, rounds=3):
    """Best-of-N wall time of a from-scratch ``load()`` (fresh store each
    round, so per-store caches never flatter the later rounds)."""
    best = float("inf")
    for _ in range(rounds):
        store = MeasurementStore(root, shard_size=shard_size)
        start = time.perf_counter()
        store.load(dataset, configs=configs)
        best = min(best, time.perf_counter() - start)
    return best


def test_resumable_sweep(benchmark, tmp_path):
    dataset = NASBenchDataset.generate(num_models=STORE_MODELS, seed=STORE_SEED)
    configs = list(STUDIED_CONFIGS.values())
    total = len(dataset)

    # --- cold: everything simulated --------------------------------------- #
    cold_store, cold_elapsed = _timed_sweep(tmp_path / "cold", dataset, configs)
    n_shards = len(cold_store.shard_ranges(total))
    n_pairs = n_shards * len(configs)
    assert cold_store.stats.pairs_simulated == n_pairs

    # --- interrupted resume: half the shards are already on disk ---------- #
    # Shards are content-keyed, so sweeping the prefix population writes
    # exactly the files the full population reuses.
    warm_shards = n_shards // 2
    prefix = NASBenchDataset(dataset.records[: warm_shards * STORE_SHARD], dataset.network_config)
    resume_root = tmp_path / "resume"
    MeasurementStore(resume_root, shard_size=STORE_SHARD).extend(prefix, configs=configs)
    resume_store, resume_elapsed = _timed_sweep(resume_root, dataset, configs)
    assert resume_store.stats.pairs_simulated == (n_shards - warm_shards) * len(configs)
    assert resume_store.stats.pairs_loaded == warm_shards * len(configs)
    assert resume_elapsed < cold_elapsed, (
        f"resuming {n_shards - warm_shards}/{n_shards} shards took "
        f"{resume_elapsed:.3f}s vs {cold_elapsed:.3f}s cold"
    )

    # --- fully warm: pure loading (the tracked benchmark metric) ----------- #
    warm_store = MeasurementStore(tmp_path / "cold", shard_size=STORE_SHARD)
    benchmark.pedantic(lambda: warm_store.extend(dataset, configs=configs), rounds=3, iterations=1)
    load_store, warm_elapsed = _timed_sweep(tmp_path / "cold", dataset, configs)
    assert load_store.stats.pairs_simulated == 0
    assert warm_elapsed < cold_elapsed

    # --- compacted: one memory-mapped file instead of one npz per pair ----- #
    loose_load = _best_load_seconds(tmp_path / "cold", dataset, configs, STORE_SHARD)
    loose_bytes = _bytes_per_pair((tmp_path / "cold").glob("shard-*.npz"), n_pairs)
    compaction = MeasurementStore(tmp_path / "cold", shard_size=STORE_SHARD).compact(
        dataset, configs=configs
    )
    compacted_bytes = _bytes_per_pair([compaction.data_path, compaction.index_path], n_pairs)
    compact_load = _best_load_seconds(tmp_path / "cold", dataset, configs, STORE_SHARD)
    compact_store = MeasurementStore(tmp_path / "cold", shard_size=STORE_SHARD)
    compact_store.load(dataset, configs=configs)
    assert compact_store.stats.pairs_compacted == n_pairs

    benchmark.extra_info["shards"] = n_shards
    benchmark.extra_info["cold_models_per_sec"] = round(total / cold_elapsed, 1)
    benchmark.extra_info["resume_models_per_sec"] = round(total / resume_elapsed, 1)
    benchmark.extra_info["warm_models_per_sec"] = round(total / warm_elapsed, 1)
    benchmark.extra_info["resume_fraction_of_cold"] = round(resume_elapsed / cold_elapsed, 3)
    benchmark.extra_info["compacted_load_speedup"] = round(loose_load / compact_load, 2)

    rows = [
        ("cold (all simulated)", cold_store.stats, cold_elapsed),
        (f"resume ({warm_shards}/{n_shards} shards warm)",
         resume_store.stats, resume_elapsed),
        ("fully warm (pure load)", load_store.stats, warm_elapsed),
        ("compacted (mmap load)", compact_store.stats, compact_load),
    ]
    lines = [
        "Resumable sweep — sharded measurement store over the V1/V2/V3 sweep",
        f"({total} models, {n_shards} shards of {STORE_SHARD}, "
        f"{n_pairs} (shard, config) pairs)",
        f"{'regime':<30}{'simulated':>10}{'loaded':>8}{'elapsed (s)':>13}"
        f"{'models/sec':>12}",
    ]
    for label, stats, elapsed in rows:
        lines.append(
            f"{label:<30}{stats.pairs_simulated:>10}{stats.pairs_loaded:>8}"
            f"{elapsed:>13.3f}{total / elapsed:>12.1f}"
        )
    lines.append(
        f"bytes per pair: loose {loose_bytes:.0f} (npz), compacted {compacted_bytes:.0f} "
        "(npy + index)"
    )
    report("resumable_sweep", lines)
    report_json(
        "resumable_sweep",
        headline={
            "warm_speedup_vs_cold": cold_elapsed / warm_elapsed,
            "resume_speedup_vs_cold": cold_elapsed / resume_elapsed,
            "compacted_load_speedup_vs_loose": loose_load / compact_load,
        },
        population={
            "models": total,
            "shard_size": STORE_SHARD,
            "configs": len(configs),
        },
        metrics={
            "cold_models_per_sec": total / cold_elapsed,
            "resume_models_per_sec": total / resume_elapsed,
            "warm_models_per_sec": total / warm_elapsed,
            "loose_load_seconds": loose_load,
            "compacted_load_seconds": compact_load,
            "loose_bytes_per_pair": loose_bytes,
            "compacted_bytes_per_pair": compacted_bytes,
        },
    )


@pytest.mark.skipif(COMPACT_MODELS <= 0, reason="REPRO_BENCH_COMPACT_MODELS=0")
def test_store_compaction(benchmark, tmp_path):
    """Compacted vs loose warm ``load()`` at ≥1000 (shard, config) pairs.

    Tiny shards make the loose store pathological on purpose — every pair is
    one npz open — which is exactly what a million-pair paper-scale
    sweep looks like to the filesystem.  The acceptance headline is the
    compacted/loose load ratio at this scale.
    """
    dataset = NASBenchDataset.generate(num_models=COMPACT_MODELS, seed=STORE_SEED)
    configs = list(STUDIED_CONFIGS.values())
    store, sweep_elapsed = _timed_sweep(tmp_path, dataset, configs, shard_size=COMPACT_SHARD)
    n_pairs = len(store.shard_ranges(len(dataset))) * len(configs)
    assert n_pairs >= 1000, f"only {n_pairs} pairs; shrink COMPACT_SHARD or grow COMPACT_MODELS"

    loose_load = _best_load_seconds(tmp_path, dataset, configs, COMPACT_SHARD)
    loose_bytes = _bytes_per_pair(tmp_path.glob("shard-*.npz"), n_pairs)
    reference = MeasurementStore(tmp_path, shard_size=COMPACT_SHARD).load(dataset, configs=configs)
    compaction = MeasurementStore(tmp_path, shard_size=COMPACT_SHARD).compact(
        dataset, configs=configs
    )
    assert compaction.pairs == n_pairs
    compacted_bytes = _bytes_per_pair([compaction.data_path, compaction.index_path], n_pairs)
    compact_load = _best_load_seconds(tmp_path, dataset, configs, COMPACT_SHARD)

    # The tracked metric is the compacted load; correctness is byte-identity.
    compacted_store = MeasurementStore(tmp_path, shard_size=COMPACT_SHARD)
    loaded = benchmark.pedantic(
        lambda: compacted_store.load(dataset, configs=configs), rounds=3, iterations=1
    )
    for config in configs:
        np.testing.assert_array_equal(
            loaded.latencies(config.name), reference.latencies(config.name)
        )
        np.testing.assert_array_equal(
            loaded.energies(config.name), reference.energies(config.name)
        )

    speedup = loose_load / compact_load
    benchmark.extra_info["pairs"] = n_pairs
    benchmark.extra_info["compacted_load_speedup"] = round(speedup, 2)
    report(
        "store_compaction",
        [
            "Store compaction — loose npz-per-pair vs one memory-mapped file",
            f"({COMPACT_MODELS} models, shards of {COMPACT_SHARD}, "
            f"{n_pairs} (shard, config) pairs; cold sweep {sweep_elapsed:.2f}s)",
            f"{'layout':<28}{'files':>8}{'load (s)':>11}{'pairs/sec':>12}",
            f"{'loose (npz per pair)':<28}{n_pairs:>8}{loose_load:>11.3f}"
            f"{n_pairs / loose_load:>12.0f}",
            f"{'compacted (mmap)':<28}{1:>8}{compact_load:>11.3f}"
            f"{n_pairs / compact_load:>12.0f}",
            f"speedup: {speedup:.1f}x",
            f"bytes per pair: loose {loose_bytes:.0f} (npz), compacted {compacted_bytes:.0f} "
            "(npy + index)",
        ],
    )
    report_json(
        "store_compaction",
        headline={"compacted_load_speedup_vs_loose": speedup},
        population={
            "models": COMPACT_MODELS,
            "shard_size": COMPACT_SHARD,
            "configs": len(configs),
            "pairs": n_pairs,
        },
        metrics={
            "loose_load_seconds": loose_load,
            "compacted_load_seconds": compact_load,
            "loose_pairs_per_sec": n_pairs / loose_load,
            "compacted_pairs_per_sec": n_pairs / compact_load,
            "loose_bytes_per_pair": loose_bytes,
            "compacted_bytes_per_pair": compacted_bytes,
        },
    )
