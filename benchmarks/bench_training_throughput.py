"""Training throughput: pack-once GraphTable and the written-out step.

Four measurements, mirroring `bench_sweep_throughput.py` on the learned-
model side of the stack:

* **featurize + pack** — graphs/sec to encode a population (Figure 4
  featurization) and the one-time cost of packing it into a `GraphTable`;
* **batch formation** — forming one epoch of shuffled mini-batches
  (`slice_batch` vs per-step `batch_graphs` list concatenation), and forming
  the whole-population batch used by single-pass inference (`to_batched`,
  O(1), vs re-concatenating every graph);
* **training** — wall-clock per epoch for `train_model` (the written-out
  step of `repro.core.step`) vs the same loop recorded on the autodiff tape
  (`tape_train` below). Both arms must end with bit-identical weights;
* **pipeline** — a full `run_experiment` call cold vs warm cache, which is
  the smoke-mode path CI exercises.

Population and epochs scale down with ``REPRO_BENCH_TRAIN_MODELS`` /
``REPRO_BENCH_TRAIN_EPOCHS`` for CI smoke runs.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.core import (
    Adam,
    EncodeProcessDecode,
    GraphTable,
    TrainingSettings,
    batch_graphs,
    batched_loss,
    featurize_cells,
    train_model,
)
from repro.nasbench import sample_unique_cells
from repro.pipeline import Experiment, PopulationSpec, run_experiment

from _reporting import report

NUM_MODELS = int(os.environ.get("REPRO_BENCH_TRAIN_MODELS", "400"))
EPOCHS = int(os.environ.get("REPRO_BENCH_TRAIN_EPOCHS", "5"))
BATCH_SIZE = 16
SEED = 2022
#: Rounds used to time the (fast) batch-formation loops stably.
FORMATION_ROUNDS = 5


def tape_train(model, table, targets, epochs, batch_size, seed):
    """`train_model`'s loop with every step recorded on the autodiff tape."""
    optimizer = Adam(model.parameters())
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        order = rng.permutation(table.num_graphs)
        for start in range(0, len(order), batch_size):
            indices = order[start : start + batch_size]
            optimizer.zero_grad()
            batched_loss(model, table.slice_batch(indices), targets[indices]).backward()
            optimizer.step()


def _epoch_orders(num_graphs: int) -> list[np.ndarray]:
    rng = np.random.default_rng(0)
    return [rng.permutation(num_graphs) for _ in range(FORMATION_ROUNDS)]


def test_training_throughput(benchmark, tmp_path):
    cells = sample_unique_cells(NUM_MODELS, seed=SEED)
    targets = np.linspace(-1.0, 1.0, len(cells))

    # --- featurize + pack (one-time, amortized over the whole run) --------
    start = time.perf_counter()
    graphs = featurize_cells(cells)
    featurize_elapsed = time.perf_counter() - start
    start = time.perf_counter()
    table = GraphTable.from_graphs(graphs)
    pack_elapsed = time.perf_counter() - start

    # --- mini-batch formation: one epoch of shuffled batches --------------
    orders = _epoch_orders(len(graphs))
    start = time.perf_counter()
    for order in orders:
        for position in range(0, len(order), BATCH_SIZE):
            indices = order[position : position + BATCH_SIZE]
            batch_graphs([graphs[i] for i in indices])
    legacy_epoch_batching = (time.perf_counter() - start) / FORMATION_ROUNDS

    start = time.perf_counter()
    for order in orders:
        for position in range(0, len(order), BATCH_SIZE):
            table.slice_batch(order[position : position + BATCH_SIZE])
    packed_epoch_batching = (time.perf_counter() - start) / FORMATION_ROUNDS

    # --- whole-population batch (single-pass inference input) -------------
    start = time.perf_counter()
    for _ in range(FORMATION_ROUNDS):
        batch_graphs(graphs)
    legacy_full_batch = (time.perf_counter() - start) / FORMATION_ROUNDS
    start = time.perf_counter()
    for _ in range(FORMATION_ROUNDS):
        table.to_batched()
    packed_full_batch = (time.perf_counter() - start) / FORMATION_ROUNDS

    # --- training: the written-out step vs the recorded tape ---------------
    tape_model = EncodeProcessDecode(seed=1)
    start = time.perf_counter()
    tape_train(tape_model, table, targets, EPOCHS, BATCH_SIZE, seed=0)
    tape_elapsed = time.perf_counter() - start

    models = []

    def written_out_training():
        model = EncodeProcessDecode(seed=1)
        start = time.perf_counter()
        train_model(model, table, targets, epochs=EPOCHS, batch_size=BATCH_SIZE, seed=0)
        models.append((model, time.perf_counter() - start))

    benchmark.pedantic(written_out_training, rounds=1, iterations=1)
    trained, packed_train = models[0]

    # --- pipeline: cold vs warm experiment run ----------------------------
    experiment = Experiment(
        name="bench-training-throughput",
        population=PopulationSpec(num_models=min(NUM_MODELS, 120), seed=SEED),
        config_names=("V1",),
        metrics=("latency",),
        settings=TrainingSettings(epochs=EPOCHS, seed=0),
    )
    cache_dir = tmp_path / "pipeline-cache"
    start = time.perf_counter()
    run_experiment(experiment, cache_dir=cache_dir)
    cold_pipeline = time.perf_counter() - start
    start = time.perf_counter()
    warm = run_experiment(experiment, cache_dir=cache_dir)
    warm_pipeline = time.perf_counter() - start

    featurize_rate = len(cells) / featurize_elapsed
    benchmark.extra_info["featurize_graphs_per_sec"] = round(featurize_rate, 1)
    benchmark.extra_info["epoch_batching_speedup"] = round(
        legacy_epoch_batching / packed_epoch_batching, 2
    )
    benchmark.extra_info["full_batch_speedup"] = round(legacy_full_batch / packed_full_batch, 1)
    benchmark.extra_info["packed_epoch_seconds"] = round(packed_train / EPOCHS, 4)
    benchmark.extra_info["tape_epoch_seconds"] = round(tape_elapsed / EPOCHS, 4)
    benchmark.extra_info["pipeline_warm_speedup"] = round(cold_pipeline / warm_pipeline, 1)

    lines = [
        "Training throughput — packed GraphTable and written-out step vs references",
        f"({len(cells)} graphs, batch {BATCH_SIZE}, {EPOCHS} epochs; pipeline on "
        f"{experiment.population.num_models} models; featurize "
        f"{featurize_rate:.0f} graphs/sec, one-time pack {pack_elapsed * 1e3:.2f} ms)",
        f"{'stage':<36}{'packed':>12}{'reference':>12}{'speedup':>10}",
        f"{'epoch batch formation (ms)':<36}{packed_epoch_batching * 1e3:>12.2f}"
        f"{legacy_epoch_batching * 1e3:>12.2f}"
        f"{legacy_epoch_batching / packed_epoch_batching:>10.1f}",
        f"{'whole-population batch (ms)':<36}{packed_full_batch * 1e3:>12.3f}"
        f"{legacy_full_batch * 1e3:>12.3f}"
        f"{legacy_full_batch / packed_full_batch:>10.1f}",
        f"{'train epoch (s)':<36}{packed_train / EPOCHS:>12.3f}"
        f"{tape_elapsed / EPOCHS:>12.3f}{tape_elapsed / packed_train:>10.1f}",
        f"{'pipeline run (s)':<36}{warm_pipeline:>12.3f}"
        f"{cold_pipeline:>12.3f}{cold_pipeline / warm_pipeline:>10.1f}",
        "(references: per-step batch_graphs list concatenation for batch formation,",
        " the autodiff tape for the train epoch, the cold run for the pipeline,",
        " where 'packed' is the warm-cache re-run)",
    ]
    report("training_throughput", lines)

    # Direction-robust invariants hold at every scale: both training arms end
    # with bit-identical weights, and the warm pipeline must beat
    # simulate+train and serve everything from cache.  The wall-clock
    # parity/speedup ratios are only meaningful once the population is large
    # enough that formation cost dominates fixed numpy call overhead, so in
    # smoke mode (tiny populations on noisy CI runners) they are reported via
    # extra_info but not asserted.
    for weights, tape_weights in zip(trained.parameters(), tape_model.parameters()):
        assert np.array_equal(weights.data, tape_weights.data), "training arms diverged"
    assert warm_pipeline < cold_pipeline, (
        f"warm pipeline ({warm_pipeline:.3f}s) not faster than cold ({cold_pipeline:.3f}s)"
    )
    assert warm.cache_stats.misses == 0
    if NUM_MODELS >= 200:
        assert packed_epoch_batching <= 1.15 * legacy_epoch_batching, (
            f"packed epoch batching slower: {packed_epoch_batching:.4f}s vs "
            f"{legacy_epoch_batching:.4f}s"
        )
        assert packed_full_batch * 5.0 <= legacy_full_batch, (
            f"whole-population batch only "
            f"{legacy_full_batch / packed_full_batch:.1f}x the legacy concat"
        )
        assert packed_train <= 1.2 * tape_elapsed, (
            f"written-out training slower than the tape: {packed_train:.3f}s vs "
            f"{tape_elapsed:.3f}s"
        )
