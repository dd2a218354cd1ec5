#!/usr/bin/env python3
"""Train the learned performance model on a measurement store.

This example reproduces the paper's Section 4 / Table 8 workflow at small
scale through the store and the sweep service:

1. sample a population of NASBench cells and label it with
   ``MeasurementStore.extend`` (the "ground truth"; shards already in the
   store directory load instead of being simulated);
2. ``SweepService.model`` trains the graph-neural-network learned
   performance model on a 60/20/20 split of those measurements (mini-batches
   are slices of a pack-once ``GraphTable``), or restores the weights it
   cached next to the shards on an earlier run;
3. report the Table 8 metrics (average estimation accuracy, Spearman and
   Pearson correlation) on the held-out test set;
4. compare simulator vs learned-model estimates for the paper's named cells,
   and time both — the learned model answers in well under a millisecond,
   which is the paper's motivation for using it in design-space exploration.

A second run with the same store directory simulates 0 pairs and fits 0
models (delete the directory to go cold).

Run with:
    python examples/learned_performance_model.py [num_models] [epochs] [store_dir]
"""

import sys
import time

from repro import BatchSimulator, MeasurementStore, NASBenchDataset, SweepService, get_config
from repro.core import TrainingSettings
from repro.nasbench import BEST_ACCURACY_CELL, SECOND_BEST_ACCURACY_CELL


def _stamp(path):
    """Modification time of *path* (``None`` when absent): a rewrite changes it."""
    return path.stat().st_mtime_ns if path.exists() else None


def main(
    num_models: int = 800,
    epochs: int = 30,
    store_dir: str = ".repro-model-store",
    config_name: str = "V1",
) -> None:
    dataset = NASBenchDataset.generate(num_models=num_models, seed=7)
    store = MeasurementStore(store_dir)
    print(f"Labelling {num_models} models on {config_name} in {store_dir!r} ...")
    measurements = store.extend(dataset, configs=[config_name])

    service = SweepService(
        store,
        dataset,
        configs=[config_name],
        settings=TrainingSettings(epochs=epochs, seed=1),
        measurements=measurements,
    )
    weights = service.model_state_path(config_name)
    stamp = _stamp(weights)
    model = service.model(config_name)
    fitted = int(_stamp(weights) != stamp)
    assert model.history is not None
    print(
        f"  {store.stats.pairs_simulated} (shard, config) pairs simulated, "
        f"{store.stats.pairs_loaded} loaded; {fitted} models fitted "
        f"({epochs} epochs), {1 - fitted} restored"
    )
    print(f"  final training loss: {model.history.train_losses[-1]:.4f}")

    report = model.evaluate("test")
    print("\n--- Table 8 metrics (held-out test set) ---")
    for key, value in report.as_row().items():
        print(f"  {key:>22}: {value}")

    print("\n--- simulator vs learned model on the paper's named cells ---")
    config = get_config(config_name)
    simulator = BatchSimulator()
    for name, cell in [
        ("Figure 7 best-accuracy cell", BEST_ACCURACY_CELL),
        ("Figure 8 second-best cell", SECOND_BEST_ACCURACY_CELL),
    ]:
        start = time.perf_counter()
        simulated = float(simulator.evaluate_cells([cell], config)[0][0])
        simulator_time = time.perf_counter() - start
        start = time.perf_counter()
        predicted = model.predict_cell(cell)
        predictor_time = time.perf_counter() - start
        print(
            f"  {name}: simulator {simulated:.3f} ms ({simulator_time * 1e3:.1f} ms to run), "
            f"learned model {predicted:.3f} ms ({predictor_time * 1e3:.2f} ms to run)"
        )


if __name__ == "__main__":
    num_models = int(sys.argv[1]) if len(sys.argv) > 1 else 800
    epochs = int(sys.argv[2]) if len(sys.argv) > 2 else 30
    store_dir = sys.argv[3] if len(sys.argv) > 3 else ".repro-model-store"
    main(num_models, epochs, store_dir)
