#!/usr/bin/env python3
"""Hardware-aware architecture search with the repro.search subsystem.

The paper characterizes the NASBench-101 space on Edge TPU classes so that
architecture *search* can be steered by hardware cost.  This example closes
that loop: it searches for the fastest V1 cell that still clears a 92%
accuracy floor, comparing three strategies at the identical simulation
budget:

1. **random** — fresh unique samples every generation (the baseline);
2. **evolution** — regularized evolution: tournament-select a parent from
   the current population, mutate it (edge flip / op swap / vertex add or
   remove), age out the oldest members;
3. **predictor** — mutate a 3x larger candidate pool, pre-screen it with the
   learned performance model trained on everything measured so far
   (``SweepService.predict``), and simulate only the most promising slice.

Every search sweeps its generations through one
:class:`repro.MeasurementStore` in the store directory, so a rerun of this
script replays every sweep from disk (0 pairs simulated; delete the
directory to go cold), an interrupted search resumes where it stopped, and
each final Pareto frontier is saved next to the measurement shards.

Run with:  python examples/architecture_search.py [store_dir]
"""

import sys
from pathlib import Path

from repro import MeasurementStore, SearchEngine, SearchSpec
from repro.core import TrainingSettings
from repro.search import STRATEGIES

STORE_DIR = Path(sys.argv[1] if len(sys.argv) > 1 else ".repro-search-cache")


def run_search(name: str, spec: SearchSpec):
    """Run *spec* over the store directory and save its frontier as ``<name>-archive.npz``.

    Returns the result and whether it replayed (simulated nothing).
    """
    store = MeasurementStore(
        STORE_DIR,
        shard_size=spec.population_size,
        enable_parameter_caching=spec.enable_parameter_caching,
    )
    result = SearchEngine(spec, store=store).run()
    result.archive.save(STORE_DIR / f"{name}-archive.npz")
    return result, result.store_stats.pairs_simulated == 0


def spec_for(strategy: str) -> SearchSpec:
    return SearchSpec(
        strategy=strategy,
        config_name="V1",
        metric="latency",
        min_accuracy=0.92,
        population_size=16,
        generations=6,
        seed=7,
        pool_factor=3,
        predictor_settings=TrainingSettings(epochs=4),
    )


def main() -> None:
    results = {}
    for strategy in STRATEGIES:
        result, replayed = run_search(strategy, spec_for(strategy))
        results[strategy] = result
        mode = "replayed from the store" if replayed else "simulated"
        print(
            f"{strategy:<10} best {result.best_objective:.4f} ms at "
            f"{result.best_accuracy:.4f} accuracy "
            f"({result.num_evaluated} models, {mode}, {result.elapsed_seconds:.2f}s)"
        )

    best = results["evolution"]
    print("\nevolution best-so-far trajectory (ms):",
          " -> ".join(f"{row.best_objective:.4f}" for row in best.generations))

    print(f"\nfinal evolution Pareto frontier ({len(best.archive)} points, "
          f"hypervolume {best.archive.hypervolume():.5f}):")
    for entry in best.archive.entries:
        print(
            f"  {entry.fingerprint[:12]}  {entry.cost:.4f} ms  "
            f"acc={entry.accuracy:.4f}  (gen {entry.generation})"
        )
    print(f"\narchive saved at {STORE_DIR / 'evolution-archive.npz'}")

    # Same evolution loop, one level up: candidates are whole staged
    # backbones (a distinct cell per stage plus per-stage depth and width
    # multipliers) instead of a single cell repeated through the fixed
    # template.  Only the spec changes — the store, resume and the archive
    # all work identically.
    macro_result, macro_replayed = run_search(
        "macro-evolution",
        SearchSpec(
            strategy="evolution",
            arch_space="macro",
            config_name="V1",
            metric="latency",
            min_accuracy=0.92,
            population_size=16,
            generations=6,
            seed=7,
        ),
    )
    macro_mode = "replayed from the store" if macro_replayed else "simulated"
    print(
        f"\nmacro evolution best {macro_result.best_objective:.4f} ms at "
        f"{macro_result.best_accuracy:.4f} accuracy "
        f"({macro_result.num_evaluated} backbones, {macro_mode}, "
        f"{macro_result.elapsed_seconds:.2f}s)"
    )
    winner = macro_result.best_record.architecture
    print(
        f"winning backbone: {len(winner.stages)} stages, depths "
        + "/".join(str(stage.depth) for stage in winner.stages)
        + ", widths "
        + "/".join(f"{stage.width_multiplier:g}x" for stage in winner.stages)
    )

    print(f"\nrerun this script to replay from {str(STORE_DIR)!r}")


if __name__ == "__main__":
    main()
