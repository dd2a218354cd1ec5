#!/usr/bin/env python3
"""Accelerator design-space exploration: hardware Pareto sweep + co-search.

The paper studies three fixed Edge TPU classes; `repro.hwspace` opens the
whole microarchitectural neighborhood around them.  This example:

1. defines an :class:`repro.AcceleratorSpace` — a validated grid over clock,
   PE geometry, cores and SIMD lanes around V1 (36 design points);
2. sweeps a sampled workload population over the full grid in config-axis
   vectorized passes (resumable: measurements persist as store shards keyed
   by each design point's content digest — rerun the script for a warm
   start) and prints the hardware Pareto frontier of mean latency against
   two cost proxies, peak TOPS and total on-chip SRAM;
3. runs one joint NAS × hardware co-search (:class:`repro.CoSearchEngine`)
   and compares its best (cell, configuration) pair against fixed-hardware
   searches on V1/V2/V3 at the identical simulation budget.

Run with:  python examples/hardware_exploration.py [num_models]
"""

import os
import sys
import time

from repro import AcceleratorSpace, CoSearchEngine, HardwareFrontier, MeasurementStore, SearchSpec
from repro.hwspace import studied_baselines
from repro.nasbench import NASBenchDataset

STORE_DIR = os.environ.get("REPRO_HWSPACE_DIR", ".repro-hwspace")

#: Clock x PE-array x cores x lanes grid around the deployed V1 class.
SPACE = AcceleratorSpace(
    {
        "clock_mhz": [800.0, 1066.0, 1250.0],
        "pes_x": [2, 4, 8],
        "cores_per_pe": [2, 4],
        "compute_lanes": [32, 64],
    }
)


def explore_frontier(num_models: int) -> None:
    dataset = NASBenchDataset.generate(num_models=num_models, seed=7)
    store = MeasurementStore(STORE_DIR, shard_size=64)
    frontier = HardwareFrontier(dataset, store=store)
    configs = list(SPACE.enumerate())

    start = time.perf_counter()
    points = frontier.summarize(configs)
    elapsed = time.perf_counter() - start
    print(
        f"swept {num_models} models over {len(configs)} design points in "
        f"{elapsed:.2f}s ({store.stats.pairs_simulated} shard pairs simulated, "
        f"{store.stats.pairs_loaded} loaded — rerun for a warm start)"
    )

    for cost, label in (("peak_tops", "peak TOPS"), ("total_sram_mib", "total SRAM")):
        front = frontier.pareto(points, cost=cost)
        print(f"\nhardware Pareto frontier (mean latency vs {label}): {len(front)} points")
        print(f"{'design':<22}{'mean ms':>9}{'TOPS':>7}{'SRAM MiB':>10}{'clock':>7}{'PEs':>6}")
        for point in front:
            config = point.config
            print(
                f"{config.name:<22}{point.mean_latency_ms:>9.3f}{point.peak_tops:>7.1f}"
                f"{point.total_sram_mib:>10.1f}{config.clock_mhz:>7.0f}{config.num_pes:>6}"
            )


def co_search() -> None:
    spec = SearchSpec(population_size=16, generations=6, seed=0, min_accuracy=0.92)
    print(
        f"\nco-search: {spec.simulation_budget} pair evaluations over "
        f"{SPACE.size} hardware points x the cell space"
    )
    result = CoSearchEngine(spec, SPACE).run(progress=lambda line: print("  " + line))
    print("\n".join(result.summary_lines()))

    best = result.best_pair
    print(
        f"\nbest pair: {best.config.name} "
        f"(clock {best.config.clock_mhz:.0f} MHz, {best.config.num_pes} PEs, "
        f"{best.config.compute_lanes} lanes) at {best.cost:.4f} ms, "
        f"accuracy {best.accuracy:.4f}"
    )
    print("\nvs fixed-hardware searches at the same budget:")
    for name, (cost, accuracy) in studied_baselines(spec).items():
        verdict = "dominated" if result.dominates(cost, accuracy) else "not dominated"
        print(f"  {name}: best {cost:.4f} ms @ accuracy {accuracy:.4f} -> {verdict}")


def main(num_models: int = 300) -> None:
    explore_frontier(num_models)
    co_search()


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 300)
