#!/usr/bin/env python3
"""Characterization workflow: sweep a model population across Edge TPU classes.

This example reproduces the heart of the paper's evaluation section at small
scale: it samples a population of unique NASBench cells, simulates every model
on the V1/V2/V3 accelerator configurations, and then prints

* the Table 3 style latency/energy summary over models with >= 70% accuracy,
* the Table 5 winner buckets (which configuration serves which models best),
* the Figure 14 crossover analysis (fastest configuration per model-size band).

Run with:  python examples/accelerator_comparison.py [num_models]
"""

import sys

from repro import BatchSimulator, NASBenchDataset
from repro.analysis import (
    bucket_characteristics,
    crossover_analysis,
    summarize_all,
    winner_buckets,
)


def main(num_models: int = 400) -> None:
    print(f"Sampling {num_models} unique NASBench cells and simulating V1/V2/V3 ...")
    dataset = NASBenchDataset.generate(num_models=num_models, seed=0)
    measurements = BatchSimulator().evaluate(dataset)

    print("\n--- Table 3: latency/energy summary (models with >= 70% accuracy) ---")
    for name, summary in summarize_all(measurements).items():
        energy = (
            f"avg energy {summary.avg_energy_mj:.2f} mJ"
            if summary.energy_available
            else "energy model n/a"
        )
        print(
            f"  {name}: latency min {summary.min_latency.value:.3f} ms "
            f"(acc {summary.min_latency.accuracy:.2%}), "
            f"max {summary.max_latency.value:.3f} ms "
            f"(acc {summary.max_latency.accuracy:.2%}), "
            f"avg {summary.avg_latency_ms:.3f} ms, {energy}"
        )

    print("\n--- Table 5/6: winner buckets ---")
    buckets = winner_buckets(measurements)
    for name, bucket in buckets.items():
        if bucket.num_models == 0:
            print(f"  Latency({name}) <= : no models")
            continue
        characteristics = bucket_characteristics(measurements, bucket)
        latencies = ", ".join(
            f"{other}={value:.2f}ms" for other, value in bucket.avg_latency_ms.items()
        )
        print(
            f"  Latency({name}) <= : {bucket.num_models} models | {latencies} | "
            f"avg conv3x3 {characteristics.avg_conv3x3:.2f}, "
            f"conv1x1 {characteristics.avg_conv1x1:.2f}, "
            f"params {characteristics.avg_trainable_parameters / 1e6:.2f}M"
        )

    print("\n--- Figure 14: fastest configuration per model-size band ---")
    for band in crossover_analysis(measurements):
        print(
            f"  [{band.lower_parameters / 1e6:5.1f}M, {band.upper_parameters / 1e6:6.1f}M) "
            f"n={band.num_models:4d}  fastest: {band.fastest_config}  "
            + "  ".join(f"{k}={v:.3f}ms" for k, v in band.avg_latency_ms.items())
        )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 400)
