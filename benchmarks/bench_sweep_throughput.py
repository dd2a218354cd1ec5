"""Sweep throughput: the scalar oracle vs the vectorized batch engine.

The paper's headline experiment needs ~1.5M latency simulations; this
benchmark tracks how fast the reproduction can sweep its population
(models/sec, counting one model as one model simulated on *all* studied
configurations).  The scalar rate is a loop of ``PerformanceSimulator``
calls over a subset, the vectorized rate ``BatchSimulator.evaluate`` over the
full shared bench population; the vectorized engine must beat the scalar
loop by at least 5x.
"""

from __future__ import annotations

import os
import time

from repro.nasbench import NASBenchDataset
from repro.simulator import BatchSimulator, PerformanceSimulator

from _reporting import report, report_json

#: Scalar subset size: big enough for a stable rate, small enough to keep the
#: benchmark turnaround reasonable.
SCALAR_SUBSET_MODELS = int(os.environ.get("REPRO_BENCH_SCALAR_MODELS", "120"))


def _scalar_sweep(dataset, configs) -> None:
    """The oracle sweep: networks built once, one ``simulate()`` per model and config."""
    networks = [record.build_network(dataset.network_config) for record in dataset]
    for config in configs:
        simulator = PerformanceSimulator(config)
        for network in networks:
            simulator.simulate(network)


def _vectorized_sweep(dataset, configs) -> None:
    BatchSimulator().evaluate(dataset, configs=configs)


def _sweep_rate(sweep, dataset, configs) -> tuple[float, float]:
    """Run one full sweep and return (models/sec, elapsed seconds)."""
    start = time.perf_counter()
    sweep(dataset, configs)
    elapsed = time.perf_counter() - start
    return len(dataset) / elapsed, elapsed


def test_sweep_throughput(benchmark, bench_dataset, bench_configs):
    configs = list(bench_configs.values())
    subset = NASBenchDataset(
        bench_dataset.records[:SCALAR_SUBSET_MODELS], bench_dataset.network_config
    )

    scalar_rate, scalar_elapsed = _sweep_rate(_scalar_sweep, subset, configs)

    # The vectorized sweep is the tracked benchmark metric.
    benchmark.pedantic(lambda: _vectorized_sweep(bench_dataset, configs), rounds=1, iterations=1)
    vectorized_rate, vectorized_elapsed = _sweep_rate(_vectorized_sweep, bench_dataset, configs)

    benchmark.extra_info["scalar_models_per_sec"] = round(scalar_rate, 1)
    benchmark.extra_info["vectorized_models_per_sec"] = round(vectorized_rate, 1)
    benchmark.extra_info["vectorized_speedup"] = round(vectorized_rate / scalar_rate, 1)

    lines = [
        "Sweep throughput — models/sec over the V1/V2/V3 configuration sweep",
        f"(scalar measured on {len(subset)} models, vectorized on "
        f"{len(bench_dataset)} models)",
        f"{'engine':<28}{'models/sec':>12}{'elapsed (s)':>14}{'speedup':>10}",
        f"{'scalar (per-model loop)':<28}{scalar_rate:>12.1f}{scalar_elapsed:>14.3f}"
        f"{1.0:>10.1f}",
        f"{'vectorized':<28}{vectorized_rate:>12.1f}"
        f"{vectorized_elapsed:>14.3f}{vectorized_rate / scalar_rate:>10.1f}",
    ]
    report("sweep_throughput", lines)
    report_json(
        "sweep_throughput",
        headline={"vectorized_speedup": vectorized_rate / scalar_rate},
        population={
            "models": len(bench_dataset),
            "scalar_models": len(subset),
            "configs": len(configs),
        },
        metrics={
            "scalar_models_per_sec": scalar_rate,
            "vectorized_models_per_sec": vectorized_rate,
        },
    )

    assert vectorized_rate >= 5.0 * scalar_rate, (
        f"vectorized sweep only {vectorized_rate / scalar_rate:.1f}x the scalar rate"
    )
