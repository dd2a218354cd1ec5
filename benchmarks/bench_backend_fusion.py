"""Fused compile-and-time kernel: throughput and the cost of its sensitivities.

The fused kernel (:func:`repro.simulator.fused.compile_and_time_table`) is the
one table implementation of the cost model: it keeps the mapping/cache
results at their unique-sub-configuration resolution and streams the config
axis in cache-sized chunks through preallocated scratch buffers, producing
latency and energy in one pass.  This benchmark times it on a hardware grid,
with and without the forward-mode clock/SRAM sensitivities, after checking a
seeded sample of (model, config) pairs against the scalar
:class:`~repro.simulator.PerformanceSimulator` oracle at 1e-9 relative.

The gated headline is ``sensitivity_throughput_ratio``: sensitivity-run
evals/sec over plain evals/sec (higher is better, at most about 1).  Both
rates come from the same kernel on the same host, so the ratio tracks the
cost of the dual pass and not the speed of the machine.  The absolute fused
rate, raw and multiplied by the calibration constant, is recorded under
``metrics`` but not gated: on this kernel the calibration workload does not
cancel the host out.

Smoke mode (``REPRO_BENCH_FUSION_SMOKE=1``) shrinks the population for CI and
writes its JSON under the ``backend_fusion_smoke`` experiment so the
committed full-scale baseline is never compared against smoke numbers.
"""

from __future__ import annotations

import itertools
import os
import time

import numpy as np

from repro.hwspace import AcceleratorSpace
from repro.nasbench import NASBenchDataset
from repro.nasbench.layer_table import LayerTable
from repro.simulator import PerformanceSimulator, compile_and_time_table

from _reporting import machine_calibration, report, report_json

#: CI smoke mode: small population, separate experiment name.
SMOKE = os.environ.get("REPRO_BENCH_FUSION_SMOKE", "") == "1"

#: Models of the swept population (headline scale: 10k).
FUSION_MODELS = int(os.environ.get("REPRO_BENCH_FUSION_MODELS", "160" if SMOKE else "10000"))
#: Hardware grid size for the fused kernel (headline scale: >= 100).
FUSION_CONFIGS = int(os.environ.get("REPRO_BENCH_FUSION_CONFIGS", "12" if SMOKE else "120"))
#: Timed repetitions (best-of); the plain and sensitivity runs alternate.
FUSION_ROUNDS = int(os.environ.get("REPRO_BENCH_FUSION_ROUNDS", "3"))
#: (model, config) pairs checked against the scalar oracle.
ORACLE_PAIRS = 16

EXPERIMENT = "backend_fusion_smoke" if SMOKE else "backend_fusion"

#: Grid around V1: clock x PE geometry x cores x lanes x I/O (120 points).
SPACE = AcceleratorSpace(
    {
        "clock_mhz": [600.0, 800.0, 1066.0, 1250.0, 1500.0],
        "pes_x": [2, 4, 8],
        "cores_per_pe": [2, 4],
        "compute_lanes": [32, 64],
        "io_bandwidth_gbps": [8.0, 16.0],
    }
)


def _check_against_oracle(networks, configs, result):
    """A seeded sample of (model, config) pairs must match the scalar engine."""
    rng = np.random.default_rng(2022)
    models = rng.integers(len(networks), size=ORACLE_PAIRS)
    rows = rng.integers(len(configs), size=ORACLE_PAIRS)
    for model, row in zip(models, rows):
        scalar = PerformanceSimulator(configs[row]).simulate(networks[model])
        np.testing.assert_allclose(result.latency_ms[row, model], scalar.latency_ms, rtol=1e-9)
        energy = np.nan if scalar.energy_mj is None else scalar.energy_mj
        np.testing.assert_allclose(result.energy_mj[row, model], energy, rtol=1e-9)


def test_backend_fusion(benchmark):
    dataset = NASBenchDataset.generate(num_models=FUSION_MODELS, seed=2022)
    networks = [record.build_network(dataset.network_config) for record in dataset]
    table = LayerTable.from_networks(networks)
    configs = list(itertools.islice(SPACE.enumerate(), FUSION_CONFIGS))

    # Oracle check (and warm-up).
    _check_against_oracle(networks, configs, compile_and_time_table(table, configs))

    fused_elapsed = dual_elapsed = float("inf")
    for _ in range(FUSION_ROUNDS):
        start = time.perf_counter()
        compile_and_time_table(table, configs)
        fused_elapsed = min(fused_elapsed, time.perf_counter() - start)
        start = time.perf_counter()
        compile_and_time_table(table, configs, sensitivities=True)
        dual_elapsed = min(dual_elapsed, time.perf_counter() - start)
    benchmark.pedantic(lambda: compile_and_time_table(table, configs), rounds=1, iterations=1)

    evaluations = len(dataset) * len(configs)
    fused_rate = evaluations / fused_elapsed
    dual_rate = evaluations / dual_elapsed
    ratio = dual_rate / fused_rate

    benchmark.extra_info["models"] = len(dataset)
    benchmark.extra_info["configs"] = len(configs)
    benchmark.extra_info["fused_evals_per_sec"] = round(fused_rate, 1)
    benchmark.extra_info["sensitivity_throughput_ratio"] = round(ratio, 3)

    lines = [
        "Fused kernel — (model, config) evaluations/sec, "
        f"{len(dataset)} models x {len(configs)} configs ({table.macs.size} layer rows)",
        f"{'run':<42}{'evals/sec':>12}{'elapsed (s)':>13}{'ratio':>10}",
        f"{'fused kernel':<42}{fused_rate:>12.1f}{fused_elapsed:>13.3f}{1.0:>10.3f}",
        f"{'fused + sensitivities':<42}{dual_rate:>12.1f}{dual_elapsed:>13.3f}{ratio:>10.3f}",
    ]
    report(EXPERIMENT, lines)
    report_json(
        EXPERIMENT,
        headline={"sensitivity_throughput_ratio": ratio},
        population={
            "models": len(dataset),
            "configs": len(configs),
            "layer_rows": int(table.macs.size),
        },
        metrics={
            "fused_evals_per_sec": fused_rate,
            "fused_evals_per_calibration": fused_rate * machine_calibration(),
            "dual_evals_per_sec": dual_rate,
        },
    )
