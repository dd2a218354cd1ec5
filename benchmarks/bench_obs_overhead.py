"""Observability overhead: tracing off must be free, tracing on must be cheap.

The obs instrumentation threads through the hottest paths of the stack (the
fused grid kernel, the measurement store, the sweep worker), so its cost
model is part of the performance contract (DESIGN.md §12):

* **off** (``REPRO_TRACE`` unset) — every instrumented call site pays one
  attribute lookup and one constant-time no-op method call.  Measured here
  two ways: the per-call cost of the no-op span itself (micro-benchmark,
  machine-normalized via the calibration constant) and the estimated
  fraction of a real fused sweep spent in no-op obs calls, which must stay
  under 5%;
* **on** — spans, counters and JSONL writes are paid only at stage
  granularity (never inside kernel loops), so a fully traced sweep is gated
  against the untraced one via the ``traced_vs_noop_ratio`` headline.

Tracing must never change results: the traced sweep's latency/energy arrays
are asserted bit-for-bit equal to the untraced run's.
"""

from __future__ import annotations

import itertools
import os
import time

import numpy as np

from repro import obs
from repro.hwspace import AcceleratorSpace
from repro.nasbench import NASBenchDataset
from repro.nasbench.layer_table import LayerTable
from repro.simulator import compile_and_time_table

from _reporting import machine_calibration, report, report_json

#: Models of the swept population (small: the *ratio* is the metric).
OBS_MODELS = int(os.environ.get("REPRO_BENCH_OBS_MODELS", "160"))
#: Hardware grid width of the sweep.
OBS_CONFIGS = int(os.environ.get("REPRO_BENCH_OBS_CONFIGS", "12"))
#: Timed repetitions (best-of).
OBS_ROUNDS = int(os.environ.get("REPRO_BENCH_OBS_ROUNDS", "3"))
#: Calls of the no-op span/counter micro-benchmark.
NOOP_CALLS = 50_000

#: Estimated share of an untraced sweep spent in no-op obs calls must stay
#: below this (the "tracing off is free" acceptance bound).
NOOP_OVERHEAD_BOUND = 0.05

#: Grid around V1 (the axes of the lifecycle benchmark's hwgrid workload).
SPACE = AcceleratorSpace(
    {
        "clock_mhz": [600.0, 800.0, 1066.0, 1250.0, 1500.0],
        "pes_x": [2, 4, 8],
        "cores_per_pe": [2, 4],
        "compute_lanes": [32, 64],
        "io_bandwidth_gbps": [8.0, 16.0],
    }
)


def _best_of(rounds, run):
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return best, result


def _noop_call_seconds() -> float:
    """Best-of per-call cost of one no-op span plus one no-op counter."""
    tracer = obs.active_tracer()
    assert not tracer.enabled
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(NOOP_CALLS):
            with tracer.span("bench.noop"):
                tracer.count("bench.noop")
        best = min(best, time.perf_counter() - start)
    return best / NOOP_CALLS


def test_obs_overhead(benchmark, tmp_path):
    dataset = NASBenchDataset.generate(num_models=OBS_MODELS, seed=2022)
    networks = [record.build_network(dataset.network_config) for record in dataset]
    table = LayerTable.from_networks(networks)
    configs = list(itertools.islice(SPACE.enumerate(), OBS_CONFIGS))

    # Pin the off state regardless of the ambient environment, and leave the
    # process in it when done (other benchmarks share this interpreter).
    obs.configure_tracing(False)
    try:
        compile_and_time_table(table, configs)  # warm-up (jit, caches)
        noop_elapsed, noop_result = _best_of(
            OBS_ROUNDS, lambda: compile_and_time_table(table, configs)
        )
        per_call = _noop_call_seconds()

        with obs.capture(tmp_path / "trace") as tracer:
            traced_elapsed, traced_result = _best_of(
                OBS_ROUNDS, lambda: compile_and_time_table(table, configs)
            )
            aggregates = tracer.span_aggregates()
    finally:
        obs.configure_tracing(False)

    # Tracing must never perturb the numbers.
    for traced, noop in zip(traced_result, noop_result, strict=True):
        np.testing.assert_array_equal(traced, noop)

    spans_per_sweep = sum(agg["count"] for agg in aggregates.values()) / OBS_ROUNDS
    # Span sites and counter sites are roughly paired on the hot path; double
    # the span count for a conservative per-sweep call estimate.
    overhead_fraction = 2.0 * spans_per_sweep * per_call / noop_elapsed
    traced_vs_noop = noop_elapsed / traced_elapsed
    evals = len(dataset) * len(configs)
    noop_rate = evals / noop_elapsed
    traced_rate = evals / traced_elapsed
    noop_spans_per_sec = 1.0 / per_call

    benchmark.pedantic(lambda: compile_and_time_table(table, configs), rounds=1, iterations=1)
    benchmark.extra_info["noop_span_ns"] = round(per_call * 1e9, 1)
    benchmark.extra_info["traced_vs_noop_ratio"] = round(traced_vs_noop, 3)
    benchmark.extra_info["noop_overhead_fraction"] = round(overhead_fraction, 5)

    lines = [
        "Observability overhead — fused sweep "
        f"({len(dataset)} models x {len(configs)} configs, best of {OBS_ROUNDS})",
        f"{'mode':<26}{'evals/sec':>12}{'elapsed (s)':>13}",
        f"{'tracing off (no-op)':<26}{noop_rate:>12.1f}{noop_elapsed:>13.4f}",
        f"{'tracing on (JSONL)':<26}{traced_rate:>12.1f}{traced_elapsed:>13.4f}",
        f"no-op span+counter: {per_call * 1e9:.0f} ns/call, "
        f"~{spans_per_sweep:.0f} spans/sweep, "
        f"estimated off-mode overhead {overhead_fraction:.2%}",
    ]
    report("obs_overhead", lines)
    report_json(
        "obs_overhead",
        headline={
            "traced_vs_noop_ratio": traced_vs_noop,
            "noop_spans_per_calibration": noop_spans_per_sec * machine_calibration(),
        },
        population={"models": len(dataset), "configs": len(configs)},
        metrics={
            "noop_evals_per_sec": noop_rate,
            "traced_evals_per_sec": traced_rate,
            "noop_span_ns": per_call * 1e9,
            "spans_per_sweep": spans_per_sweep,
            "noop_overhead_fraction": overhead_fraction,
        },
    )

    assert overhead_fraction < NOOP_OVERHEAD_BOUND, (
        f"no-op obs calls cost an estimated {overhead_fraction:.2%} of an untraced "
        f"sweep (bound {NOOP_OVERHEAD_BOUND:.0%}); the off path must stay free"
    )
