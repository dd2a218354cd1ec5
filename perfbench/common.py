"""Shared pieces of the lifecycle benchmark: timing statistics, digests, the
per-layer report and the run record."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import shutil
import statistics
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch stores and run records; ignored by git.
WORK = ROOT / ".perfbench"

#: The paper's accuracy floor (models below it are infeasible).
MIN_ACCURACY = 0.70


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    digests: dict[str, str]
    layers: dict[str, float] = field(default_factory=dict)
    notes: dict = field(default_factory=dict)


#: Percentile of the end-to-end tail metric ``p95_ms``.  On a shared 2-vCPU
#: host the open-loop p99 is set by how often other tenants stall the host,
#: and moved by up to 2x between runs.  p90 falls where the 10% of predict
#: requests begin, so it jumps between the two latency modes.
TAIL_PERCENTILE = 95.0


def tail_ms(values, cap: float = 99.0) -> tuple[float, float]:
    """``(p, value)``: the highest percentile up to *cap* with >= 10 samples beyond it.

    Runs with fewer than 20 samples report their median (p = 50), so that p
    does not jump to the maximum when a run of about 20 cycles ends one short.
    """
    values = np.asarray(values, dtype=float)
    q = max(50.0, min(cap, 100.0 * (1.0 - 10.0 / values.size)))
    return q, float(np.percentile(values, q))


def timing_stats(prefix: str, seconds: list[float], notes: dict) -> dict[str, float]:
    """``p50_ms`` and ``p95_ms`` of *seconds*, noting the sample count."""
    ms = [value * 1e3 for value in seconds]
    q, tail = tail_ms(ms, TAIL_PERCENTILE)
    notes[f"{prefix}_samples"] = len(ms)
    notes[f"{prefix}_tail_percentile"] = q
    return {"p50_ms": statistics.median(ms), "p95_ms": tail}


def digest(*parts) -> str:
    """SHA-256 over arrays (raw bytes), strings and numbers, in order."""
    hasher = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            hasher.update(str(part.dtype).encode())
            hasher.update(np.ascontiguousarray(part).tobytes())
        else:
            hasher.update(repr(part).encode())
        hasher.update(b"|")
    return hasher.hexdigest()[:16]


def measurement_digest(measurements, config_names) -> str:
    """Digest of the latency/energy arrays of a measurement set."""
    parts = []
    for name in config_names:
        parts += [name, measurements.latencies(name), measurements.energies(name)]
    return digest(*parts)


def peak_rss_mb() -> float:
    """Peak resident memory of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident memory (``VmHWM``) of a live child process."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


#: Seconds :func:`reference_s` takes on the quiet 2-vCPU host the benchmark
#: was tuned on.  Timings are reported in that host's seconds.
REFERENCE_S = 0.0055


def reference_s(rounds: int = 3) -> float:
    """Best-of seconds of a fixed loop of Python built-ins and numpy.

    It runs no code of the repository, so no change to the program moves it,
    while a busy host slows it as it slows the program: on the shared host
    the benchmark was tuned on, slow phases of 1.6-2x lasting from seconds to
    minutes slowed this loop and a sweep cycle alike.
    """
    best = float("inf")
    for _ in range(rounds):
        begin = time.perf_counter()
        table: dict[int, int] = {}
        for i in range(40_000):
            table[i % 977] = table.get(i % 977, 0) + 3 * i
        sorted(str(i) for i in range(8_000))
        values = np.arange(50_000.0)
        (values * 1.5 + values[::-1]).sum()
        best = min(best, time.perf_counter() - begin)
    return best


def host_factor() -> float:
    """Multiplier from this host's current seconds to the reference host's."""
    return REFERENCE_S / reference_s()


def machine_fingerprint() -> dict:
    return {
        "machine": platform.machine(),
        "processor": platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
    }


@contextmanager
def scratch_dir():
    """A fresh directory under :data:`WORK`, removed afterwards."""
    WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="store-", dir=WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def median_setup(build, repeats: int = 3):
    """Median host-normalized seconds of *repeats* calls of *build*, and the last result."""
    times, result = [], None
    for _ in range(repeats):
        factor = host_factor()
        start = time.perf_counter()
        result = build()
        times.append((time.perf_counter() - start) * factor)
    return statistics.median(times), result


#: Self-time layers of the per-layer report (span name → metric prefix).
LAYERS = {
    "nasbench.sample": "nasbench.sample_ms",
    "nasbench.from_cells": "nasbench.from_cells_ms",
    "nasbench.build_network": "nasbench.build_network_ms",
    "nasbench.layer_table": "nasbench.layer_table_ms",
    "nasbench.mutate": "nasbench.mutate_ms",
    "simulator.grid": "simulator.grid_ms",
    "service.extend": "service.extend_ms",
    "service.write": "service.write_ms",
    "service.read": "service.read_ms",
    "service.compact": "service.compact_ms",
    "service.manifest": "service.manifest_ms",
    "service.load": "service.load_ms",
    "service.query.metric": "service.query_ms.metric",
    "service.query.top_k": "service.query_ms.top_k",
    "service.query.pareto": "service.query_ms.pareto",
    "service.query.predict": "service.query_ms.predict",
    "core.fit": "core.fit_ms",
    "core.restore": "core.restore_ms",
    "core.predict": "core.predict_ms",
    "search.run": "search.run_ms",
    "hwspace.summarize": "hwspace.summarize_ms",
}


def layer_report(tracer: Tracer, wall_s: float, models: int) -> dict[str, float]:
    """Per-layer self time and share of *wall_s*, plus the layer counters."""
    self_ms = tracer.self_ms()
    layers: dict[str, float] = {}
    attributed = 0.0
    for span, metric in LAYERS.items():
        value = self_ms.get(span, 0.0)
        share = value / (wall_s * 1e3)
        layers[metric] = value
        layers[f"{metric}.share"] = share
        attributed += share
    layers["unattributed.share"] = 1.0 - attributed
    counts = tracer.counts
    sampled = counts["nasbench.models_sampled"]
    layers["nasbench.sample_us_per_model"] = (
        self_ms.get("nasbench.sample", 0.0) * 1e3 / sampled if sampled else 0.0
    )
    layers["nasbench.builds_per_model"] = counts["nasbench.builds"] / models if models else 0.0
    layers["simulator.grid_calls"] = counts["simulator.grid_calls"]
    grid_s = sum(d for d in tracer.durations_ms("simulator.grid")) / 1e3
    layers["simulator.rows_per_s"] = counts["simulator.rows"] / grid_s if grid_s else 0.0
    layers["service.files_written"] = counts["service.files_written"]
    layers["service.files_read"] = counts["service.files_read"]
    layers["core.fits"] = counts["core.fits"]
    loaded = sum(pair[0] for pair in tracer.stores.values())
    simulated = sum(pair[1] for pair in tracer.stores.values())
    layers["service.reuse_ratio"] = loaded / (loaded + simulated) if loaded + simulated else 0.0
    return layers


def top_layer(layers: dict[str, float]) -> str:
    """The layer with the largest self-time share."""
    return max(LAYERS.values(), key=lambda metric: layers[f"{metric}.share"])
