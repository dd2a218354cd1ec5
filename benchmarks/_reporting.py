"""Reporting helpers shared by the benchmark harness.

Each benchmark regenerates one table or figure of the paper.  Besides the
pytest-benchmark timing, the regenerated rows are written to
``benchmarks/results/<experiment>.txt`` so they can be inspected (and compared
with the paper's values; DESIGN.md §3 explains the gaps) without re-running
the harness, and printed to stdout for ``pytest -s`` runs.

Performance benchmarks additionally emit a machine-normalized
``benchmarks/results/BENCH_<experiment>.json`` via :func:`report_json`:
headline metrics (speedups and throughputs, all higher-is-better), the
population sizes they were measured on, and a **measured calibration
constant** — the elapsed seconds of a fixed numpy workload on this machine —
so throughputs can be compared across hosts as ``rate * calibration``
(seconds of reference work per benchmark unit).  Committed baselines live in
``benchmarks/baselines/``; :func:`compare_to_baseline` (and the
``compare_bench.py`` CLI around it) diff a fresh run against them with a
relative tolerance band, flagging any headline metric that regressed below
``baseline * (1 - tolerance)``.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import numpy as np

RESULTS_DIR = Path(__file__).parent / "results"
BASELINES_DIR = Path(__file__).parent / "baselines"

#: Schema version of the BENCH_*.json payloads.
BENCH_SCHEMA = 1

#: Fixed calibration workload size (rows of the reduceat/matmul mix).
_CALIBRATION_ROWS = 200_000

_calibration_cache: float | None = None


def report(experiment: str, lines: list[str]) -> str:
    """Write *lines* to the experiment's result file and return the text."""
    RESULTS_DIR.mkdir(exist_ok=True)
    text = "\n".join(lines) + "\n"
    (RESULTS_DIR / f"{experiment}.txt").write_text(text)
    print(f"\n=== {experiment} ===\n{text}")
    return text


def machine_calibration(rounds: int = 3) -> float:
    """Best-of elapsed seconds of a fixed numpy workload on this machine.

    The workload mixes the primitives the sweep kernels live on — gathers,
    elementwise arithmetic and ``np.add.reduceat`` segment reductions — so the
    constant tracks the machine's effective numpy throughput rather than raw
    clock speed.  Cached after the first measurement (it is ~50 ms of work).
    """
    global _calibration_cache
    if _calibration_cache is not None:
        return _calibration_cache
    rng = np.random.default_rng(2022)
    values = rng.random((_CALIBRATION_ROWS, 4))
    indices = rng.integers(0, _CALIBRATION_ROWS, size=_CALIBRATION_ROWS)
    starts = np.arange(0, _CALIBRATION_ROWS, 50)
    best = float("inf")
    for _ in range(rounds):
        begin = time.perf_counter()
        gathered = values[indices]
        mixed = gathered * 1.5 + values
        np.add.reduceat(mixed, starts, axis=0).sum()
        best = min(best, time.perf_counter() - begin)
    _calibration_cache = best
    return best


def machine_fingerprint() -> dict:
    """Non-identifying description of the measuring machine."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }


def report_json(
    experiment: str,
    headline: dict[str, float],
    population: dict[str, int] | None = None,
    metrics: dict[str, float] | None = None,
) -> dict:
    """Write ``BENCH_<experiment>.json`` and return the payload.

    ``headline`` metrics are the regression-gated numbers — all must be
    higher-is-better (speedups, throughput rates).  ``population`` records the
    sizes the metrics were measured on (models, configs, ...), so a baseline
    diff can refuse to compare apples to oranges.  ``metrics`` holds
    non-gated context numbers.

    When tracing is enabled (``REPRO_TRACE``), the payload additionally
    carries an ``obs`` key with the run's per-span breakdown
    (count / total / self time per span name), so a benchmark report doubles
    as a per-stage profile.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "schema": BENCH_SCHEMA,
        "experiment": experiment,
        "machine": machine_fingerprint(),
        "calibration_seconds": round(machine_calibration(), 6),
        "headline": {key: round(float(value), 4) for key, value in headline.items()},
        "population": {key: int(value) for key, value in (population or {}).items()},
        "metrics": {key: round(float(value), 4) for key, value in (metrics or {}).items()},
    }
    try:
        from repro import obs
    except ImportError:  # benchmarks can run without the package installed
        obs = None
    if obs is not None:
        breakdown = obs.span_breakdown()
        if breakdown:
            payload["obs"] = breakdown
    path = RESULTS_DIR / f"BENCH_{experiment}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[bench-json] wrote {path}")
    return payload


def load_baseline(experiment: str, baselines_dir: Path | None = None) -> dict | None:
    """The committed baseline payload for *experiment*, or None."""
    path = (baselines_dir or BASELINES_DIR) / f"BENCH_{experiment}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())


def compare_to_baseline(
    payload: dict,
    baseline: dict,
    tolerance: float = 0.15,
) -> list[str]:
    """Regression messages for every headline metric outside the band.

    A headline metric regresses when ``current < baseline * (1 - tolerance)``
    (all headline metrics are higher-is-better).  Metrics present only on one
    side are reported too — a silently dropped headline is itself a
    regression.  Population mismatches make ratio comparisons meaningless, so
    they short-circuit with a single message.
    """
    base_population = baseline.get("population", {})
    population = payload.get("population", {})
    mismatched = {
        key: (base_population[key], population.get(key))
        for key in base_population
        if population.get(key) != base_population[key]
    }
    if mismatched:
        details = ", ".join(
            f"{key}: baseline {base} vs current {cur}" for key, (base, cur) in mismatched.items()
        )
        return [f"population mismatch ({details}); re-run at the baseline sizes to compare"]

    problems = []
    base_headline = baseline.get("headline", {})
    headline = payload.get("headline", {})
    for key in sorted(base_headline):
        if key not in headline:
            problems.append(f"headline metric {key!r} missing from current run")
            continue
        floor = base_headline[key] * (1.0 - tolerance)
        if headline[key] < floor:
            problems.append(
                f"{key} regressed: {headline[key]:.3f} < {floor:.3f} "
                f"(baseline {base_headline[key]:.3f}, tolerance {tolerance:.0%})"
            )
    for key in sorted(set(headline) - set(base_headline)):
        problems.append(f"headline metric {key!r} has no committed baseline")
    return problems
