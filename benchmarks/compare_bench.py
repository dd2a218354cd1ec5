#!/usr/bin/env python
"""Diff fresh BENCH_*.json results against the committed baselines.

Usage (from the repository root)::

    python benchmarks/compare_bench.py                    # all baselines
    python benchmarks/compare_bench.py macro_sweep        # one experiment
    python benchmarks/compare_bench.py --tolerance 0.15

Every committed ``benchmarks/baselines/BENCH_<name>.json`` is matched against
``benchmarks/results/BENCH_<name>.json`` from the current run.  A headline
metric (all higher-is-better speedups/rates) that falls below
``baseline * (1 - tolerance)`` fails the comparison; so does a headline that
disappeared, or a run at different population sizes.  Exit status is the
number of failing experiments, so CI can gate on it directly.

Results measured on a different machine are still comparable for *speedups*
(ratios cancel the machine out); for absolute throughputs the JSON carries a
measured ``calibration_seconds`` constant — multiply a rate by it to get a
machine-normalized "reference-work units per benchmark unit" figure.  The
gate below intentionally covers only the committed headline metrics, which
are ratios.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _reporting import BASELINES_DIR, RESULTS_DIR, compare_to_baseline


def compare_all(
    names: list[str],
    results_dir: Path,
    baselines_dir: Path,
    tolerance: float,
) -> int:
    """Print a comparison report; return the number of failing experiments."""
    baselines = sorted(baselines_dir.glob("BENCH_*.json"))
    if names:
        wanted = {f"BENCH_{name}.json" for name in names}
        missing = wanted - {path.name for path in baselines}
        if missing:
            print(f"no committed baseline for: {', '.join(sorted(missing))}", file=sys.stderr)
            return len(missing)
        baselines = [path for path in baselines if path.name in wanted]
    if not baselines:
        print(f"no baselines under {baselines_dir}", file=sys.stderr)
        return 1

    failures = 0
    for baseline_path in baselines:
        experiment = baseline_path.stem.removeprefix("BENCH_")
        result_path = results_dir / baseline_path.name
        if not result_path.exists():
            print(f"[SKIP] {experiment}: no fresh result at {result_path}")
            continue
        baseline = json.loads(baseline_path.read_text())
        payload = json.loads(result_path.read_text())
        problems = compare_to_baseline(payload, baseline, tolerance=tolerance)
        if problems:
            failures += 1
            print(f"[FAIL] {experiment}:")
            for problem in problems:
                print(f"       - {problem}")
        else:
            summary = ", ".join(
                f"{key}={value:g}" for key, value in sorted(payload.get("headline", {}).items())
            )
            print(f"[ OK ] {experiment}: {summary}")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="experiments to compare (default: all baselines)")
    parser.add_argument("--results-dir", type=Path, default=RESULTS_DIR)
    parser.add_argument("--baselines-dir", type=Path, default=BASELINES_DIR)
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        help="allowed relative headline regression (default 0.15)",
    )
    args = parser.parse_args(argv)
    return compare_all(args.names, args.results_dir, args.baselines_dir, args.tolerance)


if __name__ == "__main__":
    raise SystemExit(main())
