"""Lifecycle benchmark of the Edge TPU cost-model reproduction.

    python3 perfbench/run.py --workload {sweep,hwgrid,serve,search} \
        --seed N --seconds S --trace {0,1}

Runs one workload from the repository root on inputs generated from
``--seed`` and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` the run
measures an untraced pass and then the same work under the span wrappers of
``spans.py``, and the metrics are the per-layer ones.  The lines before it
give the run record: input and simulated-output digests, the machine
fingerprint, the reference-loop time that timings are normalized by, and the
per-layer table.  The record
is also written to ``.perfbench/``.

All latencies and energies the benchmark checks are *simulated* by the
repository's Edge TPU cost model, which is not validated against hardware;
no error figure against real devices is given.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

# One BLAS thread in this process and the server it spawns: with two vCPUs
# shared by the load generator and the server, BLAS threads only contend,
# and the reference loop that normalizes timings is single-threaded.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def measure(workload: str, seed: int, seconds: float, traced: bool, **sizes):
    """Run one workload and return its :class:`common.Outcome`."""
    import batch
    import serve

    if workload == "serve":
        return serve.run(seed, seconds, traced, **sizes)
    return batch.run(batch.WORKLOADS[workload](seed, **sizes), seconds, traced)


def result_line(outcome, traced: bool, benchmark: dict) -> dict:
    """The final JSON object; every metric of the selected list is required."""
    key = "per_layer" if traced else "end_to_end"
    values = outcome.layers if traced else outcome.metrics
    metrics = {}
    for entry in benchmark[key]:
        value = float(values.get(entry["name"], 0.0)) if traced else float(values[entry["name"]])
        if not math.isfinite(value):
            raise ValueError(f"metric {entry['name']} is not finite: {value}")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return {
        "correct": outcome.failed == 0,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import common  # noqa: E402  (needs the source tree on the path)

    if not (common.SRC / "repro").is_dir():
        print(f"no source tree at {common.SRC}", file=sys.stderr)
        return 2
    benchmark = spec()
    names = [entry["name"] for entry in benchmark["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; expected one of {names}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": time.perf_counter() - started,
        "digests": outcome.digests,
        "machine": common.machine_fingerprint(),
        "reference_s": common.reference_s(),
        "metrics": outcome.metrics,
        "layers": outcome.layers,
        "notes": outcome.notes,
        "cost_model": "simulated Edge TPU; not validated against hardware, no error figure",
    }
    if args.trace:
        record["top_layer"] = common.top_layer(outcome.layers)
    common.WORK.mkdir(exist_ok=True)
    path = common.WORK / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True))
    for name, value in sorted(outcome.layers.items()):
        print(f"layer {name:<36} {value:.6g}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result_line(outcome, bool(args.trace), benchmark)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
