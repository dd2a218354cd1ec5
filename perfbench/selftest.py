"""Smoke self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks, for every workload, that an untraced and a traced run are correct
and report every metric of ``BENCHMARK.json`` with its unit, that the same
seed gives identical input and output digests, and that another seed changes
the input digest.  Also checks the metric names and units against the
benchmark's naming rules, and that the benchmark refuses to run without the
source tree.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import ROOT, measure, result_line, spec

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

TINY = {
    "sweep": {"models": 40, "warmup_models": 12},
    "hwgrid": {"models": 24, "grid_points": 6},
    "serve": {"models": 40, "heldout": 10},
    "search": {"population": 10, "generations": 3},
}


def check_names(benchmark: dict) -> None:
    seen = set()
    for key in ("workloads", "end_to_end", "per_layer"):
        for entry in benchmark[key]:
            name = entry["name"]
            assert NAME.match(name), f"bad metric or workload name {name!r}"
            assert name not in seen, f"name {name!r} is used twice"
            seen.add(name)
            if "unit" in entry:
                assert UNIT.match(entry["unit"]), f"bad unit {entry['unit']!r} of {name}"


def check_result(line: dict, expected: list[dict]) -> None:
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, line
    assert set(line["metrics"]) == {entry["name"] for entry in expected}
    for entry in expected:
        assert line["metrics"][entry["name"]]["unit"] == entry["unit"]


def check_workload(name: str, benchmark: dict) -> None:
    sizes = TINY[name]
    first = measure(name, 1, 0.5, False, **sizes)
    check_result(result_line(first, False, benchmark), benchmark["end_to_end"])
    traced = measure(name, 1, 0.5, True, **sizes)
    check_result(result_line(traced, True, benchmark), benchmark["per_layer"])
    assert traced.digests == first.digests, (traced.digests, first.digests)
    again = measure(name, 1, 0.5, False, **sizes)
    assert again.digests == first.digests, (again.digests, first.digests)
    other = measure(name, 2, 0.5, False, **sizes)
    assert other.digests["inputs"] != first.digests["inputs"], "seed does not change the inputs"
    print(f"selftest {name}: ok ({first.digests})")


def check_refuses_without_source(benchmark: dict) -> None:
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in benchmark["paths"]:
            shutil.copytree(
                ROOT / path, Path(bare) / path, ignore=shutil.ignore_patterns("__pycache__")
            )
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        assert done.returncode != 0 and not done.stdout.strip(), "ran without a source tree"
    print("selftest bare checkout: refused")


def main() -> int:
    benchmark = spec()
    check_names(benchmark)
    sys.path.insert(0, str(ROOT / "src"))
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    check_refuses_without_source(benchmark)
    for entry in benchmark["workloads"]:
        check_workload(entry["name"], benchmark)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
