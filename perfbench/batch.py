"""The three batch workloads: ``sweep``, ``hwgrid`` and ``search``.

Each workload repeats one *cycle* of public calls on seeded inputs, in a
fresh store directory every time, for about the run's seconds.  ``sweep``
rotates over three inputs drawn from the seed and ``search`` draws a fresh
one for every cycle, so that one run averages over inputs whose cost
differs; ``hwgrid`` repeats one input.  The cycle is the unit a user waits
on, so ``p50_ms``/``p95_ms`` are cycle (or, for ``search``, generation)
latencies and ``rps`` is cycles per second.  Output checks run between
cycles, outside the timed calls; after the last one the first input runs
once more, untimed, and must give the same outputs.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from common import (
    MIN_ACCURACY,
    digest,
    host_factor,
    measurement_digest,
    median_setup,
    scratch_dir,
    timing_stats,
)
from spans import untimed

#: The grid of ``benchmarks/bench_backend_fusion.py``: clock x PE geometry x
#: cores x lanes x I/O around V1 (120 points).
GRID_AXES = {
    "clock_mhz": [600.0, 800.0, 1066.0, 1250.0, 1500.0],
    "pes_x": [2, 4, 8],
    "cores_per_pe": [2, 4],
    "compute_lanes": [32, 64],
    "io_bandwidth_gbps": [8.0, 16.0],
}


@dataclass
class Cycle:
    #: Seconds of the timed calls, host-normalized with ``units`` by
    #: :func:`_cycles` (or by the workload itself); ``wall`` keeps the raw value.
    seconds: float
    output_digest: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)
    #: Unit latencies inside the cycle (search generations); empty = the cycle.
    units: list[float] = field(default_factory=list)
    best_sim_latency_ms: float = float("nan")
    wall: float = 0.0


def _allclose(left, right, rtol: float) -> bool:
    return bool(np.allclose(left, right, rtol=rtol, atol=0.0, equal_nan=True))


class Sweep:
    """sample → simulate V1/V2/V3 → persist → compact → publish manifest."""

    name = "sweep"
    populations = 3
    #: A run holds at least this many cycles.
    min_cycles = 4
    #: Cycles are host-normalized (see ``common.host_factor``).
    normalized = True

    def __init__(self, seed: int, models: int = 250, warmup_models: int = 96):
        from repro.arch.config import STUDIED_CONFIGS

        self.seed = seed
        self.models_per_cycle = models
        self.warmup_models = warmup_models
        self.configs = list(STUDIED_CONFIGS.values())
        self.configs_per_model = len(self.configs)
        self.names = [config.name for config in self.configs]
        self.inputs = digest("sweep", seed, models, self.populations, *self.names)
        self._oracle_checked = False

    def setup(self) -> float:
        """Median cold lifecycle of a small population in a fresh store."""
        seconds, _ = median_setup(
            lambda: self._lifecycle(self.warmup_models, self.seed, check=False), repeats=7
        )
        return seconds

    def cycle(self, check: bool, index: int) -> Cycle:
        return self._lifecycle(self.models_per_cycle, self.seed * self.populations + index, check)

    def _lifecycle(self, models: int, seed: int, check: bool) -> Cycle:
        from repro.nasbench import NASBenchDataset
        from repro.service import MeasurementStore

        with scratch_dir() as root:
            start = time.perf_counter()
            dataset = NASBenchDataset.generate(num_models=models, seed=seed)
            store = MeasurementStore(root)
            measurements = store.extend(dataset, configs=self.configs)
            store.compact(dataset, configs=self.configs)
            store.publish_manifest(dataset, configs=self.configs)
            seconds = time.perf_counter() - start

            outputs = measurement_digest(measurements, self.names)
            feasible = dataset.accuracies() >= MIN_ACCURACY
            result = Cycle(
                seconds,
                digest(*(record.fingerprint for record in dataset), outputs),
                best_sim_latency_ms=float(measurements.latencies("V1")[feasible].min()),
            )
            if check:
                reloaded = MeasurementStore(root).load(dataset, configs=self.names)
                result.checks += 1
                if measurement_digest(reloaded, self.names) != outputs:
                    result.failures.append("compacted store does not reload bit-identical")
                if not self._oracle_checked:
                    self._check_oracle(dataset, measurements, result)
                    self._oracle_checked = True
        return result

    def _check_oracle(self, dataset, measurements, result: Cycle, pairs: int = 6) -> None:
        """A seeded sample of (model, config) pairs against the scalar simulator."""
        from repro.simulator import PerformanceSimulator

        rng = np.random.default_rng(self.seed)
        for index in rng.choice(len(dataset), size=min(pairs, len(dataset)), replace=False):
            config = self.configs[int(rng.integers(len(self.configs)))]
            record = dataset[int(index)]
            network = record.build_network(dataset.network_config)
            oracle = PerformanceSimulator(config).simulate(network)
            energy = np.nan if oracle.energy_mj is None else oracle.energy_mj
            result.checks += 1
            if not (
                _allclose(measurements.latencies(config.name)[index], oracle.latency_ms, 1e-9)
                and _allclose(measurements.energies(config.name)[index], energy, 1e-9)
            ):
                result.failures.append(f"model {index} on {config.name} disagrees with the oracle")



class HwGrid:
    """Frontier sweep of a fixed population over the 120-point grid."""

    name = "hwgrid"
    populations = 1
    min_cycles = 2
    normalized = True

    def __init__(self, seed: int, models: int = 200, grid_points: int | None = None):
        from repro.hwspace import AcceleratorSpace, config_digest

        self.seed = seed
        self.models_per_cycle = models
        self.configs = list(AcceleratorSpace(GRID_AXES).enumerate())[:grid_points]
        self.configs_per_model = len(self.configs)
        self.names = [config.name for config in self.configs]
        self.grid = digest(*(config_digest(config) for config in self.configs))
        self.dataset = None
        self.inputs = ""

    def setup(self) -> float:
        """Median time to generate and expand the population."""
        from repro.nasbench import NASBenchDataset

        def build():
            dataset = NASBenchDataset.generate(num_models=self.models_per_cycle, seed=self.seed)
            for record in dataset:
                record.build_network(dataset.network_config)
            return dataset

        seconds, self.dataset = median_setup(build, repeats=5)
        prints = [record.fingerprint for record in self.dataset]
        self.inputs = digest("hwgrid", self.seed, *prints, self.grid)
        return seconds

    def cycle(self, check: bool, index: int) -> Cycle:
        from repro.hwspace import HardwareFrontier
        from repro.service import MeasurementStore

        with scratch_dir() as root:
            start = time.perf_counter()
            store = MeasurementStore(root)
            frontier = HardwareFrontier(self.dataset, store)
            measurements = frontier.sweep(self.configs)
            store.compact(self.dataset, configs=self.configs)
            points = frontier.summarize(self.configs, measurements)
            seconds = time.perf_counter() - start

        summary = np.array(
            [[p.mean_latency_ms, p.median_latency_ms, p.mean_energy_mj] for p in points]
        )
        result = Cycle(
            seconds,
            digest(measurement_digest(measurements, self.names), summary),
            best_sim_latency_ms=float(summary[:, 0].min()),
        )
        if check:
            mask = self.dataset.accuracies() >= MIN_ACCURACY
            for point, row in zip(points, summary):
                latency = measurements.latencies(point.config.name)[mask]
                energy = measurements.energies(point.config.name)[mask]
                energy = energy[np.isfinite(energy)]
                mean_energy = energy.mean() if energy.size else np.nan
                expected = [latency.mean(), np.median(latency), mean_energy]
                result.checks += 1
                if not _allclose(row, expected, 1e-12):
                    result.failures.append(
                        f"summary of {point.config.name} disagrees with the sweep"
                    )
        return result



class Search:
    """Predictor-guided architecture search on V1 with a store per run."""

    name = "search"
    #: A fresh input every cycle (a run holds far fewer): the cost of a
    #: search differs by up to 30% between seeds, and a run that rotated
    #: over three inputs inherited that spread.
    populations = 1000
    min_cycles = 4
    #: A cycle normalizes each generation itself: the host's slow phases
    #: last about a second, so a snapshot before a cycle of seconds does not
    #: represent it.  At 24 x 12, one snapshot per cycle, a run held four
    #: cycles and models_per_s spread 0.19-0.31 over ten seeds.
    normalized = False

    def __init__(self, seed: int, population: int = 16, generations: int = 6):
        self.seed = seed
        self.population = population
        self.generations = generations
        self.models_per_cycle = population * generations
        self.configs_per_model = 1
        self.inputs = digest("search", seed, population, generations, self.populations)

    def _run(self, generations: int, seed: int) -> Cycle:
        from repro import SearchEngine, SearchSpec
        from repro.service import MeasurementStore

        spec = SearchSpec(
            strategy="predictor",
            population_size=self.population,
            generations=generations,
            seed=seed,
        )
        with scratch_dir() as root:
            store = MeasurementStore(root, shard_size=self.population)
            # Each generation is scaled by the mean of the snapshots taken
            # just before and just after it; the snapshots themselves are not
            # timed.  The last span is the rest of ``run`` after the final
            # progress call.
            factors, spans = [host_factor()], []
            begin = time.perf_counter()

            def generation_done(_message):
                nonlocal begin
                spans.append(time.perf_counter() - begin)
                with untimed():
                    factors.append(host_factor())
                begin = time.perf_counter()

            result = SearchEngine(spec, store=store).run(progress=generation_done)
            spans.append(time.perf_counter() - begin)
        brackets = [(a + b) / 2 for a, b in zip(factors, factors[1:])] + factors[-1:]
        scaled = [span * factor for span, factor in zip(spans, brackets)]
        winner = result.dataset[result.best_index]
        cycle = Cycle(
            sum(scaled),
            digest(winner.fingerprint, result.best_objective, result.measurements.latencies("V1")),
            units=scaled[:-1],
            best_sim_latency_ms=float(result.best_objective),
            wall=sum(spans),
        )
        feasible = result.dataset.accuracies() >= spec.min_accuracy
        cycle.checks += 1
        if not (
            winner.mean_validation_accuracy >= spec.min_accuracy
            and result.best_objective == result.measurements.latencies("V1")[feasible].min()
        ):
            cycle.failures.append("search winner is not the best feasible measured model")
        return cycle

    def setup(self) -> float:
        """Median of nine two-generation searches: engine, first fit and store warm-up.

        Each on its own input (drawn from the end of the cycles' range), as
        the cost of one differs by up to 2x between inputs.
        """
        end = (self.seed + 1) * self.populations
        inputs = range(end - 9, end)
        return statistics.median(self._run(2, seed).seconds for seed in inputs)

    def cycle(self, check: bool, index: int) -> Cycle:
        return self._run(self.generations, self.seed * self.populations + index)


WORKLOADS = {cls.name: cls for cls in (Sweep, HwGrid, Search)}


def _cycles(workload, seconds: float, check: bool, count: int | None = None) -> list[Cycle]:
    """*count* cycles, or as many as fit in *seconds* (at least ``min_cycles``).

    A normalized workload's cycle is scaled by the mean of the host snapshots
    taken just before and just after it.
    """
    cycles: list[Cycle] = []
    start = time.perf_counter()
    before = host_factor() if workload.normalized else None
    while True:
        cycle = workload.cycle(check, len(cycles) % workload.populations)
        if before is not None:
            after = host_factor()
            factor = (before + after) / 2
            cycle.wall = cycle.seconds
            cycle.seconds *= factor
            cycle.units = [unit * factor for unit in cycle.units]
            before = after
        cycles.append(cycle)
        if count is not None:
            if len(cycles) == count:
                return cycles
            continue
        typical = statistics.median(c.wall for c in cycles)
        if len(cycles) >= workload.min_cycles and time.perf_counter() - start + typical > seconds:
            return cycles


def run(workload, seconds: float, traced: bool):
    """Set up, then measure; with *traced*, a second pass under the span wrappers."""
    from common import Outcome, layer_report, peak_rss_mb
    from spans import Tracer, instrument

    setup_s = workload.setup()
    budget = seconds / 2 if traced else seconds
    cycles = _cycles(workload, budget, check=True)
    failures = [f for c in cycles for f in c.failures]
    attempted = sum(c.checks for c in cycles)
    outputs = [c.output_digest for c in cycles]
    first: dict[int, str] = {}
    for index, output in enumerate(outputs):
        if first.setdefault(index % workload.populations, output) != output:
            failures.append(f"cycle {index} differs from an earlier cycle of its input")
    again = workload.cycle(False, 0)
    attempted += len(cycles) - len(first) + 1 + again.checks
    failures += again.failures
    if again.output_digest != outputs[0]:
        failures.append("a repeat of the first input, after the timed cycles, differs from it")
    covered = min(workload.populations, workload.min_cycles)

    notes: dict = {
        "cycle_s": [c.seconds for c in cycles],
        "cycle_wall_s": [c.wall for c in cycles],
    }
    # Throughput over the whole run: the error of each host snapshot averages
    # out in a sum, while a median jumps between the host's fast and slow
    # readings.  Over ten seeds the sum spread 0.04 on sweep and 0.10 on
    # hwgrid, the median cycle 0.07 and 0.15.
    total_s = sum(c.seconds for c in cycles)
    models_per_s = workload.models_per_cycle * len(cycles) / total_s
    units = [u for c in cycles for u in c.units] or [c.seconds for c in cycles]
    metrics = {
        "setup_s": setup_s,
        "models_per_s": models_per_s,
        "evals_per_s": models_per_s * workload.configs_per_model,
        "rps": len(units) / total_s,
        **timing_stats("latency", units, notes),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes["best_sim_latency_ms"] = statistics.median(c.best_sim_latency_ms for c in cycles)
    layers: dict[str, float] = {}
    if traced:
        tracer = Tracer()
        with instrument(tracer):
            traced_cycles = _cycles(workload, budget, check=False, count=len(cycles))
        attempted += len(traced_cycles)
        if [c.output_digest for c in traced_cycles] != outputs:
            failures.append("traced run's simulated outputs differ from the untraced run's")
        wall = sum(c.wall for c in traced_cycles)
        layers = layer_report(tracer, wall, workload.models_per_cycle * len(traced_cycles))
        traced_s = sum(c.seconds for c in traced_cycles)
        layers["trace_overhead_pct"] = 100.0 * (traced_s / sum(c.seconds for c in cycles) - 1.0)
        gens = [u for c in traced_cycles for u in c.units]
        layers["search.generation_ms"] = statistics.median(gens) * 1e3 if gens else 0.0
    return Outcome(
        metrics=metrics,
        attempted=attempted,
        failed=len(failures),
        digests={"inputs": workload.inputs, "outputs": digest(*outputs[:covered])},
        layers=layers,
        notes={**notes, "failures": failures},
    )
