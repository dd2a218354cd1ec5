"""In-memory timing spans around the public callables of each layer.

The benchmark measures every layer from the outside: :func:`instrument`
replaces the public entry points of ``nasbench``, ``simulator``, ``service``,
``core``, ``search`` and ``hwspace`` with wrappers that record a span per call
into a :class:`Tracer`, and puts the originals back when the ``with`` block
ends.  Nothing inside the program is changed or consulted (its own ``obs``
spans stay off), and untraced runs install no wrapper at all.

A span records its name, start, end and the span it ran inside on the same
thread.  Its *self time* is its duration minus the durations of the wrapped
spans directly inside it; the per-layer report sums self time by span name.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time
from collections import Counter, defaultdict


class Tracer:
    """Spans and counters kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        #: Latest ``StoreStats`` (pairs loaded, pairs simulated) per store object.
        self.stores: dict[int, tuple[int, int]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        span = {
            "name": name,
            "parent": parent["name"] if parent else None,
            "start": time.perf_counter(),
            "children_s": 0.0,
        }
        stack.append(span)
        try:
            yield
        finally:
            stack.pop()
            span["end"] = time.perf_counter()
            duration = span["end"] - span["start"]
            span["self_s"] = duration - span["children_s"]
            if parent is not None:
                parent["children_s"] += duration
            with self._lock:
                self.spans.append(span)

    @contextlib.contextmanager
    def untimed(self):
        """Keep the ``with`` body out of the self time of the span around it."""
        stack = self._local.__dict__.setdefault("stack", [])
        start = time.perf_counter()
        try:
            yield
        finally:
            if stack:
                stack[-1]["children_s"] += time.perf_counter() - start

    def count(self, name: str, delta: int = 1) -> None:
        with self._lock:
            self.counts[name] += delta

    def self_ms(self) -> dict[str, float]:
        """Total self time per span name, in milliseconds."""
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span["name"]] += span["self_s"] * 1e3
        return dict(totals)

    def durations_ms(self, name: str) -> list[float]:
        """Full durations of every span called *name*, in milliseconds."""
        return [(s["end"] - s["start"]) * 1e3 for s in self.spans if s["name"] == name]


#: The tracer of the running :func:`instrument` block, if any.
_active: list[Tracer] = []


def untimed():
    """Benchmark work inside a wrapped call (a host snapshot), kept out of its span."""
    return _active[-1].untimed() if _active else contextlib.nullcontext()


def _timed(tracer: Tracer, name, function, after=None):
    """*function* wrapped in a span; *name* may be a callable of the arguments."""

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        with tracer.span(name(*args, **kwargs) if callable(name) else name):
            result = function(*args, **kwargs)
        if after is not None:
            after(result, *args, **kwargs)
        return result

    return wrapper


class _Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attribute: str, value) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def function(self, original, wrapper) -> None:
        """Replace *original* in every ``repro`` module namespace holding it.

        Modules bind imported functions by name, so the wrapper must sit at
        each call site's module, not only where the function is defined.
        """
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attribute, wrapper)

    def method(self, cls, attribute: str, wrap) -> None:
        raw = cls.__dict__[attribute]
        if isinstance(raw, classmethod):
            self.set(cls, attribute, classmethod(wrap(raw.__func__)))
        else:
            self.set(cls, attribute, wrap(raw))

    def undo(self) -> None:
        while self._undo:
            owner, attribute, value = self._undo.pop()
            setattr(owner, attribute, value)


def _query_name(_service, request, *args, **kwargs) -> str:
    return f"service.query.{request.kind}"


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every measured layer's public callables for the ``with`` body."""
    from repro.core.predictor import LearnedPerformanceModel
    from repro.hwspace.frontier import HardwareFrontier
    from repro.nasbench import generator, mutation, network
    from repro.nasbench.dataset import NASBenchDataset
    from repro.nasbench.layer_table import LayerTable
    from repro.search.engine import SearchEngine
    from repro.service import store
    from repro.service.query import SweepService
    from repro.simulator.batch import BatchSimulator

    def count_models(result, *args, **kwargs):
        tracer.count("nasbench.models_sampled", len(result))

    def count_read(result, *args, **kwargs):
        if result is not None:
            tracer.count("service.files_read")

    def count_grid(result, _simulator, table, configs, *args, **kwargs):
        tracer.count("simulator.grid_calls")
        tracer.count("simulator.rows", len(configs) * table.num_layers)

    def store_stats(result, measurement_store, *args, **kwargs):
        stats = measurement_store.stats
        tracer.stores[id(measurement_store)] = (stats.pairs_loaded, stats.pairs_simulated)

    def counter(name):
        return lambda result, *args, **kwargs: tracer.count(name)

    patches = _Patches()
    try:
        patches.function(
            generator.sample_unique_cells,
            _timed(tracer, "nasbench.sample", generator.sample_unique_cells, count_models),
        )
        patches.function(
            network.build_network,
            _timed(tracer, "nasbench.build_network", network.build_network,
                   counter("nasbench.builds")),
        )
        patches.function(
            mutation.mutate_unique,
            _timed(tracer, "nasbench.mutate", mutation.mutate_unique),
        )
        patches.function(
            store.write_npz,
            _timed(tracer, "service.write", store.write_npz, counter("service.files_written")),
        )
        patches.function(
            store.read_npz, _timed(tracer, "service.read", store.read_npz, count_read)
        )
        for cls, attribute, name, after in (
            (NASBenchDataset, "from_cells", "nasbench.from_cells", None),
            (LayerTable, "from_networks", "nasbench.layer_table", None),
            (BatchSimulator, "evaluate_table_grid", "simulator.grid", count_grid),
            (store.MeasurementStore, "extend", "service.extend", store_stats),
            (store.MeasurementStore, "compact", "service.compact", None),
            (store.MeasurementStore, "publish_manifest", "service.manifest", None),
            (store.MeasurementStore, "load", "service.load", store_stats),
            (SweepService, "query", _query_name, None),
            (LearnedPerformanceModel, "fit_table", "core.fit", counter("core.fits")),
            (LearnedPerformanceModel, "restore_state", "core.restore", None),
            (LearnedPerformanceModel, "predict_cells", "core.predict", None),
            (SearchEngine, "run", "search.run", None),
            (HardwareFrontier, "summarize", "hwspace.summarize", None),
        ):
            patches.method(
                cls, attribute,
                lambda function, name=name, after=after: _timed(tracer, name, function, after),
            )
        _active.append(tracer)
        yield tracer
    finally:
        if tracer in _active:
            _active.remove(tracer)
        patches.undo()
