"""Query service over a warm measurement store.

:class:`SweepService` answers the questions the analysis and exploration
workflows keep asking of a finished sweep — without re-simulating anything:
construction loads the population's measurements from a
:class:`~repro.service.store.MeasurementStore` (read-only; a cold store is a
:class:`~repro.errors.ServiceError`, never a silent re-sweep), and every
query is a lookup or an array kernel over the loaded
:class:`~repro.simulator.runner.MeasurementSet`.

The service exposes **one typed entry point**, :meth:`query`, dispatching on
the request variants of :mod:`repro.service.api` (:class:`TopKRequest`,
:class:`ParetoRequest`, :class:`MetricRequest`, :class:`PredictRequest`)
straight into the :mod:`repro.analysis` kernels and returning a
:class:`~repro.service.api.QueryResponse` envelope whose ``result`` payload
is JSON-serializable — the exact bytes :mod:`repro.server` puts on the wire.
Beside it:

* :meth:`metric_of` — one measured metric of a cell by its isomorphism
  fingerprint, the lookup :class:`MetricRequest` dispatches into;
* :meth:`model` — the learned model of one (configuration, metric), trained
  on the stored measurements once and restored from weights cached as npz
  next to the shards (keyed by population content digest × configuration ×
  metric × training settings × compiler mode) on every later call, by any
  service over the same store;
* :meth:`predict` — estimated metrics for *unseen* cells from that model.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict
from typing import Iterable, Sequence

import numpy as np

from ..analysis.pareto import (
    AccuracyLatencyPoint,
    TopModelEntry,
    latency_accuracy_frontier,
    top_models_by_accuracy,
)
from ..core.graph_table import GraphTable
from ..core.predictor import (
    LearnedPerformanceModel,
    TrainingSettings,
    metric_targets,
    table_digest,
)
from ..errors import ModelError, ServiceError
from ..nasbench.cell import Cell
from ..nasbench.dataset import ModelRecord, NASBenchDataset
from ..simulator.runner import MeasurementSet
from .api import (
    MetricRequest,
    ParetoRequest,
    PredictRequest,
    QueryRequest,
    QueryResponse,
    TopKRequest,
    resolve_configs,
)
from .store import (
    STORE_FORMAT_VERSION,
    MeasurementStore,
    read_npz,
    stable_digest,
    write_npz,
)


def _same_population(left: NASBenchDataset, right: NASBenchDataset) -> bool:
    """Whether two datasets describe the same swept population.

    Identity is content, not object: equal record fingerprints in the same
    order and the same network configuration.  A worker-rebuilt dataset of
    the same population (e.g. reconstructed from a sweep manifest) is the
    same population.
    """
    if left is right:
        return True
    if len(left) != len(right) or left.network_config != right.network_config:
        return False
    return all(
        a.fingerprint == b.fingerprint for a, b in zip(left.records, right.records)
    )


class SweepService:
    """Disk-backed query API over one population's sweep measurements.

    Parameters
    ----------
    store:
        The warm :class:`MeasurementStore`; every requested (shard,
        configuration) pair must already be on disk.
    dataset:
        The population the store was swept over (fingerprint-verified
        against the shard files on load).
    configs:
        Keyword-only: configurations to serve (names or
        :class:`~repro.arch.config.AcceleratorConfig`; defaults to the
        paper's V1/V2/V3).  Normalized through
        :func:`~repro.service.api.resolve_configs` — unknown names raise
        :class:`ServiceError` naming the offenders before any disk load is
        attempted.
    settings:
        Training hyperparameters of the learned models behind :meth:`model`
        (part of their weight-cache key).
    measurements:
        Optional already-loaded :class:`MeasurementSet` to serve from,
        skipping the disk load.  Used by callers that just swept the store
        and still hold the result (the search engine constructs one service
        per generation); the set must cover every requested configuration
        and belong to the same population as *dataset* (fingerprint-equal
        datasets are accepted — object identity is not required).
    """

    def __init__(
        self,
        store: MeasurementStore,
        dataset: NASBenchDataset,
        *,
        configs: Iterable[object] | None = None,
        settings: TrainingSettings | None = None,
        measurements: MeasurementSet | None = None,
    ):
        self._store = store
        self._dataset = dataset
        if measurements is None:
            names = resolve_configs(configs, available=store.available_configs())
            measurements = store.load(dataset, configs=names)
        else:
            if not _same_population(measurements.dataset, dataset):
                raise ServiceError(
                    "the preloaded measurement set belongs to a different "
                    "dataset than the one served"
                )
            missing = [
                name
                for name in resolve_configs(configs)
                if name not in measurements.config_names
            ]
            if missing:
                raise ServiceError(f"the preloaded measurement set lacks configurations {missing}")
        self._measurements = measurements
        self._settings = settings or TrainingSettings()
        self._models: dict[tuple[str, str], LearnedPerformanceModel] = {}
        self._table: GraphTable | None = None
        self._store_digest: str | None = None

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def dataset(self) -> NASBenchDataset:
        """The served population."""
        return self._dataset

    @property
    def measurements(self) -> MeasurementSet:
        """The store-loaded measurement set every query is answered from."""
        return self._measurements

    @property
    def config_names(self) -> list[str]:
        """Configurations the service can answer queries for."""
        return self._measurements.config_names

    @property
    def store_digest(self) -> str:
        """Content digest of the served measurements.

        Covers the population fingerprints and every served configuration's
        latency/energy arrays, so two services answer queries identically
        iff their digests match.  This is the provenance field of every
        :class:`QueryResponse` and the store half of the server's cache key.
        """
        if self._store_digest is None:
            digest = hashlib.sha256()
            for record in self._dataset.records:
                digest.update(record.fingerprint.encode())
            for name in self._measurements.config_names:
                digest.update(name.encode())
                digest.update(
                    np.ascontiguousarray(self._measurements.latencies(name)).tobytes()
                )
                digest.update(
                    np.ascontiguousarray(self._measurements.energies(name)).tobytes()
                )
            self._store_digest = digest.hexdigest()[:16]
        return self._store_digest

    # ------------------------------------------------------------------ #
    # The unified typed entry point
    # ------------------------------------------------------------------ #
    def query(self, request: QueryRequest) -> QueryResponse:
        """Answer one typed request; the single dispatch every front-end uses.

        The ``result`` payload is JSON-serializable: the
        :mod:`repro.analysis` kernel's answer (or :meth:`metric_of` /
        :meth:`predict`'s), encoded field by field.
        """
        if isinstance(request, TopKRequest):
            entries = top_models_by_accuracy(self._measurements, request.k)
            result = {"entries": [self._encode_top_entry(e) for e in entries]}
            served_from = "store"
        elif isinstance(request, ParetoRequest):
            self._require_config(request.config_name)
            points = latency_accuracy_frontier(
                self._measurements, request.config_name, request.min_accuracy
            )
            result = {"points": [self._encode_pareto_point(p) for p in points]}
            served_from = "store"
        elif isinstance(request, MetricRequest):
            value = self.metric_of(request.fingerprint, request.config_name, request.metric)
            result = {"value": None if value is None else float(value)}
            served_from = "store"
        elif isinstance(request, PredictRequest):
            values = self.predict(list(request.cells), request.config_name, request.metric)
            result = {"values": [float(value) for value in values]}
            served_from = "model"
        else:
            raise ServiceError(
                f"unsupported query request type {type(request).__name__!r}"
            )
        return QueryResponse(
            kind=request.kind,
            result=result,
            store_digest=self.store_digest,
            served_from=served_from,
        )

    def _encode_top_entry(self, entry: TopModelEntry) -> dict:
        return {
            "rank": int(entry.rank),
            "fingerprint": entry.record.fingerprint,
            "accuracy": float(entry.accuracy),
            "latency_ms": {
                name: float(value) for name, value in sorted(entry.latency_ms.items())
            },
            "fastest_config": entry.fastest_config,
            "speedup_over_best_model": {
                name: float(value)
                for name, value in sorted(entry.speedup_over_best_model.items())
            },
        }

    def _encode_pareto_point(self, point: AccuracyLatencyPoint) -> dict:
        return {
            "latency_ms": float(point.latency_ms),
            "accuracy": float(point.accuracy),
            "model_index": int(point.model_index),
            "fingerprint": self._dataset[point.model_index].fingerprint,
        }

    # ------------------------------------------------------------------ #
    # Point lookups by fingerprint
    # ------------------------------------------------------------------ #
    def record_of(self, fingerprint: str) -> ModelRecord:
        """The dataset record with the given isomorphism fingerprint."""
        return self._dataset.find(fingerprint)

    def metric_of(self, fingerprint: str, config_name: str, metric: str) -> float | None:
        """One measured metric of one cell, looked up by fingerprint.

        ``metric`` selects latency (ms) or energy (mJ; ``None`` when the
        configuration has no energy model).  The request layer dispatches
        :class:`MetricRequest` straight into it.
        """
        self._require_config(config_name)
        record = self.record_of(fingerprint)
        if metric == "latency":
            return self._measurements.latency_of(record, config_name)
        if metric == "energy":
            return self._measurements.energy_of(record, config_name)
        raise ServiceError(
            f"unknown metric {metric!r}; expected one of ('latency', 'energy')"
        )

    # ------------------------------------------------------------------ #
    # Predictions for unseen cells
    # ------------------------------------------------------------------ #
    def predict(
        self, cells: Sequence[Cell], config_name: str, metric: str = "latency"
    ) -> np.ndarray:
        """Predicted metric values (raw units) of *cells* — no simulation."""
        return self.model(config_name, metric).predict_cells(list(cells))

    def model(self, config_name: str, metric: str = "latency") -> LearnedPerformanceModel:
        """The learned model of one (configuration, metric): restored or fitted.

        Restores the weights cached at :meth:`model_state_path` when they are
        readable, were trained on this population and stored exactly the
        labels the model would now be fitted on; otherwise fits on the served
        measurements and (over)writes the file.  A truncated file is
        quarantined by :func:`~repro.service.store.read_npz`.  The model is
        kept, so each (configuration, metric) is restored or fitted once per
        service.
        """
        cached = self._models.get((config_name, metric))
        if cached is not None:
            return cached
        self._require_config(config_name)
        targets = metric_targets(self._measurements, config_name, metric)
        table = self._packed_table()
        path = self.model_state_path(config_name, metric)
        model = LearnedPerformanceModel(config_name, self._settings)
        state = read_npz(path)
        restored = False
        if state is not None and np.array_equal(state.get("targets"), targets):
            try:
                model.restore_state(table, state)
                restored = True
            except ModelError:
                # Trained on another population under a colliding name.
                model = LearnedPerformanceModel(config_name, self._settings)
        if not restored:
            model.fit_table(table, targets)
            write_npz(path, model.export_state())
        self._models[(config_name, metric)] = model
        return model

    def model_state_path(self, config_name: str, metric: str = "latency"):
        """Path of the cached trained-model state behind :meth:`model`.

        Weights live in a ``models/`` subdirectory so they can never be
        mistaken for shard files by the store's directory scan
        (:meth:`MeasurementStore.available_configs`).
        """
        key = stable_digest(
            {
                "kind": "service-model",
                "version": STORE_FORMAT_VERSION,
                "population": table_digest(self._packed_table()),
                "config": config_name,
                "metric": metric,
                "settings": asdict(self._settings),
                "parameter_caching": self._store.enable_parameter_caching,
            }
        )
        return self._store.root / "models" / f"{self._store.prefix}-{key}.npz"

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _packed_table(self) -> GraphTable:
        if self._table is None:
            self._table = GraphTable.from_cells([record.cell for record in self._dataset])
        return self._table

    def _require_config(self, config_name: str) -> None:
        if config_name not in self._measurements.config_names:
            raise ServiceError(
                f"configuration {config_name!r} is not served by this sweep "
                f"service (available: {self._measurements.config_names})"
            )
