"""Tests of the typed query API (requests, envelope, keys, dispatch)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import latency_accuracy_frontier, top_models_by_accuracy
from repro.arch import EDGE_TPU_V2, STUDIED_CONFIGS
from repro.core import TrainingSettings
from repro.errors import InvalidCellError, ServiceError
from repro.nasbench import NASBenchDataset, sample_unique_cells
from repro.service import MeasurementStore, SweepService
from repro.service.api import (
    MetricRequest,
    ParetoRequest,
    PredictRequest,
    QueryResponse,
    TopKRequest,
    cache_key,
    canonical_request_key,
    request_from_dict,
    resolve_configs,
)

SHARD = 8
CONFIGS = ("V1", "V3")


@pytest.fixture(scope="module")
def api_dataset():
    return NASBenchDataset.generate(num_models=24, seed=31)


@pytest.fixture(scope="module")
def warm_root(tmp_path_factory, api_dataset):
    root = tmp_path_factory.mktemp("api-store")
    MeasurementStore(root, shard_size=SHARD).extend(api_dataset, configs=CONFIGS)
    return root


@pytest.fixture(scope="module")
def service(warm_root, api_dataset):
    return SweepService(
        MeasurementStore(warm_root, shard_size=SHARD),
        api_dataset,
        configs=CONFIGS,
        settings=TrainingSettings(epochs=2, seed=0),
    )


class TestRequestRoundTrips:
    def variants(self):
        cells = tuple(sample_unique_cells(2, seed=5))
        return [
            TopKRequest(k=3),
            ParetoRequest("V1", 0.65),
            MetricRequest("fp-a", "V1"),
            MetricRequest("fp-b", "V2", metric="energy"),
            MetricRequest("fp-c", "V3", metric="energy"),
            PredictRequest(cells, "V1", "latency"),
        ]

    def test_every_variant_round_trips_through_the_wire_form(self):
        for request in self.variants():
            decoded = request_from_dict(request.to_dict())
            assert decoded == request
            assert decoded.to_dict() == request.to_dict()

    def test_round_trip_preserves_canonical_key(self):
        for request in self.variants():
            decoded = request_from_dict(request.to_dict())
            assert canonical_request_key(decoded) == canonical_request_key(request)

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ServiceError, match="unknown query request kind"):
            request_from_dict({"kind": "frontier", "k": 3})
        with pytest.raises(ServiceError, match="JSON object"):
            request_from_dict(["top_k"])

    def test_malformed_fields_are_rejected(self):
        with pytest.raises(ServiceError, match="malformed 'top_k'"):
            request_from_dict({"kind": "top_k", "count": 3})
        with pytest.raises(ServiceError, match="cells"):
            request_from_dict({"kind": "predict", "config_name": "V1"})

    @pytest.mark.parametrize(
        "payload",
        [
            {"kind": []},
            {"kind": {"name": "top_k"}},
            {"kind": "predict", "config_name": "V1", "cells": [{}]},
            {"kind": "predict", "config_name": "V1", "cells": [{"matrix": [["a"]], "ops": []}]},
            {"kind": "predict", "config_name": "V1", "cells": [{"matrix": [[300]], "ops": []}]},
        ],
        ids=["list-kind", "object-kind", "cell-without-matrix", "text-matrix", "int8-overflow"],
    )
    def test_malformed_payloads_raise_service_error(self, payload):
        with pytest.raises(ServiceError):
            request_from_dict(payload)

    def test_non_integral_matrix_entry_is_not_read_as_an_edge(self):
        payload = {
            "kind": "predict",
            "config_name": "V1",
            "cells": [{"matrix": [[0, 1.7], [0, 0]], "ops": ["input", "output"]}],
        }
        with pytest.raises(InvalidCellError, match="1.7"):
            request_from_dict(payload)

    def test_eager_validation(self):
        with pytest.raises(ServiceError, match="positive integer"):
            TopKRequest(k=0)
        with pytest.raises(ServiceError, match="positive integer"):
            TopKRequest(k=True)
        with pytest.raises(ServiceError, match=r"min_accuracy must be in \[0, 1\]"):
            ParetoRequest("V1", 1.5)
        with pytest.raises(ServiceError, match="unknown metric"):
            MetricRequest("fp", "V1", metric="throughput")
        with pytest.raises(ServiceError, match="at least one cell"):
            PredictRequest((), "V1")
        with pytest.raises(ServiceError, match="non-empty fingerprint"):
            MetricRequest("", "V1")


class TestCanonicalKeys:
    def test_key_is_dict_order_invariant(self):
        forward = {"kind": "metric", "fingerprint": "fp", "config_name": "V1", "metric": "energy"}
        backward = dict(reversed(list(forward.items())))
        assert list(forward) != list(backward)  # genuinely different orderings
        key_a = canonical_request_key(request_from_dict(forward))
        key_b = canonical_request_key(request_from_dict(backward))
        assert key_a == key_b

    def test_distinct_requests_get_distinct_keys(self):
        keys = {
            canonical_request_key(request)
            for request in (
                TopKRequest(k=3),
                TopKRequest(k=4),
                ParetoRequest("V1"),
                ParetoRequest("V2"),
                MetricRequest("fp", "V1"),
                MetricRequest("fp", "V1", metric="energy"),
            )
        }
        assert len(keys) == 6

    def test_cache_key_scopes_by_store_digest(self):
        request = TopKRequest(k=3)
        assert cache_key("store-a", request) != cache_key("store-b", request)
        assert cache_key("store-a", request) == cache_key("store-a", TopKRequest(k=3))


class TestQueryResponse:
    def test_round_trip(self):
        response = QueryResponse(
            kind="top_k", result={"entries": []}, store_digest="abc123", served_from="store"
        )
        assert QueryResponse.from_dict(response.to_dict()) == response

    def test_validation(self):
        with pytest.raises(ServiceError, match="unknown response kind"):
            QueryResponse(kind="nope", result={}, store_digest="d", served_from="store")
        with pytest.raises(ServiceError, match="served_from"):
            QueryResponse(kind="top_k", result={}, store_digest="d", served_from="disk")
        with pytest.raises(ServiceError, match="missing field"):
            QueryResponse.from_dict({"kind": "top_k", "result": {}})


class TestResolveConfigs:
    def test_none_means_the_studied_configs(self):
        assert resolve_configs(None) == [c.name for c in STUDIED_CONFIGS.values()]

    def test_studied_names_are_case_normalized(self):
        assert resolve_configs(["v1", "V2"]) == ["V1", "V2"]

    def test_config_objects_contribute_their_own_name(self):
        assert resolve_configs([EDGE_TPU_V2, "v1"]) == ["V2", "V1"]

    def test_config_objects_are_always_resolvable(self):
        # An object carries its definition, so it need not be in `available`.
        assert resolve_configs([EDGE_TPU_V2], available=["V1"]) == ["V2"]

    def test_unknown_names_raise_naming_every_offender(self):
        with pytest.raises(ServiceError, match=r"\['V8', 'V9'\]"):
            resolve_configs(["V1", "V9", "V8"], available=["V1"])

    def test_empty_argument_is_rejected(self):
        with pytest.raises(ServiceError, match="no accelerator configurations"):
            resolve_configs([])


class TestQueryDispatch:
    """query() must be numerically indistinguishable from the analysis kernels."""

    def test_top_k_equivalence(self, service):
        response = service.query(TopKRequest(k=3))
        assert response.served_from == "store"
        assert response.store_digest == service.store_digest
        direct = top_models_by_accuracy(service.measurements, 3)
        assert [e["fingerprint"] for e in response.result["entries"]] == [
            entry.record.fingerprint for entry in direct
        ]
        for encoded, entry in zip(response.result["entries"], direct):
            assert encoded["rank"] == entry.rank
            assert encoded["accuracy"] == entry.accuracy
            assert encoded["latency_ms"] == pytest.approx(entry.latency_ms)
            assert encoded["fastest_config"] == entry.fastest_config

    def test_pareto_equivalence(self, service):
        response = service.query(ParetoRequest("V1", 0.6))
        direct = latency_accuracy_frontier(service.measurements, "V1", 0.6)
        assert len(response.result["points"]) == len(direct)
        for encoded, point in zip(response.result["points"], direct):
            assert encoded["latency_ms"] == point.latency_ms
            assert encoded["accuracy"] == point.accuracy
            assert encoded["model_index"] == point.model_index

    def test_metric_equivalence_and_symmetry(self, service, api_dataset):
        record = api_dataset[0]
        fingerprint = record.fingerprint
        latency = service.query(MetricRequest(fingerprint, "V1")).result["value"]
        assert latency == service.measurements.latency_of(record, "V1")
        energy = service.query(MetricRequest(fingerprint, "V1", "energy")).result["value"]
        assert energy == service.measurements.energy_of(record, "V1")
        # V3 has no energy model: the request and the measurements agree on None.
        assert service.measurements.energy_of(record, "V3") is None
        assert service.query(MetricRequest(fingerprint, "V3", "energy")).result["value"] is None
        with pytest.raises(ServiceError, match="unknown metric"):
            service.query(MetricRequest(fingerprint, "V1", "throughput"))

    def test_predict_equivalence(self, service):
        cells = sample_unique_cells(3, seed=77)
        response = service.query(PredictRequest(tuple(cells), "V1", "latency"))
        assert response.served_from == "model"
        direct = service.predict(cells, "V1", "latency")
        assert response.result["values"] == [float(v) for v in direct]

    def test_results_are_json_serializable(self, service):
        import json

        for request in (TopKRequest(k=2), ParetoRequest("V1", 0.6)):
            payload = service.query(request).to_dict()
            assert json.loads(json.dumps(payload)) == payload


class TestServiceConstruction:
    def test_positional_configs_are_rejected(self, warm_root, api_dataset):
        store = MeasurementStore(warm_root, shard_size=SHARD)
        with pytest.raises(TypeError, match="positional"):
            SweepService(store, api_dataset, CONFIGS)

    def test_unknown_config_names_fail_eagerly_naming_offenders(
        self, warm_root, api_dataset
    ):
        store = MeasurementStore(warm_root, shard_size=SHARD)
        with pytest.raises(ServiceError, match=r"\['V9'\]"):
            SweepService(store, api_dataset, configs=("V1", "V9"))

    def test_store_digest_is_stable_and_config_sensitive(self, warm_root, api_dataset):
        store = MeasurementStore(warm_root, shard_size=SHARD)
        full = SweepService(store, api_dataset, configs=CONFIGS)
        again = SweepService(store, api_dataset, configs=CONFIGS)
        assert full.store_digest == again.store_digest
        narrower = SweepService(store, api_dataset, configs=("V1",))
        assert narrower.store_digest != full.store_digest


class TestPreloadedMeasurements:
    def test_fingerprint_equal_dataset_is_accepted(self, warm_root, api_dataset):
        # Regression: the preloaded path used to compare datasets by object
        # identity, rejecting a worker-rebuilt dataset of the same population.
        store = MeasurementStore(warm_root, shard_size=SHARD)
        measurements = store.load(api_dataset, configs=CONFIGS)
        rebuilt = NASBenchDataset.from_cells(
            [record.cell for record in api_dataset], api_dataset.network_config
        )
        assert rebuilt is not api_dataset
        service = SweepService(
            store, rebuilt, configs=CONFIGS, measurements=measurements
        )
        assert service.query(TopKRequest(k=1)).result["entries"][0]["fingerprint"] == (
            api_dataset.top_k_by_accuracy(1)[0].fingerprint
        )

    def test_reordered_population_is_still_rejected(self, warm_root, api_dataset):
        store = MeasurementStore(warm_root, shard_size=SHARD)
        measurements = store.load(api_dataset, configs=CONFIGS)
        reordered = NASBenchDataset.from_cells(
            [record.cell for record in reversed(api_dataset.records)],
            api_dataset.network_config,
        )
        with pytest.raises(ServiceError, match="different dataset"):
            SweepService(store, reordered, configs=CONFIGS, measurements=measurements)

    def test_preloaded_configs_are_normalized(self, warm_root, api_dataset):
        store = MeasurementStore(warm_root, shard_size=SHARD)
        measurements = store.load(api_dataset, configs=CONFIGS)
        service = SweepService(
            store, api_dataset, configs=("v1", "v3"), measurements=measurements
        )
        assert service.config_names == list(CONFIGS)
