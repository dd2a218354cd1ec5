"""Golden digests of the paper analyses behind Tables 1-7 and Figures 5-15.

``tests/test_golden_measurements.py`` pins the simulator's outputs; this file
pins what the benchmarks build on them: winner buckets, Pareto scatters,
structure statistics, operation swaps and the famous cells.  Each literal is
a SHA-256 over the numbers of one analysis result (not its printed text),
computed on a 120-model population before any sweep path was removed.  Each
analysis is the call its ``benchmarks/bench_table*``/``bench_fig*`` file
makes; Table 8 (the learned model) is pinned by
``tests/test_golden_training.py``.  The literals must never change.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.analysis import (
    accuracy_annotations,
    accuracy_by_structure,
    accuracy_latency_scatter,
    best_model_report,
    bucket_characteristics,
    bucket_speedups,
    crossover_analysis,
    energy_latency_linear_fit,
    latency_by_structure,
    latency_energy_scatter,
    latency_extremes_for_conv_count,
    latency_parameter_correlation,
    operation_count_vs_latency,
    operation_swap_matrix,
    optimal_structure,
    parameters_by_depth,
    summarize_all,
    top_models_by_accuracy,
    winner_buckets,
)
from repro.arch import STUDIED_CONFIGS
from repro.nasbench import (
    BEST_ACCURACY_CELL,
    SECOND_BEST_ACCURACY_CELL,
    ModelRecord,
    NASBenchDataset,
    build_network,
    parameter_distribution,
)
from repro.simulator import BatchSimulator, PerformanceSimulator

GOLDEN = {
    "table1": "c67a5d9580704cc99aa21e6e07573926657c90aa9542117bc873f9c83ad76fcd",
    "table2": "415c5c7e271127eac2f60ac6418b399cacd960330a4233fd2300a3d5bd072b0b",
    "table3": "d057715c1f0986023a3d2cd2deefe9e8ea8a8c145b87fa1d3f780a5dfcca57bf",
    "table4": "d8967c5e0f4a6710663c10f57fd5b61b7ab18d830fdb622d26b671fbcd9242cd",
    "table5": "9d033fb444284473f0605428d232cb0cd53be8f678d133420ad7193e365b9afa",
    "table6": "15ca0789a577fcb66aa5baa1a943697c647a88c3e22fb9fb777006161414d174",
    "table7": "949470e6a97cae7f796bdbc98ea54817be79562f79902ee1f5b749b5239ccb40",
    "fig5": "da100e5a27af161b41239ad7eafd9341bc081fce61f64395b9e72f979ced991b",
    "fig6": "452aada70e04c4ccf68a6ab59d0b60c84f5d2e81359bd195abcf2d3edcb75964",
    "fig7": "41d97e86c70bd630eaa795fafb5d5c6a0150f70eb8cdeb69ab0284ddf47eb9a7",
    "fig8": "5b46c6185a897c6ae9284908f919693b6981fc26e461aee98963607ceb188360",
    "fig9": "8ee61a4aeeada1acc1478bf3ee2e69fbce926521f307b6203fe782048c46245a",
    "fig10": "8e018e7e7584deb688194b9610e5df7a9f252442af695f0d34ffe72d4a34cfe3",
    "fig11": "748030ade3a0fd2481628927f6f2ef6368dfac377d6acd8ad02cb639e39144e4",
    "fig12": "77ba673f8be14abcd116f14a6af59e236445449eb497c7ff4802c5ad9ef0962b",
    "fig13": "7e7fa4db7f7d7060291d861260edb844d4e4be131dd3b1e2c9405c1d55eb6a52",
    "fig14": "c1f563757a7b8a7da73a3834fe5510ecbd58cb1a01f9a5f209fb20b5f788e083",
    "fig15": "9b634b515d6a3da84888f9df33a819c63760ca6976740c8c76e774cc3704179f",
}

OPERATIONS = ("conv3x3", "conv1x1", "maxpool3x3")
#: Figure 14's parameter bands (``bench_fig14_params_vs_latency.py``).
BAND_EDGES = (0.0, 1e6, 2e6, 5e6, 10e6, 20e6, 30e6, 1e9)


def _feed(digest, value) -> None:
    """Hash *value*: numbers as float64, labels as UTF-8, records by index."""
    if isinstance(value, ModelRecord):
        value = value.index
    if dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            _feed(digest, getattr(value, field.name))
    elif isinstance(value, dict):
        for key, item in value.items():
            _feed(digest, key)
            _feed(digest, item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _feed(digest, item)
    elif isinstance(value, str):
        digest.update(value.encode())
    else:
        digest.update(np.asarray(np.nan if value is None else value, dtype=np.float64).tobytes())


def analysis_digest(value) -> str:
    digest = hashlib.sha256()
    _feed(digest, value)
    return digest.hexdigest()


def _buckets(measurements):
    buckets = winner_buckets(measurements)
    return buckets, {name: bucket_speedups(b) for name, b in buckets.items() if b.num_models}


def _famous_cells():
    best, second = build_network(BEST_ACCURACY_CELL), build_network(SECOND_BEST_ACCURACY_CELL)
    simulated = {}
    for name, config in STUDIED_CONFIGS.items():
        simulator = PerformanceSimulator(config)
        simulated[name] = (simulator.simulate(second), simulator.simulate(best))
    return simulated


def _latency_energy(measurements):
    scatters = {name: latency_energy_scatter(measurements, name) for name in ("V1", "V2")}
    return scatters, [energy_latency_linear_fit(points) for points in scatters.values()]


ANALYSES = {
    "table1": lambda ds, m: parameter_distribution(ds.parameter_counts(), num_intervals=10),
    "table2": lambda ds, m: {name: c.summary() for name, c in STUDIED_CONFIGS.items()},
    "table3": lambda ds, m: summarize_all(m, min_accuracy=0.70),
    "table4": lambda ds, m: best_model_report(m),
    "table5": lambda ds, m: _buckets(m),
    "table6": lambda ds, m: [
        bucket_characteristics(m, b) for b in winner_buckets(m).values() if b.num_models
    ],
    "table7": lambda ds, m: parameters_by_depth(ds),
    "fig5": lambda ds, m: [accuracy_latency_scatter(m, name) for name in m.config_names],
    "fig6": lambda ds, m: _latency_energy(m),
    "fig7": lambda ds, m: {name: pair[1] for name, pair in _famous_cells().items()},
    "fig8": lambda ds, m: _famous_cells(),
    "fig9": lambda ds, m: top_models_by_accuracy(m, k=5),
    "fig10": lambda ds, m: (
        accuracy_by_structure(ds, "depth"),
        accuracy_by_structure(ds, "width"),
        optimal_structure(ds),
    ),
    "fig11": lambda ds, m: [
        latency_by_structure(m, name, attribute)
        for name in m.config_names
        for attribute in ("depth", "width")
    ],
    "fig12": lambda ds, m: (
        [operation_count_vs_latency(m, name, op) for name in m.config_names for op in OPERATIONS],
        [accuracy_annotations(m, op) for op in OPERATIONS],
    ),
    "fig13": lambda ds, m: latency_extremes_for_conv_count(m, "V2", num_conv3x3=5),
    "fig14": lambda ds, m: (
        [latency_parameter_correlation(m, name) for name in m.config_names],
        crossover_analysis(m, band_edges=BAND_EDGES),
    ),
    "fig15": lambda ds, m: [
        operation_swap_matrix(ds.records, config, max_models=120, seed=1)
        for config in STUDIED_CONFIGS.values()
    ],
}


@pytest.fixture(scope="module")
def population():
    dataset = NASBenchDataset.generate(120, seed=2022)
    return dataset, BatchSimulator().evaluate(dataset)


@pytest.mark.parametrize("name", sorted(ANALYSES))
def test_analysis_digest(name, population):
    assert analysis_digest(ANALYSES[name](*population)) == GOLDEN[name]
