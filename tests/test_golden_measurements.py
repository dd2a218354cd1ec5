"""Golden digests of the cost model's outputs.

Every literal below is a SHA-256 over the float64 bytes of one simulated
result, computed before any simulator path was removed.  A refactor of the
compiler, the timing/energy kernels or the sweep plumbing that moved a
single latency or energy bit would change one of them, so "no behaviour
change" is checked rather than asserted.  The literals must never change.
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest

from repro.arch import EDGE_TPU_V1, EDGE_TPU_V2, EDGE_TPU_V3, STUDIED_CONFIGS
from repro.hwspace import AcceleratorSpace
from repro.nasbench import NASBenchDataset, random_macro, sample_unique_cells
from repro.nasbench.layer_table import LayerTable
from repro.simulator import BatchSimulator

#: The 120-point lifecycle-benchmark grid: clock x PE geometry x cores x
#: lanes x I/O bandwidth around V1.
GRID_AXES = {
    "clock_mhz": [600.0, 800.0, 1066.0, 1250.0, 1500.0],
    "pes_x": [2, 4, 8],
    "cores_per_pe": [2, 4],
    "compute_lanes": [32, 64],
    "io_bandwidth_gbps": [8.0, 16.0],
}

#: Batch and bit-width variants of the studied classes.
SCENARIO_CONFIGS = [
    EDGE_TPU_V1.with_overrides(name="v1-batch4", batch_size=4),
    EDGE_TPU_V1.with_overrides(name="v1-b8-w2", batch_size=8, weight_bits=2),
    EDGE_TPU_V2.with_overrides(name="v2-w4-a16", weight_bits=4, activation_bits=16),
    EDGE_TPU_V3.with_overrides(name="v3-b2-a4", batch_size=2, activation_bits=4),
]

GOLDEN = {
    "evaluate-caching": "e8dd119e08f3cae89bf673dd533bfb1a58bae9be3ca78c3a1ddc2a22423517fd",
    "evaluate-no-caching": "028d12cefc49c2cf125d9daa91c5cc36f03b5a3667cacd1a3e9dd38ad6f69b7e",
    "grid-120": "bb1f86f77a4a5ae13ddb5c1c29a56f851268cae806ce1a2740037c4d79e30cda",
    "macro-scenarios": "d35bf13ad53f0a2a13f3bedfe31110b9e7b14a79706b3320becd5ff5e5cbe188",
    "evaluate-cells": "9cf6e3ba3c40612b32b8914e8479a9a6d60b9579a443d49f407deb6c9eb3d6b5",
}


def float_digest(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def grid_table():
    dataset = NASBenchDataset.generate(16, seed=7)
    return LayerTable.from_architectures(
        [record.architecture for record in dataset], dataset.network_config
    )


@pytest.fixture(scope="module")
def grid_configs():
    return list(itertools.islice(AcceleratorSpace(GRID_AXES).enumerate(), 120))


@pytest.mark.parametrize("caching", [True, False])
def test_population_sweep_digest(caching):
    dataset = NASBenchDataset.generate(64, seed=2022)
    measurements = BatchSimulator(enable_parameter_caching=caching).evaluate(dataset)
    arrays = []
    for name in STUDIED_CONFIGS:
        arrays += [measurements.latencies(name), measurements.energies(name)]
    key = "evaluate-caching" if caching else "evaluate-no-caching"
    assert float_digest(*arrays) == GOLDEN[key]


def test_hardware_grid_digest(grid_table, grid_configs):
    assert len(grid_configs) == 120
    latency, energy = BatchSimulator().evaluate_table_grid(grid_table, grid_configs)
    assert float_digest(latency, energy) == GOLDEN["grid-120"]


def test_macro_scenario_digest():
    rng = np.random.default_rng(2022)
    table = LayerTable.from_architectures([random_macro(rng) for _ in range(6)])
    latency, energy = BatchSimulator().evaluate_table_grid(table, SCENARIO_CONFIGS)
    assert float_digest(latency, energy) == GOLDEN["macro-scenarios"]


def test_evaluate_cells_digest():
    cells = sample_unique_cells(40, seed=123)
    latency, energy = BatchSimulator().evaluate_cells(cells, EDGE_TPU_V2)
    assert latency.shape == energy.shape == (40,)
    assert float_digest(latency, energy) == GOLDEN["evaluate-cells"]
