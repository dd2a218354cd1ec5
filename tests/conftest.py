"""Shared fixtures for the test suite.

The heavier fixtures (a sampled dataset and its simulation sweep) are
session-scoped so the many analysis/integration tests can share one
population instead of regenerating it per test.
"""

from __future__ import annotations

import pytest

from repro.arch import STUDIED_CONFIGS
from repro.nasbench import NASBenchDataset, sample_unique_cells
from repro.simulator import BatchSimulator


@pytest.fixture(scope="session")
def small_cells():
    """A deterministic list of 40 unique sampled cells."""
    return sample_unique_cells(40, seed=123)


@pytest.fixture(scope="session")
def dataset():
    """A deterministic dataset of 150 models (includes the paper's named cells)."""
    return NASBenchDataset.generate(num_models=150, seed=42)


@pytest.fixture(scope="session")
def measurements(dataset):
    """Latency/energy measurements of the session dataset on V1/V2/V3."""
    return BatchSimulator().evaluate(dataset, configs=list(STUDIED_CONFIGS.values()))


@pytest.fixture(scope="session")
def configs():
    """The three studied accelerator configurations keyed by name."""
    return dict(STUDIED_CONFIGS)
