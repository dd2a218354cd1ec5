"""Shared fixtures for the benchmark harness.

Every table/figure benchmark works on the same sampled model population and
the same simulation sweep, built once per session.  The population size can be
overridden with the ``REPRO_BENCH_MODELS`` environment variable (default 1200;
the paper uses the full 423K-model NASBench-101 space — see DESIGN.md §2 for
the sampling substitution).
"""

from __future__ import annotations

import os

import pytest

from repro.arch import STUDIED_CONFIGS
from repro.nasbench import NASBenchDataset
from repro.simulator import BatchSimulator

#: Number of sampled models used by the benchmark harness.
BENCH_NUM_MODELS = int(os.environ.get("REPRO_BENCH_MODELS", "1200"))
#: Seed of the sampled population (fixed for reproducibility).
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "2022"))


@pytest.fixture(scope="session")
def bench_dataset():
    """The sampled NASBench population shared by all benchmarks."""
    return NASBenchDataset.generate(num_models=BENCH_NUM_MODELS, seed=BENCH_SEED)


@pytest.fixture(scope="session")
def bench_measurements(bench_dataset):
    """Latency/energy of every benchmark model on V1, V2 and V3."""
    return BatchSimulator().evaluate(bench_dataset, configs=list(STUDIED_CONFIGS.values()))


@pytest.fixture(scope="session")
def bench_configs():
    """The three studied accelerator configurations."""
    return dict(STUDIED_CONFIGS)
