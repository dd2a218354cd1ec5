"""Golden values of model identity.

Fingerprints key every store shard, manifest and compacted index, so any
change to cell validation, pruning, hashing or sampling that moved one of
these values would silently orphan every persisted measurement.  The
literals below were computed before the front-end was optimized and must
never change.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.nasbench import FAMOUS_CELLS, NASBenchDataset, enumerate_cells

FAMOUS_FINGERPRINTS = {
    "fig7_best_accuracy": "723645a8e746ee8d5fbf23f4f55eb931",
    "fig8_second_best_accuracy": "cf4d3d8cd66617616f4e027a00c5d6ff",
    "fig13_shallow_conv_heavy": "ae722e874ac4dd5c8ffda210f5fec20c",
    "fig13_deep_conv_heavy": "b3bc0991ac661443a583796ce582f11f",
}

#: SHA-256 over the ordered records of ``NASBenchDataset.generate(250, seed)``.
POPULATION_DIGESTS = {
    0: "0a814b5268d2e0589c5113db5abfa8d506acb1a84a09ec0c118f00b3683e5081",
    1: "f44a81f87f062b9a19ea14c36dfb9d83e539e5439b0e473fd58540fd58ffc332",
    2: "6319f894600706725a3d7649d22f1bf79924e663f2ffb787ceaf77488bd200a8",
}

ENUMERATE_4_COUNT = 91
ENUMERATE_4_DIGEST = "5140a0db5ab7821a0a0d75d2fd6b8c5cd7b3fa31005dbd6cca28009bdf105a99"


def population_digest(dataset: NASBenchDataset) -> str:
    digest = hashlib.sha256()
    for record in dataset:
        row = (
            record.fingerprint,
            int(record.trainable_parameters),
            float(record.mean_validation_accuracy),
            tuple(int(value) for value in dataclasses.astuple(record.metrics)),
        )
        digest.update(repr(row).encode())
    return digest.hexdigest()


def test_famous_cell_fingerprints():
    assert {name: cell.fingerprint for name, cell in FAMOUS_CELLS.items()} == FAMOUS_FINGERPRINTS


@pytest.mark.parametrize("seed", sorted(POPULATION_DIGESTS))
def test_seeded_population_digest(seed):
    dataset = NASBenchDataset.generate(250, seed=seed)
    assert population_digest(dataset) == POPULATION_DIGESTS[seed]


def test_enumerated_subspace_digest():
    cells = list(enumerate_cells(4))
    prints = "\n".join(cell.fingerprint for cell in cells)
    assert len(cells) == ENUMERATE_4_COUNT
    assert hashlib.sha256(prints.encode()).hexdigest() == ENUMERATE_4_DIGEST
