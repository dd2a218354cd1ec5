"""Golden digests of seeded architecture searches and co-searches.

Each literal is a SHA-256 over what one seeded run produced: the evaluated
fingerprints (or pair keys), the objective array, every
:class:`~repro.search.GenerationStats` field, the Pareto archive's entries
and hypervolume history, and the rows of ``summary_lines()`` (the first
line carries elapsed seconds and is left out).  Every spec field is passed
explicitly, so a change of defaults cannot move a digest.  The literals were
computed before the co-search was folded onto the search engine's evolution
loop and must never change: every random draw keeps its order.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.core import TrainingSettings
from repro.hwspace import AcceleratorSpace, CoSearchEngine, studied_baselines
from repro.nasbench import MAX_EDGES, MAX_VERTICES
from repro.search import SearchEngine, SearchSpec

GOLDEN = {
    "search_random": "952981980184215c7962f6aa99970ef8ddef6917dfd23e408d9903fb3b5c50fe",
    "search_evolution": "af74a36ef0542579fde562f4affec1bddcb334d50e01f3763f05afe37a3148b3",
    "search_predictor": "5e2e485d57b49a7300e8a41971af1dbdadac15cdbf7d76372c60bc324edddb4b",
    "search_macro": "bd8808c7282dc9b58ed39eeb2ec66d2a2b5becb93b10aef40ec1711b76fb3e0e",
    "search_energy": "62cd6f8691301f837e689580a58e5eb1519fe8f11332f7be12ce12f638b2829c",
    "cosearch_cell": "a6ba6a0ff6df329e3237651903e2c864b28dfa71044b2e8d63a836903594d23a",
    "cosearch_macro": "22f486e503c0e660afe72002d70cde335378d06073fae1308aef442ce3fb35d0",
    "cosearch_energy": "22aad85338ebe017866f4b3b29d935580a132e29de3b9f7f74bcc2b38cb8ec20",
    "cosearch_infeasible": "c489dbaa21241209343ab83f6bee604794272d7554b1cd71c541e288aa3e2104",
    "baselines_latency": "34f35a58a4fd9b7c931a3d23a4910b3013d2fcbee876e11f4c6106b82bd1be19",
    "baselines_energy": "8c14121c38f6f2b2ebc9b3a24ddb22d37e7ced54017ef301c20188bbd17cefa4",
}

CELL_AXES = {"clock_mhz": [800.0, 1066.0], "pes_x": [2, 4], "compute_lanes": [32, 64]}
MACRO_AXES = {"pes_x": [4, 8], "batch_size": [1, 2]}


def search_spec(**fields) -> SearchSpec:
    """The 12 x 5 cell search on V1 at the 0.92 floor, every field explicit."""
    parameters = dict(
        strategy="evolution",
        config_name="V1",
        metric="latency",
        min_accuracy=0.92,
        population_size=12,
        generations=5,
        tournament_size=4,
        pool_factor=3,
        seed=7,
        max_vertices=MAX_VERTICES,
        max_edges=MAX_EDGES,
        predictor_settings=TrainingSettings(epochs=4),
        enable_parameter_caching=True,
        arch_space="cell",
    )
    parameters.update(fields)
    return SearchSpec(**parameters)


def cosearch_spec(**fields) -> SearchSpec:
    """The 8 x 3 co-search at the 0.92 floor, every field explicit."""
    parameters = dict(
        strategy="evolution",
        config_name="V1",
        metric="latency",
        min_accuracy=0.92,
        population_size=8,
        generations=3,
        tournament_size=4,
        pool_factor=3,
        seed=5,
        max_vertices=MAX_VERTICES,
        max_edges=MAX_EDGES,
        predictor_settings=TrainingSettings(epochs=4),
        enable_parameter_caching=True,
        arch_space="cell",
    )
    parameters.update(fields)
    return SearchSpec(**parameters)


def _feed(digest, value) -> None:
    """Hash *value*: numbers as float64, strings as UTF-8, sequences in order."""
    if isinstance(value, str):
        digest.update(value.encode())
    elif isinstance(value, (list, tuple)):
        for item in value:
            _feed(digest, item)
    else:
        digest.update(np.asarray(value, dtype=np.float64).tobytes())


def run_digest(identities: list[str], result) -> str:
    """Digest of one search or co-search *result* whose models are *identities*."""
    digest = hashlib.sha256()
    _feed(digest, identities)
    _feed(digest, result.objective)
    for row in result.generations:
        _feed(digest, dataclasses.astuple(row))
    for entry in result.archive.entries:
        _feed(digest, (entry.fingerprint, entry.cost, entry.accuracy, entry.generation))
    _feed(digest, result.archive.hypervolume_history)
    _feed(digest, result.summary_lines()[1:])
    return digest.hexdigest()


def _search(**fields) -> str:
    result = SearchEngine(search_spec(**fields)).run()
    return run_digest([record.fingerprint for record in result.dataset], result)


def _cosearch(axes, **fields) -> str:
    result = CoSearchEngine(cosearch_spec(**fields), AcceleratorSpace(axes)).run()
    return run_digest([pair.key for pair in result.pairs], result)


def _baselines(**fields) -> str:
    baselines = studied_baselines(cosearch_spec(**fields))
    digest = hashlib.sha256()
    for name, point in baselines.items():
        _feed(digest, (name, point))
    return digest.hexdigest()


RUNS = {
    "search_random": lambda: _search(strategy="random"),
    "search_evolution": lambda: _search(strategy="evolution"),
    "search_predictor": lambda: _search(strategy="predictor"),
    "search_macro": lambda: _search(arch_space="macro", population_size=8, generations=4, seed=1),
    "search_energy": lambda: _search(metric="energy"),
    "cosearch_cell": lambda: _cosearch(CELL_AXES),
    "cosearch_macro": lambda: _cosearch(MACRO_AXES, arch_space="macro", seed=1),
    "cosearch_energy": lambda: _cosearch(CELL_AXES, metric="energy"),
    "cosearch_infeasible": lambda: _cosearch(
        CELL_AXES, min_accuracy=0.999, population_size=4, generations=2
    ),
    "baselines_latency": lambda: _baselines(),
    "baselines_energy": lambda: _baselines(metric="energy"),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_search_digest(name):
    assert RUNS[name]() == GOLDEN[name]
