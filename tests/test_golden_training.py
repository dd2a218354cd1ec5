"""Golden digests of the learned performance model's training and inference.

Every literal below is a SHA-256 over the float64 bytes of trained weights,
loss histories or predictions, computed with the recorded-tape trainer. A
rewrite of the training step, the optimizer or the forward pass that moved a
single bit of a weight, a loss or a prediction would change one of them, so
"bit-identical to the tape" is checked rather than asserted. The literals
must never change.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.arch import EDGE_TPU_V1
from repro.core import GraphTable, LearnedPerformanceModel, TrainingSettings
from repro.nasbench import sample_unique_cells
from repro.simulator import BatchSimulator

GOLDEN = {
    "search-fit": "4417167fa3dd872898c7e454a43113be0607d55423c942bb6ed82428e748c891",
    "search-predict": "2910638882fd44f7d793d90a16ce2d67a3c9716c4aa984b813450d211b19ed66",
    "table8-shape": "d8c9eea543c5013e1c7c2cf3d537ed7f0988ff75a9d4cd20c2bfd8046f9d1602",
    "layer-norm": "da8e3bf13c37f2495a6880d889f21232dafc60b434ffeb8875b8a1fb54076c25",
}

#: The search predictor's settings (``SearchSpec.predictor_settings``).
SEARCH_SETTINGS = TrainingSettings(epochs=8)
#: Table 8's model shape (``benchmarks/bench_table8_learned_model.py``).
TABLE8_SETTINGS = TrainingSettings(
    epochs=4,
    batch_size=32,
    learning_rate=2e-3,
    latent_size=32,
    hidden_size=32,
    num_message_passing_steps=5,
)
LAYER_NORM_SETTINGS = TrainingSettings(epochs=4, use_layer_norm=True)


def float_digest(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def population():
    """80 training cells and 32 held-out cells, with V1 latency targets."""
    cells = sample_unique_cells(112, seed=2022)
    latency, _ = BatchSimulator().evaluate_cells(cells[:80], EDGE_TPU_V1)
    return cells[:80], latency, cells[80:]


def fit(settings: TrainingSettings, population) -> LearnedPerformanceModel:
    cells, targets, _ = population
    model = LearnedPerformanceModel("V1", settings)
    model.fit_table(GraphTable.from_cells(cells), targets)
    return model


def fit_digest(model: LearnedPerformanceModel, *extra) -> str:
    """Digest of the trained weights, both loss histories and *extra* arrays."""
    return float_digest(
        *model.model.export_arrays(),
        model.history.train_losses,
        model.history.validation_losses,
        *extra,
    )


@pytest.fixture(scope="module")
def search_model(population):
    return fit(SEARCH_SETTINGS, population)


def test_search_predictor_fit_digest(search_model):
    assert search_model.history.num_epochs == 8
    assert fit_digest(search_model) == GOLDEN["search-fit"]


def test_search_predictor_predict_digest(search_model, population):
    predictions = search_model.predict_cells(population[2])
    assert predictions.shape == (32,)
    assert float_digest(predictions) == GOLDEN["search-predict"]


@pytest.mark.parametrize(
    "key, settings",
    [("table8-shape", TABLE8_SETTINGS), ("layer-norm", LAYER_NORM_SETTINGS)],
)
def test_fit_and_predict_digest(key, settings, population):
    model = fit(settings, population)
    predictions = model.predict_cells(population[2])
    assert fit_digest(model, predictions) == GOLDEN[key]
