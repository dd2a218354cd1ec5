"""The written-out training step against the autodiff tape, bit for bit.

:mod:`repro.core.step` computes the forward pass, the loss and every
parameter gradient by hand; the oracle in ``tests/tape.py`` records the same
step on a tape. Hypothesis draws batches (single-graph ones included), step
counts, widths and layer norm on or off, and every loss, gradient, trained
weight and prediction must be ``np.array_equal`` to the tape's. Both must
also match central finite differences. :func:`tape.train` is the tape-driven
training loop that ``train_model`` must reproduce exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import tape
from repro.core import (
    Adam,
    EncodeProcessDecode,
    GraphTable,
    GraphTuple,
    featurize_cells,
    train_model,
)
from repro import obs
from repro.core import step
from repro.core.trainer import evaluate_loss, predict
from repro.nasbench import sample_unique_cells


def make_model(steps, latent, hidden, layer_norm, seed=0):
    return EncodeProcessDecode(
        latent_size=latent,
        hidden_size=hidden,
        num_message_passing_steps=steps,
        use_layer_norm=layer_norm,
        seed=seed,
    )


def written_out_loss_and_gradients(model, batch, targets):
    grads = model.views(np.zeros_like(model.values))
    loss = step.loss_and_gradients(model, batch, targets, grads)
    return loss, grads


model_shapes = {
    "steps": st.integers(min_value=1, max_value=5),
    "latent": st.integers(min_value=1, max_value=12),
    "hidden": st.integers(min_value=1, max_value=12),
    "layer_norm": st.booleans(),
}


# ---------------------------------------------------------------------- #
# One step
# ---------------------------------------------------------------------- #
class TestStepMatchesTape:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        num_graphs=st.integers(min_value=1, max_value=16),
        seed=st.integers(min_value=0, max_value=10_000),
        **model_shapes,
    )
    @example(num_graphs=1, seed=0, steps=3, latent=16, hidden=16, layer_norm=False)
    @example(num_graphs=1, seed=1, steps=2, latent=4, hidden=5, layer_norm=True)
    def test_loss_and_every_gradient_are_bit_identical(
        self, num_graphs, seed, steps, latent, hidden, layer_norm
    ):
        table = GraphTable.from_cells(sample_unique_cells(num_graphs, seed=seed))
        rng = np.random.default_rng(seed)
        targets = rng.normal(size=num_graphs)
        model = make_model(steps, latent, hidden, layer_norm, seed=seed)
        # Nonzero biases keep pre-activations off the ReLU kink, where the
        # tape's subgradient (zero) and a central difference disagree.
        model.values += rng.normal(scale=0.1, size=model.values.size)
        batch = table.to_batched()

        tape_loss, tape_grads = tape.loss_and_gradients(model, batch, targets)
        loss, grads = written_out_loss_and_gradients(model, batch, targets)

        assert loss == tape_loss
        assert list(grads) == list(tape_grads)
        for name, grad in grads.items():
            if tape_grads[name] is None:  # the decoder's edge and node MLPs
                assert not grad.any(), name
            else:
                assert np.array_equal(grad, tape_grads[name]), name

        # Central differences on sampled coordinates, through the tape's
        # forward pass; unreached parameters must show a zero slope.
        names = list(model.params)
        for _ in range(6):
            name = names[int(rng.integers(len(names)))]
            flat = model.params[name].reshape(-1)
            coordinate = int(rng.integers(flat.size))
            original = flat[coordinate]
            values = []
            for delta in (1e-7, -1e-7):
                flat[coordinate] = original + delta
                values.append(tape.loss(model, batch, targets).item())
            flat[coordinate] = original
            slope = (values[0] - values[1]) / 2e-7
            assert grads[name].reshape(-1)[coordinate] == pytest.approx(
                slope, rel=1e-4, abs=1e-6
            ), (name, coordinate)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        num_graphs=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=10_000),
        **model_shapes,
    )
    def test_evaluation_and_prediction_are_bit_identical(
        self, num_graphs, seed, steps, latent, hidden, layer_norm
    ):
        table = GraphTable.from_cells(sample_unique_cells(num_graphs, seed=seed))
        targets = np.random.default_rng(seed).normal(size=num_graphs)
        model = make_model(steps, latent, hidden, layer_norm, seed=seed)
        assert evaluate_loss(model, table, targets, batch_size=5) == tape.evaluate_loss(
            model, table, targets, batch_size=5
        )
        assert np.array_equal(predict(model, table), tape.predict(model, table.to_batched()))

    @pytest.mark.parametrize("layer_norm", [False, True])
    def test_an_edgeless_graph_matches_the_tape(self, layer_norm):
        """A graph without edges sums to zero rows in the per-graph edge sums."""
        edgeless = GraphTuple(
            nodes=np.array([[1.0], [5.0]]),
            edges=np.zeros((0, 1)),
            senders=np.zeros(0, dtype=np.int64),
            receivers=np.zeros(0, dtype=np.int64),
            globals_=np.ones((1, 1)),
        )
        graphs = featurize_cells(sample_unique_cells(3, seed=8))
        model = make_model(2, 4, 4, layer_norm, seed=8)
        for batch_graphs in ([graphs[0], edgeless, *graphs[1:]], [edgeless]):
            batch = GraphTable.from_graphs(batch_graphs).to_batched()
            targets = np.linspace(-1.0, 1.0, len(batch_graphs))
            loss, grads = written_out_loss_and_gradients(model, batch, targets)
            tape_loss, tape_grads = tape.loss_and_gradients(model, batch, targets)
            assert loss == tape_loss
            for name, grad in grads.items():
                if tape_grads[name] is not None:
                    assert np.array_equal(grad, tape_grads[name]), name
            assert np.array_equal(step.predict(model, batch), tape.predict(model, batch))


# ---------------------------------------------------------------------- #
# Whole training runs
# ---------------------------------------------------------------------- #
class TestTrainingMatchesTape:
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        num_graphs=st.integers(min_value=2, max_value=16),
        batch_size=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=10_000),
        **model_shapes,
    )
    def test_three_epochs_match_the_tape_loop(
        self, num_graphs, batch_size, seed, steps, latent, hidden, layer_norm
    ):
        cells = sample_unique_cells(num_graphs + 3, seed=seed)
        table = GraphTable.from_cells(cells[:num_graphs])
        validation = GraphTable.from_cells(cells[num_graphs:])
        rng = np.random.default_rng(seed)
        targets, validation_targets = rng.normal(size=num_graphs), rng.normal(size=3)
        model = make_model(steps, latent, hidden, layer_norm, seed=seed)
        reference = make_model(steps, latent, hidden, layer_norm, seed=seed)

        history = train_model(
            model, table, targets, validation, validation_targets,
            epochs=3, batch_size=batch_size, learning_rate=3e-3, seed=seed,
        )
        expected = tape.train(
            reference, table, targets, (validation, validation_targets),
            epochs=3, batch_size=batch_size, learning_rate=3e-3, seed=seed,
        )

        assert history.train_losses == expected.train_losses
        assert history.validation_losses == expected.validation_losses
        assert np.array_equal(model.values, reference.values)
        assert evaluate_loss(model, validation, validation_targets) == tape.evaluate_loss(
            reference, validation, validation_targets
        )
        assert np.array_equal(predict(model, table), tape.predict(reference, table.to_batched()))


class TestScatterMatrix:
    def test_product_is_add_at(self):
        rng = np.random.default_rng(3)
        ids = rng.integers(0, 20, size=300)
        values = rng.normal(size=(300, 32))
        expected = np.zeros((25, 32))
        np.add.at(expected, ids, values)
        assert np.array_equal(step._scatter_matrix(ids, 25) @ values, expected)

    def test_sorted_ids_and_empty_rows(self):
        ids = np.array([0, 0, 2, 2, 2, 4])
        values = np.arange(12.0).reshape(6, 2)
        expected = np.zeros((6, 2))
        np.add.at(expected, ids, values)
        assert np.array_equal(step._scatter_matrix(ids, 6, sorted_ids=True) @ values, expected)


class TestAdam:
    def test_parameters_become_views_of_one_buffer(self):
        model = make_model(2, 4, 4, True)
        # The views tile the flat vector in order, with no gap or overlap.
        start = 0
        for name, view in model.params.items():
            assert np.shares_memory(view, model.values), name
            assert np.array_equal(view.reshape(-1), model.values[start : start + view.size])
            start += view.size
        assert start == model.values.size
        before = [view.copy() for view in model.params.values()]
        Adam(model.values).step(np.ones_like(model.values))
        for view, value in zip(model.params.values(), before):
            assert not np.array_equal(view, value)

    def test_a_zero_slot_leaves_its_parameter_exactly(self):
        model = make_model(2, 4, 4, False)
        optimizer = Adam(model.values, learning_rate=0.1)
        gradient = np.zeros_like(model.values)
        model.views(gradient)["encoder/edge/hidden/weight"][...] = 1.0
        stepped = model.params["encoder/edge/hidden/weight"].copy()
        untouched = model.params["encoder/edge/hidden/bias"].copy()
        optimizer.step(gradient)
        assert not np.array_equal(model.params["encoder/edge/hidden/weight"], stepped)
        assert np.array_equal(model.params["encoder/edge/hidden/bias"], untouched)


class TestObservability:
    def test_one_span_and_one_step_count_per_fit(self, tmp_path):
        table = GraphTable.from_cells(sample_unique_cells(20, seed=4))
        targets = np.linspace(-1.0, 1.0, 20)
        untraced = train_model(EncodeProcessDecode(seed=0), table, targets, epochs=3, batch_size=8)
        with obs.capture(tmp_path / "trace") as tracer:
            traced = train_model(
                EncodeProcessDecode(seed=0), table, targets, epochs=3, batch_size=8
            )
        assert traced.train_losses == untraced.train_losses
        assert tracer.metrics.counter_value("core.train_steps") == 9  # 3 epochs x 3 batches
        assert obs.trace_summary(tmp_path / "trace").spans["core.train"].count == 1
