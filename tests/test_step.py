"""The written-out training step against the autodiff tape, bit for bit.

:mod:`repro.core.step` computes the forward pass, the loss and every
parameter gradient by hand; :mod:`repro.core.autodiff` records the same step
on a tape. Hypothesis draws batches (single-graph ones included), step
counts, widths and layer norm on or off, and every loss, gradient, trained
weight and prediction must be ``np.array_equal`` to the tape's. Both must
also match central finite differences. :func:`tape_train` is the tape-driven
training loop that ``train_model`` must reproduce exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import (
    Adam,
    EncodeProcessDecode,
    GraphTable,
    TrainingHistory,
    batched_loss,
    train_model,
)
from repro import obs
from repro.core import step
from repro.core.trainer import evaluate_loss, predict
from repro.nasbench import sample_unique_cells


# ---------------------------------------------------------------------- #
# The tape reference
# ---------------------------------------------------------------------- #
def tape_loss_and_gradients(model, batched, targets):
    """Loss and per-parameter gradients (``None`` if unreached) on the tape."""
    model.zero_grad()
    loss = batched_loss(model, batched, targets)
    loss.backward()
    return loss.item(), [parameter.grad for parameter in model.parameters()]


def tape_evaluate_loss(model, table, targets, batch_size=256):
    total = 0.0
    for start in range(0, table.num_graphs, batch_size):
        indices = np.arange(start, min(start + batch_size, table.num_graphs))
        loss = batched_loss(model, table.slice_batch(indices), targets[indices])
        total += loss.item() * len(indices)
    return total / table.num_graphs


def tape_train(
    model,
    table,
    targets,
    validation=None,
    epochs=3,
    batch_size=16,
    learning_rate=1e-3,
    seed=0,
):
    """``train_model``'s loop with every step recorded on the tape.

    *validation* is an optional ``(table, targets)`` pair.
    """
    optimizer = Adam(model.parameters(), learning_rate=learning_rate)
    rng = np.random.default_rng(seed)
    history = TrainingHistory()
    for _ in range(epochs):
        order = rng.permutation(table.num_graphs)
        epoch_loss, batches = 0.0, 0
        for start in range(0, len(order), batch_size):
            indices = order[start : start + batch_size]
            optimizer.zero_grad()
            loss = batched_loss(model, table.slice_batch(indices), targets[indices])
            loss.backward()
            optimizer.step()
            epoch_loss += loss.item()
            batches += 1
        history.train_losses.append(epoch_loss / batches)
        if validation is not None:
            history.validation_losses.append(tape_evaluate_loss(model, *validation))
    return history


# ---------------------------------------------------------------------- #
# Helpers
# ---------------------------------------------------------------------- #
def make_model(steps, latent, hidden, layer_norm, seed=0):
    return EncodeProcessDecode(
        latent_size=latent,
        hidden_size=hidden,
        num_message_passing_steps=steps,
        use_layer_norm=layer_norm,
        seed=seed,
    )


def written_out_loss_and_gradients(model, batched, targets):
    slots = {parameter: np.zeros_like(parameter.data) for parameter in model.parameters()}
    loss = step.loss_and_gradients(model, step.GraphBatch(batched), targets, slots)
    return loss, [slots[parameter] for parameter in model.parameters()]


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
        for parameter in model.parameters():
            parameter.data += rng.normal(scale=0.1, size=parameter.shape)
        batched = table.to_batched()

        tape_loss, tape_grads = tape_loss_and_gradients(model, batched, targets)
        loss, grads = written_out_loss_and_gradients(model, batched, targets)

        assert loss == tape_loss
        for index, (grad, tape_grad) in enumerate(zip(grads, tape_grads)):
            if tape_grad is None:  # the decoder's edge and node MLPs
                assert not grad.any(), index
            else:
                assert np.array_equal(grad, tape_grad), index

        # Central differences on sampled coordinates, through the tape's
        # forward pass; unreached parameters must show a zero slope.
        parameters = list(model.parameters())
        for _ in range(6):
            index = int(rng.integers(len(parameters)))
            flat = parameters[index].data.reshape(-1)
            coordinate = int(rng.integers(flat.size))
            original = flat[coordinate]
            values = []
            for delta in (1e-7, -1e-7):
                flat[coordinate] = original + delta
                values.append(batched_loss(model, batched, targets).item())
            flat[coordinate] = original
            slope = (values[0] - values[1]) / 2e-7
            assert grads[index].reshape(-1)[coordinate] == pytest.approx(
                slope, rel=1e-4, abs=1e-6
            ), (index, coordinate)

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
        assert evaluate_loss(model, table, targets, batch_size=5) == tape_evaluate_loss(
            model, table, targets, batch_size=5
        )
        assert np.array_equal(predict(model, table), model.predict(table.to_batched()))


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
        expected = tape_train(
            reference, table, targets, (validation, validation_targets),
            epochs=3, batch_size=batch_size, learning_rate=3e-3, seed=seed,
        )

        assert history.train_losses == expected.train_losses
        assert history.validation_losses == expected.validation_losses
        for weights, reference_weights in zip(model.parameters(), reference.parameters()):
            assert np.array_equal(weights.data, reference_weights.data)
        assert evaluate_loss(model, validation, validation_targets) == tape_evaluate_loss(
            reference, validation, validation_targets
        )
        assert np.array_equal(predict(model, table), reference.predict(table.to_batched()))


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
        model = make_model(2, 4, 4, False)
        before = [parameter.data.copy() for parameter in model.parameters()]
        optimizer = Adam(model.parameters())
        for parameter, value in zip(model.parameters(), before):
            assert np.shares_memory(parameter.data, optimizer._values)
            assert np.array_equal(parameter.data, value)

    def test_a_zero_slot_leaves_its_parameter_exactly(self):
        model = make_model(2, 4, 4, False)
        optimizer = Adam(model.parameters(), learning_rate=0.1)
        parameters = list(model.parameters())
        optimizer.slots[parameters[0]][...] = 1.0
        stepped, untouched = parameters[0].data.copy(), parameters[1].data.copy()
        optimizer.step(optimizer.gradient)
        assert not np.array_equal(parameters[0].data, stepped)
        assert np.array_equal(parameters[1].data, untouched)


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
