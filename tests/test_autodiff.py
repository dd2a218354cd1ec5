"""Tests for the tape oracle's reverse-mode autodiff, including gradient checks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tape import (
    Tensor,
    add,
    concat,
    gather,
    layer_norm,
    matmul,
    mean,
    mse_loss,
    multiply,
    power,
    relu,
    segment_sum,
    subtract,
    tensor_sum,
)
from repro.errors import ModelError


def numerical_gradient(fn, tensor: Tensor, epsilon: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar-valued function wrt *tensor*."""
    gradient = np.zeros_like(tensor.data)
    flat = tensor.data.reshape(-1)
    grad_flat = gradient.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        upper = fn().item()
        flat[index] = original - epsilon
        lower = fn().item()
        flat[index] = original
        grad_flat[index] = (upper - lower) / (2 * epsilon)
    return gradient


class TestForward:
    def test_basic_arithmetic(self):
        a = Tensor([[1.0, 2.0]])
        b = Tensor([[3.0, 4.0]])
        assert np.allclose(add(a, b).numpy(), [[4.0, 6.0]])
        assert np.allclose(subtract(a, b).numpy(), [[-2.0, -2.0]])
        assert np.allclose(multiply(a, b).numpy(), [[3.0, 8.0]])

    def test_operator_overloads(self):
        a = Tensor([[2.0]])
        assert ((a + 1.0) * 3.0).item() == pytest.approx(9.0)
        assert (a * a + a).item() == pytest.approx(6.0)

    def test_matmul_shape_validation(self):
        with pytest.raises(ModelError):
            matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))

    def test_relu_clamps_negatives(self):
        out = relu(Tensor([[-1.0, 0.0, 2.0]]))
        assert np.allclose(out.numpy(), [[0.0, 0.0, 2.0]])

    def test_segment_sum_groups_rows(self):
        values = Tensor([[1.0], [2.0], [3.0]])
        out = segment_sum(values, np.array([0, 1, 0]), 2)
        assert np.allclose(out.numpy(), [[4.0], [2.0]])

    def test_segment_sum_validates_lengths(self):
        with pytest.raises(ModelError):
            segment_sum(Tensor(np.ones((3, 1))), np.array([0, 1]), 2)

    def test_gather_selects_rows(self):
        values = Tensor([[1.0], [2.0], [3.0]])
        out = gather(values, np.array([2, 0, 2]))
        assert np.allclose(out.numpy(), [[3.0], [1.0], [3.0]])

    def test_layer_norm_normalizes_rows(self):
        x = Tensor(np.array([[1.0, 2.0, 3.0, 4.0]]))
        scale = Tensor(np.ones((1, 4)))
        offset = Tensor(np.zeros((1, 4)))
        out = layer_norm(x, scale, offset).numpy()
        assert out.mean() == pytest.approx(0.0, abs=1e-6)
        assert out.std() == pytest.approx(1.0, rel=1e-2)

    def test_mse_loss_value(self):
        loss = mse_loss(Tensor([[1.0], [3.0]]), Tensor([[0.0], [0.0]]))
        assert loss.item() == pytest.approx(5.0)

    def test_mse_loss_shape_mismatch(self):
        with pytest.raises(ModelError):
            mse_loss(Tensor(np.ones((2, 1))), Tensor(np.ones((3, 1))))


class TestBackward:
    def test_backward_requires_grad(self):
        with pytest.raises(ModelError):
            Tensor([[1.0]]).backward()

    def test_backward_requires_scalar(self):
        t = Tensor([[1.0, 2.0]], requires_grad=True)
        with pytest.raises(ModelError):
            (t * 2.0).backward()

    def test_gradient_accumulates_over_reuse(self):
        x = Tensor([[2.0]], requires_grad=True)
        y = x * x  # dy/dx = 2x = 4
        y.backward()
        assert x.grad[0, 0] == pytest.approx(4.0)

    def test_broadcast_gradient_is_summed(self):
        bias = Tensor(np.zeros((1, 3)), requires_grad=True)
        values = Tensor(np.ones((4, 3)))
        out = tensor_sum(add(values, bias))
        out.backward()
        assert np.allclose(bias.grad, np.full((1, 3), 4.0))

    def test_matmul_gradient_matches_numerical(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)

        def loss():
            return tensor_sum(multiply(matmul(a, b), matmul(a, b)))

        value = loss()
        value.backward()
        assert np.allclose(a.grad, numerical_gradient(loss, a), atol=1e-5)
        assert np.allclose(b.grad, numerical_gradient(loss, b), atol=1e-5)

    def test_layer_norm_gradient_matches_numerical(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        scale = Tensor(rng.normal(size=(1, 5)), requires_grad=True)
        offset = Tensor(rng.normal(size=(1, 5)), requires_grad=True)

        def loss():
            return tensor_sum(power(layer_norm(x, scale, offset), 2.0))

        loss().backward()
        assert np.allclose(x.grad, numerical_gradient(loss, x), atol=1e-4)
        assert np.allclose(scale.grad, numerical_gradient(loss, scale), atol=1e-4)
        assert np.allclose(offset.grad, numerical_gradient(loss, offset), atol=1e-4)

    def test_segment_and_gather_gradients_match_numerical(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        segments = np.array([0, 1, 0, 2, 1])
        indices = np.array([0, 2, 2, 1])

        def loss():
            pooled = segment_sum(x, segments, 3)
            selected = gather(x, indices)
            return tensor_sum(power(pooled, 2.0)) + tensor_sum(power(selected, 2.0))

        loss().backward()
        assert np.allclose(x.grad, numerical_gradient(loss, x), atol=1e-5)

    def test_concat_routes_gradients(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        out = tensor_sum(multiply(concat([a, b], axis=1), Tensor(np.arange(10.0).reshape(2, 5))))
        out.backward()
        assert a.grad.shape == (2, 2)
        assert b.grad.shape == (2, 3)
        assert np.allclose(a.grad, [[0.0, 1.0], [5.0, 6.0]])

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_mlp_like_composition_gradient(self, seed):
        """Random small MLP compositions have correct gradients."""
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(3, 4)))
        w1 = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        w2 = Tensor(rng.normal(size=(6, 1)), requires_grad=True)
        target = Tensor(rng.normal(size=(3, 1)))

        def loss():
            hidden = relu(matmul(x, w1))
            return mse_loss(matmul(hidden, w2), target)

        loss().backward()
        assert np.allclose(w1.grad, numerical_gradient(loss, w1), atol=1e-5)
        assert np.allclose(w2.grad, numerical_gradient(loss, w2), atol=1e-5)

    def test_mean_gradient(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        mean(x).backward()
        assert np.allclose(x.grad, np.full((2, 3), 1.0 / 6.0))


class TestSegmentOps:
    """The sorted ``reduceat`` fast path and the ``np.add.at`` scatter paths."""

    def _reference_segment_sum(self, values, segment_ids, num_segments):
        out = np.zeros((num_segments,) + values.shape[1:], dtype=values.dtype)
        np.add.at(out, segment_ids, values)
        return out

    def test_sorted_segment_sum_matches_scatter_reference(self):
        rng = np.random.default_rng(0)
        values = rng.random((200, 3))
        # Sorted ids with empty segments on both ends and in the middle.
        segment_ids = np.sort(rng.integers(1, 9, size=200))
        result = segment_sum(Tensor(values), segment_ids, 11, sorted_ids=True).numpy()
        # reduceat reduces each run pairwise where add.at accumulates
        # sequentially: equal to roundoff, not bit-for-bit.
        np.testing.assert_allclose(
            result, self._reference_segment_sum(values, segment_ids, 11), rtol=1e-9
        )
        empty = np.flatnonzero(np.bincount(segment_ids, minlength=11) == 0)
        assert empty.size and not result[empty].any()

    def test_wrong_sorted_hint_still_sums_correctly(self):
        rng = np.random.default_rng(1)
        values = rng.random((64, 2))
        segment_ids = rng.integers(0, 5, size=64)  # NOT sorted
        result = segment_sum(Tensor(values), segment_ids, 5, sorted_ids=True).numpy()
        np.testing.assert_allclose(
            result, self._reference_segment_sum(values, segment_ids, 5), rtol=1e-9
        )

    def test_empty_values_give_zero_segments(self):
        result = segment_sum(Tensor(np.empty((0, 4))), np.empty(0, dtype=np.int64), 3).numpy()
        assert result.shape == (3, 4)
        assert not result.any()

    def test_scatter_add_matches_inplace_reference(self):
        # The gather backward pass scatter-adds repeated rows.
        rng = np.random.default_rng(2)
        values = rng.random((50, 3))
        indices = rng.integers(0, 7, size=50)
        reference = np.zeros((7, 3))
        np.add.at(reference, indices, values)
        target = Tensor(np.zeros((7, 3)), requires_grad=True)
        gather(target, indices).backward(values)
        np.testing.assert_array_equal(target.grad, reference)

    def test_take_gathers_rows(self):
        values = np.arange(12.0).reshape(6, 2)
        indices = np.array([5, 0, 0, 3])
        np.testing.assert_array_equal(gather(Tensor(values), indices).numpy(), values[indices])
