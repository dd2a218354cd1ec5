"""Neural-network building blocks used by the learned performance model.

The paper's model uses two-layer feed-forward networks with 16 neurons per
layer followed by layer normalization for its edge, node and global blocks
(Section 4.1).  Weight initialization follows the paper: truncated random
normal values with a standard deviation proportional to the number of input
features, and zero-initialized biases.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..errors import ModelError
from .autodiff import Tensor, add, layer_norm, matmul, relu


def truncated_normal(
    rng: np.random.Generator, shape: tuple[int, ...], stddev: float
) -> np.ndarray:
    """Sample a truncated normal (±2 standard deviations) array."""
    samples = rng.normal(0.0, stddev, size=shape)
    limit = 2.0 * stddev
    out_of_range = np.abs(samples) > limit
    while out_of_range.any():
        samples[out_of_range] = rng.normal(0.0, stddev, size=int(out_of_range.sum()))
        out_of_range = np.abs(samples) > limit
    return samples


class Module:
    """Base class providing parameter traversal for optimizers."""

    def parameters(self) -> Iterator[Tensor]:
        """Yield every trainable :class:`Tensor` owned by this module (recursively)."""
        for value in self.__dict__.values():
            if isinstance(value, Tensor) and value.requires_grad:
                yield value
            elif isinstance(value, Module):
                yield from value.parameters()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.parameters()
                    elif isinstance(item, Tensor) and item.requires_grad:
                        yield item

    def num_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return sum(parameter.data.size for parameter in self.parameters())

    def export_arrays(self) -> list[np.ndarray]:
        """Copies of every parameter array, in :meth:`parameters` order.

        The traversal order is deterministic (insertion order of the module
        attributes), which makes the flat list a sufficient serialization
        format for the sweep service's weight cache.
        """
        return [parameter.data.copy() for parameter in self.parameters()]

    def load_arrays(self, arrays: list[np.ndarray]) -> None:
        """Restore parameters previously produced by :meth:`export_arrays`."""
        parameters = list(self.parameters())
        if len(parameters) != len(arrays):
            raise ModelError(
                f"cannot load {len(arrays)} arrays into a module with "
                f"{len(parameters)} parameters"
            )
        for parameter, array in zip(parameters, arrays):
            array = np.asarray(array, dtype=np.float64)
            if parameter.data.shape != array.shape:
                raise ModelError(
                    f"shape mismatch while loading weights: expected "
                    f"{parameter.data.shape}, got {array.shape}"
                )
            parameter.data[...] = array

    def zero_grad(self) -> None:
        """Clear the gradients of every parameter."""
        for parameter in self.parameters():
            parameter.zero_grad()


class Linear(Module):
    """Dense layer ``y = x @ W + b``.

    Weights use a truncated normal initializer with standard deviation
    ``1 / sqrt(input_size)``; biases start at zero (the paper's defaults).
    """

    def __init__(self, input_size: int, output_size: int, rng: np.random.Generator):
        stddev = 1.0 / np.sqrt(max(1, input_size))
        self.weight = Tensor(
            truncated_normal(rng, (input_size, output_size), stddev),
            requires_grad=True,
            name="linear/weight",
        )
        self.bias = Tensor(np.zeros((1, output_size)), requires_grad=True, name="linear/bias")

    def __call__(self, inputs: Tensor) -> Tensor:
        return add(matmul(inputs, self.weight), self.bias)


class LayerNorm(Module):
    """Layer normalization with learnable scale and offset."""

    def __init__(self, size: int):
        self.scale = Tensor(np.ones((1, size)), requires_grad=True, name="layernorm/scale")
        self.offset = Tensor(np.zeros((1, size)), requires_grad=True, name="layernorm/offset")

    def __call__(self, inputs: Tensor) -> Tensor:
        return layer_norm(inputs, self.scale, self.offset)


class MLP(Module):
    """Two-layer feed-forward network with ReLU, optionally layer-normalized.

    This is the neural model block used for edges, nodes and globals in the
    paper: ``Linear(16) -> ReLU -> Linear(16) -> LayerNorm``.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        output_size: int,
        rng: np.random.Generator,
        use_layer_norm: bool = True,
    ):
        self.hidden = Linear(input_size, hidden_size, rng)
        self.output = Linear(hidden_size, output_size, rng)
        self.norm = LayerNorm(output_size) if use_layer_norm else None

    def __call__(self, inputs: Tensor) -> Tensor:
        hidden = relu(self.hidden(inputs))
        output = self.output(hidden)
        if self.norm is not None:
            output = self.norm(output)
        return output
