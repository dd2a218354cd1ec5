"""Adam optimizer (Kingma & Ba), as used by the paper with default parameters."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..errors import ModelError
from .autodiff import Tensor


class Adam:
    """Adam optimizer over one flat buffer holding every parameter.

    The paper trains its graph network with Adam at a learning rate of 1e-3
    and otherwise default hyperparameters; those are the defaults here.

    Construction moves the parameters into one flat array: each parameter's
    ``data`` becomes a view of its slice, so a step is a handful of numpy
    calls over the whole model instead of a handful per parameter. The
    update is elementwise, so every element gets exactly the arithmetic of
    a per-parameter Adam. :attr:`slots` holds a view of the flat
    :attr:`gradient` buffer per parameter, for code that writes gradients
    directly; a parameter that never gets a gradient keeps a zero slot and
    its value exactly (``p - 0.0 == p``).
    """

    def __init__(
        self,
        parameters: Iterable[Tensor],
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ):
        self.parameters: list[Tensor] = list(parameters)
        if not self.parameters:
            raise ModelError("Adam received no parameters to optimize")
        if learning_rate <= 0:
            raise ModelError("learning rate must be positive")
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._step = 0
        self._values = np.concatenate([p.data.ravel() for p in self.parameters])
        self.gradient = np.zeros_like(self._values)
        self.slots: dict[Tensor, np.ndarray] = {}
        start = 0
        for parameter in self.parameters:
            shape, stop = parameter.data.shape, start + parameter.data.size
            parameter.data = self._values[start:stop].reshape(shape)
            self.slots[parameter] = self.gradient[start:stop].reshape(shape)
            start = stop
        self._first_moment = np.zeros_like(self._values)
        self._second_moment = np.zeros_like(self._values)

    def zero_grad(self) -> None:
        """Clear the tape gradients of every tracked parameter."""
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self, gradient: np.ndarray | None = None) -> None:
        """Apply one Adam update.

        *gradient* is the flat gradient in parameter order, normally
        :attr:`gradient` after its slots were written. By default it is
        gathered from each parameter's tape gradient, with zeros for a
        parameter that has none.
        """
        if gradient is None:
            for parameter in self.parameters:
                slot = self.slots[parameter]
                slot[...] = 0.0 if parameter.grad is None else parameter.grad
            gradient = self.gradient
        self._step += 1
        bias_correction1 = 1.0 - self.beta1**self._step
        bias_correction2 = 1.0 - self.beta2**self._step
        m = self._first_moment
        v = self._second_moment
        m *= self.beta1
        m += (1.0 - self.beta1) * gradient
        v *= self.beta2
        v += (1.0 - self.beta2) * gradient**2
        m_hat = m / bias_correction1
        v_hat = v / bias_correction2
        self._values -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)
