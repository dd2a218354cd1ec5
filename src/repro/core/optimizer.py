"""Adam optimizer (Kingma & Ba), as used by the paper with default parameters."""

from __future__ import annotations

import numpy as np

from ..errors import ModelError


class Adam:
    """Adam optimizer over one flat parameter vector, updated in place.

    The paper trains its graph network with Adam at a learning rate of 1e-3
    and otherwise default hyperparameters; those are the defaults here.

    The model holds every parameter as a view of one flat vector
    (:attr:`~repro.core.model.EncodeProcessDecode.values`), so a step is a
    handful of numpy calls over the whole model. The update is elementwise,
    so every element gets exactly the arithmetic of a per-parameter Adam; an
    element whose gradient stays zero keeps its value exactly
    (``p - 0.0 == p``).
    """

    def __init__(
        self,
        values: np.ndarray,
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ):
        if values.size == 0:
            raise ModelError("Adam received no parameters to optimize")
        if learning_rate <= 0:
            raise ModelError("learning rate must be positive")
        self.values = values
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._step = 0
        self._first_moment = np.zeros_like(values)
        self._second_moment = np.zeros_like(values)

    def step(self, gradient: np.ndarray) -> None:
        """Apply one Adam update for *gradient*, laid out like :attr:`values`."""
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
        self.values -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)
