"""Encode-process-decode learned performance model (paper Figure 3).

The model has three components:

* an **encoder** that independently lifts the scalar edge/node/global input
  features into a 16-dimensional latent space;
* a **core** full GN block applied for a fixed number of message-passing
  steps; at every step the core consumes the concatenation of the encoder
  output and the current latent state (the skip connection drawn in Figure 3);
* a **decoder** (independent block) plus a final linear readout that turns the
  updated global feature into a single scalar — the predicted performance
  metric (latency, energy, ...).

Every block is three two-layer feed-forward networks (edge, node and global)
of 16 neurons per layer, optionally followed by layer normalization (Section
4.1). The core's edge network reads (edge, sender node, receiver node,
global), its node network (node, summed incoming edges, global) and its
global network (global, summed edges, summed nodes), all with sum
aggregation. The model returns one prediction per message-passing step; the
training loss averages the per-step errors, which the paper reports makes
convergence faster. :mod:`repro.core.step` runs it.

This module owns the parameter layout. Every parameter is a named view of
one flat float64 vector, :attr:`EncodeProcessDecode.values`, in the order
the initial weights are drawn and exported: the encoder's, core's and
decoder's edge, node and global networks, then the readout. A network named
``"core/edge"`` has ``core/edge/hidden/{weight,bias}``,
``core/edge/output/{weight,bias}`` and, with layer normalization,
``core/edge/norm/{scale,offset}``. Weights start as truncated normal draws
with a standard deviation of ``1 / sqrt(inputs)``, biases and offsets at
zero and scales at one (the paper's defaults).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ModelError

#: Latent feature width used by the paper for edge, node and global blocks.
DEFAULT_LATENT_SIZE = 16
#: Hidden layer width of every MLP (two layers of 16 neurons).
DEFAULT_HIDDEN_SIZE = 16
#: Number of message-passing rounds of the core block.
DEFAULT_NUM_STEPS = 3
#: Whether the MLP blocks end with layer normalization.  The paper's model
#: (Sonnet/Graph Nets at 254K training samples) uses layer normalization; at
#: this reproduction's much smaller training scale it prevents the global
#: (regression) pathway from carrying magnitude information and stalls
#: convergence, so it is off by default and exposed as a switch.
DEFAULT_USE_LAYER_NORM = False

#: The three networks of every block, in parameter order.
ELEMENTS = ("edge", "node", "global")


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


def _dense(name: str, inputs: int, outputs: int, rng: np.random.Generator) -> dict:
    """Initial weight and bias of the dense layer ``x @ weight + bias``."""
    stddev = 1.0 / np.sqrt(max(1, inputs))
    return {
        f"{name}/weight": truncated_normal(rng, (inputs, outputs), stddev),
        f"{name}/bias": np.zeros((1, outputs)),
    }


class EncodeProcessDecode:
    """The graph-based learned performance model."""

    def __init__(
        self,
        latent_size: int = DEFAULT_LATENT_SIZE,
        hidden_size: int = DEFAULT_HIDDEN_SIZE,
        num_message_passing_steps: int = DEFAULT_NUM_STEPS,
        seed: int = 0,
        use_layer_norm: bool = DEFAULT_USE_LAYER_NORM,
    ):
        if num_message_passing_steps < 1:
            raise ModelError("the core must run at least one message-passing step")
        self.num_message_passing_steps = num_message_passing_steps
        self.latent_size = latent_size

        latent = latent_size
        input_sizes = {
            # One scalar feature per edge, node and graph (features.py).
            "encoder": (1, 1, 1),
            # Each element the core reads is [encoder output, latent state],
            # 2 * latent wide; the aggregated updates are latent wide.
            "core": (8 * latent, 5 * latent, 4 * latent),
            "decoder": (latent, latent, latent),
        }
        rng = np.random.default_rng(seed)
        initial: dict[str, np.ndarray] = {}
        for block, sizes in input_sizes.items():
            for element, inputs in zip(ELEMENTS, sizes):
                name = f"{block}/{element}"
                initial.update(_dense(f"{name}/hidden", inputs, hidden_size, rng))
                initial.update(_dense(f"{name}/output", hidden_size, latent, rng))
                if use_layer_norm:
                    initial[f"{name}/norm/scale"] = np.ones((1, latent))
                    initial[f"{name}/norm/offset"] = np.zeros((1, latent))
        initial.update(_dense("readout", latent, 1, rng))

        self._shapes = {name: array.shape for name, array in initial.items()}
        #: Every parameter, flat, in :attr:`params` order.
        self.values = np.concatenate([array.ravel() for array in initial.values()])
        #: One named view of :attr:`values` per parameter.
        self.params = self.views(self.values)

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """One view of *flat* per parameter, laid out like :attr:`values`.

        The training step writes its gradients through the views of a flat
        gradient vector, which the optimizer then applies in one update.
        """
        views, start = {}, 0
        for name, shape in self._shapes.items():
            stop = start + math.prod(shape)
            views[name] = flat[start:stop].reshape(shape)
            start = stop
        return views

    def export_arrays(self) -> list[np.ndarray]:
        """Copies of every parameter array, in :attr:`params` order.

        The order is fixed by the layout, which makes the flat list a
        sufficient serialization format for the sweep service's weight cache.
        """
        return [view.copy() for view in self.params.values()]

    def load_arrays(self, arrays: list[np.ndarray]) -> None:
        """Restore parameters previously produced by :meth:`export_arrays`.

        Every count and shape is checked before any parameter is written, so
        a rejected load leaves the model as it was.
        """
        if len(arrays) != len(self.params):
            raise ModelError(
                f"cannot load {len(arrays)} arrays into a model with "
                f"{len(self.params)} parameters"
            )
        arrays = [np.asarray(array, dtype=np.float64) for array in arrays]
        for view, array in zip(self.params.values(), arrays):
            if view.shape != array.shape:
                raise ModelError(
                    f"shape mismatch while loading weights: expected "
                    f"{view.shape}, got {array.shape}"
                )
        for view, array in zip(self.params.values(), arrays):
            view[...] = array
