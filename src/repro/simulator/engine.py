"""The performance simulator: compile a model and estimate latency and energy.

This is the stand-in for the paper's in-house fully-parameterized
cycle-accurate performance model (Section 5, "Microarchitectural
simulations").  It is an analytical, per-layer cycle model rather than a
cycle-by-cycle simulation, which keeps whole-population sweeps tractable while
preserving the first-order effects the paper's conclusions rest on: compute
vs. bandwidth rooflines, parameter caching, clock frequency, and PE-count
dependent sustained bandwidth.
"""

from __future__ import annotations

from ..arch.config import AcceleratorConfig
from ..arch.energy import energy_parameters_for
from ..compiler import CompiledModel, compile_model
from ..errors import SimulationError
from ..nasbench.network import NetworkSpec
from .energy import layer_energy_mj, static_energy_mj
from .latency import (
    cycles_to_milliseconds,
    model_input_output_bytes,
    model_latency_cycles,
    time_layer,
)
from .results import LayerResult, SimulationResult


class PerformanceSimulator:
    """Latency/energy estimator for one accelerator configuration.

    Parameters
    ----------
    config:
        The accelerator configuration to simulate.
    enable_parameter_caching:
        The paper enables parameter caching in all simulations; disabling it
        here is used by the ablation benchmarks.
    collect_layer_results:
        When ``True`` the per-layer breakdown is attached to every
        :class:`SimulationResult`; population sweeps switch it off to save
        memory.
    """

    def __init__(
        self,
        config: AcceleratorConfig,
        enable_parameter_caching: bool = True,
        collect_layer_results: bool = False,
    ):
        self.config = config
        self.enable_parameter_caching = enable_parameter_caching
        self.energy_parameters = energy_parameters_for(config)
        self.collect_layer_results = collect_layer_results

    # ------------------------------------------------------------------ #
    # Entry points
    # ------------------------------------------------------------------ #
    def simulate(self, network: NetworkSpec) -> SimulationResult:
        """Simulate one steady-state inference of *network*."""
        compiled = compile_model(
            network, self.config, enable_parameter_caching=self.enable_parameter_caching
        )
        return self.simulate_compiled(compiled)

    def simulate_compiled(self, compiled: CompiledModel) -> SimulationResult:
        """Simulate one steady-state inference of an already-compiled model."""
        if compiled.config is not self.config and compiled.config != self.config:
            raise SimulationError(
                "compiled model targets a different accelerator configuration "
                f"({compiled.config.name!r} vs {self.config.name!r})"
            )
        if not compiled.layers:
            raise SimulationError("compiled model has no layers")

        input_bytes, output_bytes = model_input_output_bytes(compiled)
        timings = []
        layer_results: list[LayerResult] = []
        dynamic_energy = 0.0

        for index, layer in enumerate(compiled.layers):
            extra = 0
            if index == 0:
                extra += input_bytes
            if index == len(compiled.layers) - 1:
                extra += output_bytes
            timing = time_layer(layer, self.config, extra_dram_bytes=extra)
            timings.append(timing)
            energy = layer_energy_mj(layer, timing, self.config, self.energy_parameters)
            dynamic_energy += energy
            if self.collect_layer_results:
                layer_results.append(
                    LayerResult(
                        name=layer.spec.name,
                        kind=layer.spec.kind,
                        compute_cycles=timing.compute_cycles,
                        dram_bytes=timing.dram_bytes,
                        on_chip_refill_bytes=timing.on_chip_refill_bytes,
                        memory_cycles=timing.memory_cycles,
                        total_cycles=timing.total_cycles,
                        energy_mj=energy,
                        utilization=layer.mapping.utilization,
                    )
                )

        total_cycles = model_latency_cycles(timings, self.config)
        latency_ms = cycles_to_milliseconds(total_cycles, self.config)

        energy_mj: float | None = None
        if self.energy_parameters.available:
            energy_mj = dynamic_energy + static_energy_mj(latency_ms, self.energy_parameters)

        return SimulationResult(
            config_name=self.config.name,
            latency_ms=latency_ms,
            energy_mj=energy_mj,
            total_cycles=total_cycles,
            compute_cycles=compiled.total_compute_cycles,
            memory_cycles=sum(timing.memory_cycles for timing in timings),
            dram_bytes=sum(timing.dram_bytes for timing in timings),
            cached_weight_bytes=compiled.cache_plan.cached_bytes,
            streamed_weight_bytes=compiled.cache_plan.streamed_bytes,
            total_weight_bytes=compiled.cache_plan.total_weight_bytes,
            average_utilization=compiled.average_utilization,
            layer_results=tuple(layer_results),
        )
