"""Edge TPU compiler substrate: lowering, tiling/mapping and parameter caching."""

from __future__ import annotations

from ..arch.config import AcceleratorConfig, scaled_bytes
from ..nasbench.layer_table import LayerTable
from ..nasbench.network import NetworkSpec
from .lowering import SUPPORTED_KINDS, lower_network, max_activation_bytes
from .param_cache import (
    CachePlan,
    CacheTable,
    effective_cache_capacity,
    greedy_cache_assign,
    plan_cache_table,
    plan_parameter_cache,
)
from .schedule import CompiledLayer, CompiledModel
from .tiling import (
    LayerMapping,
    MappingTable,
    map_layer,
    map_layer_table,
)


def compile_model(
    network: NetworkSpec,
    config: AcceleratorConfig,
    enable_parameter_caching: bool = True,
) -> CompiledModel:
    """Compile *network* for *config*.

    The compilation pipeline mirrors the ahead-of-time Edge TPU compiler:
    the network is lowered to the accelerator's operation stream, every
    operation is mapped onto the PE/core/lane hierarchy, and the parameter
    cache plan decides which weights stay resident on-chip across inferences.
    The mapping math runs through the same array kernel as the batch path
    (one single-model table), so the scalar and vectorized results cannot
    drift apart.
    """
    layers = lower_network(network)
    cache_plan = plan_parameter_cache(layers, config, enable_caching=enable_parameter_caching)
    mapped = map_layer_table(LayerTable.from_specs(layers), config)

    compiled_layers = []
    for index, layer in enumerate(layers):
        streamed = cache_plan.streamed_bytes_by_layer.get(layer.name, 0)
        cached = scaled_bytes(layer.weight_bytes, config.weight_bits) - streamed
        compiled_layers.append(
            CompiledLayer(
                spec=layer,
                mapping=mapped.row(index),
                cached_weight_bytes=cached,
                streamed_weight_bytes=streamed,
            )
        )

    return CompiledModel(
        config=config,
        network=network,
        layers=tuple(compiled_layers),
        cache_plan=cache_plan,
    )


__all__ = [
    "CachePlan",
    "CacheTable",
    "CompiledLayer",
    "CompiledModel",
    "LayerMapping",
    "MappingTable",
    "SUPPORTED_KINDS",
    "compile_model",
    "effective_cache_capacity",
    "greedy_cache_assign",
    "lower_network",
    "map_layer",
    "map_layer_table",
    "max_activation_bytes",
    "plan_cache_table",
    "plan_parameter_cache",
]
