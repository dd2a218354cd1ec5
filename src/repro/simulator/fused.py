"""Fused mapping→cache→timing→energy grid kernel.

:func:`compile_and_time_table` is the one table implementation of the cost
model; :meth:`~repro.simulator.batch.BatchSimulator.evaluate_table_grid` and
every sweep reach it.  The mapping and cache kernels run factorized over the
*distinct* sub-configurations they read (:data:`MAPPING_CONFIG_FIELDS`,
:data:`CACHE_CONFIG_FIELDS`: a clock or I/O axis re-maps nothing), and their
results are never gathered back to the full configuration axis.  Instead the
timing/energy arithmetic walks the config axis in small chunks, threading a
handful of reusable scratch buffers whose rows are gathered straight from
the unique-level arrays — the only full-size traffic left is the per-chunk
reads of four unique-level rows.

The scalar :class:`~repro.simulator.engine.PerformanceSimulator` is the
reference: it runs the same formulas one layer object at a time, and the
two agree to 1e-9 relative (only the association order of the per-model
float sums differs).  Within the kernel a configuration's row does not depend
on the rest of the grid or on the chunk size, so a one-config call and a
wide grid give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .. import obs
from ..arch.config import AcceleratorConfig, scaled_bytes
from ..arch.config_table import ConfigTable

# The dynamic per-event coefficients are technology constants shared by every
# configuration (only the static power varies); that invariant is what lets
# the MAC/idle/SRAM energy terms collapse out of the config axis below.
from ..arch.energy import (
    _DRAM_BYTE_PJ,
    _IDLE_LANE_PJ,
    _MAC_PJ,
    _SRAM_BYTE_PJ,
    energy_parameters_table,
)
from ..arch.interconnect import on_chip_bytes_per_cycle, sustained_bytes_per_cycle
from ..compiler.param_cache import CACHE_CONFIG_FIELDS, plan_cache_table
from ..compiler.tiling import MAPPING_CONFIG_FIELDS, map_layer_table
from ..nasbench.layer_table import LayerTable

_PJ_TO_MJ = 1e-9


@dataclass(frozen=True)
class _UniqueLevelArrays:
    """Everything the chunk loop gathers, at unique-sub-config resolution.

    Batch size is a full-config-axis scalar (it is in neither field set), so
    the per-image quantities stay unique-level and the chunk loop combines
    them with the batch column: ``dram = stream + batch * act_dram``,
    ``compute = batch * compute_cycles``, etc.  Everything that touches an
    energy coefficient stays integer here so the chunk loop can keep the
    ``pj * int`` association order of the scalar energy formula.
    """

    #: (Cm, L) int64 — per-image datapath cycles per unique mapping sub-config.
    compute_cycles: np.ndarray
    #: (Cm, L) int64 — per-image idle MAC slots (zero for non-MAC rows).
    idle_slots: np.ndarray
    #: (Cc, L) int64 — streamed weight bytes (bit-scaled, once per batch).
    stream_bytes: np.ndarray
    #: (Cc, L) int64 — per-image activation DRAM bytes (spill + model I/O).
    act_dram_bytes: np.ndarray
    #: (Cc, L) int64 — on-chip refill bytes (cached weights, once per batch).
    refill_bytes: np.ndarray
    #: (Cc, L) int64 — per-image activation SRAM bytes (bit-scaled).
    sram_act_bytes: np.ndarray
    #: (C,) rows into the mapping-unique arrays.
    inverse_mapping: np.ndarray
    #: (C,) rows into the cache-unique arrays.
    inverse_cache: np.ndarray


def _auto_chunk(num_configs: int, num_layers: int) -> int:
    """Config rows per chunk: keep the scratch buffers near cache size.

    Large layer populations go (nearly) row-by-row so the scratch rows stay
    hot; small populations take wide chunks so the numpy call overhead is
    amortized over the config axis.
    """
    return max(1, min(num_configs, 500_000 // max(1, num_layers)))


def _unique_level_arrays(
    table: LayerTable,
    configs: ConfigTable,
    enable_parameter_caching: bool,
) -> _UniqueLevelArrays:
    """Run the factorized mapping/cache front end of the fused kernel.

    The mapping and cache kernels run once per distinct sub-configuration
    (:meth:`ConfigTable.factor`) and the results are *kept* at unique
    resolution: the chunk loop gathers individual rows instead of
    materializing full-(C, L) arrays.  The cache plan comes from
    :func:`plan_cache_table`, the planner the scalar compiler also calls, so
    bit-width scaling and the per-width greedy grouping cannot drift between
    the kernel and its reference.
    """
    working_set = table.input_activation_bytes + table.output_activation_bytes
    first_rows = table.model_offsets[:-1]
    last_rows = table.model_offsets[1:] - 1

    # --- mapping level: distinct MAPPING_CONFIG_FIELDS rows --------------- #
    unique_m, inverse_m = configs.factor(MAPPING_CONFIG_FIELDS)
    obs.count("sim.unique_mapping_rows", len(unique_m))
    with obs.span("sim.mapping", unique=len(unique_m), layers=len(table)):
        mapping = map_layer_table(table, unique_m)
        compute_cycles = np.ascontiguousarray(
            np.atleast_2d(mapping.compute_cycles), dtype=np.int64
        )
        # The idle-lane slot count only reads mapping fields (issued MAC
        # slots), so it collapses to the mapping level too; it stays an
        # integer so the chunk loop can batch-scale it before the coefficient
        # multiply, exactly like layer_energy_mj.
        macs = table.macs
        issued_slots = compute_cycles * unique_m.macs_per_cycle
        idle_slots = np.ascontiguousarray(
            np.where(macs > 0, np.maximum(0, issued_slots - macs), 0), dtype=np.int64
        )

    # --- cache level: distinct CACHE_CONFIG_FIELDS rows ------------------- #
    unique_c, inverse_c = configs.factor(CACHE_CONFIG_FIELDS)
    obs.count("sim.unique_cache_rows", len(unique_c))
    with obs.span("sim.cache", unique=len(unique_c), layers=len(table)):
        cache = plan_cache_table(table, unique_c, enable_caching=enable_parameter_caching)
        weights_scaled = scaled_bytes(table.weight_bytes, unique_c.weight_bits)
        streamed = np.ascontiguousarray(np.atleast_2d(cache.streamed_bytes), dtype=np.int64)
        refill = np.ascontiguousarray(weights_scaled - streamed, dtype=np.int64)

    act_scaled = scaled_bytes(working_set, unique_c.activation_bits)
    spill = np.where(act_scaled > unique_c.total_pe_memory_bytes, act_scaled, 0)
    # Per-image model input/output DRAM traffic on the first/last layer rows.
    input_scaled = scaled_bytes(table.input_activation_bytes, unique_c.activation_bits)
    output_scaled = scaled_bytes(table.output_activation_bytes, unique_c.activation_bits)
    extra = np.zeros(spill.shape, dtype=np.int64)
    extra[..., first_rows] += input_scaled[..., first_rows]
    extra[..., last_rows] += output_scaled[..., last_rows]
    act_dram = np.ascontiguousarray(spill + extra, dtype=np.int64)

    return _UniqueLevelArrays(
        compute_cycles=compute_cycles,
        idle_slots=idle_slots,
        stream_bytes=streamed,
        act_dram_bytes=act_dram,
        refill_bytes=refill,
        sram_act_bytes=np.ascontiguousarray(act_scaled, dtype=np.int64),
        inverse_mapping=inverse_m,
        inverse_cache=inverse_c,
    )


def compile_and_time_table(
    table: LayerTable,
    configs: "Sequence[AcceleratorConfig] | ConfigTable",
    enable_parameter_caching: bool = True,
    config_chunk: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Fused grid evaluation: ``(latency_ms, energy_mj)``, both ``(C, M)``.

    Both match the scalar simulator's ``simulate(network)`` per (config,
    model) to 1e-9 relative.  Energy rows of configurations without a
    published energy model are NaN, matching the scalar simulator's ``None``.

    Parameters
    ----------
    config_chunk:
        Config rows processed per scratch buffer; defaults to a size that
        keeps the scratch near cache-resident.
    """
    config_table = ConfigTable.from_configs(configs)
    num_configs = len(config_table)
    num_models = table.num_models
    num_layers = len(table)
    if num_models == 0 or num_layers == 0:
        empty = np.zeros((num_configs, num_models), dtype=np.float64)
        return empty, np.full_like(empty, np.nan)

    with obs.span(
        "sim.fused",
        configs=num_configs,
        models=num_models,
        layers=num_layers,
    ):
        unique = _unique_level_arrays(table, config_table, enable_parameter_caching)
        chunk = config_chunk or _auto_chunk(num_configs, num_layers)
        return _fused_time_energy(unique, table, config_table, chunk)


def _fused_time_energy(
    unique: _UniqueLevelArrays,
    table: LayerTable,
    config_table: ConfigTable,
    chunk: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Timing/energy back end of the fused kernel (split out for tracing)."""
    num_configs = len(config_table)
    num_models = table.num_models

    # Full-config-axis columns, flattened to (C,) for row slicing.
    sustained = np.ravel(sustained_bytes_per_cycle(config_table))
    on_chip = np.ravel(on_chip_bytes_per_cycle(config_table)).astype(np.float64)
    layer_overhead = np.ravel(config_table.layer_overhead_cycles)
    inference_overhead = np.ravel(config_table.inference_overhead_cycles)
    clock_hz = np.ravel(config_table.clock_hz)
    batch = np.ravel(config_table.batch_size)
    params = energy_parameters_table(config_table)
    static_power = np.ravel(params.static_power_w)

    # Config-independent per-layer MAC counts (the pJ coefficients are shared
    # by all configs; the chunk loop applies them after the batch multiply).
    macs = np.ascontiguousarray(table.macs, dtype=np.int64)

    latency_ms = np.empty((num_configs, num_models), dtype=np.float64)
    energy_mj = np.empty((num_configs, num_models), dtype=np.float64)

    with obs.span("sim.time_energy", chunk=chunk):
        _fused_rows_numpy(
            unique,
            table,
            chunk,
            batch,
            sustained,
            on_chip,
            layer_overhead,
            inference_overhead,
            clock_hz,
            static_power,
            macs,
            latency_ms,
            energy_mj,
        )
        energy_mj[~params.available] = np.nan

    return latency_ms, energy_mj


def _fused_rows_numpy(
    unique: _UniqueLevelArrays,
    table: LayerTable,
    chunk: int,
    batch: np.ndarray,
    sustained: np.ndarray,
    on_chip: np.ndarray,
    layer_overhead: np.ndarray,
    inference_overhead: np.ndarray,
    clock_hz: np.ndarray,
    static_power: np.ndarray,
    macs: np.ndarray,
    latency_ms: np.ndarray,
    energy_mj: np.ndarray,
) -> None:
    """Chunked in-place numpy body of the fused kernel.

    Six gather buffers and two float work buffers of shape ``(chunk, L)``
    are threaded through the whole timing+energy chain with ``out=`` kernels
    — no temporary of that shape is allocated inside the loop.  All batch
    multiplies happen on the integer gathers before the float coefficients
    touch them, preserving the scalar formulas' ``pj * int`` association
    order.
    """
    num_configs = latency_ms.shape[0]
    num_layers = unique.compute_cycles.shape[-1]
    starts = table.segment_starts

    g_cycles = np.empty((chunk, num_layers), dtype=np.int64)
    g_stream = np.empty((chunk, num_layers), dtype=np.int64)
    g_act = np.empty((chunk, num_layers), dtype=np.int64)
    g_refill = np.empty((chunk, num_layers), dtype=np.int64)
    g_idle = np.empty((chunk, num_layers), dtype=np.int64)
    g_sram = np.empty((chunk, num_layers), dtype=np.int64)
    work_a = np.empty((chunk, num_layers), dtype=np.float64)
    work_b = np.empty((chunk, num_layers), dtype=np.float64)

    for begin in range(0, num_configs, chunk):
        end = min(begin + chunk, num_configs)
        rows = slice(0, end - begin)
        rows_m = unique.inverse_mapping[begin:end]
        rows_c = unique.inverse_cache[begin:end]
        b = batch[begin:end, None]
        np.take(unique.compute_cycles, rows_m, axis=0, out=g_cycles[rows])
        np.take(unique.stream_bytes, rows_c, axis=0, out=g_stream[rows])
        np.take(unique.act_dram_bytes, rows_c, axis=0, out=g_act[rows])
        np.take(unique.refill_bytes, rows_c, axis=0, out=g_refill[rows])
        np.take(unique.idle_slots, rows_m, axis=0, out=g_idle[rows])
        np.take(unique.sram_act_bytes, rows_c, axis=0, out=g_sram[rows])

        # Batched integer compute cycles and DRAM bytes, in place on the
        # gathers: dram = stream + batch * act_dram, compute = batch * cycles.
        cc = np.multiply(g_cycles[rows], b, out=g_cycles[rows])
        db = np.multiply(g_act[rows], b, out=g_act[rows])
        db += g_stream[rows]
        sus = sustained[begin:end, None]
        ocb = on_chip[begin:end, None]

        dram_cycles = np.divide(db, sus, out=work_a[rows])
        refill_cycles = np.divide(g_refill[rows], ocb, out=work_b[rows])
        memory = np.maximum(dram_cycles, refill_cycles, out=work_a[rows])
        total = np.maximum(cc, memory, out=work_a[rows])
        total += layer_overhead[begin:end, None]
        model_cycles = inference_overhead[begin:end, None] + np.add.reduceat(
            total, starts, axis=-1
        )
        np.multiply(
            np.divide(model_cycles, clock_hz[begin:end, None], out=model_cycles),
            1e3,
            out=latency_ms[begin:end],
        )

        # Energy: same terms, same association order as layer_energy_mj.
        # SRAM bytes = stored weights (stream + refill) + batch * activations.
        sram_b = np.multiply(g_sram[rows], b, out=g_sram[rows])
        sram_b += g_stream[rows]
        sram_b += g_refill[rows]
        macs_b = np.multiply(macs, b, out=g_cycles[rows])
        idle_b = np.multiply(g_idle[rows], b, out=g_idle[rows])
        dynamic = np.multiply(macs_b, _MAC_PJ, out=work_a[rows])
        dynamic += np.multiply(idle_b, _IDLE_LANE_PJ, out=work_b[rows])
        dynamic += np.multiply(sram_b, _SRAM_BYTE_PJ, out=work_b[rows])
        dynamic += np.multiply(db, _DRAM_BYTE_PJ, out=work_b[rows])
        dynamic *= _PJ_TO_MJ
        np.add(
            np.add.reduceat(dynamic, starts, axis=-1),
            static_power[begin:end, None] * latency_ms[begin:end],
            out=energy_mj[begin:end],
        )
