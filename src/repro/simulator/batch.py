"""Vectorized batch-sweep engine: compile once, simulate the population wide.

The paper's headline experiment is ~1.5M latency and ~900K energy simulations
over the NASBench population on three Edge TPU classes.  The scalar
:class:`~repro.simulator.engine.PerformanceSimulator` walks one Python layer
object at a time; this module instead flattens the whole population into a
:class:`~repro.nasbench.layer_table.LayerTable` **once** (shared across all
accelerator configurations) and runs the compiler and timing/energy formulas
as NumPy array kernels over every layer of every model simultaneously.
The accelerator configurations are an array axis too
(:meth:`BatchSimulator.evaluate_table_grid`): the config scalars broadcast as
:class:`~repro.arch.config_table.ConfigTable` columns, so a whole
configuration grid is evaluated in one ``(num_configs, num_layers)`` pass
instead of once per configuration.

The results are bit-for-bit the scalar engine's (both paths run the same
kernels; only the reduction order of float sums differs, within 1e-9
relative).  The table path has one implementation, the fused kernel of
:func:`~repro.simulator.fused.compile_and_time_table`; the scalar
:class:`~repro.simulator.engine.PerformanceSimulator` is its reference.

:meth:`BatchSimulator.evaluate` is the one in-memory sweep: it returns the
:class:`~repro.simulator.runner.MeasurementSet` that the analysis and
benchmark modules consume.  A persisted, resumable sweep goes through
:meth:`~repro.service.store.MeasurementStore.extend`, and a sweep shared
across processes or hosts through the lease queue of
:class:`~repro.service.worker.SweepWorker`; both simulate their missing
pairs with :meth:`BatchSimulator.evaluate_table_grid`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .. import obs
from ..arch.config import STUDIED_CONFIGS, AcceleratorConfig
from ..arch.config_table import ConfigTable
from ..errors import SimulationError
from ..nasbench.cell import Cell
from ..nasbench.dataset import NASBenchDataset
from ..nasbench.layer_table import LayerTable
from ..nasbench.network import NetworkConfig
from .fused import compile_and_time_table
from .runner import MeasurementSet


class BatchSimulator:
    """Population-scale latency/energy estimator over accelerator configs.

    Parameters
    ----------
    enable_parameter_caching:
        Forwarded to the compiler; the paper's results have it enabled and
        the ablation benchmarks switch it off.
    """

    def __init__(self, enable_parameter_caching: bool = True):
        self.enable_parameter_caching = enable_parameter_caching

    # ------------------------------------------------------------------ #
    # Entry points
    # ------------------------------------------------------------------ #
    def evaluate(
        self,
        dataset: NASBenchDataset,
        configs: Iterable[AcceleratorConfig] | None = None,
        progress_callback: Callable[[str, int, int], None] | None = None,
    ) -> MeasurementSet:
        """Simulate every model of *dataset* on every configuration.

        The population is packed into one
        :class:`~repro.nasbench.layer_table.LayerTable` and every
        configuration (default: the paper's V1, V2 and V3) is simulated in
        one grid pass; *progress_callback* ticks once per configuration.  A
        raising *progress_callback* cannot abort the sweep: exceptions are
        caught, logged as obs error events, and the sweep continues.
        """
        progress_callback = obs.guarded_progress(progress_callback, origin="sim.evaluate")
        config_list: Sequence[AcceleratorConfig] = (
            list(configs) if configs is not None else list(STUDIED_CONFIGS.values())
        )
        if not config_list:
            raise SimulationError("no accelerator configurations were provided")
        total = len(dataset)

        if total == 0:
            return MeasurementSet(
                dataset,
                {config.name: np.empty(0, dtype=float) for config in config_list},
                {config.name: np.full(0, np.nan, dtype=float) for config in config_list},
            )
        with obs.span("sim.evaluate", models=total, configs=len(config_list)):
            table = LayerTable.from_architectures(
                [record.architecture for record in dataset], dataset.network_config
            )
            grid_latency, grid_energy = self.evaluate_table_grid(table, config_list)
            latencies, energies = {}, {}
            for index, config in enumerate(config_list):
                latencies[config.name] = grid_latency[index]
                energies[config.name] = grid_energy[index]
                if progress_callback is not None:
                    progress_callback(config.name, total, total)
        return MeasurementSet(dataset, latencies, energies)

    def evaluate_cells(
        self,
        cells: Sequence[Cell],
        config: AcceleratorConfig,
        network_config: NetworkConfig | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Latency/energy arrays of bare *cells* on one configuration.

        Convenience for callers that have cells rather than a dataset (the
        learned-model examples, operation-swap analysis): the cells' layer
        rows are packed into one table and swept in a single pass.
        """
        return self.evaluate_table(LayerTable.from_architectures(cells, network_config), config)

    def evaluate_table(
        self, table: LayerTable, config: AcceleratorConfig
    ) -> tuple[np.ndarray, np.ndarray]:
        """Latency (ms) and energy (mJ) per model of *table* on one config.

        The one-row view of :meth:`evaluate_table_grid`.  Energy is NaN for
        configurations without a published energy model (V3).
        """
        latency_ms, energy_mj = self.evaluate_table_grid(table, [config])
        return latency_ms[0], energy_mj[0]

    def evaluate_table_grid(
        self,
        table: LayerTable,
        configs: Sequence[AcceleratorConfig] | ConfigTable,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Config-axis vectorized sweep: all configurations in one pass.

        Returns ``(latency_ms, energy_mj)`` arrays of shape
        ``(num_configs, num_models)``, row ``i`` belonging to ``configs[i]``.
        The configuration scalars become broadcastable ``(num_configs, 1)``
        columns of a :class:`~repro.arch.config_table.ConfigTable` and the
        whole mapping/cache/timing/energy chain runs as the single
        scratch-threaded kernel of
        :func:`~repro.simulator.fused.compile_and_time_table`.  A row does not
        depend on the other configurations of the grid, so the results equal
        a loop over :meth:`evaluate_table` bit for bit.  Energy rows of
        configurations without a published energy model are NaN.
        """
        config_table = ConfigTable.from_configs(configs)
        with obs.span(
            "sim.grid",
            configs=len(config_table),
            models=table.num_models,
            layers=table.num_layers,
        ):
            obs.count("sim.rows_processed", len(config_table) * table.num_layers)
            return compile_and_time_table(
                table, config_table, enable_parameter_caching=self.enable_parameter_caching
            )
