"""repro — reproduction of "An Evaluation of Edge TPU Accelerators for CNNs".

The package is organized as:

* :mod:`repro.nasbench` — the NASBench-101-style workload substrate;
* :mod:`repro.arch` — Edge TPU accelerator configurations and cost models;
* :mod:`repro.compiler` — the ahead-of-time mapper with parameter caching;
* :mod:`repro.simulator` — the latency/energy performance model;
* :mod:`repro.core` — the graph-neural-network learned performance model;
* :mod:`repro.service` — resumable sharded measurement store and sweep query service;
* :mod:`repro.server` — async micro-batched HTTP serving over a warm store;
* :mod:`repro.search` — hardware-aware architecture search (evolution / predictor-guided);
* :mod:`repro.hwspace` — accelerator design-space exploration (grids, hardware Pareto, co-search);
* :mod:`repro.analysis` — the characterization study (tables and figures).

The most common entry points are re-exported here.
"""

from .arch import (
    EDGE_TPU_V1,
    EDGE_TPU_V2,
    EDGE_TPU_V3,
    STUDIED_CONFIGS,
    AcceleratorConfig,
    ConfigTable,
    get_config,
)
from .hwspace import (
    AcceleratorSpace,
    CoSearchEngine,
    CoSearchResult,
    HardwareFrontier,
)
from .analysis import ParetoArchive
from .core import GraphTable, LearnedPerformanceModel, TrainingSettings
from .errors import (
    CompilationError,
    DatasetError,
    InvalidCellError,
    InvalidConfigError,
    ModelError,
    ReproError,
    SearchError,
    ServiceError,
    SimulationError,
)
from .nasbench import (
    Cell,
    LayerTable,
    NASBenchDataset,
    NetworkConfig,
    build_network,
    cell_fingerprint,
    mutate_cell,
    sample_unique_cells,
)
from .search import SearchEngine, SearchResult, SearchSpec
from .service import (
    MeasurementStore,
    MetricRequest,
    ParetoRequest,
    PredictRequest,
    QueryResponse,
    StoreStats,
    SweepService,
    TopKRequest,
)
from .simulator import (
    BatchSimulator,
    MeasurementSet,
    PerformanceSimulator,
    compile_and_time_table,
)

__version__ = "1.0.0"

__all__ = [
    "AcceleratorConfig",
    "AcceleratorSpace",
    "BatchSimulator",
    "Cell",
    "CoSearchEngine",
    "CoSearchResult",
    "CompilationError",
    "ConfigTable",
    "DatasetError",
    "EDGE_TPU_V1",
    "EDGE_TPU_V2",
    "EDGE_TPU_V3",
    "GraphTable",
    "HardwareFrontier",
    "InvalidCellError",
    "InvalidConfigError",
    "LayerTable",
    "LearnedPerformanceModel",
    "MeasurementSet",
    "MeasurementStore",
    "MetricRequest",
    "ModelError",
    "NASBenchDataset",
    "NetworkConfig",
    "ParetoArchive",
    "ParetoRequest",
    "PerformanceSimulator",
    "PredictRequest",
    "QueryResponse",
    "ReproError",
    "STUDIED_CONFIGS",
    "SearchEngine",
    "SearchError",
    "SearchResult",
    "SearchSpec",
    "ServerConfig",
    "ServiceClient",
    "ServiceError",
    "SimulationError",
    "StoreStats",
    "SweepCoordinator",
    "SweepManifest",
    "SweepServer",
    "SweepService",
    "SweepWorker",
    "TopKRequest",
    "TrainingSettings",
    "build_network",
    "cell_fingerprint",
    "compile_and_time_table",
    "get_config",
    "mutate_cell",
    "obs",
    "sample_unique_cells",
    "trace_summary",
    "__version__",
]


def __getattr__(name: str):
    # Lazily resolved so ``python -m repro.service.worker`` (and ``.queue``,
    # ``.obs``, ``.server``) run those modules as ``__main__`` without being
    # pre-imported here.
    if name in ("SweepCoordinator", "SweepManifest", "SweepWorker"):
        from . import service

        return getattr(service, name)
    if name in ("SweepServer", "ServerConfig", "ServiceClient"):
        from . import server

        return getattr(server, name)
    if name in ("obs", "trace_summary"):
        from . import obs

        return obs if name == "obs" else obs.trace_summary
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
