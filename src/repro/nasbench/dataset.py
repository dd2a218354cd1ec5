"""Dataset abstraction tying cells, metrics, parameters and accuracy together.

:class:`NASBenchDataset` plays the role of the NASBench-101 API in the paper's
methodology: it owns a population of unique cells together with their
structural metrics, trainable-parameter counts and (surrogate) mean validation
accuracies, and offers the filtering / querying operations the evaluation
section relies on (accuracy thresholds, top-k by accuracy, grouping keys).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .. import obs
from ..errors import DatasetError
from .accuracy import SurrogateAccuracyModel
from .cell import Cell
from .famous_cells import FAMOUS_CELLS
from .generator import enumerate_cells, sample_unique_cells
from .graph_metrics import CellMetrics, compute_metrics
from .hashing import cell_fingerprint
from .macro import MacroSpec
from .network import NetworkConfig, NetworkSpec, build_network
from .params import count_parameters


@dataclass(frozen=True)
class ModelRecord:
    """One model of the dataset: a unique architecture plus derived quantities.

    Legacy records carry a cell expanded through the dataset's shared
    backbone; macro records (``macro`` set) additionally carry their own
    :class:`~repro.nasbench.macro.MacroSpec`, whose fingerprint then serves
    as the record's identity (``cell`` holds the macro's representative
    first-stage cell so structural queries keep working).
    """

    index: int
    cell: Cell
    fingerprint: str
    metrics: CellMetrics
    trainable_parameters: int
    mean_validation_accuracy: float
    macro: MacroSpec | None = None

    @property
    def architecture(self) -> Cell | MacroSpec:
        """The searchable object this record measures (macro when present)."""
        return self.macro if self.macro is not None else self.cell

    def build_network(self, config: NetworkConfig | None = None) -> NetworkSpec:
        """Expand the record's architecture into its full network.

        Macro records expand through their own staged schedule and ignore
        *config*; cell records expand through the legacy backbone.
        """
        if self.macro is not None:
            return self.macro.build_network()
        return build_network(self.cell, config)


def model_record(
    arch: Cell | MacroSpec,
    index: int,
    network_config: NetworkConfig,
    accuracy_model: SurrogateAccuracyModel,
) -> ModelRecord:
    """The record of one architecture: metrics, parameters and accuracy.

    The one record constructor, shared by the dataset builders, search
    histories and the search oracles, so all of them agree.  A cell is
    pruned first and expands through *network_config*.  A macro spec keys
    the surrogate on the *macro* fingerprint (so two macros sharing a cell
    still draw independent training noise), reads its structural terms from
    the representative first-stage cell, and counts the parameters of the
    true staged expansion.  Parameters are counted from each cell instance's
    vertex channels, so no network is built and no layer row expanded.
    """
    if isinstance(arch, MacroSpec):
        cell, macro, fingerprint = arch.representative_cell, arch, arch.fingerprint
    else:
        cell, macro = arch.prune(), None
        fingerprint = cell.fingerprint
    metrics = compute_metrics(cell, prune=False)
    parameters = count_parameters(arch, network_config)
    accuracy = accuracy_model.mean_validation_accuracy(
        cell,
        fingerprint=fingerprint,
        metrics=metrics,
        trainable_parameters=parameters,
    )
    return ModelRecord(
        index=index,
        cell=cell,
        fingerprint=fingerprint,
        metrics=metrics,
        trainable_parameters=parameters,
        mean_validation_accuracy=accuracy,
        macro=macro,
    )


class NASBenchDataset:
    """A population of unique NASBench models.

    Instances are immutable containers of :class:`ModelRecord`; all filtering
    operations return new datasets sharing the same records.
    """

    def __init__(self, records: Sequence[ModelRecord], network_config: NetworkConfig):
        self._records = tuple(records)
        self._network_config = network_config
        self._by_fingerprint = {record.fingerprint: record for record in self._records}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def generate(
        cls,
        num_models: int = 1000,
        seed: int = 0,
        network_config: NetworkConfig | None = None,
        accuracy_model: SurrogateAccuracyModel | None = None,
        include_famous_cells: bool = True,
    ) -> "NASBenchDataset":
        """Generate a dataset of *num_models* unique cells by random sampling.

        The named cells from the paper's figures are included by default so
        the per-figure benchmarks can always find them.
        """
        extra = list(FAMOUS_CELLS.values()) if include_famous_cells else []
        cells = sample_unique_cells(num_models, seed=seed, extra_cells=extra)
        return cls.from_cells(cells, network_config=network_config, accuracy_model=accuracy_model)

    @classmethod
    def enumerate(
        cls,
        max_vertices: int,
        max_edges: int = 9,
        network_config: NetworkConfig | None = None,
        accuracy_model: SurrogateAccuracyModel | None = None,
    ) -> "NASBenchDataset":
        """Exhaustively enumerate a (small) sub-space into a dataset."""
        cells = list(enumerate_cells(max_vertices=max_vertices, max_edges=max_edges))
        return cls.from_cells(cells, network_config=network_config, accuracy_model=accuracy_model)

    @classmethod
    def from_cells(
        cls,
        cells: Iterable[Cell],
        network_config: NetworkConfig | None = None,
        accuracy_model: SurrogateAccuracyModel | None = None,
    ) -> "NASBenchDataset":
        """Build a dataset from an iterable of cells (de-duplicated)."""
        network_config = network_config or NetworkConfig()
        accuracy_model = accuracy_model or SurrogateAccuracyModel()

        records: list[ModelRecord] = []
        seen: set[str] = set()
        with obs.span("nasbench.records", kind="cell") as span:
            for cell in cells:
                pruned = cell.prune()
                if pruned.fingerprint in seen:
                    continue
                seen.add(pruned.fingerprint)
                records.append(model_record(pruned, len(records), network_config, accuracy_model))
            span.set(models=len(records))
        if not records:
            raise DatasetError("no valid cells were provided")
        return cls(records, network_config)

    @classmethod
    def from_macros(
        cls,
        macros: Iterable[MacroSpec],
        network_config: NetworkConfig | None = None,
        accuracy_model: SurrogateAccuracyModel | None = None,
    ) -> "NASBenchDataset":
        """Build a dataset from macro specs (de-duplicated by fingerprint).

        Records come from :func:`model_record`.  *network_config* only fills
        the dataset attribute legacy consumers read — macro records expand
        through their own schedule.
        """
        network_config = network_config or NetworkConfig()
        accuracy_model = accuracy_model or SurrogateAccuracyModel()

        records: list[ModelRecord] = []
        seen: set[str] = set()
        with obs.span("nasbench.records", kind="macro") as span:
            for macro in macros:
                if macro.fingerprint in seen:
                    continue
                seen.add(macro.fingerprint)
                records.append(model_record(macro, len(records), network_config, accuracy_model))
            span.set(models=len(records))
        if not records:
            raise DatasetError("no valid macro specs were provided")
        return cls(records, network_config)

    # ------------------------------------------------------------------ #
    # Container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[ModelRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> ModelRecord:
        return self._records[index]

    @property
    def records(self) -> tuple[ModelRecord, ...]:
        """All records of the dataset."""
        return self._records

    @property
    def network_config(self) -> NetworkConfig:
        """Macro-architecture configuration used to expand every cell."""
        return self._network_config

    # ------------------------------------------------------------------ #
    # Queries used by the evaluation
    # ------------------------------------------------------------------ #
    def find(self, fingerprint: str) -> ModelRecord:
        """Return the record with the given isomorphism fingerprint."""
        try:
            return self._by_fingerprint[fingerprint]
        except KeyError as exc:
            raise DatasetError(f"no model with fingerprint {fingerprint!r}") from exc

    def find_cell(self, cell: Cell) -> ModelRecord:
        """Return the record whose cell is isomorphic to *cell*."""
        return self.find(cell_fingerprint(cell))

    def __contains__(self, arch: Cell | MacroSpec) -> bool:
        if isinstance(arch, MacroSpec):
            return arch.fingerprint in self._by_fingerprint
        return cell_fingerprint(arch) in self._by_fingerprint

    def filter(self, predicate: Callable[[ModelRecord], bool]) -> "NASBenchDataset":
        """Return a new dataset with only the records satisfying *predicate*."""
        kept = [record for record in self._records if predicate(record)]
        if not kept:
            raise DatasetError("filter removed every record")
        return NASBenchDataset(kept, self._network_config)

    def filter_by_accuracy(self, min_accuracy: float = 0.70) -> "NASBenchDataset":
        """Keep models with at least *min_accuracy* mean validation accuracy.

        The paper applies exactly this filter (70%) before computing Table 3
        and the scatter-plot figures.
        """
        return self.filter(lambda record: record.mean_validation_accuracy >= min_accuracy)

    def top_k_by_accuracy(self, k: int = 5) -> list[ModelRecord]:
        """Return the *k* records with the highest mean validation accuracy."""
        ranked = sorted(
            self._records, key=lambda record: record.mean_validation_accuracy, reverse=True
        )
        return ranked[:k]

    def accuracies(self) -> np.ndarray:
        """Mean validation accuracy of every record, as a float array."""
        return np.array([record.mean_validation_accuracy for record in self._records], dtype=float)

    def parameter_counts(self) -> np.ndarray:
        """Trainable-parameter count of every record, as an int array."""
        return np.array([record.trainable_parameters for record in self._records], dtype=np.int64)

    def group_by(self, key: Callable[[ModelRecord], object]) -> dict[object, list[ModelRecord]]:
        """Group records by an arbitrary key function (depth, op count, ...)."""
        groups: dict[object, list[ModelRecord]] = {}
        for record in self._records:
            groups.setdefault(key(record), []).append(record)
        return groups
