"""Persistent Pareto archive with hypervolume tracking.

The search subsystem (:mod:`repro.search`) is multi-objective: it minimizes a
hardware cost (latency in ms, or energy in mJ) while maximizing model
accuracy.  :class:`ParetoArchive` accumulates every non-dominated
(cost ↓, accuracy ↑) point a search discovers, evicting entries as they
become dominated, and tracks the quality of the frontier over time through
the 2-D dominated **hypervolume** with respect to a fixed reference point —
the standard scalar progress measure of multi-objective search (a strictly
better frontier has a strictly larger hypervolume).

Archives persist as a single npz file (cells serialized as JSON), so a
finished search's frontier can be reloaded and queried without re-running
anything.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import DatasetError
from ..nasbench.cell import Cell
from ..nasbench.macro import MacroSpec, architecture_from_dict, architecture_to_dict
from .pareto import pareto_front_mask

#: Bump to invalidate persisted archives when the on-disk format changes.
ARCHIVE_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ArchiveEntry:
    """One non-dominated point of the archive.

    ``cell`` holds the archived architecture — a :class:`Cell` or a
    :class:`~repro.nasbench.macro.MacroSpec`; both expose ``fingerprint``
    and ``to_dict``, which is all the archive needs.
    """

    cell: Cell | MacroSpec
    fingerprint: str
    cost: float
    accuracy: float
    generation: int

    def dominates(self, cost: float, accuracy: float) -> bool:
        """Whether this entry is at least as good as ``(cost, accuracy)``.

        Weak dominance: equal points are "dominated" too, so duplicates of an
        archived trade-off are rejected by :meth:`ParetoArchive.update`.
        """
        return self.cost <= cost and self.accuracy >= accuracy


def hypervolume_2d(
    costs: np.ndarray,
    accuracies: np.ndarray,
    ref_cost: float,
    ref_accuracy: float,
) -> float:
    """Dominated hypervolume of a (cost ↓, accuracy ↑) point set.

    The hypervolume is the area jointly dominated by the points and bounded
    by the reference corner ``(ref_cost, ref_accuracy)`` (a point worse than
    the whole set: higher cost, lower accuracy).  Points outside the
    reference box contribute nothing; dominated points are ignored, so the
    function accepts raw point clouds, not just frontiers.
    """
    costs = np.asarray(costs, dtype=float)
    accuracies = np.asarray(accuracies, dtype=float)
    if costs.shape != accuracies.shape or costs.ndim != 1:
        raise DatasetError("costs and accuracies must be 1-D arrays of equal length")
    finite = np.isfinite(costs) & np.isfinite(accuracies)
    if not finite.any():
        return 0.0
    costs, accuracies = costs[finite], accuracies[finite]
    mask = pareto_front_mask(costs, accuracies)
    order = np.argsort(costs[mask], kind="stable")
    front_costs = costs[mask][order]
    front_accuracies = accuracies[mask][order]
    # Along a (cost ↓, accuracy ↑) frontier sorted by ascending cost, the
    # accuracies ascend too; sweep accuracy slabs, each covered by the
    # cheapest point at or above that accuracy.
    previous = np.concatenate(([ref_accuracy], front_accuracies[:-1]))
    heights = np.clip(front_accuracies - np.maximum(previous, ref_accuracy), 0.0, None)
    widths = np.clip(ref_cost - front_costs, 0.0, None)
    return float(np.sum(widths * heights))


class ParetoArchive:
    """Non-dominated (cost ↓, accuracy ↑) archive of search discoveries.

    Parameters
    ----------
    ref_cost, ref_accuracy:
        The fixed reference corner hypervolumes are measured against.  It
        must stay constant over a search for the hypervolume trajectory to be
        monotone, so it is part of the archive's identity and persists with
        it.
    """

    def __init__(self, ref_cost: float, ref_accuracy: float = 0.0):
        if not np.isfinite(ref_cost) or not np.isfinite(ref_accuracy):
            raise DatasetError("the hypervolume reference point must be finite")
        self.ref_cost = float(ref_cost)
        self.ref_accuracy = float(ref_accuracy)
        self._entries: dict[str, ArchiveEntry] = {}
        self.hypervolume_history: list[float] = []

    # ------------------------------------------------------------------ #
    # Container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, cell: Cell) -> bool:
        return cell.fingerprint in self._entries

    @property
    def entries(self) -> list[ArchiveEntry]:
        """The frontier, sorted by ascending cost."""
        return sorted(self._entries.values(), key=lambda entry: (entry.cost, -entry.accuracy))

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    def update(
        self,
        cell: Cell,
        cost: float,
        accuracy: float,
        generation: int = 0,
        key: str | None = None,
    ) -> bool:
        """Offer one evaluated point; returns ``True`` if it joins the front.

        A point enters iff no archived entry weakly dominates it; entries it
        dominates are evicted.  Non-finite costs (penalized or unavailable
        measurements) never enter.

        Entries are identified by *key*, defaulting to the cell's isomorphism
        fingerprint.  Searches whose points are not plain cells — the
        hardware co-search archives (cell, configuration) pairs — pass an
        explicit key so the same cell may appear once per configuration.
        """
        cost = float(cost)
        accuracy = float(accuracy)
        if not np.isfinite(cost) or not np.isfinite(accuracy):
            return False
        fingerprint = cell.fingerprint if key is None else str(key)
        if fingerprint in self._entries:
            return False
        if any(entry.dominates(cost, accuracy) for entry in self._entries.values()):
            return False
        self._entries = {
            print_: entry
            for print_, entry in self._entries.items()
            if not (cost <= entry.cost and accuracy >= entry.accuracy)
        }
        self._entries[fingerprint] = ArchiveEntry(
            cell=cell,
            fingerprint=fingerprint,
            cost=cost,
            accuracy=accuracy,
            generation=int(generation),
        )
        return True

    # ------------------------------------------------------------------ #
    # Hypervolume tracking
    # ------------------------------------------------------------------ #
    def hypervolume(self) -> float:
        """Dominated hypervolume of the current front w.r.t. the reference."""
        if not self._entries:
            return 0.0
        entries = self.entries
        return hypervolume_2d(
            np.array([entry.cost for entry in entries]),
            np.array([entry.accuracy for entry in entries]),
            self.ref_cost,
            self.ref_accuracy,
        )

    def checkpoint(self) -> float:
        """Record the current hypervolume in the history and return it.

        Called once per search generation; because the archive only ever
        improves and the reference point is fixed, the recorded trajectory is
        non-decreasing.
        """
        value = self.hypervolume()
        self.hypervolume_history.append(value)
        return value

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, path: str | Path) -> Path:
        """Persist the archive (entries, reference, history) as one npz file."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        entries = self.entries
        np.savez_compressed(
            path,
            version=np.array(ARCHIVE_FORMAT_VERSION),
            reference=np.array([self.ref_cost, self.ref_accuracy]),
            fingerprints=np.array([entry.fingerprint for entry in entries]),
            costs=np.array([entry.cost for entry in entries]),
            accuracies=np.array([entry.accuracy for entry in entries]),
            generations=np.array([entry.generation for entry in entries], dtype=np.int64),
            cells=np.array(
                [json.dumps(architecture_to_dict(entry.cell)) for entry in entries]
            ),
            hypervolume_history=np.array(self.hypervolume_history, dtype=float),
        )
        return path

    @classmethod
    def load(cls, path: str | Path) -> "ParetoArchive":
        """Reload a persisted archive; raises :class:`DatasetError` on failure."""
        path = Path(path)
        if not path.exists():
            raise DatasetError(f"no archive file at {path}")
        try:
            with np.load(path, allow_pickle=False) as stored:
                version = int(stored["version"])
                if version != ARCHIVE_FORMAT_VERSION:
                    raise DatasetError(
                        f"archive at {path} has format version {version}, "
                        f"expected {ARCHIVE_FORMAT_VERSION}"
                    )
                ref_cost, ref_accuracy = np.asarray(stored["reference"], dtype=float)
                archive = cls(ref_cost, ref_accuracy)
                for payload, fingerprint, cost, accuracy, generation in zip(
                    stored["cells"],
                    stored["fingerprints"],
                    stored["costs"],
                    stored["accuracies"],
                    stored["generations"],
                ):
                    cell = architecture_from_dict(json.loads(str(payload)))
                    archive._entries[str(fingerprint)] = ArchiveEntry(
                        cell=cell,
                        fingerprint=str(fingerprint),
                        cost=float(cost),
                        accuracy=float(accuracy),
                        generation=int(generation),
                    )
                archive.hypervolume_history = [
                    float(value) for value in stored["hypervolume_history"]
                ]
                return archive
        except (OSError, ValueError, KeyError) as exc:
            raise DatasetError(f"failed to load archive at {path}: {exc}") from exc
