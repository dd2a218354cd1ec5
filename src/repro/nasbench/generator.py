"""Generation of the NASBench-101 cell space.

Two entry points are provided:

* :func:`enumerate_cells` walks the complete space of valid cells up to a
  vertex/edge limit, de-duplicating by graph-isomorphism fingerprint exactly
  like NASBench-101 does.  Exhaustive enumeration of the full 7-vertex /
  9-edge space (423,624 unique cells) is possible but slow in pure Python, so
  it is primarily used for small vertex counts in tests.
* :func:`sample_unique_cells` draws unique cells uniformly-ish at random from
  the same space.  This is what the benchmark harness uses: the paper's
  distributional results are reproduced on a stratified sample instead of the
  full population (see DESIGN.md §2).
"""

from __future__ import annotations

import bisect
import itertools
from typing import Iterable, Iterator

import numpy as np

from ..errors import DatasetError
from .cell import Cell
from .ops import INPUT, INTERIOR_OPS, MAX_EDGES, MAX_VERTICES, OUTPUT


def _matrix_from_edge_mask(num_vertices: int, mask: int) -> np.ndarray:
    """Build an upper-triangular adjacency matrix from a bitmask over edges."""
    matrix = np.zeros((num_vertices, num_vertices), dtype=np.int8)
    bit = 0
    for i in range(num_vertices):
        for j in range(i + 1, num_vertices):
            if mask >> bit & 1:
                matrix[i, j] = 1
            bit += 1
    return matrix


def _is_pruned_form(matrix: np.ndarray) -> bool:
    """Return True if every vertex lies on some input-to-output path.

    Enumeration only labels matrices already in pruned form; cells whose
    pruned form is smaller are produced by the enumeration at the smaller
    vertex count, so emitting them here would only create duplicates.
    """
    n = matrix.shape[0]
    reach_fwd = np.zeros(n, dtype=bool)
    reach_fwd[0] = True
    for v in range(n):
        if reach_fwd[v]:
            reach_fwd |= matrix[v, :].astype(bool)
    reach_bwd = np.zeros(n, dtype=bool)
    reach_bwd[n - 1] = True
    for v in range(n - 1, -1, -1):
        if reach_bwd[v]:
            reach_bwd |= matrix[:, v].astype(bool)
    return bool((reach_fwd & reach_bwd).all())


def enumerate_cells(max_vertices: int = MAX_VERTICES, max_edges: int = MAX_EDGES) -> Iterator[Cell]:
    """Yield every unique cell with at most *max_vertices* and *max_edges*.

    Uniqueness follows NASBench-101: two cells are the same model when their
    pruned, operation-labelled graphs are isomorphic.  Cells are yielded in a
    deterministic order (increasing vertex count, then edge-mask order, then
    labelling order).
    """
    if max_vertices < 2 or max_vertices > MAX_VERTICES:
        raise DatasetError(f"max_vertices must be in [2, {MAX_VERTICES}], got {max_vertices}")
    if max_edges < 1 or max_edges > MAX_EDGES:
        raise DatasetError(f"max_edges must be in [1, {MAX_EDGES}], got {max_edges}")

    seen: set[str] = set()
    for num_vertices in range(2, max_vertices + 1):
        num_slots = num_vertices * (num_vertices - 1) // 2
        num_interior = num_vertices - 2
        for mask in range(1, 1 << num_slots):
            if bin(mask).count("1") > max_edges:
                continue
            matrix = _matrix_from_edge_mask(num_vertices, mask)
            if not _is_pruned_form(matrix):
                continue
            # Labelings are iterated lazily (re-generated per matrix) instead
            # of materializing the full 3^(n-2) product up front.
            for labeling in itertools.product(INTERIOR_OPS, repeat=num_interior):
                ops = (INPUT, *labeling, OUTPUT)
                cell = Cell(matrix, ops)
                if cell.fingerprint in seen:
                    continue
                seen.add(cell.fingerprint)
                yield cell


def count_unique_cells(max_vertices: int, max_edges: int = MAX_EDGES) -> int:
    """Count the unique cells in a (small) sub-space; used by tests."""
    return sum(1 for _ in enumerate_cells(max_vertices, max_edges))


def random_cell(
    rng: np.random.Generator,
    max_vertices: int = MAX_VERTICES,
    max_edges: int = MAX_EDGES,
    max_attempts: int = 200,
) -> Cell:
    """Draw one random valid cell (already pruned).

    Vertex counts are biased towards the maximum because the overwhelming
    majority of unique NASBench cells use all seven vertices; the edge count
    is drawn uniformly between a spanning path and the edge budget.

    The draws consume the generator exactly as ``rng.choice(vertex_choices,
    p=weights)`` and ``rng.choice(INTERIOR_OPS)`` do (one uniform double
    against the normalized CDF; one bounded integer per label), at a
    fraction of their per-call cost, so a seed always yields the same cells.
    """
    vertex_choices = list(range(3, max_vertices + 1))
    if not vertex_choices:
        raise DatasetError(f"max_vertices must be at least 3 to draw a cell, got {max_vertices}")
    # Weight ~ 4^(n) so most samples use many vertices, as in the real space.
    weights = np.array([4.0**n for n in vertex_choices])
    weights /= weights.sum()
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    cdf = cdf.tolist()
    num_ops = len(INTERIOR_OPS)

    for _ in range(max_attempts):
        num_vertices = vertex_choices[bisect.bisect_right(cdf, rng.random())]
        num_slots = num_vertices * (num_vertices - 1) // 2
        max_usable_edges = min(max_edges, num_slots)
        min_edges = num_vertices - 1
        if min_edges > max_usable_edges:
            continue
        num_edges = int(rng.integers(min_edges, max_usable_edges + 1))
        slots = list(itertools.combinations(range(num_vertices), 2))
        chosen = rng.choice(len(slots), size=num_edges, replace=False)
        rows = [[0] * num_vertices for _ in range(num_vertices)]
        for index in chosen.tolist():
            i, j = slots[index]
            rows[i][j] = 1
        ops = (
            INPUT,
            *(INTERIOR_OPS[int(rng.integers(num_ops))] for _ in range(num_vertices - 2)),
            OUTPUT,
        )
        cell = Cell._from_rows(tuple(map(tuple, rows)), ops)
        if not cell.is_valid():
            continue
        return cell.prune()

    raise DatasetError(f"failed to draw a valid random cell after {max_attempts} attempts")


def sample_unique_cells(
    count: int,
    seed: int = 0,
    max_vertices: int = MAX_VERTICES,
    max_edges: int = MAX_EDGES,
    extra_cells: Iterable[Cell] = (),
) -> list[Cell]:
    """Draw *count* unique cells (by isomorphism fingerprint) at random.

    Parameters
    ----------
    count:
        Number of unique cells to return.
    seed:
        Seed of the pseudo-random generator; the same seed always produces
        the same list of cells.
    extra_cells:
        Cells that must be part of the sample (for example the paper's named
        Figure 7/8 cells); they count towards *count* and are de-duplicated
        against the random draws.

    Notes
    -----
    Most duplicate draws repeat a pruned ``(matrix, ops)`` form already
    drawn, and equal forms have equal fingerprints, so such a draw is
    rejected without hashing it; only a new form is fingerprinted.
    """
    if count <= 0:
        raise DatasetError("count must be positive")
    rng = np.random.default_rng(seed)
    cells: list[Cell] = []
    seen: set[str] = set()
    forms: set[tuple] = set()

    def admit(pruned: Cell) -> None:
        form = (pruned.matrix, pruned.ops)
        if form in forms:
            return
        forms.add(form)
        if pruned.fingerprint not in seen:
            seen.add(pruned.fingerprint)
            cells.append(pruned)

    for cell in extra_cells:
        admit(cell.prune())

    attempts = 0
    max_total_attempts = max(10_000, count * 60)
    while len(cells) < count:
        attempts += 1
        if attempts > max_total_attempts:
            raise DatasetError(
                f"could only draw {len(cells)} unique cells out of the requested "
                f"{count} after {attempts} attempts; the requested sample may be "
                "larger than the sub-space"
            )
        admit(random_cell(rng, max_vertices, max_edges))

    return cells[:count]
