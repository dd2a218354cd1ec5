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
import functools
import itertools
from typing import Iterable, Iterator

import numpy as np

from .. import obs
from ..errors import DatasetError
from .cell import Cell, prune_rows, validate_rows
from .ops import INPUT, INTERIOR_OPS, MAX_EDGES, MAX_VERTICES, OUTPUT


def _rows_from_edge_mask(num_vertices: int, mask: int) -> tuple[tuple[int, ...], ...]:
    """Upper-triangular adjacency rows from a bitmask over the edge slots."""
    rows = [[0] * num_vertices for _ in range(num_vertices)]
    for bit, (i, j) in enumerate(_edge_slots(num_vertices)):
        if mask >> bit & 1:
            rows[i][j] = 1
    return tuple(map(tuple, rows))


@functools.lru_cache(maxsize=16)
def _edge_slots(num_vertices: int) -> tuple[tuple[int, int], ...]:
    """The ``(src, dst)`` slots above the diagonal, in row-major order."""
    return tuple(itertools.combinations(range(num_vertices), 2))


@functools.lru_cache(maxsize=16)
def _vertex_cdf(max_vertices: int) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """The vertex counts a draw picks from and their normalized CDF."""
    vertex_choices = tuple(range(3, max_vertices + 1))
    if not vertex_choices:
        raise DatasetError(f"max_vertices must be at least 3 to draw a cell, got {max_vertices}")
    # Weight ~ 4^(n) so most samples use many vertices, as in the real space.
    # Dividing every weight by 4^max_vertices is exact (a power of two) and
    # keeps the largest at 1, where 4.0**n alone overflows from n = 512.
    weights = np.array([4.0 ** (n - max_vertices) for n in vertex_choices])
    weights /= weights.sum()
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return vertex_choices, tuple(cdf.tolist())


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
        placeholder_ops = (INPUT, *[INTERIOR_OPS[0]] * num_interior, OUTPUT)
        for mask in range(1, 1 << num_slots):
            if bin(mask).count("1") > max_edges:
                continue
            rows = _rows_from_edge_mask(num_vertices, mask)
            # Only matrices already in pruned form are labelled: a smaller
            # pruned form is enumerated at its own vertex count.
            form = prune_rows(rows, placeholder_ops)
            if form is None or form[0] is not rows:
                continue
            # Labelings are iterated lazily (re-generated per matrix) instead
            # of materializing the full 3^(n-2) product up front.
            for labeling in itertools.product(INTERIOR_OPS, repeat=num_interior):
                ops = (INPUT, *labeling, OUTPUT)
                cell = Cell._from_rows(rows, ops, pruned=True)
                if cell.fingerprint in seen:
                    continue
                seen.add(cell.fingerprint)
                yield cell


def count_unique_cells(max_vertices: int, max_edges: int = MAX_EDGES) -> int:
    """Count the unique cells in a (small) sub-space; used by tests."""
    return sum(1 for _ in enumerate_cells(max_vertices, max_edges))


#: Attempts one draw makes before it gives up (the default of :func:`random_cell`).
_DRAW_ATTEMPTS = 200


def _draw_form(
    rng: np.random.Generator, max_vertices: int, max_edges: int, max_attempts: int
) -> tuple[tuple[tuple[int, ...], ...], tuple[str, ...]]:
    """Draw one random valid cell as its pruned ``(rows, ops)`` form.

    Each attempt's unpruned rows pass :func:`~repro.nasbench.cell.validate_rows`,
    the check :class:`Cell` runs, so a draw outside the cell space raises the
    same :class:`InvalidCellError` a ``Cell`` of it would; an attempt whose
    input cannot reach its output is redrawn.
    """
    vertex_choices, cdf = _vertex_cdf(max_vertices)
    num_ops = len(INTERIOR_OPS)
    for _ in range(max_attempts):
        num_vertices = vertex_choices[bisect.bisect_right(cdf, rng.random())]
        num_slots = num_vertices * (num_vertices - 1) // 2
        max_usable_edges = min(max_edges, num_slots)
        min_edges = num_vertices - 1
        if min_edges > max_usable_edges:
            continue
        num_edges = int(rng.integers(min_edges, max_usable_edges + 1))
        slots = _edge_slots(num_vertices)
        chosen = rng.choice(num_slots, size=num_edges, replace=False)
        rows = [[0] * num_vertices for _ in range(num_vertices)]
        for index in chosen.tolist():
            i, j = slots[index]
            rows[i][j] = 1
        labels = rng.integers(num_ops, size=num_vertices - 2).tolist()
        ops = (INPUT, *[INTERIOR_OPS[label] for label in labels], OUTPUT)
        rows = tuple(map(tuple, rows))
        validate_rows(rows, ops)
        form = prune_rows(rows, ops)
        if form is not None:
            return form

    raise DatasetError(f"failed to draw a valid random cell after {max_attempts} attempts")


def random_cell(
    rng: np.random.Generator,
    max_vertices: int = MAX_VERTICES,
    max_edges: int = MAX_EDGES,
    max_attempts: int = _DRAW_ATTEMPTS,
) -> Cell:
    """Draw one random valid cell (already pruned).

    Vertex counts are biased towards the maximum because the overwhelming
    majority of unique NASBench cells use all seven vertices; the edge count
    is drawn uniformly between a spanning path and the edge budget.

    The draws consume the generator exactly as ``rng.choice(vertex_choices,
    p=weights)`` and ``rng.choice(INTERIOR_OPS)`` do (one uniform double
    against the normalized CDF; one bounded integer per label, all labels of
    an attempt in one call), at a fraction of their per-call cost, so a seed
    always yields the same cells.
    """
    return Cell._from_rows(*_draw_form(rng, max_vertices, max_edges, max_attempts), pruned=True)


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
    Each draw is the pruned ``(rows, ops)`` form :func:`random_cell` would
    wrap.  Most duplicate draws repeat a form already drawn, and equal forms
    have equal fingerprints, so such a draw is rejected by a tuple lookup
    before any :class:`Cell` is built; only a new form becomes a ``Cell``
    and is fingerprinted.  The draw has already validated the form, and a
    duplicate equals a form admitted before, so skipping its ``Cell``
    skips no check.
    """
    if count <= 0:
        raise DatasetError("count must be positive")
    with obs.span("nasbench.sample", models=count) as span:
        rng = np.random.default_rng(seed)
        cells: list[Cell] = []
        seen: set[str] = set()
        forms: set[tuple] = set()

        def admit(pruned: Cell) -> None:
            forms.add((pruned.matrix, pruned.ops))
            if pruned.fingerprint not in seen:
                seen.add(pruned.fingerprint)
                cells.append(pruned)

        for cell in extra_cells:
            admit(cell.prune())

        attempts = new_forms = 0
        max_total_attempts = max(10_000, count * 60)
        while len(cells) < count:
            attempts += 1
            if attempts > max_total_attempts:
                raise DatasetError(
                    f"could only draw {len(cells)} unique cells out of the requested "
                    f"{count} after {attempts} attempts; the requested sample may be "
                    "larger than the sub-space"
                )
            form = _draw_form(rng, max_vertices, max_edges, _DRAW_ATTEMPTS)
            if form not in forms:
                new_forms += 1
                admit(Cell._from_rows(*form, pruned=True))
        span.set(draws=attempts, new_forms=new_forms)

    return cells[:count]
