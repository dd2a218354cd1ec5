"""Mutation operators over NASBench-101 cells.

The search subsystem (:mod:`repro.search`) explores the cell space by local
moves rather than fresh sampling.  Four primitive mutations are provided,
matching the neighborhood used by regularized-evolution NAS on this space:

* **edge flip** — toggle one slot of the upper-triangular adjacency matrix;
* **op swap** — relabel one interior vertex with a different operation;
* **vertex add** — splice a new interior vertex into the DAG, wired to one
  predecessor and one successor;
* **vertex remove** — delete one interior vertex with all its edges.

Every entry point returns a **pruned, valid** cell inside the vertex/edge
budget, or raises: mutations whose result is disconnected, over budget, or
isomorphic to the input are rejected and retried.  De-duplication against a
search history is fingerprint-based — :class:`~repro.nasbench.cell.Cell`
hashes by its cached isomorphism fingerprint, so the ``seen`` container given
to :func:`mutate_unique` can be a plain ``set[Cell]``.
"""

from __future__ import annotations

from typing import Container, Sequence

import numpy as np

from ..errors import DatasetError, InvalidCellError
from .cell import Cell
from .macro import MAX_STAGE_DEPTH, WIDTH_MULTIPLIERS, MacroSpec, StageSpec
from .ops import INTERIOR_OPS, MAX_EDGES, MAX_VERTICES

#: The primitive mutation kinds, in canonical order.
MUTATION_KINDS: tuple[str, ...] = ("edge_flip", "op_swap", "vertex_add", "vertex_remove")

#: The macro-level mutation kinds (see :func:`mutate_macro`).
MACRO_MUTATION_KINDS: tuple[str, ...] = ("stage_cell", "stage_depth", "stage_width")


# --------------------------------------------------------------------------- #
# Primitive mutations.  Each returns an *unpruned* candidate; structural
# validity (connectivity, budgets) is enforced by the mutate_cell driver.
# Children are built over the parent's row tuples (``Cell._from_rows`` still
# validates them).
# --------------------------------------------------------------------------- #
def flip_edge(cell: Cell, rng: np.random.Generator) -> Cell:
    """Toggle one random slot of the upper-triangular adjacency matrix."""
    n = cell.num_vertices
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    i, j = slots[int(rng.integers(len(slots)))]
    rows = list(cell.matrix)
    row = rows[i]
    rows[i] = (*row[:j], 1 - row[j], *row[j + 1 :])
    return Cell._from_rows(tuple(rows), cell.ops)


def swap_op(cell: Cell, rng: np.random.Generator) -> Cell:
    """Relabel one random interior vertex with a different operation."""
    if cell.num_vertices <= 2:
        raise InvalidCellError("cell has no interior vertex to relabel")
    vertex = int(rng.integers(1, cell.num_vertices - 1))
    choices = [op for op in INTERIOR_OPS if op != cell.ops[vertex]]
    ops = list(cell.ops)
    ops[vertex] = choices[int(rng.integers(len(choices)))]
    return Cell._from_rows(cell.matrix, ops)


def add_vertex(cell: Cell, rng: np.random.Generator, max_vertices: int = MAX_VERTICES) -> Cell:
    """Splice a new interior vertex into the DAG at a random position.

    The new vertex is wired to one random predecessor and one random
    successor, so it always lies on an input-to-output path.
    """
    n = cell.num_vertices
    if n >= max_vertices:
        raise InvalidCellError(f"cell already has the maximum of {max_vertices} vertices")
    position = int(rng.integers(1, n))  # insert before this index, keeps 0 first
    predecessor = int(rng.integers(0, position))
    successor = int(rng.integers(position + 1, n + 1))
    op = INTERIOR_OPS[int(rng.integers(len(INTERIOR_OPS)))]
    # Every old row gains a zero column at *position*; the rows below it keep
    # only zeros left of their diagonal, so this is the whole splice.
    rows = [(*row[:position], 0, *row[position:]) for row in cell.matrix]
    row = rows[predecessor]
    rows[predecessor] = (*row[:position], 1, *row[position + 1 :])
    rows.insert(position, tuple(int(column == successor) for column in range(n + 1)))
    ops = list(cell.ops)
    ops.insert(position, op)
    return Cell._from_rows(tuple(rows), ops)


def remove_vertex(cell: Cell, rng: np.random.Generator) -> Cell:
    """Delete one random interior vertex together with all its edges."""
    if cell.num_vertices <= 2:
        raise InvalidCellError("cell has no interior vertex to remove")
    vertex = int(rng.integers(1, cell.num_vertices - 1))
    rows = tuple(
        (*row[:vertex], *row[vertex + 1 :])
        for index, row in enumerate(cell.matrix)
        if index != vertex
    )
    return Cell._from_rows(rows, cell.ops[:vertex] + cell.ops[vertex + 1 :])


# --------------------------------------------------------------------------- #
# Driver
# --------------------------------------------------------------------------- #
def _applicable_kinds(
    cell: Cell, kinds: Sequence[str], max_vertices: int, max_edges: int
) -> list[str]:
    """The mutation kinds that can possibly produce a valid result for *cell*."""
    applicable = []
    for kind in kinds:
        if kind == "edge_flip":
            applicable.append(kind)
        elif kind == "op_swap":
            if cell.interior_ops:
                applicable.append(kind)
        elif kind == "vertex_add":
            if cell.num_vertices < max_vertices and cell.num_edges + 2 <= max_edges:
                applicable.append(kind)
        elif kind == "vertex_remove":
            if cell.num_vertices > 2:
                applicable.append(kind)
        else:
            raise DatasetError(f"unknown mutation kind {kind!r}; expected one of {MUTATION_KINDS}")
    return applicable


def mutate_cell(
    cell: Cell,
    rng: np.random.Generator,
    max_vertices: int = MAX_VERTICES,
    max_edges: int = MAX_EDGES,
    kinds: Sequence[str] = MUTATION_KINDS,
    max_attempts: int = 100,
) -> Cell:
    """Return one random valid mutation of *cell*.

    A uniformly chosen applicable mutation kind is applied and the result is
    pruned; candidates that are disconnected, outside the vertex/edge budget,
    or isomorphic to the input (a semantic no-op, e.g. flipping an edge of a
    dangling branch) are rejected and redrawn.

    Raises
    ------
    DatasetError
        If no valid, model-changing mutation is found in *max_attempts* draws
        (or no kind is applicable at all).
    """
    applicable = _applicable_kinds(cell, kinds, max_vertices, max_edges)
    if not applicable:
        raise DatasetError(f"no mutation kind of {tuple(kinds)} is applicable to {cell}")
    # Equal fingerprints imply the same multiset of per-vertex (out-degree,
    # in-degree, op) hash seeds, so a mutant can be isomorphic to its parent
    # only if their pruned forms agree on vertex count, edge count and sorted
    # ops; the graph hash runs only when all three do.  On a pruned parent
    # every primitive changes one of them (an edge flip the edge count, since
    # pruning only drops more edges; an op swap the op multiset; a vertex add
    # or remove the vertex count), so a search's mutations hash nothing.
    try:
        parent = cell.prune()
    except InvalidCellError:  # disconnected: no connected mutant is isomorphic to it
        parent_shape = None
    else:
        parent_shape = (parent.num_vertices, parent.num_edges, sorted(parent.ops))
    for _ in range(max_attempts):
        kind = applicable[int(rng.integers(len(applicable)))]
        try:
            if kind == "edge_flip":
                mutant = flip_edge(cell, rng)
            elif kind == "op_swap":
                mutant = swap_op(cell, rng)
            elif kind == "vertex_add":
                mutant = add_vertex(cell, rng, max_vertices)
            else:
                mutant = remove_vertex(cell, rng)
            pruned = mutant.prune()
        except InvalidCellError:
            continue
        num_edges = pruned.num_edges
        if pruned.num_vertices > max_vertices or num_edges > max_edges:
            continue
        shape = (pruned.num_vertices, num_edges, sorted(pruned.ops))
        if shape == parent_shape and pruned == cell:  # isomorphic to the parent: no new model
            continue
        return pruned
    raise DatasetError(
        f"failed to produce a valid mutation of {cell} after {max_attempts} attempts"
    )


def mutate_unique(
    cell: Cell,
    rng: np.random.Generator,
    seen: Container[Cell],
    max_vertices: int = MAX_VERTICES,
    max_edges: int = MAX_EDGES,
    kinds: Sequence[str] = MUTATION_KINDS,
    max_attempts: int = 50,
) -> Cell:
    """Mutate *cell* until the result is not contained in *seen*.

    Membership is fingerprint-based (``mutant in seen`` with a ``set[Cell]``
    uses the cached isomorphism fingerprint), so a search history never
    re-evaluates a model it has already measured.

    Raises
    ------
    DatasetError
        If every drawn mutation was already seen (a crowded neighborhood);
        callers typically fall back to a fresh random cell.
    """
    for _ in range(max_attempts):
        mutant = mutate_cell(cell, rng, max_vertices=max_vertices, max_edges=max_edges, kinds=kinds)
        if mutant not in seen:
            return mutant
    raise DatasetError(
        f"every mutation of {cell} drawn in {max_attempts} attempts was already seen"
    )


# --------------------------------------------------------------------------- #
# Macro-level mutations
# --------------------------------------------------------------------------- #
def _nearest_multiplier_index(multiplier: float) -> int:
    """Index of the :data:`WIDTH_MULTIPLIERS` rung closest to *multiplier*."""
    return min(
        range(len(WIDTH_MULTIPLIERS)),
        key=lambda index: abs(WIDTH_MULTIPLIERS[index] - multiplier),
    )


def _macro_applicable_kinds(macro: MacroSpec, kinds: Sequence[str]) -> list[str]:
    """The macro mutation kinds that can change *macro* at all."""
    applicable = []
    for kind in kinds:
        if kind == "stage_cell":
            applicable.append(kind)
        elif kind == "stage_depth":
            if any(1 < stage.depth or stage.depth < MAX_STAGE_DEPTH for stage in macro.stages):
                applicable.append(kind)
        elif kind == "stage_width":
            # A ladder step exists unless every stage sits on a one-rung
            # ladder, which cannot happen with the canonical ladder.
            if len(WIDTH_MULTIPLIERS) > 1:
                applicable.append(kind)
        else:
            raise DatasetError(
                f"unknown macro mutation kind {kind!r}; expected one of {MACRO_MUTATION_KINDS}"
            )
    return applicable


def mutate_macro(
    macro: MacroSpec,
    rng: np.random.Generator,
    max_vertices: int = MAX_VERTICES,
    max_edges: int = MAX_EDGES,
    kinds: Sequence[str] = MACRO_MUTATION_KINDS,
    max_attempts: int = 100,
) -> MacroSpec:
    """Return one random valid macro-level mutation of *macro*.

    The move set mirrors the cell driver at the stage granularity:

    * **stage cell** — replace one stage's cell with a :func:`mutate_cell`
      neighbor of it (the cell-space move, localized to one stage);
    * **stage depth** — one stage's depth ±1 within ``[1, MAX_STAGE_DEPTH]``;
    * **stage width** — one stage's width multiplier steps one rung up or
      down the :data:`WIDTH_MULTIPLIERS` ladder (off-ladder multipliers snap
      to the nearest rung first).

    Candidates identical to the parent (fingerprint-equal — e.g. a cell
    mutation that lands on an isomorphic cell) are rejected and redrawn.

    Raises
    ------
    DatasetError
        If no valid, model-changing mutation is found in *max_attempts*
        draws.
    """
    applicable = _macro_applicable_kinds(macro, kinds)
    if not applicable:
        raise DatasetError(f"no macro mutation kind of {tuple(kinds)} is applicable to {macro}")
    for _ in range(max_attempts):
        kind = applicable[int(rng.integers(len(applicable)))]
        stage_index = int(rng.integers(len(macro.stages)))
        stage = macro.stages[stage_index]
        try:
            if kind == "stage_cell":
                mutated = StageSpec(
                    cell=mutate_cell(
                        stage.cell, rng, max_vertices=max_vertices, max_edges=max_edges
                    ),
                    depth=stage.depth,
                    width_multiplier=stage.width_multiplier,
                )
            elif kind == "stage_depth":
                step = 1 if rng.integers(2) else -1
                depth = stage.depth + step
                if not 1 <= depth <= MAX_STAGE_DEPTH:
                    continue
                mutated = StageSpec(
                    cell=stage.cell, depth=depth, width_multiplier=stage.width_multiplier
                )
            else:  # stage_width
                rung = _nearest_multiplier_index(stage.width_multiplier)
                step = 1 if rng.integers(2) else -1
                if not 0 <= rung + step < len(WIDTH_MULTIPLIERS):
                    continue
                multiplier = WIDTH_MULTIPLIERS[rung + step]
                if multiplier == stage.width_multiplier:
                    continue
                mutated = StageSpec(
                    cell=stage.cell, depth=stage.depth, width_multiplier=multiplier
                )
        except (InvalidCellError, DatasetError):
            continue
        stages = list(macro.stages)
        stages[stage_index] = mutated
        candidate = MacroSpec(
            stages,
            stem_channels=macro.stem_channels,
            image_size=macro.image_size,
            image_channels=macro.image_channels,
            num_classes=macro.num_classes,
        )
        if candidate == macro:  # fingerprint-equal: not a new model
            continue
        return candidate
    raise DatasetError(
        f"failed to produce a valid macro mutation of {macro} after {max_attempts} attempts"
    )


def mutate_macro_unique(
    macro: MacroSpec,
    rng: np.random.Generator,
    seen: Container[MacroSpec],
    max_vertices: int = MAX_VERTICES,
    max_edges: int = MAX_EDGES,
    kinds: Sequence[str] = MACRO_MUTATION_KINDS,
    max_attempts: int = 50,
) -> MacroSpec:
    """Mutate *macro* until the result is not contained in *seen*.

    Membership is fingerprint-based, exactly like :func:`mutate_unique`: a
    ``set[MacroSpec]`` hashes by the cached content fingerprint.

    Raises
    ------
    DatasetError
        If every drawn mutation was already seen; callers typically fall
        back to a fresh :func:`~repro.nasbench.macro.random_macro`.
    """
    for _ in range(max_attempts):
        mutant = mutate_macro(
            macro, rng, max_vertices=max_vertices, max_edges=max_edges, kinds=kinds
        )
        if mutant not in seen:
            return mutant
    raise DatasetError(
        f"every macro mutation of {macro} drawn in {max_attempts} attempts was already seen"
    )
