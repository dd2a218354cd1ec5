"""Cell representation for the NASBench-101 model space.

A *cell* is a directed acyclic graph (DAG) whose first vertex is the cell
input, whose last vertex is the cell output, and whose interior vertices each
carry one of the three valid operations (3x3 convolution, 1x1 convolution, or
3x3 max-pooling).  The NASBench-101 space restricts cells to at most seven
vertices and nine edges.

The class in this module stores the upper-triangular adjacency matrix and the
operation labels, validates the structural constraints, and implements the
same *pruning* rule NASBench-101 applies: vertices that are not on any path
from the input to the output do not affect the computed function and are
removed before hashing or expanding the cell into a full network.  The check
and the rule are functions over row tuples (:func:`validate_rows`,
:func:`prune_rows`), so the sampler and the enumeration apply the same ones
without building a :class:`Cell`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..errors import InvalidCellError
from . import ops as op_vocab
from .ops import MAX_EDGES, MAX_VERTICES


def _as_rows(matrix: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    """Square adjacency rows of Python ints (``int8`` semantics, as numpy casts).

    An entry whose ``int8`` value differs from it (``1.7``, ``0.5``, ``"1"``,
    a wrapped ``257``) is rejected rather than read as an edge or no edge;
    ``1.0`` and booleans equal their value and pass.
    """
    array = np.asarray(matrix, dtype=np.int8)
    if array.ndim != 2 or array.shape[0] != array.shape[1]:
        raise InvalidCellError(f"adjacency matrix must be square, got shape {array.shape}")
    rows = tuple(map(tuple, array.tolist()))
    for row, given in zip(rows, matrix):
        for value, entry in zip(row, given):
            if value != entry:
                raise InvalidCellError(f"adjacency matrix entries must be 0 or 1, got {entry!r}")
    return rows


def validate_rows(rows: tuple[tuple[int, ...], ...], ops: Sequence[str]) -> None:
    """Raise :class:`InvalidCellError` unless *rows* and *ops* form a cell of the space.

    The one structural check, shared by :class:`Cell` construction and the
    sampler's draws: matching vertex and op counts, at most
    :data:`~repro.nasbench.ops.MAX_VERTICES` vertices and
    :data:`~repro.nasbench.ops.MAX_EDGES` edges, 0/1 entries, a strictly
    upper-triangular matrix and valid labels.  *rows* are square tuples of
    Python ints; it is a pure function of them and *ops*.
    """
    num_vertices = len(rows)
    if num_vertices != len(ops):
        raise InvalidCellError(
            f"matrix has {num_vertices} vertices but {len(ops)} ops were given"
        )
    if num_vertices < 2:
        raise InvalidCellError("a cell needs at least an input and an output vertex")
    if num_vertices > MAX_VERTICES:
        raise InvalidCellError(f"cell has {num_vertices} vertices, the maximum is {MAX_VERTICES}")
    if not set().union(*rows) <= {0, 1}:
        raise InvalidCellError("adjacency matrix entries must be 0 or 1")
    if any(any(row[: index + 1]) for index, row in enumerate(rows)):
        raise InvalidCellError(
            "adjacency matrix must be strictly upper triangular "
            "(vertices in topological order)"
        )
    num_edges = sum(map(sum, rows))
    if num_edges > MAX_EDGES:
        raise InvalidCellError(f"cell has {num_edges} edges, the maximum is {MAX_EDGES}")
    try:
        op_vocab.validate_ops(ops)
    except ValueError as exc:
        raise InvalidCellError(str(exc)) from exc


def prune_rows(
    rows: tuple[tuple[int, ...], ...], ops: tuple[str, ...]
) -> tuple[tuple[tuple[int, ...], ...], tuple[str, ...]] | None:
    """The pruned ``(rows, ops)`` form of a valid cell, or ``None`` if disconnected.

    The one pruning rule (NASBench-101's), shared by :meth:`Cell.prune`, the
    sampler and the enumeration: keep the vertices on some input-to-output
    path.  Vertices are topologically ordered, so one pass over the edges in
    source order settles reachability from the input, and one pass in
    reverse settles reaching the output.  A form that loses no vertex is
    returned as the given *rows* and *ops* objects.
    """
    n = len(rows)
    edges = [(src, dst) for src, row in enumerate(rows) for dst in range(src + 1, n) if row[dst]]
    forward = [False] * n
    forward[0] = True
    for src, dst in edges:
        if forward[src]:
            forward[dst] = True
    backward = [False] * n
    backward[-1] = True
    for src, dst in reversed(edges):
        if backward[dst]:
            backward[src] = True
    if not (forward[-1] and backward[0]):
        return None
    keep = [v for v in range(n) if forward[v] and backward[v]]
    if len(keep) == n:
        return rows, ops
    return tuple(tuple(rows[i][j] for j in keep) for i in keep), tuple(ops[i] for i in keep)


@dataclass(frozen=True, eq=False)
class Cell:
    """An immutable NASBench-101 cell.

    Parameters
    ----------
    matrix:
        Square 0/1 adjacency matrix.  ``matrix[i][j] == 1`` means there is a
        directed edge from vertex ``i`` to vertex ``j``.  The matrix must be
        strictly upper triangular (vertices are in topological order), which
        also guarantees acyclicity.
    ops:
        Operation label per vertex.  ``ops[0]`` must be ``"input"`` and
        ``ops[-1]`` must be ``"output"``.

    Notes
    -----
    Instances are validated on construction and are hashable.  Equality and
    hashing follow NASBench-101's notion of "the same model": two cells
    compare equal iff their pruned, operation-labelled graphs are isomorphic
    (the :attr:`fingerprint` of each is computed once and cached), so sets and
    dicts of cells de-duplicate by model identity without callers maintaining
    fingerprint maps.  The pruned form is cached the same way, and every
    structural query runs over the ``matrix`` tuples.
    """

    matrix: tuple[tuple[int, ...], ...]
    ops: tuple[str, ...]
    _fingerprint: str | None = field(init=False, repr=False, compare=False)
    #: The pruned form once computed; ``True`` when the cell is its own.
    _pruned: "Cell | bool | None" = field(init=False, repr=False, compare=False)

    def __init__(self, matrix: Iterable[Iterable[int]], ops: Sequence[str]):
        self._assign(_as_rows(matrix), tuple(ops))

    @classmethod
    def _from_rows(
        cls, rows: tuple[tuple[int, ...], ...], ops: Sequence[str], pruned: bool = False
    ) -> "Cell":
        """Construct from rows that are already square tuples of Python ints.

        ``pruned=True`` records that the rows are their own pruned form (the
        caller has pruned them), so :meth:`prune` returns the cell itself.
        """
        cell = cls.__new__(cls)
        cell._assign(rows, tuple(ops))
        if pruned:
            object.__setattr__(cell, "_pruned", True)
        return cell

    def _assign(self, rows: tuple[tuple[int, ...], ...], ops: tuple[str, ...]) -> None:
        validate_rows(rows, ops)
        object.__setattr__(self, "matrix", rows)
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "_fingerprint", None)
        object.__setattr__(self, "_pruned", None)

    # ------------------------------------------------------------------ #
    # Model identity
    # ------------------------------------------------------------------ #
    @property
    def fingerprint(self) -> str:
        """Canonical (pruned) isomorphism fingerprint, computed once per cell.

        Disconnected cells (constructible, but with no input-to-output path —
        the population :meth:`is_valid` screens out) have no pruned canonical
        form; they fall back to the unpruned structural hash so equality,
        hashing and set membership never raise.  The fallback cannot collide
        with a connected cell's fingerprint: isomorphic labelled graphs are
        either both connected or both disconnected.
        """
        if self._fingerprint is None:
            from .hashing import cell_fingerprint  # deferred: hashing imports Cell

            try:
                value = cell_fingerprint(self)
            except InvalidCellError:
                value = cell_fingerprint(self, prune=False)
            object.__setattr__(self, "_fingerprint", value)
        return self._fingerprint

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cell):
            return NotImplemented
        return self.fingerprint == other.fingerprint

    def __hash__(self) -> int:
        return hash(self.fingerprint)

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        """Number of vertices, including the input and output vertices."""
        return len(self.ops)

    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return sum(map(sum, self.matrix))

    @property
    def interior_ops(self) -> tuple[str, ...]:
        """Operation labels of the interior (non input/output) vertices."""
        return self.ops[1:-1]

    def numpy_matrix(self) -> np.ndarray:
        """Return a copy of the adjacency matrix as a numpy ``int8`` array."""
        return np.array(self.matrix, dtype=np.int8)

    def edges(self) -> list[tuple[int, int]]:
        """Return the directed edges as ``(src, dst)`` vertex-index pairs."""
        matrix = self.matrix
        return [(src, dst) for src, row in enumerate(matrix) for dst in range(len(row)) if row[dst]]

    def op_count(self, op: str) -> int:
        """Return how many interior vertices carry operation *op*."""
        return sum(1 for o in self.interior_ops if o == op)

    def in_degree(self, vertex: int) -> int:
        """Number of incoming edges of *vertex*."""
        return sum(row[vertex] for row in self.matrix)

    def out_degree(self, vertex: int) -> int:
        """Number of outgoing edges of *vertex*."""
        return sum(self.matrix[vertex])

    # ------------------------------------------------------------------ #
    # Connectivity and pruning
    # ------------------------------------------------------------------ #
    def prune(self) -> "Cell":
        """Return a cell with all extraneous vertices removed (cached).

        A vertex is *extraneous* if it is not on any directed path from the
        input vertex to the output vertex; such vertices cannot influence the
        cell's output and NASBench-101 removes them before de-duplication
        (:func:`prune_rows` is the rule).  The result is computed once per
        cell, and a pruned cell is its own pruned form, so
        ``cell.prune() is cell.prune()``.

        Raises
        ------
        InvalidCellError
            If the input cannot reach the output at all (the pruned graph
            would be disconnected and the cell does not represent a valid
            network).
        """
        cached = self._pruned
        if cached is not None:
            return self if cached is True else cached
        form = prune_rows(self.matrix, self.ops)
        if form is None:
            raise InvalidCellError("cell has no path from input to output")
        if form[0] is self.matrix:
            object.__setattr__(self, "_pruned", True)
            return self
        pruned = Cell._from_rows(*form, pruned=True)
        object.__setattr__(self, "_pruned", pruned)
        return pruned

    def is_valid(self) -> bool:
        """Return ``True`` if the cell is connected (input reaches output)."""
        try:
            self.prune()
        except InvalidCellError:
            return False
        return True

    # ------------------------------------------------------------------ #
    # Graph metrics used throughout the paper
    # ------------------------------------------------------------------ #
    def depth(self) -> int:
        """Length (in edges) of the longest input-to-output path.

        This matches the "graph depth" definition used by the paper and by
        NASBench-101: the number of edges on the longest directed path from
        the input vertex to the output vertex.
        """
        matrix = self.matrix
        n = len(matrix)
        dist: list[int | None] = [None] * n
        dist[0] = 0
        for v in range(n):
            if dist[v] is None:
                continue
            step = dist[v] + 1
            row = matrix[v]
            for w in range(v + 1, n):
                if row[w] and (dist[w] is None or dist[w] < step):
                    dist[w] = step
        if dist[n - 1] is None:
            raise InvalidCellError("cell has no path from input to output")
        return dist[n - 1]

    def width(self) -> int:
        """Maximum directed cut of the graph ("graph width" in the paper).

        Vertices are topologically ordered, so every directed cut corresponds
        to a split position ``k`` separating vertices ``0..k`` from
        ``k+1..n-1``; the width is the maximum number of edges crossing any
        such split.  Moving vertex ``k`` across the split adds its out-edges
        and removes its in-edges, so the crossings are a running sum.
        """
        best = crossing = 0
        for vertex in range(len(self.matrix) - 1):
            crossing += self.out_degree(vertex) - self.in_degree(vertex)
            best = max(best, crossing)
        return best

    # ------------------------------------------------------------------ #
    # Serialization helpers
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """Return a JSON-serializable description of the cell."""
        return {"matrix": [list(row) for row in self.matrix], "ops": list(self.ops)}

    @classmethod
    def from_dict(cls, payload: dict) -> "Cell":
        """Reconstruct a cell from :meth:`to_dict` output."""
        return cls(payload["matrix"], payload["ops"])

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        ops = ", ".join(self.ops)
        return f"Cell(vertices={self.num_vertices}, edges={self.num_edges}, ops=[{ops}])"
