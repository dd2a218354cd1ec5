"""Graph-isomorphism hashing of NASBench cells.

NASBench-101 de-duplicates its search space by computing an iterative,
operation-aware graph hash (a Weisfeiler-Lehman style refinement seeded with
per-vertex in-degree, out-degree, and operation label) and keeping one
representative per hash value.  This module reimplements that algorithm so the
generator in :mod:`repro.nasbench.generator` produces the same notion of
"unique model" as the dataset used by the paper.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

from .cell import Cell
from .ops import HASH_ENCODING


def _md5(text: str) -> str:
    return hashlib.md5(text.encode("utf-8")).hexdigest()


def hash_graph(matrix: np.ndarray | Sequence[Sequence[int]], labels: Sequence[int]) -> str:
    """Return an isomorphism-invariant hash of a labelled DAG.

    Parameters
    ----------
    matrix:
        Square 0/1 adjacency matrix (``matrix[i][j] == 1`` for an edge
        ``i -> j``), as an array or as nested sequences (rows).
    labels:
        One integer label per vertex (operation code).

    Returns
    -------
    str
        Hex digest.  Two graphs that differ only by a relabelling of vertices
        (with matching operation labels) hash to the same value.
    """
    rows = matrix.tolist() if isinstance(matrix, np.ndarray) else matrix
    num_vertices = len(rows)
    if len(labels) != num_vertices:
        raise ValueError(f"matrix has {num_vertices} vertices but {len(labels)} labels were given")

    vertices = range(num_vertices)
    in_neighbors = [[w for w in vertices if rows[w][v]] for v in vertices]
    out_neighbors = [[w for w in vertices if rows[v][w]] for v in vertices]
    hashes = [
        _md5(str((int(sum(rows[v])), int(sum(row[v] for row in rows)), int(labels[v]))))
        for v in vertices
    ]

    # Iterative refinement: each round folds the sorted hashes of the in- and
    # out-neighbourhoods into every vertex hash.  ``num_vertices`` rounds are
    # enough for information to traverse the longest possible path.
    for _ in vertices:
        hashes = [
            _md5(
                "".join(sorted([hashes[w] for w in in_neighbors[v]]))
                + "|"
                + "".join(sorted([hashes[w] for w in out_neighbors[v]]))
                + "|"
                + hashes[v]
            )
            for v in vertices
        ]

    return _md5(str(sorted(hashes)))


def cell_fingerprint(cell: Cell, prune: bool = True) -> str:
    """Return the canonical fingerprint of a :class:`Cell`.

    The cell is pruned first (extraneous vertices removed) so that two cells
    computing the same function — even if one carries dangling vertices —
    receive the same fingerprint, matching NASBench-101's de-duplication
    semantics.
    """
    canonical = cell.prune() if prune else cell
    labels = [HASH_ENCODING[op] for op in canonical.ops]
    return hash_graph(canonical.matrix, labels)


def permute_cell(cell: Cell, permutation: Sequence[int]) -> Cell:
    """Return *cell* with its interior vertices reordered by *permutation*.

    The permutation is expressed over all vertices but must keep vertex ``0``
    first and the output vertex last, and must keep the adjacency matrix upper
    triangular (i.e. it must be a valid topological re-ordering).  This helper
    exists mainly for tests that check hash invariance.
    """
    permutation = list(permutation)
    n = cell.num_vertices
    if sorted(permutation) != list(range(n)):
        raise ValueError("permutation must be a rearrangement of all vertex indices")
    if permutation[0] != 0 or permutation[-1] != n - 1:
        raise ValueError("permutation must keep the input first and the output last")
    matrix = cell.numpy_matrix()
    perm = np.asarray(permutation)
    new_matrix = matrix[np.ix_(perm, perm)]
    new_ops = [cell.ops[i] for i in permutation]
    return Cell(new_matrix, new_ops)
