"""Unit tests for the NASBench cell representation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InvalidCellError
from repro.nasbench import (
    CONV1X1,
    CONV3X3,
    Cell,
    INPUT,
    MAXPOOL3X3,
    OUTPUT,
)


def linear_cell(*ops: str) -> Cell:
    """Build a simple chain cell input -> ops... -> output."""
    n = len(ops) + 2
    matrix = np.zeros((n, n), dtype=int)
    for i in range(n - 1):
        matrix[i, i + 1] = 1
    return Cell(matrix, (INPUT, *ops, OUTPUT))


class TestCellValidation:
    def test_minimal_cell(self):
        cell = Cell([[0, 1], [0, 0]], [INPUT, OUTPUT])
        assert cell.num_vertices == 2
        assert cell.num_edges == 1

    def test_chain_cell_properties(self):
        cell = linear_cell(CONV3X3, CONV1X1, MAXPOOL3X3)
        assert cell.num_vertices == 5
        assert cell.num_edges == 4
        assert cell.interior_ops == (CONV3X3, CONV1X1, MAXPOOL3X3)
        assert cell.op_count(CONV3X3) == 1
        assert cell.op_count(CONV1X1) == 1
        assert cell.op_count(MAXPOOL3X3) == 1

    def test_rejects_non_square_matrix(self):
        with pytest.raises(InvalidCellError):
            Cell([[0, 1, 0], [0, 0, 1]], [INPUT, OUTPUT])

    def test_rejects_lower_triangular_edges(self):
        with pytest.raises(InvalidCellError):
            Cell([[0, 1], [1, 0]], [INPUT, OUTPUT])

    def test_rejects_self_loop(self):
        matrix = [[1, 1], [0, 0]]
        with pytest.raises(InvalidCellError):
            Cell(matrix, [INPUT, OUTPUT])

    def test_rejects_too_many_vertices(self):
        n = 8
        matrix = np.zeros((n, n), dtype=int)
        for i in range(n - 1):
            matrix[i, i + 1] = 1
        with pytest.raises(InvalidCellError):
            Cell(matrix, [INPUT] + [CONV3X3] * (n - 2) + [OUTPUT])

    def test_rejects_too_many_edges(self):
        n = 6
        matrix = np.triu(np.ones((n, n), dtype=int), 1)  # 15 edges > 9
        with pytest.raises(InvalidCellError):
            Cell(matrix, [INPUT, CONV3X3, CONV3X3, CONV3X3, CONV3X3, OUTPUT])

    def test_rejects_bad_ops(self):
        with pytest.raises(InvalidCellError):
            Cell([[0, 1, 0], [0, 0, 1], [0, 0, 0]], [INPUT, "conv7x7", OUTPUT])
        with pytest.raises(InvalidCellError):
            Cell([[0, 1], [0, 0]], [OUTPUT, INPUT])

    def test_rejects_op_count_mismatch(self):
        with pytest.raises(InvalidCellError):
            Cell([[0, 1], [0, 0]], [INPUT, CONV3X3, OUTPUT])

    def test_rejects_non_binary_entries(self):
        with pytest.raises(InvalidCellError):
            Cell([[0, 2], [0, 0]], [INPUT, OUTPUT])

    @pytest.mark.parametrize("entry", [1.7, 0.5, "1", np.float64(0.9)])
    def test_rejects_entries_that_are_not_their_int8_value(self, entry):
        with pytest.raises(InvalidCellError, match="must be 0 or 1, got") as raised:
            Cell([[0, entry], [0, 0]], [INPUT, OUTPUT])
        assert str(raised.value).endswith(repr(entry))

    def test_rejects_array_entries_that_wrap_in_int8(self):
        with pytest.raises(InvalidCellError, match="257"):
            Cell(np.array([[0, 257], [0, 0]]), [INPUT, OUTPUT])

    def test_accepts_integral_floats_and_booleans(self):
        edge = Cell([[0, 1], [0, 0]], [INPUT, OUTPUT])
        for matrix in ([[0, 1.0], [0, 0]], [[False, True], [False, False]], np.eye(2, k=1)):
            assert Cell(matrix, [INPUT, OUTPUT]).matrix == edge.matrix


class TestPruning:
    def test_prune_keeps_connected_cell(self):
        cell = linear_cell(CONV3X3)
        assert cell.prune() is cell

    def test_prune_removes_dangling_vertex(self):
        # vertex 2 (conv1x1) has no outgoing path to the output.
        matrix = [
            [0, 1, 1, 0],
            [0, 0, 0, 1],
            [0, 0, 0, 0],
            [0, 0, 0, 0],
        ]
        cell = Cell(matrix, [INPUT, CONV3X3, CONV1X1, OUTPUT])
        pruned = cell.prune()
        assert pruned.num_vertices == 3
        assert pruned.interior_ops == (CONV3X3,)

    def test_prune_removes_unreachable_vertex(self):
        # vertex 2 feeds the output but is not reachable from the input.
        matrix = [
            [0, 1, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 0, 1],
            [0, 0, 0, 0],
        ]
        cell = Cell(matrix, [INPUT, CONV3X3, MAXPOOL3X3, OUTPUT])
        pruned = cell.prune()
        assert pruned.num_vertices == 3
        assert pruned.interior_ops == (CONV3X3,)

    def test_disconnected_cell_raises(self):
        matrix = [
            [0, 1, 0, 0],
            [0, 0, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 0, 0],
        ]
        cell = Cell(matrix, [INPUT, CONV3X3, CONV3X3, OUTPUT])
        assert not cell.is_valid()
        with pytest.raises(InvalidCellError):
            cell.prune()


class TestGraphMetrics:
    def test_depth_of_chain(self):
        assert linear_cell(CONV3X3, CONV3X3, CONV3X3).depth() == 4

    def test_depth_with_skip(self):
        matrix = [
            [0, 1, 0, 1],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [0, 0, 0, 0],
        ]
        cell = Cell(matrix, [INPUT, CONV3X3, CONV1X1, OUTPUT])
        assert cell.depth() == 3

    def test_width_of_chain_is_one(self):
        assert linear_cell(CONV3X3, CONV3X3).width() == 1

    def test_width_of_parallel_branches(self):
        # input feeds three parallel ops which all feed the output.
        matrix = [
            [0, 1, 1, 1, 0],
            [0, 0, 0, 0, 1],
            [0, 0, 0, 0, 1],
            [0, 0, 0, 0, 1],
            [0, 0, 0, 0, 0],
        ]
        cell = Cell(matrix, [INPUT, CONV3X3, CONV1X1, MAXPOOL3X3, OUTPUT])
        assert cell.width() == 3

    def test_degrees_and_edges(self):
        cell = linear_cell(CONV3X3, CONV1X1)
        assert cell.edges() == [(0, 1), (1, 2), (2, 3)]
        assert cell.in_degree(0) == 0
        assert cell.out_degree(0) == 1
        assert cell.in_degree(3) == 1


class TestSerialization:
    def test_round_trip(self):
        cell = linear_cell(CONV3X3, MAXPOOL3X3)
        clone = Cell.from_dict(cell.to_dict())
        assert clone == cell
        assert hash(clone) == hash(cell)

    def test_equality_distinguishes_ops(self):
        a = linear_cell(CONV3X3)
        b = linear_cell(CONV1X1)
        assert a != b

    def test_numpy_matrix_is_a_copy(self):
        cell = linear_cell(CONV3X3)
        matrix = cell.numpy_matrix()
        matrix[0, 1] = 0
        assert cell.numpy_matrix()[0, 1] == 1


class TestModelIdentity:
    """Equality and hashing follow the isomorphism fingerprint."""

    def test_fingerprint_matches_cell_fingerprint(self):
        from repro.nasbench import cell_fingerprint

        cell = linear_cell(CONV3X3, MAXPOOL3X3)
        assert cell.fingerprint == cell_fingerprint(cell)
        # Cached: repeated access returns the identical string object.
        assert cell.fingerprint is cell.fingerprint

    def test_isomorphic_cells_compare_equal(self):
        from repro.nasbench import permute_cell

        matrix = [
            [0, 1, 1, 0],
            [0, 0, 0, 1],
            [0, 0, 0, 1],
            [0, 0, 0, 0],
        ]
        cell = Cell(matrix, [INPUT, CONV3X3, CONV1X1, OUTPUT])
        # Swapping the two parallel branches relabels the vertices but keeps
        # the model the same.
        permuted = permute_cell(cell, [0, 2, 1, 3])
        assert permuted.ops != cell.ops
        assert permuted == cell
        assert hash(permuted) == hash(cell)

    def test_dangling_vertex_cell_equals_its_pruned_form(self):
        base = linear_cell(CONV3X3)
        with_dangling = Cell(
            [
                [0, 1, 1, 0],
                [0, 0, 0, 1],
                [0, 0, 0, 0],  # vertex 2 has no outgoing path: pruned away
                [0, 0, 0, 0],
            ],
            [INPUT, CONV3X3, CONV1X1, OUTPUT],
        )
        assert with_dangling == base
        assert len({with_dangling, base}) == 1

    def test_sets_of_cells_deduplicate_by_model(self):
        a = linear_cell(CONV3X3)
        b = linear_cell(CONV1X1)
        assert len({a, b, linear_cell(CONV3X3)}) == 2
        assert a != b
        assert a != "not a cell"

    def test_disconnected_cells_compare_without_raising(self):
        # No input->output path: constructible (is_valid() screens it later),
        # and equality/hashing must not raise despite having no pruned form.
        disconnected = Cell([[0, 0], [0, 0]], [INPUT, OUTPUT])
        assert not disconnected.is_valid()
        assert disconnected == Cell([[0, 0], [0, 0]], [INPUT, OUTPUT])
        assert disconnected != linear_cell(CONV3X3)
        assert len({disconnected, disconnected}) == 1
