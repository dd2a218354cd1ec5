"""Tests for cell-space enumeration and sampling."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DatasetError
from repro.nasbench import (
    MAX_EDGES,
    MAX_VERTICES,
    cell_fingerprint,
    enumerate_cells,
    random_cell,
    sample_unique_cells,
)
from repro.nasbench.famous_cells import BEST_ACCURACY_CELL
from repro.nasbench.generator import count_unique_cells


class TestEnumeration:
    def test_two_vertex_space(self):
        cells = list(enumerate_cells(max_vertices=2))
        # Only the trivial input->output cell exists.
        assert len(cells) == 1
        assert cells[0].num_vertices == 2

    def test_three_vertex_space(self):
        cells = list(enumerate_cells(max_vertices=3))
        # The trivial cell, three chain cells (one per op), and three cells with
        # an extra input->output skip edge alongside the chain.
        assert len(cells) == 7
        assert all(cell.num_vertices <= 3 for cell in cells)

    def test_enumeration_is_deduplicated(self):
        cells = list(enumerate_cells(max_vertices=4))
        fingerprints = [cell_fingerprint(cell) for cell in cells]
        assert len(fingerprints) == len(set(fingerprints))

    def test_enumeration_respects_edge_budget(self):
        for cell in enumerate_cells(max_vertices=4, max_edges=4):
            assert cell.num_edges <= 4

    def test_count_grows_with_vertices(self):
        assert count_unique_cells(2) < count_unique_cells(3) < count_unique_cells(4)

    def test_invalid_limits_rejected(self):
        with pytest.raises(DatasetError):
            list(enumerate_cells(max_vertices=1))
        with pytest.raises(DatasetError):
            list(enumerate_cells(max_vertices=3, max_edges=0))


class TestSampling:
    def test_sample_is_deterministic(self):
        a = sample_unique_cells(25, seed=9)
        b = sample_unique_cells(25, seed=9)
        assert [cell_fingerprint(c) for c in a] == [cell_fingerprint(c) for c in b]

    def test_sample_is_unique(self):
        cells = sample_unique_cells(60, seed=4)
        fingerprints = {cell_fingerprint(cell) for cell in cells}
        assert len(fingerprints) == 60

    def test_sample_includes_extra_cells(self):
        cells = sample_unique_cells(10, seed=1, extra_cells=[BEST_ACCURACY_CELL])
        assert cell_fingerprint(cells[0]) == cell_fingerprint(BEST_ACCURACY_CELL)

    def test_sample_rejects_non_positive_count(self):
        with pytest.raises(DatasetError):
            sample_unique_cells(0)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=100_000))
    def test_random_cells_respect_space_limits(self, seed):
        cell = random_cell(np.random.default_rng(seed))
        assert 2 <= cell.num_vertices <= MAX_VERTICES
        assert 1 <= cell.num_edges <= MAX_EDGES
        assert cell.is_valid()
        # random_cell returns pruned cells: pruning again is a no-op.
        assert cell.prune().num_vertices == cell.num_vertices


class TestSamplingFailurePaths:
    def test_random_cell_exhausts_attempts_instead_of_looping(self):
        # With max_vertices=3 every draw needs at least 2 edges (a spanning
        # path), so an edge budget of 1 makes every attempt hit the
        # min_edges > max_usable_edges boundary.  The draw must *skip* those
        # attempts (not loop forever) and raise once the budget is spent.
        rng = np.random.default_rng(0)
        with pytest.raises(DatasetError, match="after 40 attempts"):
            random_cell(rng, max_vertices=3, max_edges=1, max_attempts=40)

    def test_random_cell_works_at_the_edge_budget_boundary(self):
        # min_edges == max_usable_edges is the tightest satisfiable budget.
        rng = np.random.default_rng(1)
        cell = random_cell(rng, max_vertices=3, max_edges=2)
        assert cell.num_edges <= 2

    def test_random_cell_zero_attempts_raises(self):
        with pytest.raises(DatasetError):
            random_cell(np.random.default_rng(0), max_attempts=0)

    @pytest.mark.parametrize("max_vertices", [100, 511, 600])
    def test_random_cell_over_the_edge_budget_exhausts_attempts(self, max_vertices):
        # Almost every draw picks a vertex count whose spanning path needs
        # more edges than the budget of 9, so every attempt is skipped; the
        # vertex weights must not overflow on the way (4.0**n does from 512).
        with pytest.raises(DatasetError, match="after 200 attempts"):
            random_cell(np.random.default_rng(0), max_vertices=max_vertices)

    def test_sample_unique_cells_raises_when_subspace_is_exhausted(self):
        # The 3-vertex sub-space only holds 7 unique models; asking for 50
        # must terminate with DatasetError, not spin forever.
        with pytest.raises(DatasetError, match="unique cells"):
            sample_unique_cells(50, seed=0, max_vertices=3)
