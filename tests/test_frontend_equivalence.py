"""Differential and property tests of the nasbench front-end's fast paths.

Each fast path is checked against a reference kept here: the numpy cell
predicate and pruning, ``rng.choice`` sampling, the numpy-built mutation
primitives, and the ``LayerSpec``-based network expansion that
:meth:`LayerTable.from_networks` flattens and whose layers'
``trainable_parameters`` the vertex-channel count must sum to.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CompilationError, DatasetError, InvalidCellError
from repro.nasbench import (
    ALL_OPS,
    FAMOUS_CELLS,
    INPUT,
    INTERIOR_OPS,
    MAX_EDGES,
    MAX_VERTICES,
    OUTPUT,
    Cell,
    LayerTable,
    NASBenchDataset,
    NetworkConfig,
    add_vertex,
    build_network,
    count_parameters,
    expand_architecture,
    flip_edge,
    hash_graph,
    mutate_cell,
    permute_cell,
    random_cell,
    random_macro,
    remove_vertex,
    sample_unique_cells,
    swap_op,
)
from repro.nasbench.ops import HASH_ENCODING, validate_ops

CONFIGS = (
    NetworkConfig(),
    NetworkConfig(stem_channels=24, num_stacks=2, cells_per_stack=2, image_size=16),
)


# --------------------------------------------------------------------------- #
# References: the numpy cell predicate, pruning and metrics, and sampling
# through ``rng.choice``.
# --------------------------------------------------------------------------- #
def reference_invalid(matrix, ops) -> bool:
    """True when the numpy predicate rejects ``Cell(matrix, ops)``."""
    array = np.asarray(matrix, dtype=np.int8)
    if array.ndim != 2 or array.shape[0] != array.shape[1]:
        return True
    num_vertices = array.shape[0]
    if num_vertices != len(ops) or not 2 <= num_vertices <= MAX_VERTICES:
        return True
    if not np.isin(array, (0, 1)).all() or np.any(np.tril(array) != 0):
        return True
    if int(array.sum()) > MAX_EDGES:
        return True
    try:
        validate_ops(ops)
    except ValueError:
        return True
    return False


def reference_prune(matrix, ops):
    """Pruned ``(rows, ops)`` of a valid cell, or ``None`` if disconnected."""
    array = np.asarray(matrix, dtype=np.int8)
    n = array.shape[0]
    forward = np.zeros(n, dtype=bool)
    forward[0] = True
    for v in range(n):
        if forward[v]:
            forward |= array[v, :].astype(bool)
    backward = np.zeros(n, dtype=bool)
    backward[n - 1] = True
    for v in range(n - 1, -1, -1):
        if backward[v]:
            backward |= array[:, v].astype(bool)
    keep = forward & backward
    if not keep[0] or not keep[-1]:
        return None
    indices = np.nonzero(keep)[0]
    rows = tuple(map(tuple, array[np.ix_(indices, indices)].tolist()))
    return rows, tuple(ops[i] for i in indices)


def reference_depth_width(rows) -> tuple[int, int]:
    array = np.asarray(rows)
    n = array.shape[0]
    dist = np.full(n, -np.inf)
    dist[0] = 0
    for v in range(n):
        if dist[v] == -np.inf:
            continue
        for w in range(v + 1, n):
            if array[v, w]:
                dist[w] = max(dist[w], dist[v] + 1)
    width = max(int(array[: k + 1, k + 1 :].sum()) for k in range(n - 1))
    return int(dist[n - 1]), width


def reference_random_cell(rng, max_vertices=MAX_VERTICES, max_edges=MAX_EDGES, max_attempts=200):
    """``random_cell`` drawing through ``rng.choice`` for vertices and labels."""
    vertex_choices = list(range(3, max_vertices + 1))
    if not vertex_choices:
        raise DatasetError(f"max_vertices must be at least 3 to draw a cell, got {max_vertices}")
    weights = np.array([4.0**n for n in vertex_choices])
    weights /= weights.sum()
    for _ in range(max_attempts):
        num_vertices = int(rng.choice(vertex_choices, p=weights))
        num_slots = num_vertices * (num_vertices - 1) // 2
        max_usable_edges = min(max_edges, num_slots)
        if num_vertices - 1 > max_usable_edges:
            continue
        num_edges = int(rng.integers(num_vertices - 1, max_usable_edges + 1))
        slots = list(itertools.combinations(range(num_vertices), 2))
        matrix = np.zeros((num_vertices, num_vertices), dtype=np.int8)
        for index in rng.choice(len(slots), size=num_edges, replace=False):
            matrix[slots[int(index)]] = 1
        labels = [str(rng.choice(INTERIOR_OPS)) for _ in range(num_vertices - 2)]
        cell = Cell(matrix, (INPUT, *labels, OUTPUT))
        if cell.is_valid():
            return cell.prune()
    raise DatasetError(f"failed to draw a valid random cell after {max_attempts} attempts")


def reference_flip_edge(cell, rng):
    """``flip_edge`` over a numpy copy of the matrix."""
    n = cell.num_vertices
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    i, j = slots[int(rng.integers(len(slots)))]
    matrix = cell.numpy_matrix()
    matrix[i, j] = 1 - matrix[i, j]
    return Cell(matrix, cell.ops)


def reference_swap_op(cell, rng):
    """``swap_op`` over a numpy copy of the matrix."""
    if cell.num_vertices <= 2:
        raise InvalidCellError("cell has no interior vertex to relabel")
    vertex = int(rng.integers(1, cell.num_vertices - 1))
    choices = [op for op in INTERIOR_OPS if op != cell.ops[vertex]]
    ops = list(cell.ops)
    ops[vertex] = choices[int(rng.integers(len(choices)))]
    return Cell(cell.numpy_matrix(), ops)


def reference_add_vertex(cell, rng, max_vertices=MAX_VERTICES):
    """``add_vertex`` growing a numpy matrix by block copies."""
    n = cell.num_vertices
    if n >= max_vertices:
        raise InvalidCellError(f"cell already has the maximum of {max_vertices} vertices")
    position = int(rng.integers(1, n))
    matrix = cell.numpy_matrix()
    grown = np.zeros((n + 1, n + 1), dtype=np.int8)
    grown[:position, :position] = matrix[:position, :position]
    grown[:position, position + 1 :] = matrix[:position, position:]
    grown[position + 1 :, position + 1 :] = matrix[position:, position:]
    predecessor = int(rng.integers(0, position))
    successor = int(rng.integers(position + 1, n + 1))
    grown[predecessor, position] = 1
    grown[position, successor] = 1
    ops = list(cell.ops)
    ops.insert(position, INTERIOR_OPS[int(rng.integers(len(INTERIOR_OPS)))])
    return Cell(grown, ops)


def reference_remove_vertex(cell, rng):
    """``remove_vertex`` selecting the kept rows with ``np.ix_``."""
    if cell.num_vertices <= 2:
        raise InvalidCellError("cell has no interior vertex to remove")
    vertex = int(rng.integers(1, cell.num_vertices - 1))
    keep = [i for i in range(cell.num_vertices) if i != vertex]
    matrix = cell.numpy_matrix()[np.ix_(keep, keep)]
    ops = [cell.ops[i] for i in keep]
    return Cell(matrix, ops)


@st.composite
def valid_cells(draw, max_vertices=MAX_VERTICES):
    """Connected cells within the budget, pruned or carrying dangling vertices.

    One input-to-output path through a drawn subset of the interior vertices
    makes every cell connected; further edges are drawn from the other slots.
    """
    n = draw(st.integers(2, max_vertices))
    on_path = draw(st.lists(st.booleans(), min_size=n - 2, max_size=n - 2))
    path = [0, *(v for v, kept in enumerate(on_path, start=1) if kept), n - 1]
    edges = set(zip(path, path[1:]))
    others = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges]
    if others:
        room = MAX_EDGES - len(edges)
        edges.update(draw(st.lists(st.sampled_from(others), unique=True, max_size=room)))
    matrix = [[int((i, j) in edges) for j in range(n)] for i in range(n)]
    interior = draw(st.lists(st.sampled_from(INTERIOR_OPS), min_size=n - 2, max_size=n - 2))
    return Cell(matrix, [INPUT, *interior, OUTPUT])


@st.composite
def topological_orders(draw, cell):
    """A :func:`permute_cell` order of *cell*'s vertices.

    The input stays first, the output last, and every edge points forward.
    """
    n = cell.num_vertices
    priority = draw(st.permutations(range(n)))
    placed: list[int] = [0]
    while len(placed) < n - 1:
        ready = [
            v
            for v in range(1, n - 1)
            if v not in placed and all(u in placed for u in range(v) if cell.matrix[u][v])
        ]
        placed.append(min(ready, key=priority.__getitem__))
    return [*placed, n - 1]


@st.composite
def cell_inputs(draw):
    """Square matrices of 2-8 vertices with entries in {-1, 0, 1, 2}, plus op lists."""
    n = draw(st.integers(2, 8))
    slots = n * (n - 1) // 2
    bits = iter(draw(st.lists(st.integers(0, 1), min_size=slots, max_size=slots)))
    matrix = [[next(bits) if j > i else 0 for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        matrix[i][j] = draw(st.sampled_from([-1, 0, 1, 2]))
    if draw(st.booleans()):
        interior = draw(st.lists(st.sampled_from(INTERIOR_OPS), min_size=n - 2, max_size=n - 2))
        ops = [INPUT, *interior, OUTPUT]
    else:
        ops = draw(st.lists(st.sampled_from([*ALL_OPS, "conv5x5"]), max_size=9))
    if draw(st.booleans()):
        matrix = np.array(matrix)
    return matrix, ops


# --------------------------------------------------------------------------- #
# Cell validation, pruning and metrics
# --------------------------------------------------------------------------- #
@settings(max_examples=200, deadline=None)
@given(cell_inputs())
def test_cell_matches_numpy_reference(inputs):
    matrix, ops = inputs
    if reference_invalid(matrix, ops):
        with pytest.raises(InvalidCellError):
            Cell(matrix, ops)
        return
    cell = Cell(matrix, ops)
    assert cell.num_edges == int(np.asarray(matrix).sum())
    expected = reference_prune(matrix, ops)
    if expected is None:
        assert not cell.is_valid()
        with pytest.raises(InvalidCellError):
            cell.prune()
        return
    pruned = cell.prune()
    assert (pruned.matrix, pruned.ops) == expected
    assert pruned is cell.prune()
    assert pruned.prune() is pruned
    assert (pruned.depth(), pruned.width()) == reference_depth_width(expected[0])


def test_prune_is_cached_and_idempotent():
    dangling = Cell(
        [[0, 1, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]],
        [INPUT, INTERIOR_OPS[0], INTERIOR_OPS[1], OUTPUT],
    )
    pruned = dangling.prune()
    assert pruned is not dangling and pruned.num_vertices == 3
    assert dangling.prune() is pruned and pruned.prune() is pruned
    assert dangling.fingerprint == pruned.fingerprint


def test_hash_graph_list_and_array_inputs_agree():
    rng = np.random.default_rng(7)
    for _ in range(40):
        cell = random_cell(rng)
        labels = [HASH_ENCODING[op] for op in cell.ops]
        as_list = hash_graph([list(row) for row in cell.matrix], labels)
        assert as_list == hash_graph(cell.numpy_matrix(), labels)
        assert as_list == hash_graph(cell.matrix, labels) == cell.fingerprint


# --------------------------------------------------------------------------- #
# Mutation primitives and the mutate_cell driver
# --------------------------------------------------------------------------- #
PRIMITIVES = {
    "flip_edge": (flip_edge, reference_flip_edge),
    "swap_op": (swap_op, reference_swap_op),
    "add_vertex": (add_vertex, reference_add_vertex),
    "remove_vertex": (remove_vertex, reference_remove_vertex),
}


def _apply(primitive, cell, rng, *args):
    """The child's ``(matrix, ops)`` (``None`` if it raised) and the stream state after."""
    try:
        child = primitive(cell, rng, *args)
    except InvalidCellError:
        return None, rng.bit_generator.state
    return (child.matrix, child.ops), rng.bit_generator.state


@pytest.mark.parametrize("name", list(PRIMITIVES))
@settings(max_examples=100, deadline=None)
@given(
    cell=valid_cells(),
    seed=st.integers(0, 2**32 - 1),
    max_vertices=st.integers(2, MAX_VERTICES),
)
def test_mutation_primitives_match_numpy_references(name, cell, seed, max_vertices):
    primitive, reference = PRIMITIVES[name]
    args = (max_vertices,) if primitive is add_vertex else ()
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        assert _apply(primitive, cell, fast, *args) == _apply(reference, cell, slow, *args)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), cell=valid_cells(), seed=st.integers(0, 2**32 - 1))
def test_mutation_chains_stay_valid_pruned_in_budget_and_leave_the_parent(data, cell, seed):
    start = cell.prune()
    max_vertices = data.draw(st.integers(max(3, start.num_vertices), MAX_VERTICES))
    max_edges = data.draw(st.integers(max(2, start.num_edges), MAX_EDGES))
    rng = np.random.default_rng(seed)
    parent = cell
    for _ in range(12):
        try:
            child = mutate_cell(parent, rng, max_vertices=max_vertices, max_edges=max_edges)
        except DatasetError:
            break  # an exhausted neighbourhood is the documented way out
        assert child.is_valid() and child.prune() is child
        assert child.num_vertices <= max_vertices and child.num_edges <= max_edges
        assert child.fingerprint != parent.fingerprint
        parent = child


def _size_and_ops(cell):
    pruned = cell.prune()
    return pruned.num_vertices, pruned.num_edges, sorted(pruned.ops)


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    cells=st.lists(st.one_of(valid_cells(max_vertices=4), valid_cells()), min_size=2, max_size=6),
)
def test_equal_fingerprints_have_equal_sizes_and_ops(data, cells):
    copies = [permute_cell(cell, data.draw(topological_orders(cell))) for cell in cells]
    for cell, copy in zip(cells, copies):
        assert copy.fingerprint == cell.fingerprint
    for a, b in itertools.combinations([*cells, *copies], 2):
        if a.fingerprint == b.fingerprint:
            assert _size_and_ops(a) == _size_and_ops(b)


# --------------------------------------------------------------------------- #
# Sampling streams
# --------------------------------------------------------------------------- #
def _drawn(draw, rng, bounds):
    """The form a draw returns, or the type and message of what it raises."""
    try:
        cell = draw(rng, *bounds)
    except (DatasetError, InvalidCellError) as exc:
        return type(exc), str(exc)
    assert cell.prune() is cell
    return cell.matrix, cell.ops


def test_random_cell_draws_the_rng_choice_stream():
    # Bounds past MAX_VERTICES/MAX_EDGES draw cells outside the space, which
    # must fail validation on the same draw; (2, 9) has no vertex count to
    # draw and (3, 1) no satisfiable edge count.
    for bounds, seeds in [
        ((MAX_VERTICES, MAX_EDGES), 50),
        ((5, 6), 20),
        ((4, 3), 20),
        ((3, 2), 20),
        ((6, 12), 20),
        ((8, 9), 20),
        ((9, 30), 10),
        ((2, 9), 5),
        ((3, 1), 5),
    ]:
        for seed in range(seeds):
            fast, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(4):
                expected = _drawn(reference_random_cell, reference, bounds)
                assert _drawn(random_cell, fast, bounds) == expected, (bounds, seed)
            assert fast.random() == reference.random()


@pytest.mark.parametrize("seed", [0, 5])
def test_sample_unique_cells_matches_fingerprint_dedupe(seed):
    rng = np.random.default_rng(seed)
    extra = list(FAMOUS_CELLS.values())
    expected, seen = [], set()
    for cell in extra:
        if cell.prune().fingerprint not in seen:
            seen.add(cell.prune().fingerprint)
            expected.append(cell.prune())
    while len(expected) < 120:
        cell = reference_random_cell(rng)
        if cell.fingerprint not in seen:
            seen.add(cell.fingerprint)
            expected.append(cell)
    cells = sample_unique_cells(120, seed=seed, extra_cells=extra)
    assert [(c.matrix, c.ops) for c in cells] == [(c.matrix, c.ops) for c in expected]


# --------------------------------------------------------------------------- #
# Layer rows: tables and parameter counts
# --------------------------------------------------------------------------- #
def _architectures():
    rng = np.random.default_rng(2022)
    cells = [random_cell(rng) for _ in range(30)]
    cells += list(FAMOUS_CELLS.values())
    cells.append(Cell([[0, 1], [0, 0]], [INPUT, OUTPUT]))
    macros = [random_macro(rng) for _ in range(10)]
    return cells, macros


def _assert_tables_equal(packed: LayerTable, flattened: LayerTable) -> None:
    for column in dataclasses.fields(LayerTable):
        left, right = getattr(packed, column.name), getattr(flattened, column.name)
        assert left.dtype == right.dtype, column.name
        np.testing.assert_array_equal(left, right, err_msg=column.name)


@pytest.mark.parametrize("config", CONFIGS)
def test_from_architectures_equals_from_networks(config):
    cells, macros = _architectures()
    archs = [*cells, *macros, cells[0], macros[0]]
    packed = LayerTable.from_architectures(archs, config)
    flattened = LayerTable.from_networks([expand_architecture(a, config) for a in archs])
    _assert_tables_equal(packed, flattened)


@pytest.mark.parametrize("config", CONFIGS)
def test_parameters_from_rows_equal_the_built_network(config):
    cells, macros = _architectures()
    for cell in cells:
        assert count_parameters(cell, config) == build_network(cell, config).trainable_parameters
    for macro in macros:
        assert count_parameters(macro, config) == macro.build_network().trainable_parameters
    dataset = NASBenchDataset.from_cells(cells, network_config=config)
    for record in dataset:
        network = record.build_network(config)
        assert record.trainable_parameters == network.trainable_parameters


@pytest.mark.parametrize("config", CONFIGS)
@settings(max_examples=60, deadline=None)
@given(cell=valid_cells())
def test_parameter_count_of_a_cell_equals_its_built_network(config, cell):
    assert count_parameters(cell, config) == build_network(cell, config).trainable_parameters


@pytest.mark.parametrize("config", CONFIGS)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), stem_channels=st.integers(1, 256))
def test_parameter_count_of_a_macro_equals_its_built_network(config, seed, stem_channels):
    macro = random_macro(np.random.default_rng(seed), stem_channels=stem_channels)
    assert count_parameters(macro, config) == macro.build_network().trainable_parameters


def test_from_architectures_errors_match_from_networks():
    # Two interior vertices feed the output, so one of them gets 1 // 2 = 0
    # channels when the stem is a single channel wide.
    config = NetworkConfig(stem_channels=1)
    cell = Cell(
        [[0, 1, 1, 0], [0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 0]],
        [INPUT, INTERIOR_OPS[0], INTERIOR_OPS[1], OUTPUT],
    )
    with pytest.raises(CompilationError) as flattened:
        LayerTable.from_networks([build_network(cell, config)])
    with pytest.raises(CompilationError) as packed:
        LayerTable.from_architectures([cell], config)
    assert str(packed.value) == str(flattened.value)
    with pytest.raises(DatasetError):
        LayerTable.from_architectures([])
