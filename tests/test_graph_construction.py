"""Graph construction: the single-sort CSR build pinned to its reference.

:meth:`CSRGraph.from_edge_list` orders edges with one stable sort of a packed
``src * n + dst`` key, and :func:`gcn_normalize` sums degrees with
``np.bincount``.  Both must be bit-identical, dtypes included, to the list
round-trip, three-sort build and the ``np.add.at`` degree sums in
``oracles.py``: every dataset graph, and so every simulated figure, is built
through them.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from oracles import from_edge_list_reference, gcn_normalize_reference
from repro.accelerator.pipeline import _reordered_for_locality
from repro.errors import GraphError
from repro.graphs import datasets
from repro.graphs.datasets import available_datasets, load_dataset
from repro.graphs.graph import CSRGraph
from repro.graphs.normalize import gcn_normalize


def assert_same_graph(actual: CSRGraph, expected: CSRGraph) -> None:
    assert actual.name == expected.name
    for field in ("indptr", "indices", "weights"):
        got, want = getattr(actual, field), getattr(expected, field)
        assert got.dtype == want.dtype, field
        assert got.shape == want.shape, field
        assert got.tobytes() == want.tobytes(), field


def random_edges(rng: np.random.Generator):
    """Unsorted edges with repeats, self loops and empty rows, plus weights.

    Endpoints are drawn from a small id range so repeated ``(src, dst)``
    pairs are common; every edge gets a distinct weight, so a wrong pick
    among duplicates shows up in the weights.
    """
    num_vertices = int(rng.integers(1, 30))
    num_edges = int(rng.integers(0, 80))
    edges = rng.integers(0, num_vertices, size=(num_edges, 2), dtype=np.int64)
    weights = rng.permutation(num_edges).astype(np.float32) - 7.5
    return num_vertices, edges, weights


def edge_inputs(edges: np.ndarray):
    """The same edges as an ndarray, a list of tuples and a generator."""
    yield edges
    yield [(int(src), int(dst)) for src, dst in edges]
    yield ((int(src), int(dst)) for src, dst in edges)


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("deduplicate", [True, False])
@pytest.mark.parametrize("weighted", [True, False])
def test_from_edge_list_matches_reference(
    seed: int, deduplicate: bool, weighted: bool
) -> None:
    rng = np.random.default_rng(seed)
    num_vertices, edges, weights = random_edges(rng)
    edge_weights = weights if weighted else None
    expected = from_edge_list_reference(
        num_vertices, edges, edge_weights, name="g", deduplicate=deduplicate
    )
    for given in edge_inputs(edges):
        actual = CSRGraph.from_edge_list(
            num_vertices, given, edge_weights, name="g", deduplicate=deduplicate
        )
        assert_same_graph(actual, expected)


def test_duplicate_edges_keep_their_first_weight() -> None:
    edges = np.array([[1, 0], [0, 1], [1, 0], [0, 1], [0, 0]])
    weights = [1.0, 2.0, 3.0, 4.0, 5.0]
    graph = CSRGraph.from_edge_list(2, edges, weights)
    assert graph.indptr.tolist() == [0, 2, 3]
    assert graph.indices.tolist() == [0, 1, 0]
    assert graph.weights.tolist() == [5.0, 2.0, 1.0]

    kept = CSRGraph.from_edge_list(2, edges, weights, deduplicate=False)
    assert kept.indices.tolist() == [0, 1, 1, 0, 0]
    assert kept.weights.tolist() == [5.0, 2.0, 4.0, 1.0, 3.0]


def test_narrow_integer_arrays_match_int64() -> None:
    edges = np.array([[2, 1], [0, 2], [2, 1], [1, 1]])
    wide = CSRGraph.from_edge_list(3, edges.astype(np.int64))
    for dtype in (np.int32, np.uint16):
        assert_same_graph(CSRGraph.from_edge_list(3, edges.astype(dtype)), wide)


@pytest.mark.parametrize(
    "edges",
    [[], np.zeros((0, 2), dtype=np.int64), np.zeros((0, 2)), iter(())],
    ids=["empty-list", "int-0x2", "float-0x2", "empty-generator"],
)
def test_empty_edge_inputs_give_an_empty_graph(edges) -> None:
    graph = CSRGraph.from_edge_list(3, edges)
    assert graph.indptr.tolist() == [0, 0, 0, 0]
    assert graph.num_edges == 0
    assert graph.indices.dtype == np.int64
    assert graph.weights.dtype == np.float32


def test_non_integer_endpoints_are_rejected() -> None:
    with pytest.raises(GraphError, match="integers"):
        CSRGraph.from_edge_list(3, [(0.7, 1.2)])
    with pytest.raises(GraphError, match="integers"):
        CSRGraph.from_edge_list(3, np.array([[0.0, 1.0]]))


def test_malformed_empty_array_is_rejected() -> None:
    with pytest.raises(GraphError, match="pairs"):
        CSRGraph.from_edge_list(3, np.zeros((0, 3), dtype=np.int64))


@pytest.mark.parametrize(
    "edges",
    [np.array([[0, 1, 2]]), [(0, 1), (2,)], np.array([0, 1])],
    ids=["triples", "ragged", "flat"],
)
def test_non_pair_edges_are_rejected(edges) -> None:
    with pytest.raises(GraphError, match="pairs"):
        CSRGraph.from_edge_list(3, edges)


def test_out_of_range_endpoints_and_misaligned_weights_are_rejected() -> None:
    with pytest.raises(GraphError, match="num_vertices"):
        CSRGraph.from_edge_list(3, np.array([[0, 3]]))
    with pytest.raises(GraphError, match="num_vertices"):
        CSRGraph.from_edge_list(3, np.array([[-1, 0]]))
    with pytest.raises(GraphError, match="align"):
        CSRGraph.from_edge_list(3, np.array([[0, 1]]), weights=[1.0, 2.0])


def test_reorder_rejects_a_non_bijection() -> None:
    graph = CSRGraph.from_edge_list(3, np.array([[0, 1], [1, 2]]))
    with pytest.raises(GraphError, match="bijection"):
        graph.reorder(np.array([0, 0, 1]))
    reordered = graph.reorder(np.array([2, 1, 0]))
    assert reordered.indptr.tolist() == [0, 0, 1, 2]
    assert reordered.indices.tolist() == [0, 1]


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("add_loops", [True, False])
def test_gcn_normalize_matches_reference(seed: int, add_loops: bool) -> None:
    rng = np.random.default_rng(seed)
    num_vertices, edges, weights = random_edges(rng)
    if seed % 2:
        weights = np.abs(weights) + 0.25
    graph = CSRGraph.from_edge_list(num_vertices, edges, weights)
    assert_same_graph(
        gcn_normalize(graph, add_loops=add_loops),
        gcn_normalize_reference(graph, add_loops=add_loops),
    )


def test_gcn_normalize_without_loops_is_silent_on_isolated_vertices() -> None:
    graph = CSRGraph.from_edge_list(3, np.array([[0, 1]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        normalized = gcn_normalize(graph, add_loops=False)
    assert normalized.weights.tolist() == [1.0]


def dataset_chain(name: str, seed: int):
    """Base graph, its locality reordering and that reordering's transpose."""
    graph = load_dataset(name, max_vertices=256, seed=seed).graph
    reordered = _reordered_for_locality(graph)
    return graph, reordered, reordered.transpose()


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", available_datasets())
def test_dataset_graphs_match_reference_build(
    monkeypatch: pytest.MonkeyPatch, name: str, seed: int
) -> None:
    actual = dataset_chain(name, seed)
    monkeypatch.setattr(
        CSRGraph, "from_edge_list", staticmethod(from_edge_list_reference)
    )
    monkeypatch.setattr(datasets, "gcn_normalize", gcn_normalize_reference)
    expected = dataset_chain(name, seed)
    for got, want in zip(actual, expected):
        assert_same_graph(got, want)
