"""GCN aggregation: the degree-ordered segment sum pinned to its scatter oracle.

:func:`repro.gcn.layers.aggregate` (``A_hat @ X``) and
:func:`repro.gcn.layers.aggregate_transpose` (``A_hat^T @ G``) sum over the
graph's memoized :class:`repro.graphs.segment.SegmentPlan`.  They must be
bit-identical to the ``np.add.at`` scatters in ``oracles.py``: every byte of
every measured-sparsity result depends on the float32 rounding sequence.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles import aggregate_reference, aggregate_transpose_reference
from repro.errors import SimulationError
from repro.gcn import layers
from repro.gcn.layers import (
    GCNLayer,
    GINConvLayer,
    SAGELayer,
    aggregate,
    aggregate_transpose,
)
from repro.graphs.datasets import load_dataset
from repro.graphs.graph import CSRGraph

PAIRS = [
    (aggregate, aggregate_reference),
    (aggregate_transpose, aggregate_transpose_reference),
]


def assert_bitwise_equal(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype == np.float32
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def assert_matches_oracle(graph: CSRGraph, values: np.ndarray) -> None:
    for weighted in (True, False):
        for fast, oracle in PAIRS:
            assert_bitwise_equal(
                fast(graph, values, weighted=weighted),
                oracle(graph, values, weighted=weighted),
            )


def random_graph(rng: np.random.Generator) -> CSRGraph:
    """Random multigraph: empty rows, repeated edges and signed-zero weights."""
    num_vertices = int(rng.integers(1, 40))
    degrees = rng.integers(0, 9, size=num_vertices)
    degrees[rng.random(num_vertices) < 0.3] = 0
    indptr = np.concatenate([[0], np.cumsum(degrees)])
    indices = rng.integers(0, num_vertices, size=int(indptr[-1]))
    weights = rng.standard_normal(indices.size).astype(np.float32)
    weights[rng.random(indices.size) < 0.1] = -0.0
    return CSRGraph(indptr, indices, weights)


def random_values(rng: np.random.Generator, num_vertices: int) -> np.ndarray:
    width = int(rng.integers(1, 9))
    values = (rng.standard_normal((num_vertices, width)) * 10.0 ** rng.integers(-3, 4))
    values = values.astype(np.float32)
    values[rng.random(values.shape) < 0.2] = -0.0
    values[rng.random(values.shape) < 0.2] = 0.0
    return values


@pytest.mark.parametrize("seed", range(8))
def test_random_graphs_bitwise_equal_to_scatter(seed):
    rng = np.random.default_rng(seed)
    for _ in range(40):
        graph = random_graph(rng)
        assert_matches_oracle(graph, random_values(rng, graph.num_vertices))


def test_graph_without_edges():
    graph = CSRGraph(np.zeros(6, dtype=np.int64), np.zeros(0, dtype=np.int64))
    values = np.random.default_rng(1).standard_normal((5, 3)).astype(np.float32)
    assert_matches_oracle(graph, values)
    assert not aggregate(graph, values).any()


def test_isolated_and_zero_in_degree_vertices():
    # 0 -> {1, 1, 2}; 3 isolated; 4 -> {0}; vertices 3 and 4 have no in-edges.
    graph = CSRGraph(
        np.array([0, 3, 3, 3, 3, 4]),
        np.array([1, 1, 2, 0]),
        np.array([0.5, -2.0, 3.0, 1.5], dtype=np.float32),
    )
    values = np.random.default_rng(2).standard_normal((5, 4)).astype(np.float32)
    assert_matches_oracle(graph, values)
    assert not aggregate_transpose(graph, values)[[3, 4]].any()


@pytest.mark.parametrize("num_vertices", [2, 33, 200])
def test_star_graphs(num_vertices):
    rng = np.random.default_rng(num_vertices)
    leaves = np.arange(1, num_vertices)
    out_star = CSRGraph(
        np.concatenate([[0], np.full(num_vertices, num_vertices - 1)]),
        leaves,
        rng.standard_normal(leaves.size).astype(np.float32),
    )
    in_star = CSRGraph(
        np.concatenate([[0, 0], np.arange(1, num_vertices)]),
        np.zeros(num_vertices - 1, dtype=np.int64),
        rng.standard_normal(leaves.size).astype(np.float32),
    )
    values = rng.standard_normal((num_vertices, 3)).astype(np.float32)
    assert_matches_oracle(out_star, values)
    assert_matches_oracle(in_star, values)


def test_width_one_and_negative_zeros():
    rng = np.random.default_rng(4)
    graph = random_graph(rng)
    assert_matches_oracle(graph, rng.standard_normal((graph.num_vertices, 1)).astype(np.float32))
    # Summing only -0.0 addends must still give the scatter's +0.0.
    negative_zeros = np.full((graph.num_vertices, 2), -0.0, dtype=np.float32)
    assert_matches_oracle(graph, negative_zeros)


@pytest.mark.parametrize("name", ["cora", "pubmed", "reddit"])
def test_normalized_datasets_bitwise_equal_to_scatter(name):
    graph = load_dataset(name, max_vertices=256).graph
    values = np.random.default_rng(5).standard_normal((graph.num_vertices, 16))
    assert_matches_oracle(graph, values.astype(np.float32))


def test_plan_is_memoized_and_weights_read_live():
    rng = np.random.default_rng(6)
    graph = random_graph(rng)
    while graph.num_edges == 0:
        graph = random_graph(rng)
    assert graph.segment_plan() is graph.segment_plan()
    assert graph.segment_plan(transpose=True) is graph.segment_plan(transpose=True)
    values = random_values(rng, graph.num_vertices)
    aggregate(graph, values)
    graph.weights = (graph.weights * 3.0).astype(np.float32)
    assert_matches_oracle(graph, values)


class TestValidation:
    GRAPH = CSRGraph(np.array([0, 1, 2]), np.array([1, 0]))

    @pytest.mark.parametrize("rows", [1, 5])
    @pytest.mark.parametrize("function", [aggregate, aggregate_transpose])
    def test_wrong_row_count_raises(self, function, rows):
        with pytest.raises(SimulationError, match="num_vertices"):
            function(self.GRAPH, np.ones((rows, 3), dtype=np.float32))

    @pytest.mark.parametrize("function", [aggregate, aggregate_transpose])
    def test_one_dimensional_input_raises(self, function):
        with pytest.raises(SimulationError, match="num_vertices"):
            function(self.GRAPH, np.ones(2, dtype=np.float32))


def layer_pass(layer_type, graph: CSRGraph, x: np.ndarray, grad_out: np.ndarray):
    layer = layer_type(x.shape[1], grad_out.shape[1], seed=3)
    out = layer.forward(graph, x)
    grad_in = layer.backward(graph, grad_out)
    parameters = [
        value for value in vars(layer).values() if isinstance(value, layers._Linear)
    ]
    grads = [g for linear in parameters for g in (linear.grad_weight, linear.grad_bias)]
    return [out, grad_in, *grads]


@pytest.mark.parametrize("layer_type", [GCNLayer, GINConvLayer, SAGELayer])
def test_layer_forward_backward_matches_scatter_oracle(layer_type, monkeypatch):
    rng = np.random.default_rng(7)
    graph = load_dataset("citeseer", max_vertices=128).graph
    x = rng.standard_normal((graph.num_vertices, 12)).astype(np.float32)
    grad_out = rng.standard_normal((graph.num_vertices, 6)).astype(np.float32)
    fast = layer_pass(layer_type, graph, x, grad_out)
    monkeypatch.setattr(layers, "aggregate", aggregate_reference)
    monkeypatch.setattr(layers, "aggregate_transpose", aggregate_transpose_reference)
    oracle = layer_pass(layer_type, graph, x, grad_out)
    assert len(fast) == len(oracle) >= 4
    for actual, expected in zip(fast, oracle):
        assert_bitwise_equal(actual, expected)
