"""Graph convolution layers implemented with numpy.

Three aggregation variants are provided, matching the paper's evaluation:

* :class:`GCNLayer` — the vanilla GCN of Kipf & Welling: aggregation uses the
  normalised adjacency's edge weights.
* :class:`GINConvLayer` — GIN convolution: unweighted sum aggregation of
  neighbours plus ``(1 + eps)`` times the self feature, followed by an MLP
  (paper Fig. 16a).
* :class:`SAGELayer` — GraphSAGE mean aggregation with separate self and
  neighbour transforms and optional neighbour sampling (paper Fig. 16b).

Every layer supports forward *and* backward passes so the small-graph trainer
(:mod:`repro.gcn.training`) can produce genuinely-trained sparse features on
tiny datasets, which tests and examples use to validate the sparsity claims.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.errors import SimulationError
from repro.gcn.activations import relu, relu_grad
from repro.graphs.graph import CSRGraph


def _check_rows(graph: CSRGraph, matrix: np.ndarray, name: str) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=np.float32)
    if matrix.ndim != 2 or matrix.shape[0] != graph.num_vertices:
        raise SimulationError(
            f"{name} must be (num_vertices, width); got "
            f"{matrix.shape} for {graph.num_vertices} vertices"
        )
    return matrix


def aggregate(graph: CSRGraph, features: np.ndarray, weighted: bool = True) -> np.ndarray:
    """Compute the aggregation phase ``A_hat @ X`` for all vertices.

    For every source vertex ``v`` the result row is the weighted sum of the
    feature rows of its neighbours — exactly what the accelerator's
    aggregation engines compute one edge at a time.  The sum runs over the
    graph's memoized :class:`~repro.graphs.segment.SegmentPlan`, adding each
    row's neighbours in CSR order (bit-identical to an edge-by-edge
    scatter-add).

    Args:
        graph: Topology; ``graph.weights`` holds the normalised adjacency
            values.
        features: ``(num_vertices, width)`` feature matrix ``X``.
        weighted: Use the edge weights (GCN); ``False`` performs an
            unweighted sum (GINConv).
    """
    features = _check_rows(graph, features, "features")
    weights = graph.weights if weighted else None
    return graph.segment_plan().sum(features, weights)


def aggregate_transpose(
    graph: CSRGraph, grad: np.ndarray, weighted: bool = True
) -> np.ndarray:
    """Backward pass of :func:`aggregate`: compute ``A_hat^T @ grad``.

    Every destination adds its sources' gradient rows in edge order.
    """
    grad = _check_rows(graph, grad, "grad")
    weights = graph.weights if weighted else None
    return graph.segment_plan(transpose=True).sum(grad, weights)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(np.float32)


class _Linear:
    """Minimal dense layer with gradient accumulation (internal helper)."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        self.weight = _glorot(rng, in_features, out_features)
        self.bias = np.zeros(out_features, dtype=np.float32)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._input: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._input = x
        return x @ self.weight + self.bias

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise SimulationError("backward called before forward")
        self.grad_weight += self._input.T @ grad_out
        self.grad_bias += grad_out.sum(axis=0)
        return grad_out @ self.weight.T

    def step(self, lr: float) -> None:
        self.weight -= lr * self.grad_weight
        self.bias -= lr * self.grad_bias
        self.zero_grad()

    def zero_grad(self) -> None:
        self.grad_weight.fill(0.0)
        self.grad_bias.fill(0.0)


class GraphLayer:
    """Common interface of all graph convolution layers."""

    in_features: int
    out_features: int

    def forward(self, graph: CSRGraph, x: np.ndarray) -> np.ndarray:
        """Compute the layer output (pre-activation)."""
        raise NotImplementedError

    def backward(self, graph: CSRGraph, grad_out: np.ndarray) -> np.ndarray:
        """Backpropagate ``grad_out`` and accumulate parameter gradients."""
        raise NotImplementedError

    def step(self, lr: float) -> None:
        """Apply accumulated gradients with learning rate ``lr``."""
        raise NotImplementedError

    def zero_grad(self) -> None:
        """Clear accumulated gradients."""
        raise NotImplementedError

    def parameter_count(self) -> int:
        """Total number of trainable scalars."""
        raise NotImplementedError


class GCNLayer(GraphLayer):
    """Vanilla GCN convolution: ``Z = A_hat @ X @ W + b``.

    The aggregation-first ordering matches SGCN's execution order (Table I):
    aggregation over the compressed features happens before the combination
    GeMM on the systolic array.
    """

    def __init__(self, in_features: int, out_features: int, seed: int = 0):
        if in_features <= 0 or out_features <= 0:
            raise SimulationError("layer dimensions must be positive")
        rng = np.random.default_rng(seed)
        self.in_features = in_features
        self.out_features = out_features
        self.linear = _Linear(in_features, out_features, rng)
        self._aggregated: Optional[np.ndarray] = None

    def forward(self, graph: CSRGraph, x: np.ndarray) -> np.ndarray:
        self._aggregated = aggregate(graph, x, weighted=True)
        return self.linear.forward(self._aggregated)

    def backward(self, graph: CSRGraph, grad_out: np.ndarray) -> np.ndarray:
        grad_agg = self.linear.backward(grad_out)
        return aggregate_transpose(graph, grad_agg, weighted=True)

    def step(self, lr: float) -> None:
        self.linear.step(lr)

    def zero_grad(self) -> None:
        self.linear.zero_grad()

    def parameter_count(self) -> int:
        return self.linear.weight.size + self.linear.bias.size


class GINConvLayer(GraphLayer):
    """GIN convolution: ``Z = MLP((1 + eps) * X + sum_{u in N(v)} X_u)``.

    The aggregation is unweighted (no edge weights are streamed), which is
    why the GINConv experiment in the paper (Fig. 16a) sees a slightly larger
    share of the aggregation traffic going to the feature matrix.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        hidden_features: Optional[int] = None,
        eps: float = 0.0,
        seed: int = 0,
    ):
        if in_features <= 0 or out_features <= 0:
            raise SimulationError("layer dimensions must be positive")
        rng = np.random.default_rng(seed)
        hidden = hidden_features or out_features
        self.in_features = in_features
        self.out_features = out_features
        self.eps = float(eps)
        self.mlp1 = _Linear(in_features, hidden, rng)
        self.mlp2 = _Linear(hidden, out_features, rng)
        self._hidden_pre: Optional[np.ndarray] = None

    def forward(self, graph: CSRGraph, x: np.ndarray) -> np.ndarray:
        self._input = x
        summed = aggregate(graph, x, weighted=False)
        combined = (1.0 + self.eps) * x + summed
        self._hidden_pre = self.mlp1.forward(combined)
        return self.mlp2.forward(relu(self._hidden_pre))

    def backward(self, graph: CSRGraph, grad_out: np.ndarray) -> np.ndarray:
        if self._hidden_pre is None:
            raise SimulationError("backward called before forward")
        grad_hidden = self.mlp2.backward(grad_out) * relu_grad(self._hidden_pre)
        grad_combined = self.mlp1.backward(grad_hidden)
        grad_self = (1.0 + self.eps) * grad_combined
        grad_neighbors = aggregate_transpose(graph, grad_combined, weighted=False)
        return grad_self + grad_neighbors

    def step(self, lr: float) -> None:
        self.mlp1.step(lr)
        self.mlp2.step(lr)

    def zero_grad(self) -> None:
        self.mlp1.zero_grad()
        self.mlp2.zero_grad()

    def parameter_count(self) -> int:
        return (
            self.mlp1.weight.size
            + self.mlp1.bias.size
            + self.mlp2.weight.size
            + self.mlp2.bias.size
        )


class SAGELayer(GraphLayer):
    """GraphSAGE convolution with mean aggregation.

    ``Z = X @ W_self + mean_{u in N(v)}(X_u) @ W_neigh + b``.  The accelerator
    experiments additionally model GraphSAGE's edge sampling, which reduces
    the effective edge count of the aggregation phase (paper Fig. 16b); the
    functional layer here uses the full neighbourhood for exactness but the
    :class:`repro.core.api.LayerWorkload` derived from it applies the sampling
    ratio.
    """

    #: Fraction of edges kept by GraphSAGE's neighbour sampling in the
    #: accelerator workload model (typical fan-out 25 on graphs whose average
    #: degree exceeds it; on the paper's graphs this removes roughly half the
    #: edges of the denser datasets).
    DEFAULT_SAMPLING_FRACTION = 0.5

    def __init__(self, in_features: int, out_features: int, seed: int = 0):
        if in_features <= 0 or out_features <= 0:
            raise SimulationError("layer dimensions must be positive")
        rng = np.random.default_rng(seed)
        self.in_features = in_features
        self.out_features = out_features
        self.linear_self = _Linear(in_features, out_features, rng)
        self.linear_neigh = _Linear(in_features, out_features, rng)
        self._degrees: Optional[np.ndarray] = None

    def forward(self, graph: CSRGraph, x: np.ndarray) -> np.ndarray:
        summed = aggregate(graph, x, weighted=False)
        degrees = np.maximum(graph.degrees, 1).astype(np.float32)[:, None]
        self._degrees = degrees
        mean = summed / degrees
        return self.linear_self.forward(x) + self.linear_neigh.forward(mean)

    def backward(self, graph: CSRGraph, grad_out: np.ndarray) -> np.ndarray:
        if self._degrees is None:
            raise SimulationError("backward called before forward")
        grad_self = self.linear_self.backward(grad_out)
        grad_mean = self.linear_neigh.backward(grad_out) / self._degrees
        grad_neighbors = aggregate_transpose(graph, grad_mean, weighted=False)
        return grad_self + grad_neighbors

    def step(self, lr: float) -> None:
        self.linear_self.step(lr)
        self.linear_neigh.step(lr)

    def zero_grad(self) -> None:
        self.linear_self.zero_grad()
        self.linear_neigh.zero_grad()

    def parameter_count(self) -> int:
        return (
            self.linear_self.weight.size
            + self.linear_self.bias.size
            + self.linear_neigh.weight.size
            + self.linear_neigh.bias.size
        )


#: Mapping from convolution name to layer class, used by the model factory.
CONV_TYPES: Dict[str, type] = {
    "gcn": GCNLayer,
    "gin": GINConvLayer,
    "sage": SAGELayer,
}


def make_layer(conv: str, in_features: int, out_features: int, seed: int = 0) -> GraphLayer:
    """Instantiate a convolution layer by name (``"gcn"``, ``"gin"``, ``"sage"``)."""
    key = conv.lower()
    if key not in CONV_TYPES:
        raise SimulationError(
            f"unknown convolution {conv!r}; available: {sorted(CONV_TYPES)}"
        )
    return CONV_TYPES[key](in_features, out_features, seed=seed)
