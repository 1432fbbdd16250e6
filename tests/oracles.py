"""Slow reference oracles the vectorized simulator is pinned against.

Each function here is the plain loop the corresponding fast path in
``src/`` replaced, kept as its executable specification:

* :class:`RowCache` — per-access ``OrderedDict`` LRU replay, the semantics
  :class:`repro.memory.replay.ReplayEngine` reproduces for whole traces;
* :class:`RowCacheEngine` — a drop-in for ``ReplayEngine`` that answers every
  replay call through :class:`RowCache`, so the golden test can run the whole
  pipeline on the oracles;
* :func:`footprint_reference` — the exact distinct-footprint of every access
  from a full walk of a ``ReplayEngine``'s mergesort tree, which the engine's
  footprint bounds must bracket;
* the loop trace builders and BFS reordering of
  :mod:`repro.accelerator.tiling`;
* the loop-over-slices twin of :func:`repro.gcn.sparsity.per_slice_nonzeros`;
* the ``np.add.at`` scatters :func:`repro.gcn.layers.aggregate` and
  :func:`repro.gcn.layers.aggregate_transpose` replaced with segment sums;
* the list round-trip and three sorts of
  :meth:`repro.graphs.graph.CSRGraph.from_edge_list`, and the ``np.add.at``
  degree sums of :func:`repro.graphs.normalize.gcn_normalize`.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from math import ceil
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.accelerator.tiling import TilingPlan
from repro.errors import ConfigurationError, GraphError, SimulationError
from repro.graphs.graph import CSRGraph
from repro.graphs.normalize import add_self_loops
from repro.memory.rowcache import RowCacheStats


# --------------------------------------------------------------------------- #
# Cache replay
# --------------------------------------------------------------------------- #
class RowCache:
    """Fully-associative LRU cache of variable-size feature rows.

    Args:
        capacity_lines: Capacity in cachelines.
    """

    def __init__(self, capacity_lines: int) -> None:
        if capacity_lines <= 0:
            raise ConfigurationError("cache capacity must be positive")
        self.capacity_lines = int(capacity_lines)
        self._entries: "OrderedDict[int, int]" = OrderedDict()
        self._used_lines = 0
        self.stats = RowCacheStats()

    @property
    def used_lines(self) -> int:
        """Number of cachelines currently occupied."""
        return self._used_lines

    def contains(self, row: int) -> bool:
        """Whether ``row`` is resident (no LRU update, no stats)."""
        return row in self._entries

    def access(self, row: int, size_lines: int) -> bool:
        """Access ``row`` occupying ``size_lines`` cachelines.

        Returns ``True`` on a hit.  On a miss the row is installed, evicting
        least-recently-used rows until it fits.  If a resident row is
        re-accessed with a larger size, only the difference is fetched (a
        miss); a re-access at or below the cached size is a hit.
        """
        size_lines = int(size_lines)
        self.stats.accesses += 1
        entries = self._entries
        if row in entries:
            cached_size = entries.pop(row)
            if size_lines <= cached_size:
                entries[row] = cached_size
                self.stats.hits += 1
                self.stats.hit_lines += size_lines
                return True
            self._used_lines -= cached_size
            self._install(row, size_lines)
            self.stats.misses += 1
            self.stats.miss_lines += size_lines - cached_size
            self.stats.hit_lines += cached_size
            return False

        self.stats.misses += 1
        self.stats.miss_lines += size_lines
        self._install(row, size_lines)
        return False

    def access_trace(self, rows: np.ndarray, sizes: np.ndarray) -> RowCacheStats:
        """Access a whole trace; ``sizes[row]`` gives each row's size in lines.

        Returns the cache's cumulative statistics (also ``.stats``).
        """
        access = self.access
        sizes_list = sizes.tolist()
        for row in rows.tolist():
            access(row, sizes_list[row])
        return self.stats

    def _install(self, row: int, size_lines: int) -> None:
        entries = self._entries
        if size_lines > self.capacity_lines:
            # A row larger than the whole cache streams through: nothing is
            # retained, so do not install it.
            return
        while self._used_lines + size_lines > self.capacity_lines and entries:
            _, evicted_size = entries.popitem(last=False)
            self._used_lines -= evicted_size
        entries[row] = size_lines
        self._used_lines += size_lines


def rowcache_replay(
    trace: np.ndarray,
    sizes: np.ndarray,
    capacity_lines: int,
    pinned: Optional[np.ndarray] = None,
) -> RowCacheStats:
    """Replay ``trace`` from an empty :class:`RowCache`.

    Accesses to ``pinned`` rows (a dedicated partition) always hit with their
    full size and never touch the shared cache.
    """
    cache = RowCache(capacity_lines)
    if pinned is None or not len(pinned):
        return cache.access_trace(np.asarray(trace), np.asarray(sizes))
    pinned_set = set(np.asarray(pinned).tolist())
    size_list = np.asarray(sizes).tolist()
    pinned_accesses = pinned_lines = 0
    for row in np.asarray(trace).tolist():
        size = size_list[row]
        if row in pinned_set:
            pinned_accesses += 1
            pinned_lines += size
        else:
            cache.access(row, size)
    stats = cache.stats
    stats.accesses += pinned_accesses
    stats.hits += pinned_accesses
    stats.hit_lines += pinned_lines
    return stats


class RowCacheEngine:
    """``ReplayEngine`` stand-in that replays every table through :class:`RowCache`.

    Same constructor and replay methods as
    :class:`repro.memory.replay.ReplayEngine`, no memo and no structure: each
    call is a fresh per-access loop per table and capacity.
    """

    def __init__(self, trace: np.ndarray) -> None:
        self.trace = np.ascontiguousarray(trace, dtype=np.int64)

    def replay(
        self, sizes: np.ndarray, capacity_lines: int, pinned: Optional[np.ndarray] = None
    ) -> RowCacheStats:
        return rowcache_replay(self.trace, sizes, capacity_lines, pinned)

    def replay_many(
        self,
        size_tables: Sequence[np.ndarray],
        capacity_lines: int,
        pinned: Optional[np.ndarray] = None,
    ) -> List[RowCacheStats]:
        return [self.replay(table, capacity_lines, pinned) for table in size_tables]

    def replay_spectrum(
        self,
        sizes: np.ndarray,
        capacities: Sequence[int],
        pinned: Optional[np.ndarray] = None,
    ) -> List[RowCacheStats]:
        return [self.replay(sizes, capacity, pinned) for capacity in capacities]

    def replay_spectrum_many(
        self,
        size_tables: Sequence[np.ndarray],
        capacities: Sequence[int],
        pinned: Optional[np.ndarray] = None,
    ) -> List[List[RowCacheStats]]:
        return [self.replay_spectrum(table, capacities, pinned) for table in size_tables]


def footprint_reference(engine, sizes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Exact distinct in-window footprint of every access of ``engine``'s trace.

    The interval sum of ``weights`` over each reuse window plus the access's
    own size, less the in-window duplicates summed over *every* query entry
    of the engine's flattened mergesort tree.  Entries of first occurrences
    are meaningless.
    """
    n = engine.trace.size
    cumulative = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(weights, out=cumulative[1:])
    footprint = cumulative[:-1] - cumulative[engine._prev_plus1]
    footprint += sizes
    if engine._gather.size:
        tree_cumulative = np.zeros(engine._gather.size + 1, dtype=np.int64)
        np.cumsum(weights[engine._gather], out=tree_cumulative[1:])
        contributions = tree_cumulative[engine._hi] - tree_cumulative[engine._lo]
        footprint[engine._query_rows] -= np.add.reduceat(
            contributions, engine._reduce_starts
        )
    return footprint


# --------------------------------------------------------------------------- #
# Schedule builders (repro.accelerator.tiling)
# --------------------------------------------------------------------------- #
def source_processing_order_reference(
    num_vertices: int,
    num_engines: int,
    mode: str = "contiguous",
    strip_height: int = 32,
) -> np.ndarray:
    """Loop-based reference of ``tiling.source_processing_order``."""
    if num_vertices <= 0:
        raise SimulationError("need at least one source vertex")
    if num_engines <= 0:
        raise SimulationError("need at least one engine")
    if mode not in ("contiguous", "sac"):
        raise SimulationError(f"unknown engine partitioning mode {mode!r}")

    if num_engines == 1:
        return np.arange(num_vertices, dtype=np.int64)

    if mode == "contiguous":
        block = ceil(num_vertices / num_engines)
        order = []
        for offset in range(block):
            for engine in range(num_engines):
                vertex = engine * block + offset
                if vertex < num_vertices:
                    order.append(vertex)
        return np.asarray(order, dtype=np.int64)

    if strip_height <= 0:
        raise SimulationError("strip height must be positive")
    num_strips = ceil(num_vertices / strip_height)
    order = []
    for group_start in range(0, num_strips, num_engines):
        group = list(range(group_start, min(group_start + num_engines, num_strips)))
        for offset in range(strip_height):
            for strip in group:
                vertex = strip * strip_height + offset
                if vertex < num_vertices:
                    order.append(vertex)
    return np.asarray(order, dtype=np.int64)


def aggregation_access_trace_reference(
    graph: CSRGraph,
    plan: TilingPlan,
    num_engines: int,
    engine_partition: str = "contiguous",
    strip_height: int = 32,
) -> np.ndarray:
    """Loop-based reference of ``tiling.aggregation_access_trace``."""
    num_vertices = graph.num_vertices
    indptr = graph.indptr
    indices = graph.indices

    source_tile = plan.source_tile_vertices or num_vertices
    dest_tile = plan.dest_tile_vertices or num_vertices

    trace_chunks: List[np.ndarray] = []
    for src_start in range(0, num_vertices, source_tile):
        src_stop = min(num_vertices, src_start + source_tile)
        local_order = source_processing_order_reference(
            num_vertices=src_stop - src_start,
            num_engines=num_engines,
            mode=engine_partition,
            strip_height=strip_height,
        )
        tile_sources = (local_order + src_start).tolist()
        for dst_start in range(0, num_vertices, dest_tile):
            dst_stop = min(num_vertices, dst_start + dest_tile)
            for src in tile_sources:
                start, stop = indptr[src], indptr[src + 1]
                if stop == start:
                    continue
                neighbors = indices[start:stop]
                if dest_tile >= num_vertices:
                    trace_chunks.append(neighbors)
                    continue
                # CSR neighbours are sorted, so the in-tile range is contiguous.
                lo = np.searchsorted(neighbors, dst_start, side="left")
                hi = np.searchsorted(neighbors, dst_stop, side="left")
                if hi > lo:
                    trace_chunks.append(neighbors[lo:hi])
    if not trace_chunks:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(trace_chunks).astype(np.int64)


def locality_reordering_reference(graph: CSRGraph) -> np.ndarray:
    """Loop-based (FIFO-queue BFS) reference of ``tiling.locality_reordering``."""
    undirected = graph.symmetrized()
    num_vertices = undirected.num_vertices
    visited = np.zeros(num_vertices, dtype=bool)
    new_ids = np.full(num_vertices, -1, dtype=np.int64)
    next_id = 0

    order_seed = np.argsort(-undirected.degrees, kind="stable")
    for seed in order_seed.tolist():
        if visited[seed]:
            continue
        queue = deque([seed])
        visited[seed] = True
        while queue:
            vertex = queue.popleft()
            new_ids[vertex] = next_id
            next_id += 1
            for neighbor in undirected.neighbors(vertex).tolist():
                if not visited[neighbor]:
                    visited[neighbor] = True
                    queue.append(neighbor)
    if next_id != num_vertices:
        raise SimulationError("reordering failed to cover every vertex")
    return new_ids


# --------------------------------------------------------------------------- #
# Sparsity tables (repro.gcn.sparsity)
# --------------------------------------------------------------------------- #
def per_slice_nonzeros_reference(matrix: np.ndarray, slice_size: int) -> np.ndarray:
    """Loop-over-slices reference of ``sparsity.per_slice_nonzeros``."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise SimulationError("feature matrix must be two-dimensional")
    if slice_size <= 0:
        raise SimulationError("slice size must be positive")
    rows, width = matrix.shape
    num_slices = (width + slice_size - 1) // slice_size
    counts = np.zeros((rows, num_slices), dtype=np.int64)
    for index in range(num_slices):
        start = index * slice_size
        stop = min(width, start + slice_size)
        counts[:, index] = np.count_nonzero(matrix[:, start:stop], axis=1)
    return counts


# --------------------------------------------------------------------------- #
# GCN aggregation (repro.gcn.layers)
# --------------------------------------------------------------------------- #
def aggregate_reference(
    graph: CSRGraph, features: np.ndarray, weighted: bool = True
) -> np.ndarray:
    """``A_hat @ X`` as an edge-by-edge ``np.add.at`` scatter."""
    features = np.asarray(features, dtype=np.float32)
    if features.ndim != 2 or features.shape[0] != graph.num_vertices:
        raise SimulationError(
            "features must be (num_vertices, width); got "
            f"{features.shape} for {graph.num_vertices} vertices"
        )
    sources = np.repeat(np.arange(graph.num_vertices, dtype=np.int64), graph.degrees)
    gathered = features[graph.indices]
    if weighted:
        gathered = gathered * graph.weights[:, None]
    out = np.zeros_like(features)
    np.add.at(out, sources, gathered)
    return out


def aggregate_transpose_reference(
    graph: CSRGraph, grad: np.ndarray, weighted: bool = True
) -> np.ndarray:
    """``A_hat^T @ grad`` as an edge-by-edge ``np.add.at`` scatter."""
    grad = np.asarray(grad, dtype=np.float32)
    if grad.ndim != 2 or grad.shape[0] != graph.num_vertices:
        raise SimulationError(
            "grad must be (num_vertices, width); got "
            f"{grad.shape} for {graph.num_vertices} vertices"
        )
    sources = np.repeat(np.arange(graph.num_vertices, dtype=np.int64), graph.degrees)
    scattered = grad[sources]
    if weighted:
        scattered = scattered * graph.weights[:, None]
    out = np.zeros_like(grad)
    np.add.at(out, graph.indices, scattered)
    return out


# --------------------------------------------------------------------------- #
# Graph construction (repro.graphs)
# --------------------------------------------------------------------------- #
def from_edge_list_reference(
    num_vertices: int,
    edges: Iterable[Tuple[int, int]],
    weights: Optional[Sequence[float]] = None,
    name: str = "graph",
    deduplicate: bool = True,
) -> CSRGraph:
    """List round-trip plus three sorts: the twin of ``CSRGraph.from_edge_list``.

    Deduplicates with ``np.unique`` (first occurrences), restores input
    order with ``np.sort`` and orders the survivors with ``np.lexsort``.
    """
    edge_array = np.asarray(list(edges), dtype=np.int64)
    if edge_array.size == 0:
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        return CSRGraph(indptr, np.zeros(0, dtype=np.int64), name=name)
    if edge_array.ndim != 2 or edge_array.shape[1] != 2:
        raise GraphError("edges must be (source, destination) pairs")
    if edge_array.min() < 0 or edge_array.max() >= num_vertices:
        raise GraphError("edge endpoints must lie in [0, num_vertices)")

    if weights is None:
        weight_array = np.ones(edge_array.shape[0], dtype=np.float32)
    else:
        weight_array = np.asarray(weights, dtype=np.float32)
        if weight_array.shape[0] != edge_array.shape[0]:
            raise GraphError("weights must align with edges")

    if deduplicate:
        keys = edge_array[:, 0] * num_vertices + edge_array[:, 1]
        _, unique_idx = np.unique(keys, return_index=True)
        unique_idx = np.sort(unique_idx)
        edge_array = edge_array[unique_idx]
        weight_array = weight_array[unique_idx]

    order = np.lexsort((edge_array[:, 1], edge_array[:, 0]))
    edge_array = edge_array[order]
    weight_array = weight_array[order]

    counts = np.bincount(edge_array[:, 0], minlength=num_vertices)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSRGraph(indptr, edge_array[:, 1], weight_array, name=name)


def gcn_normalize_reference(graph: CSRGraph, add_loops: bool = True) -> CSRGraph:
    """``D^{-1/2} (A + I) D^{-1/2}`` with ``np.add.at`` degree sums."""
    work = add_self_loops(graph) if add_loops else graph
    degrees = np.zeros(work.num_vertices, dtype=np.float64)
    sources = np.repeat(np.arange(work.num_vertices, dtype=np.int64), work.degrees)
    np.add.at(degrees, sources, work.weights)

    in_degrees = np.zeros(work.num_vertices, dtype=np.float64)
    np.add.at(in_degrees, work.indices, work.weights)

    with np.errstate(divide="ignore", invalid="ignore"):
        out_scale = np.where(degrees > 0, 1.0 / np.sqrt(degrees), 0.0)
        in_scale = np.where(in_degrees > 0, 1.0 / np.sqrt(in_degrees), 0.0)
    new_weights = (
        work.weights * out_scale[sources] * in_scale[work.indices]
    ).astype(np.float32)
    return work.with_weights(new_weights)
