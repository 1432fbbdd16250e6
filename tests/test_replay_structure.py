"""The sort-free replay-structure build against its sort-based oracle.

:meth:`ReplayEngine._build_structure` derives the flattened mergesort tree
(``_gather``, ``_reduce_starts``, ``_query_rows``, ``_lo``, ``_hi``) and the
per-access window distinct counts (``_distinct``) with scatters and prefix
counts only.  :func:`reference_structure` below is the original construction
— one composite-key ``argsort`` over a dense ``levels x n`` side matrix, a
``searchsorted`` per query and an ``argsort`` grouping — kept here as the
slow oracle, with the distinct counts taken from its ``searchsorted`` bounds.
Every array must match it exactly, dtype included.
"""

from typing import Dict

import numpy as np
import pytest

from repro.memory.replay import (
    _INDEX_DTYPE,
    ReplayEngine,
    _previous_occurrences,
)

STRUCTURE_ARRAYS = ("_gather", "_reduce_starts", "_query_rows", "_lo", "_hi", "_distinct")


def reference_structure(n: int, prev: np.ndarray) -> Dict[str, np.ndarray]:
    """Sort-based mergesort-tree build (the oracle for the engine's build)."""
    # Distinct rows in the window [p, i]: its i - p + 1 positions, less the
    # in-window duplicates (each query entry's hi - lo), less the second r.
    distinct = np.zeros(n, dtype=_INDEX_DTYPE)
    seen = prev >= 0
    distinct[seen] = np.flatnonzero(seen) - prev[seen]
    if n < 2 or not np.any(seen):
        arrays = {name: np.zeros(0, dtype=_INDEX_DTYPE) for name in STRUCTURE_ARRAYS}
        arrays["_distinct"] = distinct
        return arrays

    # Position j is a contributor at level l (half-width 2**(l-1)) iff bit
    # l-1 of j is 0, a query iff it is 1; (level, block) pairs are numbered
    # like heap nodes so the whole tree flattens into one sort.
    num_levels = max(1, int(np.ceil(np.log2(n))))
    levels = np.arange(1, num_levels + 1, dtype=np.int64)
    positions = np.arange(n, dtype=np.int64)
    side = (positions[None, :] >> (levels[:, None] - 1)) & 1
    level_of, pos_of = np.nonzero((side == 0) & seen[None, :])
    level_of += 1
    node_of = (np.int64(1) << (num_levels - level_of)) + (pos_of >> level_of)

    q_level, q_pos = np.nonzero((side == 1) & seen[None, :])
    q_level += 1
    q_node = (np.int64(1) << (num_levels - q_level)) + (q_pos >> q_level)
    node_space = (np.int64(1) << num_levels) + 1

    stride = np.int64(n) + 2
    key = node_of * stride + (prev[pos_of] + 1)
    order = np.argsort(key, kind="stable")
    gather = pos_of[order]
    sorted_key = key[order]
    node_sorted = node_of[order]

    node_max_prev = np.full(node_space, -2, dtype=np.int64)
    node_max_prev[node_sorted] = prev[gather]
    live = prev[q_pos] < node_max_prev[q_node]
    q_pos, q_node = q_pos[live], q_node[live]

    lo = np.searchsorted(sorted_key, q_node * stride + (prev[q_pos] + 1), side="right")
    max_node = int(node_sorted[-1]) if node_sorted.size else 0
    segment_ends = np.cumsum(np.bincount(node_sorted, minlength=max_node + 2))
    hi = segment_ends[np.minimum(q_node, max_node + 1)]

    np.subtract.at(distinct, q_pos, hi - lo)
    grouping = np.argsort(q_pos, kind="stable")
    grouped = q_pos[grouping]
    is_start = np.ones(grouped.size, dtype=bool)
    if grouped.size:
        is_start[1:] = grouped[1:] != grouped[:-1]
    return {
        "_gather": gather.astype(_INDEX_DTYPE),
        "_reduce_starts": np.flatnonzero(is_start).astype(_INDEX_DTYPE),
        "_query_rows": grouped[is_start].astype(_INDEX_DTYPE),
        "_lo": lo[grouping].astype(_INDEX_DTYPE),
        "_hi": hi[grouping].astype(_INDEX_DTYPE),
        "_distinct": distinct,
    }


def assert_matches_oracle(trace: np.ndarray) -> ReplayEngine:
    engine = ReplayEngine(trace)
    want = reference_structure(trace.size, _previous_occurrences(trace))
    for name in STRUCTURE_ARRAYS:
        got = getattr(engine, name)
        assert got.dtype == want[name].dtype, name
        np.testing.assert_array_equal(got, want[name], err_msg=name)
    return engine


def stats_tuple(stats):
    return (stats.accesses, stats.hits, stats.misses, stats.hit_lines, stats.miss_lines)


def _lengths():
    lengths = {0, 1, 2}
    for k in range(1, 15):
        lengths.update({2**k - 1, 2**k, 2**k + 1})
    return sorted(lengths)


class TestStructureMatchesOracle:
    @pytest.mark.parametrize("length", _lengths())
    def test_random_traces_at_power_of_two_boundaries(self, length):
        rng = np.random.default_rng(length)
        for num_rows in (1, 3, max(1, length // 4), max(1, length)):
            trace = rng.integers(0, num_rows, size=length).astype(np.int64)
            assert_matches_oracle(trace)

    @pytest.mark.parametrize("length", [0, 1, 2, 7, 64, 1000, 4097])
    def test_all_distinct_traces(self, length):
        rng = np.random.default_rng(100 + length)
        engine = assert_matches_oracle(rng.permutation(length).astype(np.int64))
        assert engine._gather.size == 0

    @pytest.mark.parametrize("length", [1, 2, 3, 31, 32, 33, 5000])
    def test_single_row_traces(self, length):
        assert_matches_oracle(np.full(length, 7, dtype=np.int64))

    def test_skewed_locality_traces(self):
        # Zipf-like reuse (a few hot rows, a long cold tail) and strided
        # sweeps, the shapes tiled aggregation traces actually take.
        rng = np.random.default_rng(202)
        for _ in range(20):
            length = int(rng.integers(1, 20_000))
            hot = rng.zipf(1.3, size=length) % 5000
            assert_matches_oracle(hot.astype(np.int64))
        sweep = np.tile(np.arange(600, dtype=np.int64), 17)
        assert_matches_oracle(sweep)


class TestPreviousOccurrences:
    @pytest.mark.parametrize("top", [5, 2**16 - 1, 2**16, 2**40])
    def test_matches_a_loop_on_either_side_of_the_radix_path(self, top):
        rng = np.random.default_rng(top % 1000)
        rows = rng.integers(0, 50, size=3000)
        values = np.linspace(0, top, 50).astype(np.int64)
        trace = values[rows]
        last, want = {}, []
        for index, row in enumerate(trace.tolist()):
            want.append(last.get(row, -1))
            last[row] = index
        np.testing.assert_array_equal(_previous_occurrences(trace), want)


class TestPinnedReplayOnFullTrace:
    """One full-trace engine serves every pinned set exactly."""

    def test_matches_engine_over_filtered_trace(self):
        rng = np.random.default_rng(201)
        for _ in range(60):
            length = int(rng.integers(0, 3000))
            num_rows = int(rng.integers(1, 300))
            trace = rng.integers(0, num_rows, size=length).astype(np.int64)
            pinned = rng.choice(num_rows, size=int(rng.integers(0, num_rows + 1)), replace=False)
            sizes = rng.integers(1, 12, size=num_rows).astype(np.int64)
            capacity = int(rng.integers(1, 120))
            in_partition = np.isin(trace, pinned)
            filtered = ReplayEngine(trace[~in_partition]).replay(sizes, capacity)
            pinned_accesses = int(in_partition.sum())
            want = (
                trace.size,
                filtered.hits + pinned_accesses,
                filtered.misses,
                filtered.hit_lines + int(sizes[trace[in_partition]].sum()),
                filtered.miss_lines,
            )
            got = ReplayEngine(trace).replay(sizes, capacity, pinned=pinned)
            assert stats_tuple(got) == want

    def test_pinned_set_removing_every_access(self):
        rng = np.random.default_rng(200)
        trace = rng.integers(0, 12, size=3000).astype(np.int64)
        sizes = rng.integers(1, 6, size=12).astype(np.int64)
        engine = assert_matches_oracle(trace)
        everything = np.arange(12, dtype=np.int64)
        want = (trace.size, trace.size, 0, int(sizes[trace].sum()), 0)
        assert stats_tuple(engine.replay(sizes, 5, pinned=everything)) == want
        for got in engine.replay_spectrum(sizes, [1, 5, 500], pinned=everything):
            assert stats_tuple(got) == want

    def test_memo_keeps_pinned_sets_apart(self):
        rng = np.random.default_rng(203)
        trace = rng.integers(0, 30, size=900).astype(np.int64)
        sizes = rng.integers(1, 6, size=30).astype(np.int64)
        engine = ReplayEngine(trace)
        unpinned = engine.replay(sizes, 40)
        pinned = engine.replay(sizes, 40, pinned=np.asarray([0, 1, 2], dtype=np.int64))
        assert engine.memo_stats()["misses"] == 2
        assert stats_tuple(unpinned) != stats_tuple(pinned)
        # An empty pinned set is the unpinned replay, memo entry included.
        again = engine.replay(sizes, 40, pinned=np.zeros(0, dtype=np.int64))
        assert engine.memo_hits == 1
        assert stats_tuple(again) == stats_tuple(unpinned)


class TestStructureBytes:
    @pytest.mark.parametrize("length", [0, 1, 700])
    def test_counts_every_array_the_engine_keeps(self, length):
        rng = np.random.default_rng(300)
        engine = ReplayEngine(rng.integers(0, 20, size=length).astype(np.int64))
        arrays = [value for value in vars(engine).values() if isinstance(value, np.ndarray)]
        assert engine.structure_bytes() == sum(array.nbytes for array in arrays)
        assert not hasattr(engine, "prev")
        # The bounds pass keeps one int32 per access and nothing else: the
        # window distinct counts replaced the repeat-access mask.
        assert not hasattr(engine, "_seen_before")
        assert engine._distinct.dtype == np.int32 and engine._distinct.size == length
