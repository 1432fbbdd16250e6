"""Unit tests of the vectorized trace-replay engine (repro.memory.replay)."""

import numpy as np
import pytest

from oracles import rowcache_replay as reference_stats
from repro.errors import ConfigurationError
from repro.memory.replay import ReplayEngine, TraceCache, array_token, replay_trace
from repro.memory.rowcache import RowCacheStats


def stats_tuple(stats: RowCacheStats):
    return (stats.accesses, stats.hits, stats.misses, stats.hit_lines, stats.miss_lines)


class TestReplayEquivalence:
    def test_randomized_traces_match_rowcache(self):
        rng = np.random.default_rng(0)
        for trial in range(150):
            num_rows = int(rng.integers(1, 50))
            length = int(rng.integers(0, 500))
            trace = rng.integers(0, num_rows, size=length).astype(np.int64)
            sizes = rng.integers(1, 14, size=num_rows).astype(np.int64)
            if trial % 3 == 0:
                # A row larger than the whole cache streams through.
                sizes[int(rng.integers(0, num_rows))] = 10_000
            capacity = int(rng.integers(1, 80))
            got = replay_trace(trace, sizes, capacity)
            want = reference_stats(trace, sizes, capacity)
            assert stats_tuple(got) == stats_tuple(want)

    def test_empty_trace(self):
        stats = replay_trace(np.zeros(0, dtype=np.int64), np.asarray([4]), 16)
        assert stats_tuple(stats) == (0, 0, 0, 0, 0)

    def test_single_access_misses(self):
        stats = replay_trace(np.asarray([3]), np.asarray([1, 1, 1, 5]), 16)
        assert stats_tuple(stats) == (1, 0, 1, 0, 5)

    def test_all_hits_when_everything_fits(self):
        trace = np.asarray([0, 1, 2, 0, 1, 2], dtype=np.int64)
        sizes = np.asarray([2, 2, 2], dtype=np.int64)
        stats = replay_trace(trace, sizes, 64)
        assert stats.hits == 3
        assert stats.hit_lines == 6
        assert stats.miss_lines == 6

    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            replay_trace(np.asarray([0]), np.asarray([1]), 0)

    def test_zero_capacity_equivalent_thrashing(self):
        # Working set exceeds the cache: every access misses, like RowCache.
        trace = np.tile(np.arange(8, dtype=np.int64), 10)
        sizes = np.full(8, 4, dtype=np.int64)
        got = replay_trace(trace, sizes, 8)
        want = reference_stats(trace, sizes, 8)
        assert stats_tuple(got) == stats_tuple(want)
        assert got.hits == 0


class TestReplayManyAndMemo:
    def test_replay_many_matches_individual_replays(self):
        rng = np.random.default_rng(1)
        trace = rng.integers(0, 64, size=800).astype(np.int64)
        engine = ReplayEngine(trace)
        tables = [rng.integers(1, 9, size=64).astype(np.int64) for _ in range(4)]
        batched = engine.replay_many(tables, 100)
        for table, got in zip(tables, batched):
            assert stats_tuple(got) == stats_tuple(
                reference_stats(trace, table, 100)
            )

    def test_memo_hits_for_repeated_tables(self):
        rng = np.random.default_rng(2)
        trace = rng.integers(0, 32, size=400).astype(np.int64)
        engine = ReplayEngine(trace)
        table = rng.integers(1, 6, size=32).astype(np.int64)
        first = engine.replay(table, 50)
        again = engine.replay(table.copy(), 50)
        assert engine.memo_hits == 1
        assert stats_tuple(first) == stats_tuple(again)
        # A different capacity is a different memo entry.
        engine.replay(table, 51)
        assert engine.memo_hits == 1

    def test_pinned_rows_always_hit(self):
        rng = np.random.default_rng(3)
        trace = rng.integers(0, 40, size=1000).astype(np.int64)
        sizes = rng.integers(1, 8, size=40).astype(np.int64)
        pinned = np.asarray([1, 5, 17], dtype=np.int64)
        capacity = 30
        engine = ReplayEngine(trace)
        got = engine.replay(sizes, capacity, pinned=pinned)
        want = reference_stats(trace, sizes, capacity, pinned)
        assert stats_tuple(got) == stats_tuple(want)


class TestDeepTreeEquivalence:
    """Traces of 5k-33k accesses: 13- to 16-level trees, as at full scale.

    Skewed reuse over a few thousand rows (hot rows plus a long cold tail,
    like tiled aggregation traces), with and without a pinned partition,
    against the ``RowCache`` reference through every batched entry point.
    """

    CASES = [(5_000, 0, False), (12_000, 1, True), (20_000, 2, False), (33_000, 3, True)]

    @staticmethod
    def _workload(length, seed, pinned):
        rng = np.random.default_rng(1000 + seed)
        num_rows = 2048
        trace = (rng.zipf(1.25, size=length) % num_rows).astype(np.int64)
        tables = [rng.integers(1, 12, size=num_rows).astype(np.int64) for _ in range(2)]
        # One row larger than the smallest capacity streams through there.
        tables[1][int(trace[length // 2])] = 300
        pins = np.unique(trace[:40]) if pinned else np.zeros(0, dtype=np.int64)
        return trace, tables, pins

    @staticmethod
    def _reference(trace, table, capacity, pins):
        return stats_tuple(reference_stats(trace, table, capacity, pins))

    @pytest.mark.parametrize("length,seed,pinned", CASES)
    def test_replay_many_matches_rowcache(self, length, seed, pinned):
        trace, tables, pins = self._workload(length, seed, pinned)
        capacity = 250
        got = ReplayEngine(trace).replay_many(tables, capacity, pinned=pins)
        for table, stats in zip(tables, got):
            assert stats_tuple(stats) == self._reference(trace, table, capacity, pins)

    @pytest.mark.parametrize("length,seed,pinned", CASES)
    def test_replay_spectrum_matches_rowcache(self, length, seed, pinned):
        trace, tables, pins = self._workload(length, seed, pinned)
        capacities = [120, 700, 4000]
        engine = ReplayEngine(trace)
        spectrum = engine.replay_spectrum(tables[1], capacities, pinned=pins)
        for capacity, stats in zip(capacities, spectrum):
            assert stats_tuple(stats) == self._reference(trace, tables[1], capacity, pins)
        batch = engine.replay_spectrum_many(tables, capacities[:1], pinned=pins)
        assert stats_tuple(batch[0][0]) == self._reference(trace, tables[0], 120, pins)


class TestTraceCache:
    def test_get_builds_once_and_counts(self):
        cache = TraceCache(max_entries=4)
        calls = []
        value = cache.get("k", lambda: calls.append(1) or "v")
        assert value == "v" and cache.misses == 1
        assert cache.get("k", lambda: calls.append(1) or "other") == "v"
        assert cache.hits == 1
        assert len(calls) == 1

    def test_lru_eviction(self):
        cache = TraceCache(max_entries=2)
        cache.get("a", lambda: 1)
        cache.get("b", lambda: 2)
        cache.get("a", lambda: 0)  # refresh a
        cache.get("c", lambda: 3)  # evicts b
        assert "a" in cache and "c" in cache and "b" not in cache

    def test_clear_keeps_counters(self):
        cache = TraceCache()
        cache.get("a", lambda: 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.misses == 1

    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            TraceCache(max_entries=0)

    def test_array_token_distinguishes_contents(self):
        a = np.asarray([1, 2, 3], dtype=np.int64)
        assert array_token(a) == array_token(a.copy())
        assert array_token(a) != array_token(a.astype(np.int32))
        assert array_token(a) != array_token(a[::-1])
