"""The replay engine's footprint bounds against the full-tree oracle.

:class:`ReplayEngine` decides most repeat accesses from a lower and an upper
bound of their distinct in-window footprint, built from one trace-only
distinct count per access (``_distinct``), and walks the mergesort tree only
for the accesses the bounds leave undecided.  These tests hold the bounds to
the exact footprint of :func:`oracles.footprint_reference`, the distinct
counts to a set-per-window loop, and the resulting statistics to the
per-access LRU oracle.
"""

import numpy as np
import pytest

from oracles import RowCacheEngine, footprint_reference
from repro.memory.replay import ReplayEngine, _previous_occurrences


def check_evaluation(engine, table, capacity, pinned=None, exact=False):
    """Assert every bound property of one (table, capacity, pinned set) evaluation.

    Returns the number of accesses the bounds left undecided.
    """
    table = np.ascontiguousarray(table, dtype=np.int64)
    pinned_rows, _ = engine._pinned_key(pinned)
    access = engine._access_sizes(table, pinned_rows)
    weights = np.where(access.sizes <= capacity, access.sizes, 0)
    interval, lower, upper = engine._footprint_bounds(access.sizes, weights)
    oracle = footprint_reference(engine, access.sizes, weights)

    repeats = engine._distinct > 0
    assert np.all(lower[repeats] <= oracle[repeats])
    assert np.all(oracle[repeats] <= upper[repeats])
    if exact:
        np.testing.assert_array_equal(lower[repeats], oracle[repeats])
        np.testing.assert_array_equal(upper[repeats], oracle[repeats])

    certain_hit = access.replayed & (upper <= capacity)
    certain_miss = access.replayed & (lower > capacity)
    assert np.all(oracle[certain_hit] <= capacity)
    assert np.all(oracle[certain_miss] > capacity)

    undecided = np.flatnonzero(access.replayed & ~certain_hit & ~certain_miss)
    assert np.all(np.isin(undecided, engine._query_rows))
    if undecided.size:
        walked = interval[undecided] - engine._duplicate_sums(weights, undecided)
        np.testing.assert_array_equal(walked, oracle[undecided])

    want = RowCacheEngine(engine.trace).replay(table, capacity, pinned)
    assert engine.replay(table, capacity, pinned=pinned) == want
    return int(undecided.size)


def distinct_reference(trace):
    """Distinct rows in each repeat access's window ``[p, i]``; 0 for a first one."""
    rows = trace.tolist()
    prev = _previous_occurrences(trace).tolist()
    return [len(set(rows[p : i + 1])) if p >= 0 else 0 for i, p in enumerate(prev)]


def _lengths():
    lengths = {1, 2, 3}
    for k in range(2, 13):
        lengths.update({2**k - 1, 2**k, 2**k + 1})
    return sorted(lengths)


class TestDistinctCounts:
    @pytest.mark.parametrize("length", [0, 1, 2, 3, 7, 8, 9, 63, 64, 65, 511, 512, 513])
    def test_matches_a_set_per_window(self, length):
        rng = np.random.default_rng(400 + length)
        for num_rows in (1, 3, max(1, length // 4), max(1, length)):
            trace = rng.integers(0, num_rows, size=length).astype(np.int64)
            engine = ReplayEngine(trace)
            assert engine._distinct.dtype == np.int32
            assert engine._distinct.tolist() == distinct_reference(trace)

    def test_all_distinct_and_single_row_traces(self):
        distinct = ReplayEngine(np.random.default_rng(401).permutation(300))._distinct
        assert not distinct.any()
        single = ReplayEngine(np.full(70, 3, dtype=np.int64))._distinct
        assert single.tolist() == [0] + [1] * 69


class TestBoundsBracketTheOracle:
    @pytest.mark.parametrize("length", _lengths())
    def test_random_traces_at_power_of_two_boundaries(self, length):
        rng = np.random.default_rng(500 + length)
        for num_rows in (1, 3, max(1, length // 4), max(1, length)):
            trace = rng.integers(0, num_rows, size=length).astype(np.int64)
            engine = ReplayEngine(trace)
            constant = np.full(num_rows, 3, dtype=np.int64)
            varied = rng.integers(1, 9, size=num_rows).astype(np.int64)
            with_zeros = rng.integers(0, 4, size=num_rows).astype(np.int64)
            for capacity in (1, 7, int(rng.integers(8, 200))):
                check_evaluation(engine, constant, capacity, exact=True)
                check_evaluation(engine, varied, capacity)
                check_evaluation(engine, with_zeros, capacity)

    @pytest.mark.parametrize("length", [1, 2, 64, 1000, 4097])
    def test_all_distinct_traces(self, length):
        rng = np.random.default_rng(600 + length)
        engine = ReplayEngine(rng.permutation(length).astype(np.int64))
        sizes = rng.integers(0, 9, size=length).astype(np.int64)
        assert check_evaluation(engine, sizes, 5) == 0

    @pytest.mark.parametrize("length", [1, 2, 31, 32, 33, 3000])
    def test_single_row_traces_are_exact(self, length):
        engine = ReplayEngine(np.full(length, 2, dtype=np.int64))
        for size, capacity in ((4, 4), (4, 3), (0, 1)):
            sizes = np.full(3, size, dtype=np.int64)
            assert check_evaluation(engine, sizes, capacity, exact=True) == 0

    def test_constant_tables_never_walk_the_tree(self):
        rng = np.random.default_rng(700)
        trace = rng.zipf(1.3, size=6000).astype(np.int64) % 800
        engine = ReplayEngine(trace)
        for capacity in (1, 16, 64, 256, 5000):
            assert check_evaluation(engine, np.full(800, 4, dtype=np.int64), capacity,
                                    exact=True) == 0
        assert engine.memo_stats()["tree_walks"] == 0

    def test_streaming_rows_larger_than_the_capacity(self):
        # Rows above the capacity stream through with weight 0, so the
        # weight range spans 0 and the bounds loosen; they must stay sound.
        rng = np.random.default_rng(701)
        for _ in range(30):
            num_rows = int(rng.integers(2, 120))
            trace = rng.integers(0, num_rows, size=int(rng.integers(2, 2500)))
            engine = ReplayEngine(trace.astype(np.int64))
            capacity = int(rng.integers(1, 40))
            sizes = rng.integers(1, 2 * capacity + 2, size=num_rows).astype(np.int64)
            check_evaluation(engine, sizes, capacity)

    def test_undecided_accesses_are_walked(self):
        rng = np.random.default_rng(702)
        trace = rng.integers(0, 60, size=3000).astype(np.int64)
        engine = ReplayEngine(trace)
        sizes = rng.integers(1, 9, size=60).astype(np.int64)
        undecided = check_evaluation(engine, sizes, 120)
        assert undecided > 0
        assert engine.memo_stats()["tree_walks"] == 1


class TestPinnedSets:
    def test_random_pinned_sets(self):
        rng = np.random.default_rng(800)
        for _ in range(40):
            num_rows = int(rng.integers(1, 200))
            trace = rng.integers(0, num_rows, size=int(rng.integers(1, 2500)))
            engine = ReplayEngine(trace.astype(np.int64))
            pinned = rng.choice(num_rows, size=int(rng.integers(1, num_rows + 1)),
                                replace=False)
            sizes = rng.integers(0, 12, size=num_rows).astype(np.int64)
            capacity = int(rng.integers(1, 90))
            check_evaluation(engine, sizes, capacity, pinned=pinned)
            check_evaluation(engine, np.full(num_rows, 5), capacity, pinned=pinned)

    def test_pinning_every_access(self):
        rng = np.random.default_rng(801)
        trace = rng.integers(0, 25, size=2000).astype(np.int64)
        engine = ReplayEngine(trace)
        sizes = rng.integers(1, 6, size=25).astype(np.int64)
        for capacity in (1, 9, 400):
            assert check_evaluation(engine, sizes, capacity, pinned=np.arange(25)) == 0

    def test_capacity_one(self):
        rng = np.random.default_rng(802)
        trace = rng.integers(0, 10, size=1500).astype(np.int64)
        engine = ReplayEngine(trace)
        sizes = rng.integers(0, 3, size=10).astype(np.int64)
        check_evaluation(engine, sizes, 1)
        check_evaluation(engine, sizes, 1, pinned=np.asarray([0, 4]))


class TestSpectrum:
    def test_several_weight_groups_match_the_oracle(self):
        rng = np.random.default_rng(900)
        for _ in range(10):
            num_rows = int(rng.integers(5, 150))
            trace = rng.integers(0, num_rows, size=int(rng.integers(100, 3000)))
            trace = trace.astype(np.int64)
            tables = [rng.integers(1, 30, size=num_rows).astype(np.int64) for _ in range(3)]
            tables.append(np.full(num_rows, 7, dtype=np.int64))
            capacities = [1, 6, 7, 15, 29, 30, 90, 400]
            pinned = rng.choice(num_rows, size=2, replace=False) if _ % 2 else None
            engine = ReplayEngine(trace)
            got = engine.replay_spectrum_many(tables, capacities, pinned=pinned)
            want = RowCacheEngine(trace).replay_spectrum_many(tables, capacities, pinned)
            assert got == want
            fresh = ReplayEngine(trace)
            for table in tables:
                for capacity in capacities:
                    check_evaluation(fresh, table, capacity, pinned=pinned)

    def test_one_walk_per_weight_group(self):
        rng = np.random.default_rng(901)
        trace = rng.integers(0, 80, size=4000).astype(np.int64)
        sizes = rng.integers(1, 9, size=80).astype(np.int64)
        engine = ReplayEngine(trace)
        # Every capacity holds every row: one weight group, one tree walk
        # for the union of the capacities' undecided accesses.
        got = engine.replay_spectrum(sizes, [60, 90, 120, 150])
        assert engine.memo_stats()["tree_walks"] == 1
        assert got == RowCacheEngine(trace).replay_spectrum(sizes, [60, 90, 120, 150])
