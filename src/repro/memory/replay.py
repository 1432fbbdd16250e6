"""Vectorized trace replay through the row-granularity LRU cache model.

Replaying a feature-access trace one access at a time through an
``OrderedDict`` LRU is exact but pure Python, and would be the single hottest
loop of every simulation (one replay per feature pass per layer per run).
This module computes the *same statistics* for a whole trace with numpy,
using a classical property of fully-associative evict-until-fit LRU caches:

    An access to row ``r`` hits iff ``r`` was accessed before and
    ``size[r] + U <= capacity``, where ``U`` is the total size of the
    *distinct installable* rows accessed since ``r``'s previous access
    (installable = not larger than the whole cache, which streams through
    without being installed).

The proof sketch: contents always form a prefix of the recency stack
(eviction only removes the LRU tail, exactly until the new row fits), and
every row accessed since ``r``'s previous access is either still resident
above ``r`` or was never installed — if it had been evicted, ``r`` (older)
would have been evicted first.  With one fixed size per row — which is how
every replay in this repository works, the per-pass size table — the
condition is exact, and matches the per-access ``RowCache`` oracle in
``tests/oracles.py`` bit for bit (the golden equivalence tests pin this).

The distinct-footprint sums are reuse-interval computations.  Most
accesses need no exact sum: in the spirit of LRU stack-distance analysis
(Mattson et al. 1970), a size-independent count decides them.  The engine
keeps, per access, the number of distinct rows in its reuse window; with
the window's plain interval sum and the smallest and largest weight of the
evaluation, that brackets the footprint between a lower and an upper bound
(exact for a constant size table).  An access is a certain hit when the
upper bound fits the capacity and a certain miss when the lower bound does
not — about 97% of the repeat accesses of the ``paper-comparison`` figures.

Only the undecided accesses get an exact sum, from an offline mergesort
tree: for every access ``i`` with previous occurrence ``p``, the sum of
``w[j]`` over window positions ``p < j < i`` whose own previous occurrence
lies at or before ``p`` (i.e. the first in-window occurrence of each
distinct row).  The tree's permutations and query positions depend only on
the *trace*, not on the sizes, so the structure — and the distinct counts,
which are its unit-weight sums — is built once per trace
(:class:`ReplayEngine`).  Each evaluation — per feature pass, per layer,
per accelerator configuration — is then a bounds pass of a dozen flat
array operations, plus, when an access is undecided, one gather and one
cumulative sum over the tree and lookups over the undecided accesses'
entries only.

The build is one pass per tree level with no sort, ``searchsorted`` or
``levels x n`` matrix, in the spirit of one-pass LRU stack processing
(Mattson et al. 1970; Bennett & Kruskal 1975).  The repeat accesses start
in prev-ascending order — the successor links read in index order, since
``prev`` is injective on them — which is the top level's single block.
Going down the levels, a stable left/right partition inside every block
yields each level's block-grouped, prev-sorted arrangement; the left halves
are the level's contributor segment, and every query's bounds are prefix
counts of left elements.  See :meth:`ReplayEngine._build_structure`.

One engine serves every pinned-partition set of its trace (EnGN's DAVC):
pinned accesses take size 0 and are folded in analytically per call.
:class:`TraceCache` memoizes the engines (and the traces they replay)
across runs; a sweep over N accelerators x M cache sizes builds each trace
structure once instead of N x M times.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import replace
from typing import Callable, Dict, Hashable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.memory.rowcache import RowCacheStats
from repro.telemetry.spans import span

#: Index dtype of the precomputed tree structure.  Traces are bounded far
#: below 2**31 accesses (they are per-pass edge counts), so 32-bit indices
#: halve the structure's footprint.
_INDEX_DTYPE = np.int32

#: Elements per chunk of the evaluation's tree gathers: the temporaries stay
#: a few hundred KB however long the trace.
_EVAL_CHUNK = 1 << 15

#: Result-memo key: (size-table digest, pinned-set digest or ``None``,
#: capacity in lines).
_MemoKey = Tuple[str, Optional[str], int]


def _previous_occurrences(trace: np.ndarray) -> np.ndarray:
    """Index of each access's previous occurrence of the same row (-1 if none)."""
    n = trace.size
    prev = np.full(n, -1, dtype=np.int64)
    if n < 2:
        return prev
    # Row ids that fit in 16 bits take numpy's radix sort (its stable sort
    # for small integer types), several times faster than the int64 one.
    if 0 <= trace.min() and trace.max() <= np.iinfo(np.uint16).max:
        order = np.argsort(trace.astype(np.uint16), kind="stable")
    else:
        order = np.argsort(trace, kind="stable")
    sorted_rows = trace[order]
    same = sorted_rows[1:] == sorted_rows[:-1]
    prev[order[1:][same]] = order[:-1][same]
    return prev


class _AccessSizes(NamedTuple):
    """Per-access sizes of one evaluation, pinned partition split off."""

    #: Per-access sizes; accesses to pinned rows are zeroed, so they add
    #: nothing to any reuse window.
    sizes: np.ndarray
    #: Repeat accesses outside the pinned partition (the hit candidates).
    replayed: np.ndarray
    #: Accesses to pinned rows (all hits) and the lines they read.
    pinned_accesses: int
    pinned_lines: int


class ReplayEngine:
    """Array-based replay of one access trace through the LRU row cache.

    The engine precomputes everything that depends only on the trace — the
    previous-occurrence links, the per-access window distinct counts that
    bound the footprints, and the mergesort tree that gives the exact
    footprints the bounds leave open — so that :meth:`replay` / :meth:`replay_many`
    evaluate a new per-row size table (a new feature pass or layer) without
    touching a Python loop.

    Every replay method takes an optional ``pinned`` set: row ids held in a
    dedicated cache partition (EnGN's DAVC).  Their accesses always hit and
    never compete for the shared capacity.  One engine over the full trace
    serves every pinned set: a pinned access gets size 0, so it adds nothing
    to any reuse window, and a non-pinned access's previous occurrence is the
    same access whether or not the pinned ones are in the trace.  The pinned
    accesses are then left out of the hit and size folds and added back as
    hits, which is exactly replaying the trace with them filtered out.

    Args:
        trace: ``int64`` row ids in access order (one entry per feature-row
            access), as produced by
            :func:`repro.accelerator.tiling.aggregation_access_trace`.
    """

    def __init__(self, trace: np.ndarray) -> None:
        with span("engine_build"):
            trace = np.ascontiguousarray(trace, dtype=np.int64)
            if trace.ndim != 1:
                raise ConfigurationError("trace must be a one-dimensional array")
            self.total_accesses = int(trace.size)
            self.trace = trace
            prev = _previous_occurrences(trace)
            # Eval-loop constant: clipped previous-occurrence index (+1, for
            # the exclusive prefix-sum lookup).
            self._prev_plus1 = (np.maximum(prev, 0) + 1).astype(_INDEX_DTYPE)
            self._build_structure(trace.size, prev)
        # Result memo keyed by (size-table digest, pinned-set digest,
        # capacity).  Dense-style formats feed the same constant table for
        # every layer and pass of a run, so most evaluations of an engine
        # repeat a previous one.
        self._memo: "OrderedDict[_MemoKey, RowCacheStats]" = OrderedDict()
        self.memo_hits = 0
        self.memo_misses = 0
        self.memo_evictions = 0
        # Evaluations whose footprint bounds left some access undecided.
        self.tree_walks = 0
        # Size-table and pinned-set digest memo keyed by object identity.
        # The strong reference to the array keeps its id() from being
        # recycled; the simulator never mutates them in place, so identity
        # implies content equality.
        self._token_cache: "OrderedDict[int, Tuple[np.ndarray, str]]" = OrderedDict()

    # ------------------------------------------------------------------ #
    # Structure construction (trace-only, size-independent)
    # ------------------------------------------------------------------ #
    def _build_structure(self, n: int, prev: np.ndarray) -> None:
        """Flattened mergesort tree for the windowed distinct-footprint sums.

        Every (contributor ``j``, query ``i``) pair with ``j < i`` is
        separated at exactly one level: the one where they fall in sibling
        halves of the same block.  At that level the contribution of ``j``
        to ``i`` is ``w[j]`` iff ``prev[j] > prev[i]`` (``j`` is *not* the
        first in-window occurrence of its row; these duplicates are
        subtracted from the plain interval sum).  Per level the left-half
        positions are sorted by ``prev`` within each block, and each query's
        contribution is a suffix sum of its sibling block's segment.

        All levels are concatenated into one workspace so that an
        evaluation is a handful of large array operations rather than a few
        small ones per level: one gather of the weights through
        ``_gather``, one cumulative sum (prefix sums taken strictly inside
        one segment, so concatenation never leaks across blocks), one
        suffix-sum lookup per query via ``_lo``/``_hi``, and one exact
        integer segment reduction (``np.add.reduceat``) that folds the
        per-level contributions of each query together (``_reduce_starts``
        / ``_query_rows``).  Everything here depends only on the trace,
        never on the size tables.

        The build needs no sort.  Only repeat accesses (``prev >= 0``) take
        part on either side — a first occurrence can never satisfy
        ``prev[j] > prev[i] >= 0`` — and ``prev`` is injective on them, so
        their prev-ascending order is the successor array read in index
        order (one scatter).  That is the level-``L`` arrangement: a single
        block.  Walking down from level ``L`` to 1, each level's
        arrangement is grouped by block and prev-ascending inside a block:

        * its left-half elements, in order, are the level's contributor
          segment of ``_gather``;
        * a right-half element (a query) at slot ``t`` of block ``B`` has
          ``lo``/``hi`` = the exclusive count of left elements before slot
          ``t`` / before the end of ``B``, and is live iff ``lo < hi``;
        * a stable left/right partition inside every block yields the next
          level's arrangement.  In any block-grouped arrangement the slots
          of a block are a prefix-count range of the repeat positions, so
          slot ``k`` belongs to the block of the ``k``-th repeat position:
          the partition is two boolean-mask assignments.

        Finally the per-level query entries are grouped by position (levels
        ascending inside a group) by a counting placement into
        ``bincount``/``cumsum`` slots.

        One segment reduction of the tree's unit-weight sums gives the
        bounds pass its one trace-only array: ``_distinct[i]``, the number of
        distinct rows in the reuse window ``[p, i]`` of a repeat access
        (``i - p`` minus the ``sum(hi - lo)`` of its entries), 0 for a first
        occurrence.
        """
        seen = prev >= 0
        repeats = np.flatnonzero(seen).astype(_INDEX_DTYPE)
        num_repeats = repeats.size
        self._distinct = np.zeros(n, dtype=_INDEX_DTYPE)
        self._distinct[repeats] = repeats - prev[repeats]
        if num_repeats == 0:
            self._gather = np.zeros(0, dtype=_INDEX_DTYPE)
            self._reduce_starts = np.zeros(0, dtype=_INDEX_DTYPE)
            self._query_rows = np.zeros(0, dtype=_INDEX_DTYPE)
            self._lo = np.zeros(0, dtype=_INDEX_DTYPE)
            self._hi = np.zeros(0, dtype=_INDEX_DTYPE)
            return

        # Position j is a contributor at level l (1-based, half-width
        # 2**(l-1)) iff bit l-1 of j is 0 (left half of its block j >> l),
        # a query iff that bit is 1.
        num_levels = (n - 1).bit_length()
        successor = np.full(n, -1, dtype=_INDEX_DTYPE)
        successor[prev[repeats]] = repeats
        arrangement = successor[successor >= 0]

        # repeats_before[p]: repeat positions below p (p padded to 2**L),
        # i.e. the first slot of a block starting at p in any arrangement.
        repeats_before = np.full((1 << num_levels) + 1, num_repeats, dtype=_INDEX_DTYPE)
        repeats_before[0] = 0
        np.cumsum(seen, dtype=_INDEX_DTYPE, out=repeats_before[1 : n + 1])

        segments: List[np.ndarray] = []
        queries: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        left_before = np.zeros(num_repeats + 1, dtype=_INDEX_DTYPE)
        offset = 0
        for level in range(num_levels, 0, -1):
            bit = _INDEX_DTYPE(1 << (level - 1))
            right = (arrangement & bit) != 0
            np.cumsum(~right, dtype=_INDEX_DTYPE, out=left_before[1:])
            contributors = arrangement[~right]
            query_slots = np.flatnonzero(right)
            query_pos = arrangement[query_slots]
            lo = left_before[query_slots]
            block_end = repeats_before[((query_pos >> level) + 1) << level]
            hi = left_before[block_end]
            live = lo < hi
            queries.append(
                (query_pos[live].astype(np.intp), lo[live] + offset, hi[live] + offset)
            )
            segments.append(contributors)
            offset += contributors.size
            if level > 1:
                child_right = (repeats & bit) != 0
                arrangement = np.empty_like(arrangement)
                arrangement[~child_right] = contributors
                arrangement[child_right] = query_pos

        # Counting placement: a position's group starts at the exclusive
        # prefix sum of the live-entry counts, and its entries fill the group
        # in ascending level order (each level holds a position at most once).
        counts = np.bincount(np.concatenate([rows for rows, _, _ in queries]), minlength=n)
        fill = np.zeros(n, dtype=np.intp)
        np.cumsum(counts[:-1], out=fill[1:])
        query_rows = np.flatnonzero(counts)
        self._query_rows = query_rows.astype(_INDEX_DTYPE)
        self._reduce_starts = fill[query_rows].astype(_INDEX_DTYPE)
        self._lo = np.empty(int(counts.sum()), dtype=_INDEX_DTYPE)
        self._hi = np.empty_like(self._lo)
        for rows, lo, hi in reversed(queries):
            slots = fill[rows]
            self._lo[slots] = lo
            self._hi[slots] = hi
            fill[rows] = slots + 1
        self._gather = np.concatenate(segments)
        self._distinct[self._query_rows] -= np.add.reduceat(
            self._hi - self._lo, self._reduce_starts
        )

    def structure_bytes(self) -> int:
        """Memory footprint of every array the engine keeps."""
        return int(
            self.trace.nbytes
            + self._prev_plus1.nbytes
            + self._distinct.nbytes
            + self._gather.nbytes
            + self._reduce_starts.nbytes
            + self._query_rows.nbytes
            + self._lo.nbytes
            + self._hi.nbytes
        )

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def replay_many(
        self,
        size_tables: Sequence[np.ndarray],
        capacity_lines: int,
        pinned: Optional[np.ndarray] = None,
    ) -> List[RowCacheStats]:
        """Replay the trace once per size table (one table per feature pass).

        Args:
            size_tables: Per-row size lookup tables (indexed by row id), one
                per pass; each pass starts from an empty cache.
            capacity_lines: Shared-cache capacity in cachelines.
            pinned: Row ids held in the dedicated pinned partition, if any.

        Returns:
            One :class:`RowCacheStats` per table, bit-identical to replaying
            the same trace through the ``RowCache`` oracle of
            ``tests/oracles.py`` (with the pinned accesses counted as hits
            outside the shared cache).
        """
        if capacity_lines <= 0:
            raise ConfigurationError("cache capacity must be positive")
        pinned, pinned_token = self._pinned_key(pinned)
        return [
            self._replay_one(table, int(capacity_lines), pinned, pinned_token)
            for table in size_tables
        ]

    #: Result-memo capacity.  A single run touches at most a few distinct
    #: tables, but a capacity sweep seeds tables x capacities entries (a
    #: sliced format's per-pass tables are all distinct: ~13 tables x 5
    #: capacities already overflows 64), so size for the sweep case — the
    #: entries are a few dozen bytes each.
    MEMO_ENTRIES = 512

    #: Digest memo capacity; a run feeds a handful of distinct tables.
    TOKEN_ENTRIES = 16

    def _table_token(self, table: np.ndarray) -> str:
        """Digest of a size table (or pinned set), memoized on object identity.

        Dense formats feed the *same* constant table object for every pass
        of every layer; hashing its full contents on each memo lookup costs
        more than the memoized evaluation it guards.  ``table`` must already
        be the contiguous ``int64`` array used for the memo key (the cache
        pins it, so identity stays valid for the entry's lifetime).
        """
        key = id(table)
        entry = self._token_cache.get(key)
        if entry is not None and entry[0] is table:
            self._token_cache.move_to_end(key)
            return entry[1]
        token = array_token(table)
        self._token_cache[key] = (table, token)
        while len(self._token_cache) > self.TOKEN_ENTRIES:
            self._token_cache.popitem(last=False)
        return token

    def _pinned_key(
        self, pinned: Optional[np.ndarray]
    ) -> Tuple[Optional[np.ndarray], Optional[str]]:
        """The pinned set as a contiguous ``int64`` array plus its digest.

        ``(None, None)`` when nothing is pinned (or the trace is empty), so
        unpinned replays share one memo namespace however they spell it.
        """
        if pinned is None or not len(pinned) or not self.trace.size:
            return None, None
        pinned = np.ascontiguousarray(pinned, dtype=np.int64)
        return pinned, self._table_token(pinned)

    def _replay_one(
        self,
        table: np.ndarray,
        capacity_lines: int,
        pinned: Optional[np.ndarray],
        pinned_token: Optional[str],
    ) -> RowCacheStats:
        """Evaluate one size table; every operation is a flat 1-D array op."""
        table = np.ascontiguousarray(table, dtype=np.int64)
        memo_key = (self._table_token(table), pinned_token, capacity_lines)
        cached = self._memo.get(memo_key)
        if cached is not None:
            self._memo.move_to_end(memo_key)
            self.memo_hits += 1
            return replace(cached)
        self.memo_misses += 1
        with span("replay_evaluate"):
            stats = self._evaluate(table, capacity_lines, pinned)
        self._memo_store(memo_key, stats)
        return stats

    def _memo_store(self, memo_key: _MemoKey, stats: RowCacheStats) -> None:
        self._memo[memo_key] = replace(stats)
        while len(self._memo) > self.MEMO_ENTRIES:
            self._memo.popitem(last=False)
            self.memo_evictions += 1

    def memo_stats(self) -> Dict[str, int]:
        """Counters of the per-(table, pinned set, capacity) memo.

        ``tree_walks`` counts the evaluations (one per weight vector) whose
        footprint bounds left an access undecided, so the tree was walked.
        """
        return {
            "hits": self.memo_hits,
            "misses": self.memo_misses,
            "evictions": self.memo_evictions,
            "entries": len(self._memo),
            "tree_walks": self.tree_walks,
        }

    def _footprint_bounds(
        self, sizes: np.ndarray, weights: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Interval sum and lower/upper bounds of each access's footprint.

        For a repeat access ``i`` with previous occurrence ``p``, the exact
        footprint ``F`` is the interval sum ``U`` (``size[i]`` plus every
        weight in ``(p, i)``) less the weights of the ``dups`` in-window
        positions that repeat a row seen earlier in the window.  The window
        holds ``others = _distinct[i] - 1`` distinct rows, so with every
        weight in ``[wmin, wmax]``::

            max(U - dups*wmax, size + others*wmin) <= F
                <= min(U - dups*wmin, size + others*wmax)

        Both bounds equal ``F`` when ``dups == 0`` or ``wmin == wmax``.
        Entries of first occurrences are meaningless; callers mask them.

        Returns:
            ``(interval, lower, upper)``, each one ``int64`` per access.
        """
        n = self.trace.size
        cumulative = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(weights, out=cumulative[1:])
        interval = cumulative[:-1] - cumulative[self._prev_plus1]
        interval += sizes
        # int64 before any product: a window count times a row size can
        # pass 2**31.
        others = np.subtract(self._distinct, 1, dtype=np.int64)
        dups = np.arange(1, n + 1, dtype=np.int64)  # i - p - 1 - others
        dups -= self._prev_plus1
        dups -= self._distinct
        wmin, wmax = int(weights.min()), int(weights.max())
        # lower = max(U - dups*wmax, size + others*wmin), then upper in the
        # space of ``dups`` and ``others``, which are not needed after.
        lower = dups * wmax
        np.subtract(interval, lower, out=lower)
        np.maximum(lower, others * wmin + sizes, out=lower)
        upper = np.multiply(dups, wmin, out=dups)
        np.subtract(interval, upper, out=upper)
        others *= wmax
        others += sizes
        np.minimum(upper, others, out=upper)
        return interval, lower, upper

    def _duplicate_sums(self, weights: np.ndarray, queries: np.ndarray) -> np.ndarray:
        """Weight of the in-window duplicates of each access in ``queries``.

        ``queries`` must be ascending and have tree entries (``dups > 0``).
        One gather and one cumulative sum over the whole tree, then the
        suffix-sum lookups and the segment reduction over the queries' own
        entries only.  The gather writes straight into its output in chunks
        (``take`` converts each index chunk to ``intp``; ``mode="clip"``
        skips the buffering of ``out``, and every index is in range by
        construction).
        """
        tree_cumulative = np.empty(self._gather.size + 1, dtype=np.int64)
        tree_cumulative[0] = 0
        permuted = tree_cumulative[1:]
        for start in range(0, self._gather.size, _EVAL_CHUNK):
            chunk = slice(start, start + _EVAL_CHUNK)
            np.take(weights, self._gather[chunk], out=permuted[chunk], mode="clip")
        np.cumsum(permuted, out=permuted)

        group_bounds = np.append(self._reduce_starts, self._lo.size)
        groups = np.searchsorted(self._query_rows, queries)
        starts = group_bounds[groups]
        counts = group_bounds[groups + 1] - starts
        offsets = np.zeros(queries.size, dtype=np.intp)
        np.cumsum(counts[:-1], out=offsets[1:])
        slots = np.repeat(starts - offsets, counts)
        slots += np.arange(slots.size)
        contributions = tree_cumulative[self._hi[slots]]
        contributions -= tree_cumulative[self._lo[slots]]
        return np.add.reduceat(contributions, offsets)

    def _hit_masks(
        self, access: _AccessSizes, weights: np.ndarray, caps: Sequence[int]
    ) -> List[np.ndarray]:
        """Hit mask per capacity, for capacities that share one weight vector.

        An access is a certain hit when its upper footprint bound fits the
        capacity and a certain miss when its lower bound does not.  Only the
        accesses some capacity leaves undecided get an exact footprint from
        the tree, and then for every capacity at once.
        """
        interval, lower, upper = self._footprint_bounds(access.sizes, weights)
        hits = []
        undecided = np.zeros(self.trace.size, dtype=bool)
        for capacity in caps:
            hit = upper <= capacity
            hit &= access.replayed
            hits.append(hit)
            straddles = lower <= capacity
            straddles &= upper > capacity
            undecided |= straddles
        undecided &= access.replayed
        queries = np.flatnonzero(undecided)
        if queries.size:
            self.tree_walks += 1
            footprint = interval[queries] - self._duplicate_sums(weights, queries)
            for capacity, hit in zip(caps, hits):
                hit[queries] = footprint <= capacity
        return hits

    def _access_sizes(
        self, table: np.ndarray, pinned: Optional[np.ndarray]
    ) -> _AccessSizes:
        """Per-access sizes of one table, with the pinned partition split off."""
        sizes = table[self.trace]
        repeats = self._distinct > 0
        if pinned is None:
            return _AccessSizes(sizes, repeats, 0, 0)
        top = int(self.trace.max())
        lookup = np.zeros(top + 1, dtype=bool)
        lookup[pinned[pinned <= top]] = True
        in_partition = lookup[self.trace]
        pinned_lines = int(sizes.sum(where=in_partition))
        sizes[in_partition] = 0
        return _AccessSizes(
            sizes,
            repeats & ~in_partition,
            int(np.count_nonzero(in_partition)),
            pinned_lines,
        )

    def _hit_stats(self, access: _AccessSizes, hit: np.ndarray) -> RowCacheStats:
        """Fold one capacity's hit mask into the replay statistics."""
        sizes = access.sizes
        hits = int(np.count_nonzero(hit)) + access.pinned_accesses
        hit_lines = int(sizes.sum(where=hit, initial=0))
        return RowCacheStats(
            accesses=self.trace.size,
            hits=hits,
            misses=self.trace.size - hits,
            miss_lines=int(sizes.sum()) - hit_lines,
            hit_lines=hit_lines + access.pinned_lines,
        )

    def _evaluate(
        self, table: np.ndarray, capacity_lines: int, pinned: Optional[np.ndarray]
    ) -> RowCacheStats:
        if self.trace.size == 0:
            return RowCacheStats()
        access = self._access_sizes(table, pinned)
        weights = np.where(access.sizes <= capacity_lines, access.sizes, 0)
        [hit] = self._hit_masks(access, weights, [capacity_lines])
        return self._hit_stats(access, hit)

    def replay_spectrum(
        self,
        table: np.ndarray,
        capacities: Sequence[int],
        pinned: Optional[np.ndarray] = None,
    ) -> List[RowCacheStats]:
        """Replay one size table against a whole vector of capacities.

        The mergesort-tree structure is capacity-independent, and the
        capacity enters the evaluation only through the streaming threshold
        (``sizes <= cap``) and the final ``footprint <= cap`` compare.  Two
        capacities produce identical weight vectors iff no access size lies
        strictly between them, so the capacities are grouped by
        ``searchsorted`` over the unique access sizes: one bounds pass per
        group, one cheap hit test per capacity, and at most one tree walk
        per group, for the union of the accesses its capacities leave
        undecided.  In the common case — every row fits in every queried
        capacity — that is a *single* group for the entire spectrum.

        Results are stored in the same ``(table-digest, pinned-digest,
        capacity)`` memo that :meth:`replay` uses, so a later
        single-capacity call returns the spectrum-computed value
        (bit-identical: the per-group math is exactly :meth:`_evaluate`'s,
        in the same integer ops).

        Args:
            table: Per-row size lookup table (indexed by row id).
            capacities: Cache capacities in cachelines; duplicates allowed.
            pinned: Row ids held in the dedicated pinned partition, if any.

        Returns:
            One :class:`RowCacheStats` per requested capacity, in order.
        """
        return self.replay_spectrum_many([table], capacities, pinned)[0]

    def replay_spectrum_many(
        self,
        size_tables: Sequence[np.ndarray],
        capacities: Sequence[int],
        pinned: Optional[np.ndarray] = None,
    ) -> List[List[RowCacheStats]]:
        """Replay many size tables against a shared capacity vector.

        The per-table math is exactly :meth:`replay_spectrum`'s; the win is
        deduplication *before* evaluation: tables with equal content (dense
        formats feed dozens of identical pass tables per run) collapse to
        one evaluation per distinct digest, and results land in the same
        memo as :meth:`replay` / :meth:`replay_spectrum` so sibling runs in
        the same sweep class answer from cache.

        Args:
            size_tables: Per-row size lookup tables (indexed by row id).
            capacities: Cache capacities in cachelines; duplicates allowed.
            pinned: Row ids held in the dedicated pinned partition, if any.

        Returns:
            One list of :class:`RowCacheStats` per table, each with one
            entry per requested capacity, in order.
        """
        caps = [int(capacity) for capacity in capacities]
        if any(capacity <= 0 for capacity in caps):
            raise ConfigurationError("cache capacity must be positive")
        pinned, pinned_token = self._pinned_key(pinned)
        tables = [
            np.ascontiguousarray(table, dtype=np.int64) for table in size_tables
        ]
        tokens = [self._table_token(table) for table in tables]
        unique_caps = list(dict.fromkeys(caps))

        # Resolve per distinct table *content*: equal-content tables (dense
        # formats feed dozens per run) evaluate once and share the result,
        # exactly as a sequential memo-checking loop would.
        resolved: Dict[str, Dict[int, RowCacheStats]] = {}
        for table, token in zip(tables, tokens):
            if token in resolved:
                self.memo_hits += len(unique_caps)
                continue
            results: Dict[int, RowCacheStats] = {}
            resolved[token] = results
            for capacity in unique_caps:
                memo_key = (token, pinned_token, capacity)
                cached = self._memo.get(memo_key)
                if cached is not None:
                    self._memo.move_to_end(memo_key)
                    self.memo_hits += 1
                    results[capacity] = cached
            if len(results) == len(unique_caps):
                continue
            with span("replay_evaluate"):
                computed = self._evaluate_spectrum(
                    table, sorted(set(unique_caps) - set(results)), pinned
                )
            for capacity, stats in computed.items():
                self.memo_misses += 1
                self._memo_store((token, pinned_token, capacity), stats)
                results[capacity] = stats
        return [
            [replace(resolved[token][capacity]) for capacity in caps]
            for token in tokens
        ]

    def _evaluate_spectrum(
        self, table: np.ndarray, caps: List[int], pinned: Optional[np.ndarray]
    ) -> Dict[int, RowCacheStats]:
        """Evaluate distinct capacities grouped by shared weight vector."""
        if self.trace.size == 0:
            return {capacity: RowCacheStats() for capacity in caps}

        access = self._access_sizes(table, pinned)
        sizes = access.sizes
        unique_sizes = np.unique(sizes)
        caps_arr = np.asarray(caps, dtype=np.int64)
        # Same group <=> no access size strictly between the capacities
        # <=> identical ``sizes <= cap`` masks, hence identical weights.
        group_of = np.searchsorted(unique_sizes, caps_arr, side="right")
        out: Dict[int, RowCacheStats] = {}
        for group in np.unique(group_of):
            group_caps = caps_arr[group_of == group].tolist()
            weights = np.where(sizes <= group_caps[0], sizes, 0)
            hits = self._hit_masks(access, weights, group_caps)
            for capacity, hit in zip(group_caps, hits):
                out[capacity] = self._hit_stats(access, hit)
        return out

    def replay(
        self,
        sizes: np.ndarray,
        capacity_lines: int,
        pinned: Optional[np.ndarray] = None,
    ) -> RowCacheStats:
        """Replay the trace once against one per-row size table."""
        return self.replay_many([np.asarray(sizes)], capacity_lines, pinned)[0]


def replay_trace(
    trace: np.ndarray, sizes: np.ndarray, capacity_lines: int
) -> RowCacheStats:
    """Replay ``trace`` once from an empty cache of ``capacity_lines`` lines."""
    return ReplayEngine(trace).replay(sizes, capacity_lines)


def _entry_bytes(value: object) -> int:
    """Best-effort memory footprint of one cache entry.

    Replay engines expose :meth:`ReplayEngine.structure_bytes`; arrays (and
    graph objects that implement the same protocol) expose ``nbytes``.
    Entries with neither report 0 — the bytes gauge is an observability aid,
    not an accounting invariant.
    """
    probe = getattr(value, "structure_bytes", None)
    if callable(probe):
        return int(probe())
    nbytes = getattr(value, "nbytes", None)
    if isinstance(nbytes, (int, np.integer)):
        return int(nbytes)
    return 0


class TraceCache:
    """LRU memo for traces, replay engines, and derived graphs.

    The keys are composite hashable tuples built by the simulator from a
    graph fingerprint plus the schedule knobs (tiling plan, engine count and
    partitioning, strip height).  Everything stored here depends only on
    (dataset, tiling plan, engine partition, format) — never on the
    accelerator's *timing* knobs — so a sweep over N accelerator
    configurations x M cache sizes rebuilds each entry once instead of
    N x M times.  :class:`repro.core.session.Session` owns one instance and
    threads it through every run.

    Besides the hit/miss counters the cache tracks evictions and an
    approximate resident-bytes gauge (:func:`_entry_bytes` per entry), all
    reported by :meth:`stats` and surfaced through
    :meth:`repro.core.session.Session.metrics_snapshot`.
    """

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ConfigurationError("max_entries must be at least 1")
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.current_bytes = 0

    def get(self, key: Hashable, builder: Callable[[], object]) -> object:
        """Return the cached value for ``key``, building and storing on miss."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return entry
        value = builder()
        self.misses += 1
        self._entries[key] = value
        self.current_bytes += _entry_bytes(value)
        while len(self._entries) > self.max_entries:
            _, evicted = self._entries.popitem(last=False)
            self.evictions += 1
            self.current_bytes -= _entry_bytes(evicted)
        return value

    def clear(self) -> None:
        """Drop every entry, counting each as an eviction.

        Counting the dropped entries keeps :meth:`stats` an accounting
        identity — every miss either remains resident (``entries``) or was
        evicted, so ``hits + misses >= entries + evictions`` always holds.
        """
        self.evictions += len(self._entries)
        self._entries.clear()
        self.current_bytes = 0

    def values(self):
        """Iterate over the cached values (LRU to MRU order)."""
        return self._entries.values()

    def stats(self) -> Dict[str, int]:
        """Hit/miss/eviction/bytes counters, e.g. for metrics snapshots."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._entries),
            "bytes": max(0, int(self.current_bytes)),
        }

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries


def array_token(array: np.ndarray) -> str:
    """Short stable digest of an array's contents, for composite cache keys."""
    digest = hashlib.sha1()
    array = np.ascontiguousarray(array)
    digest.update(str(array.dtype).encode())
    digest.update(str(array.shape).encode())
    digest.update(array.tobytes())
    return digest.hexdigest()


__all__ = [
    "ReplayEngine",
    "TraceCache",
    "array_token",
    "replay_trace",
]
