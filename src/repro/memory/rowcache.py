"""Statistics of the row-granularity LRU cache model.

The designs we model always fetch a feature row (or slice group) as a unit,
so the on-chip cache is modelled as a fully-associative LRU cache whose
*entries are rows* and whose *capacity is measured in cachelines*: it
captures the locality behaviour that matters — how many distinct rows fit on
chip and how reuse distance compares to that.
:class:`repro.memory.replay.ReplayEngine` evaluates that model for whole
traces and reports :class:`RowCacheStats`; the per-access ``RowCache`` loop
it is pinned against lives with the tests (``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class RowCacheStats:
    """Counters of one trace replay through the row cache."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    miss_lines: int = 0
    hit_lines: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of row accesses that hit."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses
