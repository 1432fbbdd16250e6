"""Degree-ordered ("jagged-diagonal") segment sums over a CSR structure.

A segment sum adds, for every output row, one addend per edge of that row:
``out[row] = sum(values[col_e] * weight_e for e in row's edges)``.  The
numpy idiom for it, ``np.add.at``, is an unbuffered scatter that runs one
element at a time.  :class:`SegmentPlan` instead lays the edges out
rank-major: rows sorted by degree (descending, stable), and for each rank
``k`` the ``k``-th edge of every row whose degree exceeds ``k``.  Rank ``k``
is then one vectorized ``out[:count_k] += addends`` over a row prefix.

The result is bit-identical to the ``np.add.at`` scatter: each row starts
at ``+0.0`` and receives its addends one at a time in the row's edge order,
which is exactly the float32 rounding sequence of the scatter.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class SegmentPlan:
    """Structure-only, rank-major layout of a grouping of edges into rows.

    Args:
        row_ptr: ``int64`` array of length ``num_rows + 1``; row ``r`` owns
            positions ``row_ptr[r]:row_ptr[r + 1]`` of ``edge_order``.
        edge_order: Edge id at every position, in each row's addition order.
        edge_cols: Column (the gathered ``values`` row) of every edge id.

    Attributes:
        inverse: Position of every row in the degree-sorted order.
        offsets: Rank ``k`` occupies ``edges[offsets[k]:offsets[k + 1]]``;
            its length is the number of rows of degree greater than ``k``.
        edges: Edge ids, rank-major.
        cols: Column of every entry of ``edges``.
    """

    def __init__(
        self, row_ptr: np.ndarray, edge_order: np.ndarray, edge_cols: np.ndarray
    ) -> None:
        row_degrees = np.diff(row_ptr)
        order = np.argsort(-row_degrees, kind="stable")
        sorted_degrees = row_degrees[order]
        sorted_starts = row_ptr[:-1][order]
        max_degree = int(sorted_degrees[0]) if sorted_degrees.size else 0
        # counts[k]: rows of degree > k, a prefix of the sorted rows.
        counts = np.searchsorted(
            -sorted_degrees, -np.arange(max_degree, dtype=np.int64), side="left"
        )
        self.num_rows = int(row_degrees.size)
        self.inverse = np.empty(self.num_rows, dtype=np.int64)
        self.inverse[order] = np.arange(self.num_rows, dtype=np.int64)
        self.offsets = np.zeros(max_degree + 1, dtype=np.int64)
        np.cumsum(counts, out=self.offsets[1:])
        positions = np.concatenate(
            [sorted_starts[:count] + rank for rank, count in enumerate(counts)]
            or [np.zeros(0, dtype=np.int64)]
        )
        self.edges = edge_order[positions].astype(np.int64, copy=False)
        self.cols = edge_cols[self.edges]

    def sum(self, values: np.ndarray, weights: Optional[np.ndarray] = None) -> np.ndarray:
        """``out[row] = sum(values[col_e] (* weights[e]))`` over the row's edges.

        ``values`` is ``(num_columns, width)`` float32; ``weights`` (one per
        edge id, read on every call) scales each addend when given.  Rows
        without edges come out as ``+0.0``.
        """
        out = np.zeros((self.num_rows, values.shape[1]), dtype=values.dtype)
        scale = None if weights is None else weights[self.edges][:, None]
        offsets = self.offsets
        for rank in range(offsets.size - 1):
            lo, hi = int(offsets[rank]), int(offsets[rank + 1])
            addends = values[self.cols[lo:hi]]
            if scale is not None:
                addends *= scale[lo:hi]
            out[: hi - lo] += addends
        return out[self.inverse]


def row_segment_plan(indptr: np.ndarray, indices: np.ndarray) -> SegmentPlan:
    """Plan for ``A @ X``: CSR rows add their neighbours in edge order."""
    edge_order = np.arange(indices.size, dtype=np.int64)
    return SegmentPlan(indptr, edge_order, indices)


def column_segment_plan(indptr: np.ndarray, indices: np.ndarray) -> SegmentPlan:
    """Plan for ``A^T @ G``: destinations add their sources in edge order."""
    num_vertices = indptr.size - 1
    sources = np.repeat(np.arange(num_vertices, dtype=np.int64), np.diff(indptr))
    edge_order = np.argsort(indices, kind="stable")
    row_ptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(indices, minlength=num_vertices), out=row_ptr[1:])
    return SegmentPlan(row_ptr, edge_order, sources)
