"""Edge-set (blocked adjacency) layout with consolidation (§3.2).

A partition's adjacency matrix is tiled into *edge-sets*: blocks defined by a
row range × column range of vertex ids.  Ranges are chosen by evenly
distributing vertex degree ("we divide the vertices of each subgraph into a
set of ranges by evenly distributing the degrees"), so every block holds a
similar number of edges and — in the paper's C++ incarnation — fits the last
level cache together with its vertex values.

Real graphs are sparse, so many blocks are tiny; the paper consolidates small
adjacent edge-sets *horizontally* (helps scanning out-edges) and *vertically*
(helps gathering from parents).  :meth:`EdgeSetMatrix.consolidate` implements
both.

The tiling is a *layout*, not a second copy of the edges:
:class:`EdgeSetMatrix` holds only the stripe bounds, and the partition's
:class:`~repro.graph.partition.ExchangePlan` stores its edges block-major —
row stripe, then column stripe, then row — so the one push kernel scans them
block by block.  A *plan row* is one (local row, column stripe) pair; block
``(r, c)`` is the run of plan rows of stripe ``r``'s rows in column stripe
``c``, and each plan row's edges are contiguous, columns ascending.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSR

__all__ = ["EdgeSetMatrix", "degree_balanced_ranges"]


def degree_balanced_ranges(degrees: np.ndarray, num_ranges: int) -> np.ndarray:
    """Split ``[0, n)`` into ``num_ranges`` contiguous ranges of ~equal degree.

    Returns boundaries ``b`` with ``b[0] == 0``, ``b[-1] == n``; range ``i``
    is ``[b[i], b[i+1])``.  Uses the cumulative-degree quantile trick
    (``searchsorted`` on the prefix sum), the same scheme the paper uses both
    for machine-level partitioning and for edge-set ranges.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    n = degrees.size
    if num_ranges <= 0:
        raise ValueError("num_ranges must be positive")
    if num_ranges > max(n, 1):
        num_ranges = max(n, 1)
    cumulative = np.cumsum(degrees)
    total = int(cumulative[-1]) if n else 0
    if n == 0:
        return np.zeros(num_ranges + 1, dtype=np.int64)
    targets = (np.arange(1, num_ranges, dtype=np.float64) * total) / num_ranges
    cuts = np.searchsorted(cumulative, targets, side="left") + 1
    bounds = np.concatenate([[0], cuts, [n]]).astype(np.int64)
    np.maximum.accumulate(bounds, out=bounds)  # keep monotone when degrees are 0
    np.clip(bounds, 0, n, out=bounds)
    return bounds


class EdgeSetMatrix:
    """The edge-set tiling of one partition's out-edge adjacency matrix.

    Rows are the partition's local rows ``[0, num_rows)``, cut into stripes
    at ``row_bounds``; columns are global ids ``[0, num_cols)``, cut at
    ``col_bounds``.  Block ``(r, c)`` — number ``r * num_col_stripes + c``
    in the paper's left-to-right, top-down scan order — holds the edges from
    row stripe ``r`` into column stripe ``c``.
    """

    def __init__(self, num_rows: int, num_cols: int, row_bounds, col_bounds) -> None:
        self.num_rows = int(num_rows)
        self.num_cols = int(num_cols)
        self.row_bounds = np.asarray(row_bounds, dtype=np.int64)
        self.col_bounds = np.asarray(col_bounds, dtype=np.int64)
        _check_bounds(self.row_bounds, self.num_rows)
        _check_bounds(self.col_bounds, self.num_cols)

    @classmethod
    def tile(
        cls,
        csr: CSR,
        col_bounds: np.ndarray,
        sets_per_partition: int,
        consolidate_min_edges: int | None = None,
    ) -> "EdgeSetMatrix":
        """Tile a partition's out-edge CSR: ``sets_per_partition``
        degree-balanced row stripes against the given column stripes, then
        consolidated when ``consolidate_min_edges`` is set."""
        tiling = cls(
            csr.num_rows,
            int(col_bounds[-1]),
            degree_balanced_ranges(csr.degrees(), sets_per_partition),
            col_bounds,
        )
        if consolidate_min_edges is None:
            return tiling
        return tiling.consolidate(csr, consolidate_min_edges)

    @property
    def num_row_stripes(self) -> int:
        return int(self.row_bounds.size - 1)

    @property
    def num_col_stripes(self) -> int:
        return int(self.col_bounds.size - 1)

    @property
    def num_blocks(self) -> int:
        """Blocks in the grid, empty ones included."""
        return self.num_row_stripes * self.num_col_stripes

    def nbytes(self) -> int:
        return int(self.row_bounds.nbytes + self.col_bounds.nbytes)

    def col_stripe(self, cols: np.ndarray) -> np.ndarray:
        """Column stripe of each global column id."""
        return np.searchsorted(self.col_bounds, cols, side="right") - 1

    def stripe_counts(self, csr: CSR) -> tuple[np.ndarray, np.ndarray]:
        """Edges of ``csr`` per row stripe and per column stripe."""
        rows = np.diff(csr.indptr[self.row_bounds])
        cols = np.bincount(
            self.col_stripe(csr.indices), minlength=self.num_col_stripes
        )
        return rows, cols

    def consolidate(self, csr: CSR, min_edges: int) -> "EdgeSetMatrix":
        """Merge small adjacent edge-sets (horizontal and vertical).

        Column stripes of ``csr`` (the partition's out-edges) holding fewer
        than ``min_edges`` edges merge with their right neighbour
        (horizontal consolidation); row stripes likewise with the stripe
        below (vertical consolidation).  Only the bounds coarsen.
        """
        row_counts, col_counts = self.stripe_counts(csr)
        return EdgeSetMatrix(
            self.num_rows,
            self.num_cols,
            _merge_bounds(self.row_bounds, row_counts, min_edges),
            _merge_bounds(self.col_bounds, col_counts, min_edges),
        )

    def plan_row_table(self) -> np.ndarray:
        """``(num_rows, num_col_stripes)``: the plan row of each (local row,
        column stripe) pair, numbered in storage (block-major) order."""
        c = self.num_col_stripes
        rows = np.arange(self.num_rows, dtype=np.int64)
        stripe = np.searchsorted(self.row_bounds, rows, side="right") - 1
        lo = self.row_bounds[stripe]
        size = self.row_bounds[stripe + 1] - lo
        return (lo * (c - 1) + rows)[:, None] + np.arange(c) * size[:, None]

    def block_offsets(self) -> np.ndarray:
        """Plan-row offsets of the blocks in scan order, end included:
        block ``b`` is plan rows ``[o[b], o[b + 1])``."""
        c = self.num_col_stripes
        lo = self.row_bounds[:-1]
        starts = (lo * c)[:, None] + np.arange(c) * np.diff(self.row_bounds)[:, None]
        return np.append(starts.ravel(), self.num_rows * c)

    def block_major(
        self, rows: np.ndarray, cols: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Order row-major edges (local ``rows``, non-decreasing; global
        ``cols``) block-major.

        Returns the stable permutation into storage order and the plan-row
        ``indptr`` over it; a plan row keeps its edges' original order.
        """
        stripe = self.col_stripe(cols)
        plan_rows = self.plan_row_table()[rows, stripe]
        counts = np.bincount(
            plan_rows, minlength=self.num_rows * self.num_col_stripes
        )
        indptr = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        # rows are sorted, so a stable sort by block alone is block-major;
        # block ids fit a narrow integer, which numpy sorts by radix
        row_stripe = np.searchsorted(self.row_bounds, rows, side="right") - 1
        block = row_stripe * self.num_col_stripes + stripe
        key = block.astype(np.min_scalar_type(self.num_blocks))
        return np.argsort(key, kind="stable"), indptr

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EdgeSetMatrix(rows={self.num_rows}, cols={self.num_cols}, "
            f"stripes={self.num_row_stripes}x{self.num_col_stripes})"
        )


def _check_bounds(bounds: np.ndarray, n: int) -> None:
    if bounds.size < 2 or bounds[0] != 0 or bounds[-1] != n:
        raise ValueError(f"bounds must span [0, {n}]")
    if np.any(np.diff(bounds) < 0):
        raise ValueError("bounds must be monotone non-decreasing")


def _merge_bounds(
    bounds: np.ndarray, stripe_counts: np.ndarray, min_edges: int
) -> np.ndarray:
    """Greedily merge consecutive stripes until each has >= min_edges.

    The final stripe may stay small if the whole matrix has too few edges.
    """
    kept = [int(bounds[0])]
    acc = 0
    for i, c in enumerate(stripe_counts):
        acc += int(c)
        if acc >= min_edges:
            kept.append(int(bounds[i + 1]))
            acc = 0
    if len(kept) == 1 or kept[-1] != int(bounds[-1]):  # an empty range too
        if len(kept) > 1 and acc < min_edges:
            kept[-1] = int(bounds[-1])  # fold the small tail into the last stripe
        else:
            kept.append(int(bounds[-1]))
    return np.asarray(kept, dtype=np.int64)
