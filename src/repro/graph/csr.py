"""Vectorised CSR / CSC sparse adjacency construction (§3.2).

The paper stores out-going edges in compressed sparse row (CSR) and incoming
edges in compressed sparse column (CSC) so that both access directions are
sequential.  A CSC of the adjacency matrix is exactly the CSR of the reversed
edge list, so one builder serves both.

Construction is a counting sort: ``O(m)`` with pure numpy primitives
(``bincount`` + ``cumsum`` + stable ``argsort`` on a single key), following
the "vectorise the loop" idiom from the HPC guides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CSR",
    "build_csr",
    "build_csc",
    "expand_ranges",
    "row_positions",
    "splice_csr",
]


@dataclass(frozen=True)
class CSR:
    """Compressed sparse row adjacency over ``num_rows`` row vertices.

    ``indices[indptr[v]:indptr[v+1]]`` are the neighbours of row ``v``.
    Column ids are *global* vertex ids (a partition's CSR keeps global
    neighbour ids so boundary vertices are directly addressable).
    """

    indptr: np.ndarray  # int64, shape (num_rows + 1,)
    indices: np.ndarray  # int32, shape (nnz,)
    weights: np.ndarray | None = None  # float64, shape (nnz,) or None

    @property
    def num_rows(self) -> int:
        return int(self.indptr.size - 1)

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def degree(self, v: int) -> int:
        """Number of stored neighbours of row ``v``."""
        return int(self.indptr[v + 1] - self.indptr[v])

    def degrees(self) -> np.ndarray:
        """Per-row neighbour counts, shape ``(num_rows,)``."""
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbour ids of row ``v`` (a view, do not mutate)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        """Weights aligned with :meth:`neighbors`; requires a weighted CSR."""
        if self.weights is None:
            raise ValueError("CSR has no weights")
        return self.weights[self.indptr[v] : self.indptr[v + 1]]

    def gather_edges(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(edge_positions, row_multiplicity)`` for a set of rows.

        ``edge_positions`` indexes into ``indices``/``weights`` and covers
        every edge whose source is in ``rows`` (in row order);
        ``row_multiplicity[i]`` is the out-degree of ``rows[i]``.  This is the
        frontier-expansion primitive the traversal engines build on.
        """
        rows = np.asarray(rows)
        starts = self.indptr[rows]
        ends = self.indptr[rows + 1]
        return expand_ranges(starts, ends), (ends - starts)

    def targets(self, rows: np.ndarray) -> np.ndarray:
        """Columns of every edge out of ``rows``, in row order, repeats kept
        (a view when ``rows`` is one row)."""
        if rows.size == 1:
            v = int(rows[0])
            return self.indices[self.indptr[v] : self.indptr[v + 1]]
        pos, _ = self.gather_edges(rows)
        return self.indices[pos]

    def nbytes(self) -> int:
        """Total memory footprint of the stored arrays."""
        total = self.indptr.nbytes + self.indices.nbytes
        if self.weights is not None:
            total += self.weights.nbytes
        return int(total)


def expand_ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenate ``[arange(s, e) for s, e in zip(starts, ends)]`` without a loop.

    Output position ``i`` of range ``r`` holds ``i`` plus that range's
    shift, ``starts[r]`` minus the output offset where range ``r`` begins.
    """
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    counts = ends - starts
    if np.any(counts < 0):
        raise ValueError("ranges must have non-negative length")
    out = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    out += np.arange(out.size, dtype=np.int64)
    return out


def row_positions(
    csr: CSR, rows: np.ndarray, cols: np.ndarray, width: int
) -> np.ndarray:
    """Where each ``(rows[i], cols[i])`` sits in ``csr.indices``, or the slot
    it would be inserted at to keep its row sorted.

    ``csr`` holds each row's columns ascending and below ``width``.  Only the
    named rows are keyed (``row·width + col``, sorted because the rows are),
    so the cost is their degree, not the array's size."""
    touched = np.unique(rows)
    starts, ends = csr.indptr[touched], csr.indptr[touched + 1]
    keys = np.repeat(touched * width, ends - starts)
    keys += csr.indices[expand_ranges(starts, ends)]
    rank = np.searchsorted(keys, rows * width + cols) - np.searchsorted(keys, rows * width)
    return csr.indptr[rows] + rank


def splice_csr(
    csr: CSR,
    width: int,
    ins_rows: np.ndarray,
    ins_cols: np.ndarray,
    del_rows: np.ndarray,
    del_cols: np.ndarray,
) -> CSR:
    """``csr`` with the ``(del_rows, del_cols)`` entries removed and the
    ``(ins_rows, ins_cols)`` ones added — the sorted-key merge.

    Each row's columns are ascending, without repeats and below ``width``;
    every delete names an entry and no insert does.  The deleted positions
    are dropped, the new columns inserted at their ``searchsorted`` slots
    and ``indptr`` shifted by the per-row counts: one copy of the arrays,
    never a sort of them, and the rows stay sorted.  ``csr`` is returned
    as is when there is nothing to splice; it is never written.
    """
    ins_rows, ins_cols, del_rows, del_cols = (
        np.asarray(a, dtype=np.int64) for a in (ins_rows, ins_cols, del_rows, del_cols)
    )
    k = del_rows.size
    if not (k or ins_rows.size):
        return csr
    # deletes first, then the inserts in key order: np.insert keeps values
    # bound for one slot in the order given
    order = np.argsort(ins_rows * width + ins_cols)
    rows = np.concatenate([del_rows, ins_rows[order]])
    cols = np.concatenate([del_cols, ins_cols[order]])
    pos = row_positions(csr, rows, cols, width)
    indices = csr.indices
    if k:
        del_pos = np.sort(pos[:k])
        indices = np.delete(indices, del_pos)
        pos[k:] -= np.searchsorted(del_pos, pos[k:])  # slots after the deletes
    if k < rows.size:
        indices = np.insert(indices, pos[k:], cols[k:].astype(indices.dtype))
    moved = np.bincount(rows[k:], minlength=csr.num_rows)
    moved -= np.bincount(rows[:k], minlength=csr.num_rows)
    indptr = csr.indptr.copy()
    indptr[1:] += np.cumsum(moved)
    return CSR(indptr=indptr, indices=indices)


def build_csr(
    src: np.ndarray,
    dst: np.ndarray,
    num_rows: int,
    weights: np.ndarray | None = None,
) -> CSR:
    """Build a CSR over rows ``[0, num_rows)`` from an edge list.

    Edges are grouped by source and, within a row, columns are sorted
    ascending (the paper updates "the vertex value array in ascending order"
    for cache locality while enumerating an edge-set; the dynamic graph's
    shard splice relies on the sorted rows).
    """
    src = np.asarray(src)
    dst = np.asarray(dst, dtype=np.int32)
    if src.shape != dst.shape:
        raise ValueError("src/dst length mismatch")
    counts = np.bincount(src, minlength=num_rows)
    if counts.size > num_rows:
        raise ValueError("row id out of range")
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    # Single-key stable sort: key = src * n_cols_bound + dst would risk
    # overflow; two stable passes (dst then src) give the same order.
    order = np.argsort(dst, kind="stable")
    order = order[np.argsort(src[order], kind="stable")]
    indices = dst[order]
    w = None if weights is None else np.asarray(weights, dtype=np.float64)[order]
    return CSR(indptr=indptr, indices=indices, weights=w)


def build_csc(
    src: np.ndarray,
    dst: np.ndarray,
    num_cols: int,
    weights: np.ndarray | None = None,
) -> CSR:
    """Build a CSC (stored as the CSR of the reversed edges).

    Row ``v`` of the result lists the *in*-neighbours (sources) of vertex
    ``v`` — the access pattern PageRank's gather phase needs.
    """
    return build_csr(dst, src, num_cols, weights=weights)
