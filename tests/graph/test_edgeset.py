"""Unit tests for the edge-set (blocked adjacency) layout."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import EdgeSetMatrix, build_csr, degree_balanced_ranges


def _tiled(pairs, n, row_blocks=2, col_blocks=2, weights=None):
    """``(layout, csr)``: degree-balanced stripes over ``pairs`` and the
    pairs' CSR."""
    src = np.array([a for a, _ in pairs], dtype=np.int64)
    dst = np.array([b for _, b in pairs], dtype=np.int64)
    w = None if weights is None else np.asarray(weights, dtype=np.float64)
    csr = build_csr(src, dst, n, weights=w)
    layout = EdgeSetMatrix(
        n, n,
        degree_balanced_ranges(np.bincount(src, minlength=n), row_blocks),
        degree_balanced_ranges(np.bincount(dst, minlength=n), col_blocks),
    )
    return layout, csr


def _blocks(layout, csr):
    """Per block in scan order: ``(row_lo, row_hi, col_lo, col_hi, src, dst,
    weights)`` of the edges stored there, in storage order."""
    rows = np.repeat(np.arange(csr.num_rows), csr.degrees())
    order, indptr = layout.block_major(rows, csr.indices)
    src, dst = rows[order], csr.indices[order].astype(np.int64)
    w = None if csr.weights is None else csr.weights[order]
    edge_offsets = indptr[layout.block_offsets()]
    stripes = layout.num_col_stripes
    out = []
    for b, (a, z) in enumerate(zip(edge_offsets[:-1], edge_offsets[1:])):
        r, c = divmod(b, stripes)
        out.append((
            int(layout.row_bounds[r]), int(layout.row_bounds[r + 1]),
            int(layout.col_bounds[c]), int(layout.col_bounds[c + 1]),
            src[a:z], dst[a:z], None if w is None else w[a:z],
        ))
    return out


def _nonempty(layout, csr):
    return sum(1 for b in _blocks(layout, csr) if b[4].size)


class TestDegreeBalancedRanges:
    def test_even_degrees_even_split(self):
        b = degree_balanced_ranges(np.ones(8, dtype=int), 4)
        assert b.tolist() == [0, 2, 4, 6, 8]

    def test_skewed_degrees(self):
        deg = np.array([100, 1, 1, 1, 1, 1, 1, 1])
        b = degree_balanced_ranges(deg, 2)
        # the hub alone outweighs the rest: first range should be just [0,1)
        assert b[0] == 0 and b[-1] == 8
        assert b[1] == 1

    def test_more_ranges_than_vertices_clamps(self):
        b = degree_balanced_ranges(np.ones(3, dtype=int), 10)
        assert b[0] == 0 and b[-1] == 3
        assert (np.diff(b) >= 0).all()

    def test_zero_degree_tail(self):
        deg = np.array([5, 5, 0, 0])
        b = degree_balanced_ranges(deg, 2)
        assert b[0] == 0 and b[-1] == 4
        assert (np.diff(b) >= 0).all()

    def test_empty_degrees(self):
        b = degree_balanced_ranges(np.empty(0, dtype=int), 3)
        assert b[-1] == 0

    def test_invalid_num_ranges(self):
        with pytest.raises(ValueError):
            degree_balanced_ranges(np.ones(4, dtype=int), 0)

    @settings(max_examples=60, deadline=None)
    @given(
        degrees=st.lists(st.integers(0, 40), min_size=1, max_size=60),
        k=st.integers(1, 8),
    )
    def test_bounds_invariants(self, degrees, k):
        deg = np.array(degrees, dtype=np.int64)
        b = degree_balanced_ranges(deg, k)
        assert b[0] == 0
        assert b[-1] == deg.size
        assert (np.diff(b) >= 0).all()


class TestEdgeSetMatrix:
    def test_blocks_cover_all_edges(self, small_rmat):
        n = small_rmat.num_vertices
        layout, csr = _tiled(
            list(zip(small_rmat.src.tolist(), small_rmat.dst.tolist())), n, 4, 4
        )
        assert sum(b[4].size for b in _blocks(layout, csr)) == small_rmat.num_edges
        assert layout.num_blocks == 16

    def test_block_membership_respects_ranges(self):
        pairs = [(0, 0), (0, 3), (3, 0), (3, 3)]
        layout, csr = _tiled(pairs, 4, 2, 2)
        for row_lo, row_hi, col_lo, col_hi, src, dst, _ in _blocks(layout, csr):
            assert ((src >= row_lo) & (src < row_hi)).all()
            assert ((dst >= col_lo) & (dst < col_hi)).all()

    def test_edges_roundtrip(self, small_rmat):
        n = small_rmat.num_vertices
        pairs = list(zip(small_rmat.src.tolist(), small_rmat.dst.tolist()))
        layout, csr = _tiled(pairs, n, 3, 5)
        rebuilt = []
        for *_, src, dst, _ in _blocks(layout, csr):
            rebuilt.extend(zip(src.tolist(), dst.tolist()))
        assert sorted(rebuilt) == sorted(pairs)

    def test_weights_preserved(self):
        pairs = [(0, 1), (1, 0), (1, 1)]
        layout, csr = _tiled(pairs, 2, 1, 1, weights=[1.0, 2.0, 3.0])
        (block,) = _blocks(layout, csr)
        assert block[6] is not None
        assert sorted(block[6].tolist()) == [1.0, 2.0, 3.0]

    def test_row_major_ordering(self, small_rmat):
        """Storage order is the paper's scan: row stripe, then column
        stripe, then row, then column."""
        n = small_rmat.num_vertices
        pairs = list(zip(small_rmat.src.tolist(), small_rmat.dst.tolist()))
        layout, csr = _tiled(pairs, n, 4, 4)
        blocks = _blocks(layout, csr)
        keys = [(b[0], b[2]) for b in blocks]
        assert keys == sorted(keys)
        for *_, src, dst, _ in blocks:
            assert np.all(np.diff(src) >= 0)
            assert np.all((np.diff(src) > 0) | (np.diff(dst) >= 0))

    def test_blocks_for_rows(self):
        """A row's plan rows are one per column stripe, inside the blocks of
        its row stripe."""
        pairs = [(0, 0), (3, 3)]
        layout, csr = _tiled(pairs, 4, 2, 2)
        table = layout.plan_row_table()
        offsets = layout.block_offsets()
        assert table.shape == (4, 2)
        assert np.array_equal(np.sort(table, axis=None), np.arange(8))
        stripe = np.searchsorted(layout.row_bounds, np.arange(4), side="right") - 1
        for v in range(4):
            for c in range(2):
                b = stripe[v] * 2 + c
                assert offsets[b] <= table[v, c] < offsets[b + 1]
        first_rows = [b for b in _blocks(layout, csr) if b[0] < 1]
        assert sum(b[4].size for b in first_rows) == 1

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            EdgeSetMatrix(
                2, 2,
                row_bounds=np.array([0, 1]),  # doesn't span [0, 2]
                col_bounds=np.array([0, 2]),
            )
        with pytest.raises(ValueError):
            EdgeSetMatrix(2, 2, [0, 2, 1, 2], [0, 2])  # not monotone

    def test_empty_matrix(self):
        layout = EdgeSetMatrix(
            4, 4, row_bounds=np.array([0, 2, 4]), col_bounds=np.array([0, 4]),
        )
        csr = build_csr(np.empty(0, int), np.empty(0, int), 4)
        assert all(b[4].size == 0 for b in _blocks(layout, csr))
        assert _nonempty(layout, csr) == 0
        order, indptr = layout.block_major(np.empty(0, int), np.empty(0, int))
        assert order.size == 0 and np.array_equal(indptr, np.zeros(5))


class TestConsolidation:
    def _fragmented(self, small_rmat):
        n = small_rmat.num_vertices
        pairs = list(zip(small_rmat.src.tolist(), small_rmat.dst.tolist()))
        return _tiled(pairs, n, 8, 8)

    def test_consolidate_preserves_edges(self, small_rmat):
        layout, csr = self._fragmented(small_rmat)
        c = layout.consolidate(csr, min_edges=100)
        assert sum(b[4].size for b in _blocks(c, csr)) == csr.nnz

    def test_consolidate_reduces_block_count(self, small_rmat):
        layout, csr = self._fragmented(small_rmat)
        c = layout.consolidate(csr, min_edges=csr.nnz)  # one stripe each way
        assert _nonempty(c, csr) <= _nonempty(layout, csr)
        assert c.num_blocks == 1 and _nonempty(c, csr) == 1

    def test_consolidate_respects_min_edges_per_stripe(self, small_rmat):
        layout, csr = self._fragmented(small_rmat)
        c = layout.consolidate(csr, min_edges=50)
        # every column stripe except possibly the last has >= 50 edges
        _, counts = c.stripe_counts(csr)
        assert all(cnt >= 50 for cnt in counts[:-1])
        rows, _ = c.stripe_counts(csr)
        assert all(cnt >= 50 for cnt in rows[:-1])

    def test_consolidate_noop_when_blocks_large(self):
        pairs = [(i % 4, (i * 7) % 4) for i in range(64)]
        layout, csr = _tiled(pairs, 4, 1, 1)
        c = layout.consolidate(csr, min_edges=1)
        assert np.array_equal(c.row_bounds, layout.row_bounds)
        assert np.array_equal(c.col_bounds, layout.col_bounds)
        assert _nonempty(c, csr) == _nonempty(layout, csr) == 1
