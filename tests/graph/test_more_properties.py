"""Deeper property coverage: consolidation invariants, ownership algebra,
cost-model monotonicity under composition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import EdgeList, build_csr, range_partition
from repro.graph.edgeset import EdgeSetMatrix, degree_balanced_ranges
from repro.runtime.netmodel import NetworkModel, StepStats

pairs_strategy = st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 15)), min_size=1, max_size=80
)


def _tiled(el, blocks):
    rb = degree_balanced_ranges(el.out_degrees(), blocks)
    cb = degree_balanced_ranges(el.in_degrees(), blocks)
    csr = build_csr(el.src.astype(np.int64), el.dst.astype(np.int64), 16)
    return EdgeSetMatrix(16, 16, rb, cb), csr


def _edge_blocks(layout, csr):
    """Block of every edge in storage order, and the edges themselves."""
    rows = np.repeat(np.arange(csr.num_rows), csr.degrees())
    order, indptr = layout.block_major(rows, csr.indices)
    sizes = np.diff(indptr[layout.block_offsets()])
    edges = sorted(zip(rows[order].tolist(), csr.indices[order].tolist()))
    return sizes, edges


class TestConsolidationInvariants:
    @settings(max_examples=40, deadline=None)
    @given(pairs=pairs_strategy, min_edges=st.integers(1, 100),
           blocks=st.integers(1, 6))
    def test_consolidation_preserves_edge_multiset(self, pairs, min_edges, blocks):
        el = EdgeList.from_pairs(pairs, num_vertices=16)
        m, csr = _tiled(el, blocks)
        c = m.consolidate(csr, min_edges)
        assert _edge_blocks(c, csr)[1] == _edge_blocks(m, csr)[1] == sorted(pairs)

    @settings(max_examples=40, deadline=None)
    @given(pairs=pairs_strategy, min_edges=st.integers(1, 100))
    def test_consolidation_never_adds_blocks(self, pairs, min_edges):
        el = EdgeList.from_pairs(pairs, num_vertices=16)
        m, csr = _tiled(el, 4)
        c = m.consolidate(csr, min_edges)
        assert c.num_blocks <= m.num_blocks
        nonempty = [np.count_nonzero(_edge_blocks(x, csr)[0]) for x in (c, m)]
        assert nonempty[0] <= nonempty[1]

    @settings(max_examples=25, deadline=None)
    @given(pairs=pairs_strategy)
    def test_consolidation_idempotent_at_fixpoint(self, pairs):
        el = EdgeList.from_pairs(pairs, num_vertices=16)
        m, csr = _tiled(el, 4)
        once = m.consolidate(csr, 5)
        twice = once.consolidate(csr, 5)
        assert np.array_equal(twice.row_bounds, once.row_bounds)
        assert np.array_equal(twice.col_bounds, once.col_bounds)


class TestOwnershipAlgebra:
    @settings(max_examples=30, deadline=None)
    @given(pairs=pairs_strategy, p=st.integers(1, 6))
    def test_every_vertex_owned_exactly_once(self, pairs, p):
        el = EdgeList.from_pairs(pairs, num_vertices=16)
        pg = range_partition(el, p)
        owners = pg.owner_of(np.arange(16))
        for v in range(16):
            part = pg.partitions[int(owners[v])]
            assert part.lo <= v < part.hi
        # ranges tile the space: each vertex in exactly one partition
        counts = np.zeros(16, dtype=int)
        for part in pg.partitions:
            counts[part.lo : part.hi] += 1
        assert (counts == 1).all()

    @settings(max_examples=30, deadline=None)
    @given(pairs=pairs_strategy, p=st.integers(1, 6))
    def test_boundary_symmetric_under_edge_presence(self, pairs, p):
        """v is boundary to partition P iff an edge links P's range to v."""
        el = EdgeList.from_pairs(pairs, num_vertices=16)
        pg = range_partition(el, p)
        for part in pg.partitions:
            expected = set()
            for s, d in zip(el.src.tolist(), el.dst.tolist()):
                s_local = part.lo <= s < part.hi
                d_local = part.lo <= d < part.hi
                if s_local and not d_local:
                    expected.add(d)
                if d_local and not s_local:
                    expected.add(s)
            assert set(part.boundary_vertices().tolist()) == expected


class TestCostModelComposition:
    @settings(max_examples=40, deadline=None)
    @given(
        e1=st.integers(0, 10**6),
        e2=st.integers(0, 10**6),
        b=st.integers(0, 10**6),
    )
    def test_compute_additive_in_edges(self, e1, e2, b):
        nm = NetworkModel()
        a = nm.compute_seconds(StepStats(edges_scanned=e1))
        c = nm.compute_seconds(StepStats(edges_scanned=e2))
        both = nm.compute_seconds(StepStats(edges_scanned=e1 + e2))
        assert both == pytest.approx(a + c, rel=1e-9, abs=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(bytes1=st.integers(0, 10**7), bytes2=st.integers(0, 10**7))
    def test_comm_cheaper_combined_than_split(self, bytes1, bytes2):
        """One combined batch to a destination beats two (latency paid once)
        — the economic argument for combining before the wire."""
        nm = NetworkModel()
        split = StepStats()
        split.record_send(1, bytes1, 1)
        combined = StepStats()
        combined.record_send(1, bytes1 + bytes2, 2)
        two_sends = StepStats()
        two_sends.bytes_sent = {1: bytes1, 2: bytes2}
        assert nm.comm_seconds(combined) <= nm.comm_seconds(two_sends) + (
            bytes1 + bytes2
        ) / nm.bandwidth_bytes_per_second + 1e-12

    def test_disk_tier_monotone(self):
        nm = NetworkModel()
        s1 = StepStats()
        s1.record_disk_read(1000)
        s2 = StepStats()
        s2.record_disk_read(1000)
        s2.record_disk_read(1000)
        assert nm.disk_seconds(s2) > nm.disk_seconds(s1) > 0.0
