"""Tests for out-of-core edge-set storage and the disk-backed k-hop engine."""

import numpy as np
import pytest

from repro.core.frontier import MAX_WIDE_BATCH
from repro.core.khop import concurrent_khop
from repro.core.ooc import concurrent_khop_out_of_core
from repro.graph import range_partition
from repro.graph.outofcore import SpillableEdgeSetStore
from repro.runtime.netmodel import StepStats
from repro.runtime.session import GraphSession


@pytest.fixture
def spilled_store(tmp_path, small_rmat):
    pg = range_partition(small_rmat, 1)
    pg.build_edge_sets(sets_per_partition=4)
    store = SpillableEdgeSetStore(
        pg.partitions[0].edge_sets, tmp_path / "blocks", cache_blocks=2
    )
    return store, pg


class TestSpillableStore:
    def test_blocks_roundtrip(self, spilled_store, small_rmat):
        store, pg = spilled_store
        total = 0
        for block in store.iter_blocks():
            total += block.nnz
        assert total == small_rmat.num_edges

    def test_block_content_identical(self, spilled_store):
        store, pg = spilled_store
        original = pg.partitions[0].edge_sets.row_major_blocks()
        for i, orig in enumerate(original):
            loaded = store.get_block(i)
            assert (loaded.csr.indptr == orig.csr.indptr).all()
            assert (loaded.csr.indices == orig.csr.indices).all()
            assert store.block_bounds(i) == (
                orig.row_lo, orig.row_hi, orig.col_lo, orig.col_hi
            )

    def test_lru_caching(self, spilled_store):
        store, _ = spilled_store
        store.get_block(0)
        store.get_block(0)
        assert store.hits == 1
        assert store.loads == 1
        # cache capacity 2: touching a third block evicts the oldest
        store.get_block(1)
        store.get_block(2)
        store.get_block(0)  # miss again
        assert store.loads == 4

    def test_zero_cache_always_misses(self, tmp_path, small_rmat):
        pg = range_partition(small_rmat, 1)
        pg.build_edge_sets(sets_per_partition=4)
        store = SpillableEdgeSetStore(
            pg.partitions[0].edge_sets, tmp_path / "b0", cache_blocks=0
        )
        store.get_block(0)
        store.get_block(0)
        assert store.hits == 0
        assert store.loads == 2
        assert store.resident_bytes() == 0

    def test_negative_cache_rejected(self, tmp_path, small_rmat):
        pg = range_partition(small_rmat, 1)
        pg.build_edge_sets(sets_per_partition=2)
        with pytest.raises(ValueError):
            SpillableEdgeSetStore(pg.partitions[0].edge_sets, tmp_path, -1)

    def test_stats_charged_on_miss(self, spilled_store):
        store, _ = spilled_store
        stats = StepStats()
        store.get_block(0, stats=stats)
        assert stats.disk_reads == 1
        assert stats.disk_bytes_read > 0
        store.get_block(0, stats=stats)  # hit: no new charge
        assert stats.disk_reads == 1

    def test_weighted_blocks_roundtrip(self, tmp_path):
        from repro.graph import EdgeList

        el = EdgeList.from_pairs([(0, 1), (1, 0)], weights=[2.5, 1.5])
        pg = range_partition(el, 1)
        pg.build_edge_sets(sets_per_partition=1)
        store = SpillableEdgeSetStore(
            pg.partitions[0].edge_sets, tmp_path / "w", cache_blocks=1
        )
        weights = []
        for block in store.iter_blocks():
            weights.extend(block.csr.weights.tolist())
        assert sorted(weights) == [1.5, 2.5]


class TestOutOfCoreKHop:
    def test_matches_in_memory_engine(self, small_rmat):
        sources = [0, 9, 33]
        ooc = concurrent_khop_out_of_core(
            GraphSession(small_rmat, num_machines=3), sources, k=3, cache_blocks=2
        )
        ref = concurrent_khop(GraphSession(small_rmat, num_machines=3), sources, k=3)
        assert (ooc.reached == ref.reached).all()
        assert ooc.supersteps == ref.supersteps
        assert ooc.total_edges_scanned == ref.total_edges_scanned

    def test_disk_cost_charged(self, small_rmat):
        ooc = concurrent_khop_out_of_core(
            GraphSession(small_rmat, num_machines=2), [0], k=3, cache_blocks=0
        )
        ref = concurrent_khop(GraphSession(small_rmat, num_machines=2), [0], k=3)
        assert ooc.disk_reads > 0
        assert ooc.disk_bytes_read > 0
        assert ooc.virtual_seconds > ref.virtual_seconds

    def test_bigger_cache_fewer_reads(self, small_rmat):
        small = concurrent_khop_out_of_core(GraphSession(small_rmat), [0, 9], k=3,
                                            cache_blocks=1)
        large = concurrent_khop_out_of_core(GraphSession(small_rmat), [0, 9], k=3,
                                            cache_blocks=64)
        assert large.disk_reads <= small.disk_reads
        assert large.cache_hit_rate >= small.cache_hit_rate
        assert (large.reached == small.reached).all()

    def test_consolidation_cuts_disk_reads(self, small_rmat):
        """§3.2's point: merging tiny edge-sets slashes I/O operations."""
        from repro.graph import range_partition as rp

        fragmented = concurrent_khop_out_of_core(
            GraphSession(rp(small_rmat, 3), edge_sets=True, sets_per_partition=8),
            [0, 9], k=3, cache_blocks=2,
        )
        consolidated = concurrent_khop_out_of_core(
            GraphSession(rp(small_rmat, 3), edge_sets=True, sets_per_partition=8,
                         consolidate_min_edges=4096),
            [0, 9], k=3, cache_blocks=2,
        )
        assert consolidated.disk_reads < fragmented.disk_reads
        assert (consolidated.reached == fragmented.reached).all()

    def test_layout_comes_from_the_session(self, small_rmat):
        """The blocks scanned are the session's, on every call."""
        sess = GraphSession(small_rmat, num_machines=3, edge_sets=True,
                            sets_per_partition=8, consolidate_min_edges=4096)
        layout = [p.edge_sets for p in sess.pg.partitions]
        num_blocks = sum(len(es.row_major_blocks()) for es in layout)
        for _ in range(2):
            res = concurrent_khop_out_of_core(sess, [0, 9], k=3, cache_blocks=64)
            assert all(p.edge_sets is es for p, es in zip(sess.pg.partitions, layout))
            assert 0 < res.disk_reads <= num_blocks
        with pytest.raises(TypeError):
            concurrent_khop_out_of_core(sess, [0], k=3, sets_per_partition=2)

    def test_explicit_spill_directory(self, tmp_path, small_rmat):
        res = concurrent_khop_out_of_core(
            GraphSession(small_rmat), [0], k=2, spill_directory=tmp_path, cache_blocks=1
        )
        assert res.reached[0] > 0
        assert any(tmp_path.rglob("block_*.npz"))

    def test_source_validation(self, small_rmat):
        with pytest.raises(ValueError):
            concurrent_khop_out_of_core(GraphSession(small_rmat), [99999], k=2)
        with pytest.raises(ValueError):
            concurrent_khop_out_of_core(
                GraphSession(small_rmat), [0] * (MAX_WIDE_BATCH + 1), k=2
            )
