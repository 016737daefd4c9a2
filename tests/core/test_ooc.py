"""Tests for out-of-core edge-set storage and the disk-backed k-hop engine."""

import dataclasses

import numpy as np
import pytest

from repro.core.frontier import MAX_WIDE_BATCH
from repro.core.khop import KHopPartitionTask, concurrent_khop
from repro.core.ooc import concurrent_khop_out_of_core
from repro.graph import range_partition
from repro.graph.outofcore import SpillableEdgeSetStore
from repro.runtime.netmodel import StepStats
from repro.runtime.session import GraphSession


def _plan(graph, sets):
    pg = range_partition(graph, 1)
    pg.build_edge_sets(sets_per_partition=sets)
    return pg.partitions[0].exchange_plan()


@pytest.fixture
def spilled_store(tmp_path, small_rmat):
    plan = _plan(small_rmat, 4)
    return SpillableEdgeSetStore(plan, tmp_path / "blocks", cache_blocks=2), plan


class TestSpillableStore:
    def test_blocks_roundtrip(self, spilled_store, small_rmat):
        store, plan = spilled_store
        total = 0
        for i in range(store.num_blocks):
            block = store.get_block(i)
            total += block["local"].size + block["slot"].size
        assert total == small_rmat.num_edges

    def test_block_content_identical(self, spilled_store):
        """Each file is its block's slice of the plan arrays, read back by
        the block's offsets."""
        store, plan = spilled_store
        blocks = plan.blocks()
        assert store.num_blocks == len(blocks) > 1
        for i, (row_lo, row_hi, a, b, c, d) in enumerate(blocks):
            loaded = store.get_block(i)
            assert np.array_equal(loaded["local"], plan.local_csr.indices[a:b])
            assert np.array_equal(loaded["slot"], plan.slot_csr.indices[c:d])
            assert tuple(store.blocks[i]) == blocks[i]
        # the blocks tile both CSRs in scan order
        assert blocks[0][2] == 0 and blocks[-1][3] == plan.local_csr.nnz
        assert all(x[3] == y[2] and x[5] == y[4] for x, y in zip(blocks, blocks[1:]))

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
        store = SpillableEdgeSetStore(
            _plan(small_rmat, 4), tmp_path / "b0", cache_blocks=0
        )
        store.get_block(0)
        store.get_block(0)
        assert store.hits == 0
        assert store.loads == 2
        assert store.resident_bytes() == 0

    def test_negative_cache_rejected(self, tmp_path, small_rmat):
        with pytest.raises(ValueError):
            SpillableEdgeSetStore(_plan(small_rmat, 2), tmp_path, -1)

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
        store = SpillableEdgeSetStore(_plan(el, 1), tmp_path / "w", cache_blocks=1)
        weights = []
        for i in range(store.num_blocks):
            block = store.get_block(i)
            weights.extend(block["local_weights"].tolist())
            weights.extend(block["slot_weights"].tolist())
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
        # the default call spills the 8-stripe tiling: a cache that holds
        # every block reads each once
        assert large.disk_reads < small.disk_reads
        assert large.cache_hit_rate > small.cache_hit_rate
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
        num_blocks = sum(len(p.exchange_plan().blocks()) for p in sess.pg.partitions)
        for _ in range(2):
            res = concurrent_khop_out_of_core(sess, [0, 9], k=3, cache_blocks=64)
            assert all(p.edge_sets is es for p, es in zip(sess.pg.partitions, layout))
            assert 0 < res.disk_reads <= num_blocks
        with pytest.raises(TypeError):
            concurrent_khop_out_of_core(sess, [0], k=3, sets_per_partition=2)
        # a session without a layout spills the default 8-stripe tiling,
        # built for the call: the session keeps no layout
        flat_sess = GraphSession(small_rmat, num_machines=3)
        flat = concurrent_khop_out_of_core(flat_sess, [0, 9], k=3, cache_blocks=64)
        default = GraphSession(small_rmat, num_machines=3, edge_sets=True)
        assert not flat_sess.has_edge_sets
        assert all(p.plan_cache.layout is None for p in flat_sess.pg.partitions)
        assert flat.disk_reads > 3
        assert flat.disk_reads == concurrent_khop_out_of_core(
            default, [0, 9], k=3, cache_blocks=64
        ).disk_reads
        assert (flat.reached == res.reached).all()

    def test_edges_are_read_from_disk(self, small_rmat, monkeypatch):
        """The kernel expands from the blocks it fetched, not from memory:
        a block read back wrong changes the answer."""
        ref = concurrent_khop_out_of_core(GraphSession(small_rmat), [0, 9], k=3)
        fetch = SpillableEdgeSetStore.get_block

        def zeroed(store, index, stats=None):
            block = fetch(store, index, stats=stats)
            return {**block, "local": np.zeros_like(block["local"])}

        monkeypatch.setattr(SpillableEdgeSetStore, "get_block", zeroed)
        bad = concurrent_khop_out_of_core(GraphSession(small_rmat), [0, 9], k=3)
        assert (bad.reached < ref.reached).all()

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


#: the spilled layouts: the default tiling of a flat session, the session's
#: edge-sets, and those edge-sets consolidated
LAYOUTS = {
    "flat": {},
    "sets": dict(edge_sets=True, sets_per_partition=8),
    "consolidated": dict(edge_sets=True, sets_per_partition=8,
                         consolidate_min_edges=4096),
}


@pytest.mark.parametrize("layout", list(LAYOUTS))
@pytest.mark.parametrize("cache_blocks", [0, 2, 64])
@pytest.mark.parametrize("machines", [1, 3])
def test_fused_batch_equals_the_per_machine_one(
    small_rmat, machines, cache_blocks, layout
):
    """The out-of-core batch runs the fused step; the per-machine sequence
    the pool workers run must book the same disk tier, work and clock."""
    sources = [0, 9, 33, 120, 200, 201]

    def run():
        sess = GraphSession(small_rmat, num_machines=machines, **LAYOUTS[layout])
        return dataclasses.asdict(concurrent_khop_out_of_core(
            sess, sources, k=3, cache_blocks=cache_blocks
        ))

    fused = run()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(KHopPartitionTask, "fused", classmethod(lambda *a: None))
        per_machine = run()
    assert fused["disk_reads"] > 0
    for name, value in per_machine.items():
        assert np.array_equal(fused[name], value), name
