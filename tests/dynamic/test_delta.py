"""Mutation log + delta-aware shards: epochs, splicing, compaction."""

import numpy as np
import pytest

from repro.core.multi_sssp import concurrent_sssp
from repro.core.pagerank import pagerank
from repro.dynamic import DynamicGraph
from repro.errors import MutationError, UnsupportedConfigError
from repro.graph import CSR, EdgeList, range_partition
from repro.runtime.session import GraphSession

from tests.dynamic.conftest import (
    assert_shards_equal,
    existing_edges,
    fresh_edges,
)


class TestApply:
    def test_advances_epoch_and_edge_count(self, dyn_session, edge_keys, rng):
        dg = dyn_session.dynamic()
        n = dg.num_vertices
        base_edges = dg.num_edges
        ins = fresh_edges(rng, n, edge_keys, 3)
        dels = existing_edges(rng, n, edge_keys, 2)
        res = dg.apply(ins, dels)
        assert res.changed
        assert res.epoch == 1 == dg.epoch
        assert res.inserted.shape == (3, 2)
        assert res.deleted.shape == (2, 2)
        assert dg.num_edges == base_edges + 1
        assert dg.num_pending == 5

    def test_noop_batch_changes_nothing(self, dyn_session, edge_keys, rng):
        dg = dyn_session.dynamic()
        n = dg.num_vertices
        u, v = next(iter(sorted(edge_keys))) // n, next(iter(sorted(edge_keys))) % n
        missing = fresh_edges(rng, n, set(edge_keys), 1)[0]
        # Inserting a present edge and deleting an absent one are no-ops.
        res = dg.apply([(u, v)], [missing])
        assert not res.changed
        assert res.noop_inserts == 1
        assert res.noop_deletes == 1
        assert dg.epoch == 0
        assert dg.num_pending == 0

    def test_insert_then_delete_round_trips(self, dyn_session, edge_keys, rng):
        dg = dyn_session.dynamic()
        n = dg.num_vertices
        (edge,) = fresh_edges(rng, n, edge_keys, 1)
        dg.apply([edge], [])
        res = dg.apply([], [edge])
        assert res.changed
        assert dg.epoch == 2
        assert dg.num_pending == 0  # re-deleting a pending insert cancels it
        oracle = dyn_session.snapshots().graph_at(dg.epoch)
        assert_shards_equal(dg.pg, oracle)

    def test_out_of_range_endpoint_rejected(self, dyn_session):
        dg = dyn_session.dynamic()
        with pytest.raises(MutationError):
            dg.apply([(0, dg.num_vertices)], [])

    def test_duplicate_base_rejected(self):
        el = EdgeList.from_pairs([(0, 1), (0, 1), (1, 2)], num_vertices=3)
        with pytest.raises(MutationError):
            DynamicGraph(range_partition(el, 1))


class TestSplicing:
    def test_shards_match_oracle_across_batches(
        self, dyn_session, edge_keys, rng
    ):
        dg = dyn_session.dynamic()
        n = dg.num_vertices
        for _ in range(4):
            ins = fresh_edges(rng, n, edge_keys, 4)
            dels = existing_edges(rng, n, edge_keys, 3)
            dg.apply(ins, dels)
            oracle = dyn_session.snapshots().graph_at(dg.epoch)
            assert_shards_equal(dg.pg, oracle)

    def test_traversal_sees_mutations(self, dyn_session, edge_keys, rng):
        # A vertex made reachable by an inserted edge must show up in khop.
        dg = dyn_session.dynamic()
        n = dg.num_vertices
        src = int(dyn_session.pg.edges.src[0])
        before = dyn_session.khop([src], 1)
        (edge,) = fresh_edges(rng, n, edge_keys, 1)
        u, v = src, edge[1]
        if u == v or u * n + v in edge_keys:
            pytest.skip("rng collision with base edge")
        dg.apply([(u, v)], [])
        after = dyn_session.khop([src], 1)
        assert after.reached[0] >= before.reached[0]


class TestSlotSpace:
    """A partition's exchange plan is dropped with its edges: an insert that
    reaches a new remote vertex grows the slot space, a delete that removes
    the last edge to one shrinks it, and traversal, PageRank and multi-SSSP
    on the mutated session — in-process (spliced in place) or pool (workers
    re-splice from their base image) — match a session built fresh on the
    mutated graph.  The pool refuses multi-SSSP: its image is unweighted."""

    @staticmethod
    def _grow_and_shrink(sess):
        """``(insert, delete)``: an edge from partition 0 to a remote vertex
        outside its boundary, and the only edge it has to one inside."""
        part = sess.pg.partitions[0]
        plan = part.exchange_plan()
        outside = np.setdiff1d(np.arange(part.hi, sess.num_vertices), plan.boundary)
        per_slot = np.bincount(plan.slot_csr.indices, minlength=plan.num_slots)
        slot = int(np.flatnonzero(per_slot == 1)[0])
        rows = np.repeat(np.arange(part.num_local), plan.slot_csr.degrees())
        row = int(rows[plan.slot_csr.indices == slot][0])
        return (part.lo, int(outside[0])), (part.lo + row, int(plan.boundary[slot]))

    @staticmethod
    def _assert_matches_fresh(sess, sources):
        oracle = sess.snapshots().graph_at(sess.graph_epoch)
        with GraphSession(oracle) as fresh:
            for direction in ("push", "pull"):
                got = sess.khop(sources, 3, direction=direction)
                want = fresh.khop(sources, 3, direction=direction)
                np.testing.assert_array_equal(got.reached, want.reached)
                assert got.total_messages == want.total_messages
                assert got.total_bytes == want.total_bytes
                assert got.total_edges_scanned == want.total_edges_scanned
                assert got.virtual_seconds == want.virtual_seconds
                assert got.per_step_seconds == want.per_step_seconds
            # GAS and multi-SSSP scatter through the same re-derived plan
            TestSlotSpace._assert_same_run(pagerank(sess), pagerank(fresh), "values")
            for side in (sess, fresh):
                TestSlotSpace._weigh(side)
            if sess.uses_pool:
                # the workers read the unweighted shared image, not _weigh's
                # shards: a typed refusal, and the pool keeps serving
                with pytest.raises(UnsupportedConfigError):
                    concurrent_sssp(sess, sources[:32])
                np.testing.assert_array_equal(
                    sess.khop(sources, 3).reached, fresh.khop(sources, 3).reached
                )
                return
            TestSlotSpace._assert_same_run(
                concurrent_sssp(sess, sources[:32]),
                concurrent_sssp(fresh, sources[:32]),
                "distances",
            )

    @staticmethod
    def _weigh(sess):
        """Dynamic graphs are unweighted and SSSP reads weights off the
        shards: give every out-edge a pure function of its endpoints (until
        the next splice rebuilds the shard without them)."""
        for part in sess.pg.partitions:
            out = part.out_csr
            u = np.repeat(np.arange(part.lo, part.hi), out.degrees())
            w = 1.0 + (u * 31 + out.indices * 17) % 7
            part.out_csr = CSR(out.indptr, out.indices, w)
            part.plan_cache = None

    @staticmethod
    def _assert_same_run(got, want, answer):
        np.testing.assert_array_equal(getattr(got, answer), getattr(want, answer))
        got, want = got.engine_result, want.engine_result
        assert got.per_step_stats == want.per_step_stats
        assert got.per_step_seconds == want.per_step_seconds
        assert got.virtual_seconds == want.virtual_seconds

    @pytest.mark.parametrize("backend", ["inproc", "pool"])
    def test_boundary_grows_and_shrinks(self, dyn_graph, backend):
        sources = list(range(0, 130, 2))
        with GraphSession(dyn_graph, num_machines=2, backend=backend) as sess:
            sess.dynamic(churn_threshold=10.0)
            self._assert_matches_fresh(sess, sources)  # plans built at epoch 0
            part = sess.pg.partitions[0]
            before = part.exchange_plan().boundary.copy()
            insert, delete = self._grow_and_shrink(sess)

            sess.apply_mutations([insert], [])
            grown = part.exchange_plan().boundary
            assert np.array_equal(grown, np.union1d(before, [insert[1]]))
            assert grown.size == before.size + 1
            self._assert_matches_fresh(sess, sources)

            sess.apply_mutations([], [delete])
            shrunk = part.exchange_plan().boundary
            assert np.array_equal(shrunk, np.setdiff1d(grown, [delete[1]]))
            self._assert_matches_fresh(sess, sources)


class TestCompact:
    def test_folds_pending_into_base(self, dyn_session, edge_keys, rng):
        dg = dyn_session.dynamic()
        n = dg.num_vertices
        dg.apply(fresh_edges(rng, n, edge_keys, 3),
                 existing_edges(rng, n, edge_keys, 2))
        edges_before = dyn_session.snapshots().edges_at(dg.epoch)
        res = dg.compact()
        assert res.epoch == dg.epoch
        assert dg.num_pending == 0
        assert dg.compactions == 1
        # Representation-only: the edge set is unchanged across the
        # compaction epoch, and the shards still match the oracle.
        edges_after = dyn_session.snapshots().edges_at(dg.epoch)
        np.testing.assert_array_equal(edges_before.src, edges_after.src)
        np.testing.assert_array_equal(edges_before.dst, edges_after.dst)
        assert_shards_equal(dg.pg, dyn_session.snapshots().graph_at(dg.epoch))

    def test_compact_without_pending_still_versions(self, dyn_session):
        # Compaction is representation-only but always advances the epoch
        # (resident pool state keyed on the old base must not be reused).
        dg = dyn_session.dynamic()
        res = dg.compact()
        assert not res.changed
        assert dg.epoch == 1
        assert dg.compactions == 1
