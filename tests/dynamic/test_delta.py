"""Mutation log + delta-aware shards: epochs, splicing, compaction."""

import warnings

import numpy as np
import pytest

from repro.core.kcore import core_numbers
from repro.core.multi_sssp import concurrent_sssp
from repro.core.pagerank import pagerank
from repro.dynamic import DynamicGraph
from repro.errors import MutationError, UnsupportedConfigError
from repro.graph import CSR, EdgeList, range_partition
from repro.index.build import build_hub_labels
from repro.index.storage import labels_equal
from repro.runtime.session import GraphSession

from tests.dynamic.conftest import (
    assert_shards_equal,
    existing_edges,
    fresh_edges,
)
from tests.runtime.test_pool_parity import plan_layout


class TestApply:
    def test_advances_epoch_and_edge_count(self, dyn_session, edge_keys, rng):
        dg = dyn_session.dynamic()
        n = dg.num_vertices
        base_edges = dyn_session.num_edges
        ins = fresh_edges(rng, n, edge_keys, 3)
        dels = existing_edges(rng, n, edge_keys, 2)
        res = dg.apply(ins, dels)
        assert res.changed
        assert res.epoch == 1 == dg.epoch
        assert res.inserted.shape == (3, 2)
        assert res.deleted.shape == (2, 2)
        assert dyn_session.num_edges == dg.pg.num_edges == base_edges + 1
        (rec,) = dg.history  # the batch's effective record
        np.testing.assert_array_equal(rec.inserts, res.inserted)
        np.testing.assert_array_equal(rec.deletes, res.deleted)

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
        assert dg.history == []

    def test_insert_then_delete_round_trips(self, dyn_session, edge_keys, rng):
        dg = dyn_session.dynamic()
        n = dg.num_vertices
        (edge,) = fresh_edges(rng, n, edge_keys, 1)
        dg.apply([edge], [])
        res = dg.apply([], [edge])
        assert res.changed
        assert dg.epoch == 2
        # deleting the insert brings back the epoch-0 edge set
        back, base = dg.materialize_edges(), dg.edges_at(0)
        np.testing.assert_array_equal(back.src, base.src)
        np.testing.assert_array_equal(back.dst, base.dst)
        oracle = dg.graph_at(dg.epoch)
        assert_shards_equal(dg.pg, oracle)

    def test_out_of_range_endpoint_rejected(self, dyn_session):
        dg = dyn_session.dynamic()
        with pytest.raises(MutationError):
            dg.apply([(0, dg.num_vertices)], [])

    @pytest.mark.parametrize(
        "bad",
        [
            [[True, False]],  # booleans are not vertex ids
            np.array([[1, 0]], dtype=bool),
            np.empty((0, 3)),  # empty, but not pairs
            np.empty((2, 0)),
            [[np.nan, 1]],  # refused without a numpy warning
            [[1.5, 2]],
            [[np.inf, 1]],
            [["a", "b"]],
        ],
        ids=repr,
    )
    @pytest.mark.parametrize("path", ["graph", "queued"])
    def test_malformed_pairs_rejected(self, dyn_session, bad, path):
        from repro.runtime.scheduler import QueryService

        dg = dyn_session.dynamic()
        svc = QueryService(dyn_session, k=2)
        for inserts, deletes in ((bad, []), ([], bad)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(MutationError):
                    if path == "graph":
                        dg.apply(inserts, deletes)
                    else:
                        svc.apply_mutations(inserts, deletes, arrival=1.0)
        assert dg.epoch == 0
        assert svc.num_pending_mutations == 0

    def test_empty_and_float_pairs_accepted(self, dyn_session):
        dg = dyn_session.dynamic()
        for empty in ((), [], np.empty((0, 2)), np.empty(0, dtype=np.int32)):
            assert dg.as_pairs(empty, "inserts").shape == (0, 2)
        got = dg.as_pairs([[1.0, 2.0]], "inserts")
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, [[1, 2]])

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
            oracle = dg.graph_at(dg.epoch)
            assert_shards_equal(dg.pg, oracle)

    def test_traversal_sees_mutations(
        self, dyn_session, dyn_graph, edge_keys, rng
    ):
        # A vertex made reachable by an inserted edge must show up in khop.
        dg = dyn_session.dynamic()
        n = dg.num_vertices
        src = int(dyn_graph.src[0])
        before = dyn_session.khop([src], 1)
        (edge,) = fresh_edges(rng, n, edge_keys, 1)
        u, v = src, edge[1]
        if u == v or u * n + v in edge_keys:
            pytest.skip("rng collision with base edge")
        dg.apply([(u, v)], [])
        after = dyn_session.khop([src], 1)
        assert after.reached[0] >= before.reached[0]


class TestLiveShardReaders:
    """Everything that reads the graph reads the live shards, so a dynamic
    session between compactions answers for its current edge set."""

    def test_kcore_sees_an_uncompacted_insert(self):
        # a path 0-1-2 closed into a triangle
        path = EdgeList.from_pairs([(0, 1), (1, 2)], num_vertices=4)
        sess = GraphSession(path, num_machines=2)
        sess.dynamic()
        sess.apply_mutations([(0, 2)], [])
        fresh = GraphSession(sess.dynamic().edges_at(sess.graph_epoch), 2)
        assert core_numbers(sess).core.tolist() == [2, 2, 2, 0]
        assert core_numbers(fresh).core.tolist() == [2, 2, 2, 0]

    def test_index_rebuild_ranks_hubs_by_the_current_degrees(
        self, dyn_session, dyn_graph, edge_keys, rng
    ):
        dg = dyn_session.dynamic()
        n = dg.num_vertices
        # lift the least-connected vertex up the hub order, then build
        quiet = int(np.argmin(dyn_graph.total_degrees()))
        fanout = [(quiet, v) for v in range(n) if v != quiet][:60]
        dyn_session.apply_mutations(fanout, existing_edges(rng, n, edge_keys, 5))
        got = dyn_session.index()
        want = build_hub_labels(dg.graph_at(dg.epoch)).labels
        assert labels_equal(got, want)

    def test_edge_count_is_live_between_compactions(
        self, dyn_session, edge_keys, rng
    ):
        dg = dyn_session.dynamic()
        n = dg.num_vertices
        for _ in range(3):
            dyn_session.apply_mutations(
                fresh_edges(rng, n, edge_keys, 4),
                existing_edges(rng, n, edge_keys, 1),
            )
            assert dyn_session.pg.num_edges == dyn_session.num_edges
            assert dyn_session.num_edges == len(edge_keys)
        assert dg.compactions == 0


class TestSlotSpace:
    """A partition's exchange plan is spliced with its shard: an insert that
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
        oracle = sess.dynamic().graph_at(sess.graph_epoch)
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
            sess.dynamic()
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
        edges_before = dg.edges_at(dg.epoch)
        res = dg.compact()
        assert res.epoch == dg.epoch
        assert dg.history[-1].compaction
        assert dg.compactions == 1
        # Representation-only: the edge set is unchanged across the
        # compaction epoch, and the shards still match the oracle.
        edges_after = dg.edges_at(dg.epoch)
        np.testing.assert_array_equal(edges_before.src, edges_after.src)
        np.testing.assert_array_equal(edges_before.dst, edges_after.dst)
        assert_shards_equal(dg.pg, dg.graph_at(dg.epoch))

    def test_compact_without_pending_still_versions(self, dyn_session):
        # Compaction is representation-only but always advances the epoch
        # (resident pool state keyed on the old base must not be reused).
        dg = dyn_session.dynamic()
        res = dg.compact()
        assert not res.changed
        assert dg.epoch == 1
        assert dg.compactions == 1


class TestEdgeSetLayout:
    """An edge-set layout is stripe bounds only, frozen when the session is
    built: every splice (in place, or worker-side from the pool's base
    image) splices the plan under the same bounds, and a fresh image
    rebuilds it under them, so an edge-set dynamic session answers, scans
    and charges exactly like a flat one at every epoch."""

    @pytest.mark.parametrize("backend", ["inproc", "pool"])
    def test_matches_flat_through_mutations_and_compaction(
        self, dyn_graph, edge_keys, rng, backend
    ):
        sources = list(range(0, 130, 2))
        n = dyn_graph.num_vertices
        steps = [
            (fresh_edges(rng, n, edge_keys, 6), []),
            ([], existing_edges(rng, n, edge_keys, 6)),
            (fresh_edges(rng, n, edge_keys, 4), existing_edges(rng, n, edge_keys, 4)),
            None,  # compaction
            (fresh_edges(rng, n, edge_keys, 3), existing_edges(rng, n, edge_keys, 3)),
        ]
        with GraphSession(
            dyn_graph, num_machines=2, backend=backend, edge_sets=True,
            sets_per_partition=4,
        ) as blocked:
            flat = GraphSession(dyn_graph, num_machines=2)
            layout = [p.edge_sets for p in blocked.pg.partitions]
            for sess in (blocked, flat):
                sess.dynamic()
            for step in steps:
                for sess in (blocked, flat):
                    if step is None:
                        sess.compact()
                    else:
                        sess.apply_mutations(*step)
                assert blocked.graph_epoch == flat.graph_epoch
                assert all(
                    p.edge_sets is es for p, es in zip(blocked.pg.partitions, layout)
                )
                assert blocked.pg.partitions[0].exchange_plan().block_rows is not None
                for direction in ("push", "pull"):
                    got = blocked.khop(sources, 3, direction=direction)
                    want = flat.khop(sources, 3, direction=direction)
                    np.testing.assert_array_equal(got.reached, want.reached)
                    assert got.total_edges_scanned == want.total_edges_scanned
                    assert got.total_bytes == want.total_bytes
                    assert got.virtual_seconds == want.virtual_seconds
            assert not blocked.degraded
            assert blocked.dynamic().compactions == 1
            # the same settings again, on shards that changed since the
            # layout froze: not a different layout
            GraphSession(blocked.pg, edge_sets=True, sets_per_partition=4).close()
            held = [p.edge_sets for p in blocked.pg.partitions]
            assert all(es is lay for es, lay in zip(held, layout))
            if blocked.uses_pool:  # the workers spliced under the same bounds
                assert [lay[2] for lay in blocked.gather_batch(plan_layout)] == [
                    True, True
                ]
