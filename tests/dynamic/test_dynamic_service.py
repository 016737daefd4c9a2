"""QueryService mutation lane: interleaving, epochs, routing, cross-check."""

import numpy as np
import pytest

from repro.errors import MutationError
from repro.runtime.fault import FaultPlan
from repro.runtime.scheduler import QueryService
from repro.runtime.session import GraphSession

from tests.dynamic.conftest import existing_edges, fresh_edges


def _roots(graph, count):
    return [int(v) for v in graph.src[:count]]


class TestMutationLane:
    def test_static_session_rejected(self, dyn_graph):
        svc = QueryService(GraphSession(dyn_graph, num_machines=2), k=2)
        with pytest.raises(MutationError):
            svc.apply_mutations([(0, 1)], [])

    def test_immediate_apply(self, dyn_session, edge_keys, rng):
        svc = QueryService(dyn_session, k=2)
        n = dyn_session.num_vertices
        res = svc.apply_mutations(fresh_edges(rng, n, edge_keys, 2), [])
        assert res.changed
        assert res.epoch == 1 == dyn_session.graph_epoch
        assert svc.mutations_applied == 1

    def test_queued_mutations_interleave(
        self, dyn_session, dyn_graph, edge_keys, rng
    ):
        # One query before the mutation's arrival, one far after: the
        # mutation must apply between them, and each query's recorded
        # epoch says which graph version served it.
        svc = QueryService(dyn_session, k=2)
        n = dyn_session.num_vertices
        early, late = _roots(dyn_graph, 2)
        svc.submit(early, arrival=0.0)
        svc.submit(late, arrival=1e6)
        assert (
            svc.apply_mutations(
                fresh_edges(rng, n, edge_keys, 2), [], arrival=1.0
            )
            is None
        )
        assert svc.num_pending_mutations == 1
        rep = svc.drain()
        assert rep.mutations_applied == 1
        assert svc.num_pending_mutations == 0
        np.testing.assert_array_equal(rep.epochs, [0, 1])
        assert dyn_session.graph_epoch == 1

    def test_malformed_queued_batch_refused_at_the_door(
        self, dyn_graph, edge_keys, rng
    ):
        # A queued batch gets the immediate path's pair checks at
        # submission: it raises there, nothing is queued, and the next
        # drain is the one an undisturbed twin runs.
        n = dyn_graph.num_vertices
        good = fresh_edges(rng, n, edge_keys, 2)
        early, late = _roots(dyn_graph, 2)
        reports = []
        for disturb in (True, False):
            sess = GraphSession(dyn_graph, num_machines=2)
            sess.dynamic()
            svc = QueryService(sess, k=2)
            svc.submit(early, arrival=0.0)
            svc.submit(late, arrival=1e6)
            svc.apply_mutations(good, [], arrival=1.0)
            if disturb:
                for bad in ([(0, n + 5)], [(0, 1, 2)], [(0.5, 1)]):
                    with pytest.raises(MutationError):
                        svc.apply_mutations(bad, [], arrival=0.5)
                    with pytest.raises(MutationError):
                        svc.apply_mutations([], bad, arrival=0.5)
            assert svc.num_pending_mutations == 1
            reports.append(svc.drain())
            assert svc.num_pending_mutations == 0
            assert sess.graph_epoch == 1
        disturbed, twin = reports
        assert disturbed.mutations_applied == twin.mutations_applied == 1
        np.testing.assert_array_equal(disturbed.epochs, twin.epochs)
        np.testing.assert_array_equal(
            disturbed.finish_seconds, twin.finish_seconds
        )

    def test_compaction_mid_drain(self, dyn_graph, edge_keys, rng):
        sess = GraphSession(dyn_graph, num_machines=2)
        dg = sess.dynamic(compact_interval=1)
        svc = QueryService(sess, k=2)
        n = sess.num_vertices
        a, b = _roots(dyn_graph, 2)
        svc.submit(a, arrival=0.0)
        svc.submit(b, arrival=1e6)
        # Two mutation batches due before the second query batch; with
        # compact_interval=1 each triggers a compaction, so the epoch
        # advances by four (mutation + compaction, twice).
        svc.apply_mutations(fresh_edges(rng, n, edge_keys, 1), [], arrival=0.5)
        svc.apply_mutations([], existing_edges(rng, n, edge_keys, 1),
                            arrival=0.6)
        rep = svc.drain()
        assert rep.mutations_applied == 2
        assert dg.compactions == 2
        assert dg.history[-1].compaction
        assert dg.epoch == 4
        np.testing.assert_array_equal(rep.epochs, [0, 4])


class TestCrossCheck:
    def test_interleaved_drain_passes_oracle(
        self, dyn_session, dyn_graph, edge_keys, rng
    ):
        # cross_check on a dynamic session replays every dispatched batch
        # on a rebuilt-from-scratch graph at the batch's epoch and raises
        # on any answer/clock divergence.
        svc = QueryService(dyn_session, k=2, cross_check=True)
        n = dyn_session.num_vertices
        roots = _roots(dyn_graph, 4)
        for i, r in enumerate(roots):
            svc.submit(r, arrival=float(i) * 1e6)
        svc.apply_mutations(fresh_edges(rng, n, edge_keys, 2),
                            existing_edges(rng, n, edge_keys, 1),
                            arrival=1.5e6)
        rep = svc.drain()
        assert rep.num_queries == 4
        assert rep.mutations_applied == 1
        assert rep.epochs.min() == 0 and rep.epochs.max() == 1


class TestHybridRouting:
    def test_patched_index_keeps_the_index_lane(self, dyn_session, edge_keys, rng):
        # a resident index is patched by every mutation, so point queries
        # on either side of a queued batch all ride the index lane, and
        # cross_check re-answers each group on the oracle graph of its epoch
        dyn_session.index()
        svc = QueryService(dyn_session, k=3, planner="hybrid", cross_check=True)
        n = dyn_session.num_vertices
        sources = rng.integers(0, n, size=8)
        targets = rng.integers(0, n, size=8)
        svc.submit_many(
            sources.tolist(), arrivals=np.arange(8) * 1e-3,
            targets=targets.tolist(),
        )
        svc.apply_mutations(fresh_edges(rng, n, edge_keys, 3),
                            existing_edges(rng, n, edge_keys, 2),
                            arrival=3.5e-3)
        rep = svc.drain()
        assert list(rep.routes) == ["index"] * 8
        np.testing.assert_array_equal(rep.epochs, [0] * 4 + [1] * 4)


class TestPoolBackend:
    def test_pool_parity_with_compaction(self, dyn_graph, edge_keys, rng):
        # The shm pool must survive mutations and a mid-drain compaction
        # without degrading to inproc — cross_check asserts answers and
        # clocks against the oracle.
        with GraphSession(dyn_graph, num_machines=2, backend="pool") as sess:
            sess.dynamic(compact_interval=1)
            svc = QueryService(sess, k=2, cross_check=True)
            n = sess.num_vertices
            a, b = _roots(dyn_graph, 2)
            svc.submit(a, arrival=0.0)
            svc.submit(b, arrival=1e6)
            svc.apply_mutations(fresh_edges(rng, n, edge_keys, 2),
                                existing_edges(rng, n, edge_keys, 1),
                                arrival=0.5)
            rep = svc.drain()
            assert not rep.degraded
            assert rep.mutations_applied == 1
            assert sess.dynamic().compactions == 1
            np.testing.assert_array_equal(rep.epochs, [0, 2])

    def test_pool_started_mid_delta_packs_base_image(
        self, dyn_graph, edge_keys, rng
    ):
        # Regression: the pool is started lazily, so its shm image can be
        # packed while mutations are already pending.  Partition deltas
        # are cumulative relative to the *base* image — packing the
        # parent's spliced arrays made workers re-apply the delta on top
        # (duplicate edges skewing the virtual clock) and kept an insert
        # resident in the image even after a later delete cancelled it.
        with GraphSession(dyn_graph, num_machines=2, backend="pool") as sess:
            sess.dynamic()
            svc = QueryService(sess, k=3, cross_check=True)
            n = sess.num_vertices
            (edge,) = fresh_edges(rng, n, edge_keys, 1)
            sess.apply_mutations([edge], [])  # pending before the pool exists
            svc.submit(int(edge[0]), arrival=0.0)
            svc.drain()  # first pool batch packs the image mid-delta
            sess.apply_mutations([], [edge])  # cancel the pre-pack insert
            svc.submit(int(edge[0]), arrival=1e6)
            rep = svc.drain()  # oracle cross-check: answers and clocks
            assert not rep.degraded
            assert sess.graph_epoch == 2

    def test_respawned_worker_replays_the_records(self, dyn_graph, edge_keys, rng):
        # The image is packed at epoch 0 and three batches follow.  A
        # worker killed mid-batch comes back attached to that image, so it
        # must splice every record since then to answer for epoch 3.
        with GraphSession(dyn_graph, num_machines=2, backend="pool") as sess:
            sess.dynamic()
            svc = QueryService(sess, k=2, cross_check=True)
            n = sess.num_vertices
            roots = _roots(dyn_graph, 4)
            svc.submit(roots[0], arrival=0.0)
            svc.drain()  # starts the pool
            for _ in range(3):
                sess.apply_mutations(fresh_edges(rng, n, edge_keys, 3),
                                     existing_edges(rng, n, edge_keys, 2))
            assert sess.pool().image_epoch == 0
            sess.set_fault_plan(FaultPlan().crash_worker(1, 0))
            for i, r in enumerate(roots):
                svc.submit(r, arrival=1e6 * (i + 1))
            rep = svc.drain()  # cross-checked against graph_at(3)
            assert not rep.degraded
            assert sess.pool().recoveries == 1
            np.testing.assert_array_equal(rep.epochs, [3] * len(roots))

    def test_an_epoch_advance_drops_the_workers_resident_tasks(
        self, dyn_graph, edge_keys, rng
    ):
        # Each round moves the graph one epoch and runs a k-hop there: the
        # workers keep only the current epoch's task, as the in-process
        # cache does, and answer for that epoch (cross-checked).
        with GraphSession(dyn_graph, num_machines=2, backend="pool") as sess:
            sess.dynamic()
            svc = QueryService(sess, k=2, cross_check=True)
            n = sess.num_vertices
            roots = _roots(dyn_graph, 7)
            svc.submit(roots[0], arrival=0.0)
            svc.drain()  # packs the image at epoch 0
            for i, r in enumerate(roots[1:], start=1):
                sess.apply_mutations(fresh_edges(rng, n, edge_keys, 2),
                                     existing_edges(rng, n, edge_keys, 1))
                svc.submit(r, arrival=1e6 * i)
                rep = svc.drain()
                assert not rep.degraded
                np.testing.assert_array_equal(rep.epochs, [i])
            pool = sess.pool()
            assert [len(keys) for keys in pool._installed] == [1, 1]
            assert pool.image_epoch == 0 and pool.recoveries == 0

    def test_compaction_keeps_the_pool(self, dyn_graph, edge_keys, rng):
        with GraphSession(dyn_graph, num_machines=2, backend="pool") as sess:
            sess.dynamic()
            svc = QueryService(sess, k=2, cross_check=True)
            n = sess.num_vertices
            a, b = _roots(dyn_graph, 2)
            sess.apply_mutations(fresh_edges(rng, n, edge_keys, 2),
                                 existing_edges(rng, n, edge_keys, 1))
            svc.submit(a, arrival=0.0)
            svc.drain()
            pool = sess.pool()
            pids = [p.pid for p in pool._sup.procs]
            sess.compact()
            svc.submit(b, arrival=1e6)
            rep = svc.drain()
            assert not rep.degraded
            np.testing.assert_array_equal(rep.epochs, [2])
            assert sess.pool() is pool and not pool.closed
            assert [p.pid for p in pool._sup.procs] == pids
            assert pool.recoveries == 0

    def test_replay_past_the_bound_repacks(
        self, dyn_graph, edge_keys, rng, monkeypatch
    ):
        # With a bound of 2, the batch after the third record repacks the
        # image at the current epoch; a worker killed after that replays
        # only the one record since the repack.
        from repro.runtime import pool as pool_mod
        from repro.runtime import session as session_mod

        monkeypatch.setattr(session_mod, "_REPLAY_BOUND", 2)
        shipped = []
        ensure_task = pool_mod.WorkerPool.ensure_task

        def spy(self, key, task_cls, kwargs, payload_width, epoch, records=(),
                **kw):
            shipped.append([rec.epoch for rec in records])
            return ensure_task(self, key, task_cls, kwargs, payload_width,
                               epoch, records, **kw)

        monkeypatch.setattr(pool_mod.WorkerPool, "ensure_task", spy)
        with GraphSession(dyn_graph, num_machines=2, backend="pool") as sess:
            sess.dynamic()
            svc = QueryService(sess, k=2, cross_check=True)
            n = sess.num_vertices
            roots = _roots(dyn_graph, 4)

            def mutate_then_query(i):
                sess.apply_mutations(fresh_edges(rng, n, edge_keys, 2),
                                     existing_edges(rng, n, edge_keys, 1))
                svc.submit(roots[i], arrival=1e6 * i)
                rep = svc.drain()
                assert not rep.degraded
                np.testing.assert_array_equal(rep.epochs, [sess.graph_epoch])

            svc.submit(roots[0], arrival=0.0)
            svc.drain()  # packs the image at epoch 0
            first = sess.pool()
            for _ in range(2):
                sess.apply_mutations(fresh_edges(rng, n, edge_keys, 2),
                                     existing_edges(rng, n, edge_keys, 1))
            mutate_then_query(1)  # three records behind: repack
            repacked = sess.pool()
            assert first.closed and repacked is not first
            assert repacked.image_epoch == sess.graph_epoch == 3
            sess.set_fault_plan(FaultPlan().crash_worker(1, 0))
            mutate_then_query(2)
            assert repacked.recoveries == 1 and sess.pool() is repacked
            assert shipped == [[], [], [4]]

    def test_a_one_shot_fault_fires_once_across_a_repack(
        self, dyn_graph, edge_keys, rng
    ):
        # The crash fires on the first pool and is recovered there; 20
        # records later the next batch repacks (past the bound of 16),
        # and the new pool's workers must not be armed with it again.
        with GraphSession(
            dyn_graph, num_machines=2, backend="pool",
            fault_plan=FaultPlan().crash_worker(0, 1),
        ) as sess:
            sess.dynamic()
            n = sess.num_vertices
            roots = _roots(dyn_graph, 2)
            sess.khop([roots[0]], 2)
            first = sess.pool()
            for _ in range(20):
                sess.apply_mutations(fresh_edges(rng, n, edge_keys, 1), [])
            sess.khop([roots[1]], 2)
            repacked = sess.pool()
            assert first.closed and repacked is not first
            assert first.recoveries + repacked.recoveries == 1
