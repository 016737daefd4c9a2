"""Pool lifecycle: clean startup, shutdown, and zero resource leaks.

The acceptance bar is strict: after ``GraphSession.close()`` no worker
process survives and no shared-memory segment remains in ``/dev/shm`` —
checked twice in one process, because leaks from the first cycle would
surface in the second (name collisions, orphaned segments, zombie
children).  The protocol's shape is pinned too — which ops a batch sends,
and that no reply carries a plane — and so are the two-slot checkpoint
segments a recovery restores from.
"""

import multiprocessing as mp
import os
import pickle

from collections import Counter
from multiprocessing.reduction import ForkingPickler

import numpy as np
import pytest

from repro.core.api import run_program
from repro.core.khop import concurrent_khop
from repro.core.reachability import reachability_queries
from repro.errors import UnsupportedConfigError
from repro.graph import EdgeList, rmat_edges
from repro.runtime.engine import WorkerFailure
from repro.runtime.fault import FaultPlan, FaultTolerance
from repro.runtime.pool import Supervisor, WorkerPool, _Snapshot
from repro.runtime.session import GraphSession
from tests.core.test_api import ListingTwoKHop


def _pool_children():
    return [p for p in mp.active_children() if p.name.startswith("repro-pool-")]


def _shm_files(names):
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        return []
    present = set(os.listdir("/dev/shm"))
    return [n for n in names if n in present]


@pytest.fixture
def graph():
    return rmat_edges(8, 3000, seed=7).remove_self_loops().deduplicate()


@pytest.fixture(scope="module")
def ring():
    """A 300-vertex ring with +1 and +3 edges: on two range partitions
    every superstep crosses both cuts, and a query runs ~100 levels."""
    n = 300
    src = np.repeat(np.arange(n), 2)
    dst = (src + np.tile([1, 3], n)) % n
    return EdgeList(src, dst, n)


@pytest.fixture
def replies(monkeypatch):
    """Every reply a worker sends, as re-pickled for the wire."""
    got: list = []
    recv = Supervisor.recv

    def spy(sup, worker_id, timeout=None):
        reply = recv(sup, worker_id, timeout)
        if not isinstance(reply, WorkerFailure):
            got.append(reply)
        return reply

    monkeypatch.setattr(Supervisor, "recv", spy)
    return got


def _snapshots(replies) -> list:
    return [f for r in replies for f in r if isinstance(f, _Snapshot)]


class TestShutdown:
    def test_close_releases_processes_and_segments(self, graph):
        # two full create/run/close cycles in one process
        for cycle in range(2):
            sess = GraphSession(graph, num_machines=2, backend="pool")
            res = sess.khop([0, 5], 3)
            assert res.reached.sum() > 0
            pool = sess.pool()
            names = pool.segment_names()
            assert len(_pool_children()) == 2
            sess.close()
            assert _pool_children() == [], f"cycle {cycle}: workers leaked"
            assert _shm_files(names) == [], f"cycle {cycle}: segments leaked"

    def test_shutdown_idempotent(self, graph):
        sess = GraphSession(graph, num_machines=2, backend="pool")
        sess.khop([0], 2)
        pool = sess.pool()
        sess.close()
        pool.shutdown()  # second shutdown is a no-op
        sess.close()
        assert _pool_children() == []

    def test_context_manager_closes(self, graph):
        with GraphSession(graph, num_machines=2, backend="pool") as sess:
            sess.khop([1], 2)
            names = sess.pool().segment_names()
        assert _pool_children() == []
        assert _shm_files(names) == []

    def test_close_after_external_worker_death(self, graph):
        # a worker killed out from under the session (OOM killer, operator
        # mistake) must not make close() raise or leak the segments
        sess = GraphSession(graph, num_machines=2, backend="pool")
        sess.khop([0], 2)
        pool = sess.pool()
        names = pool.segment_names()
        victim = _pool_children()[0]
        victim.terminate()
        victim.join(5)
        sess.close()
        sess.close()  # idempotent even after an abnormal teardown
        assert _pool_children() == []
        assert _shm_files(names) == []

    def test_session_usable_after_close(self, graph):
        # close() parks the pool; the next batch restarts it transparently
        sess = GraphSession(graph, num_machines=2, backend="pool")
        a = sess.khop([0, 9], 3)
        sess.close()
        b = sess.khop([0, 9], 3)
        sess.close()
        assert np.array_equal(a.reached, b.reached)
        assert a.virtual_seconds == b.virtual_seconds


class TestProtocolShape:
    """What the coordinator sends: every ``Supervisor.send``, decoded."""

    @pytest.fixture
    def sent(self, monkeypatch):
        ops: list[tuple[int, str]] = []
        send = Supervisor.send

        def spy(sup, worker_id, frame):
            msg = pickle.loads(frame)
            # a call is named by its function: a control or a gather
            ops.append((worker_id, msg[1].__name__ if msg[0] == "call" else msg[0]))
            return send(sup, worker_id, frame)

        monkeypatch.setattr(Supervisor, "send", spy)
        return ops

    def test_khop_batch_starts_with_one_message_per_worker(self, graph, sent):
        with GraphSession(graph, num_machines=2, backend="pool") as sess:
            sess.khop([0, 5], 3)
        ops = [op for _, op in sent]
        first_compute = ops.index("compute")
        assert sorted(w for w, _ in sent[:first_compute]) == [0, 1]
        assert set(ops) <= {
            "begin", "compute", "apply", "khop_visited_counts", "checkpoint"
        }

    def test_fault_free_khop_sends_no_checkpoint(self, graph, sent):
        """Snapshots ride ``begin``'s and the due steps' replies: a k=3
        batch is one begin, three compute/apply rounds and the count."""
        with GraphSession(graph, num_machines=2, backend="pool") as sess:
            res = sess.khop([0, 5], 3)
        assert res.supersteps == 3
        assert Counter(op for _, op in sent) == {
            "begin": 2, "compute": 6, "apply": 6, "khop_visited_counts": 2,
        }

    def test_a_control_costs_one_checkpoint_round(self, ring, sent):
        """Reach's early-termination control changes the tasks after the
        step's snapshots: it drops them, and the driver's checkpoint runs
        its own barrier — once per control the run goes on past."""
        with GraphSession(ring, num_machines=2, backend="pool") as sess:
            # query 0 hits at hop 1; query 1's target is ~100 hops away
            res = reachability_queries(sess, [0, 100], [1, 99], 4)
        assert res.reachable.tolist() == [True, False]
        ops = [op for w, op in sent if w == 0]
        assert ops == ["begin"] + [
            "compute", "apply", "mask_frontier", "checkpoint"
        ] * 3 + ["compute", "apply", "mask_frontier"]

    def test_no_reply_carries_a_plane(self, sent, replies):
        """Only control records cross the pipes: with 64 KiB+ planes per
        worker, no reply of a k-hop or reach batch (checkpoints included)
        pickles past 4 KiB."""
        big = rmat_edges(15, 100_000, seed=3).remove_self_loops().deduplicate()
        rng = np.random.default_rng(5)
        sources = rng.integers(0, big.num_vertices, 64)
        with GraphSession(big, num_machines=2, backend="pool") as sess:
            rows = max(p.num_local for p in sess.pg.partitions)
            assert rows * 8 >= 64 * 1024  # one word per row at 64 wide
            sess.khop(sources, 3)
            reachability_queries(
                sess, sources, rng.integers(0, big.num_vertices, 64), 3
            )
        assert len(_snapshots(replies)) >= 4
        assert max(len(ForkingPickler.dumps(r)) for r in replies) <= 4096

    def test_unpicklable_description_sends_nothing(self, graph, sent):
        with GraphSession(graph, num_machines=2, backend="pool") as sess:
            sess.khop([0], 2)
            sent.clear()
            with pytest.raises(UnsupportedConfigError, match="lambda"):
                run_program(
                    sess, lambda ctx: ListingTwoKHop(ctx, 0, 2)
                )
        assert sent == []


class TestCheckpointSlots:
    """Each worker's snapshots live in a two-slot shared segment.  A new
    snapshot must never land on the slot the driver's checkpoint uses: not
    from a step whose other workers then fail, and not from the ``begin`` a
    respawned worker replays before it restores."""

    @pytest.fixture(scope="class")
    def inproc(self, ring):
        return GraphSession(ring, num_machines=2)

    @pytest.mark.parametrize("interval", [1, 2, 3])
    def test_recovery_parity_after_both_slots_are_written(
        self, ring, inproc, interval
    ):
        sources = list(range(0, 300, 5))
        ref = concurrent_khop(inproc, sources, 9)
        ft = FaultTolerance(checkpoint_interval=interval, max_recoveries=4)
        # Three snapshots are out before each fault (begin's and two due
        # steps'), so the driver's checkpoint is back in begin's slot.  The
        # crash makes worker 1 replay ``begin`` before the restore; the
        # corrupt inbox fails worker 1 at a due step whose snapshot worker
        # 0 has already written.
        plans = [
            FaultPlan().crash_worker(2 * interval, 1),
            FaultPlan().corrupt_inbox(2 * interval - 1, 1),
        ]
        with GraphSession(
            ring, num_machines=2, backend="pool", fault_tolerance=ft
        ) as sess:
            for recoveries, plan in enumerate(plans):
                sess.set_fault_plan(plan)
                res = concurrent_khop(sess, sources, 9)
                assert np.array_equal(res.reached, ref.reached)
                assert res.per_step_seconds == ref.per_step_seconds
                assert res.total_messages == ref.total_messages
                assert not sess.degraded
            assert sess.pool().recoveries == 1  # the crash; corruption replies

    def test_an_overflowing_snapshot_rides_inline_once(
        self, graph, replies
    ):
        """A depth matrix outgrows the slot rule (three word planes): that
        batch's snapshots ride inline, the next ``begin`` grows every
        segment to fit, and the old segments are unlinked."""
        sources = list(range(64))
        ref = GraphSession(graph, num_machines=2).khop(
            sources, 3, record_depths=True
        )
        with GraphSession(graph, num_machines=2, backend="pool") as sess:
            first = sess.khop(sources, 3, record_depths=True)
            names = sess.pool().segment_names()
            inline = [s for s in _snapshots(replies) if s.inline]
            assert inline and len(inline) == len(_snapshots(replies))
            replies.clear()
            second = sess.khop(sources, 3, record_depths=True)
            grown = sess.pool().segment_names()
            snaps = _snapshots(replies)
            assert snaps and not any(s.inline for s in snaps)
            gone = sorted(set(names) - set(grown))
            assert len(gone) == 2 and _shm_files(gone) == []
        assert _shm_files(grown) == []
        for res in (first, second):
            assert np.array_equal(res.depths, ref.depths)
            assert np.array_equal(res.reached, ref.reached)


class TestDeterminism:
    def test_spawned_workers_fixed_seed(self, graph):
        """Two pools over the same graph produce identical answers — nothing
        a worker computes depends on process ids or time."""
        results = []
        for _ in range(2):
            with GraphSession(graph, num_machines=3, backend="pool") as sess:
                results.append(sess.khop([2, 71], 4))
        a, b = results
        assert np.array_equal(a.reached, b.reached)
        assert a.per_step_seconds == b.per_step_seconds

    def test_bare_pool_shutdown(self, graph):
        """A WorkerPool used directly (no session) still cleans up fully."""
        pg = GraphSession(graph, num_machines=2).pg
        pool = WorkerPool(pg)
        names = pool.segment_names()
        assert not pool.closed
        pool.shutdown()
        assert pool.closed
        assert _pool_children() == []
        assert _shm_files(names) == []
        with pytest.raises(RuntimeError, match="shut down"):
            pool.gather(len)
