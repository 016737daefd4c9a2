"""Pool lifecycle: clean startup, shutdown, and zero resource leaks.

The acceptance bar is strict: after ``GraphSession.close()`` no worker
process survives and no shared-memory segment remains in ``/dev/shm`` —
checked twice in one process, because leaks from the first cycle would
surface in the second (name collisions, orphaned segments, zombie
children).
"""

import multiprocessing as mp
import os
import pickle

import numpy as np
import pytest

from repro.core.api import run_program
from repro.errors import UnsupportedConfigError
from repro.graph import rmat_edges
from repro.runtime.pool import Supervisor, WorkerPool
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
            ops.append((worker_id, pickle.loads(frame)[0]))
            return send(sup, worker_id, frame)

        monkeypatch.setattr(Supervisor, "send", spy)
        return ops

    def test_khop_batch_starts_with_one_message_per_worker(self, graph, sent):
        with GraphSession(graph, num_machines=2, backend="pool") as sess:
            sess.khop([0, 5], 3)
        ops = [op for _, op in sent]
        first_compute = ops.index("compute")
        assert sorted(w for w, _ in sent[:first_compute]) == [0, 1]
        assert set(ops) <= {"begin", "compute", "apply", "call", "checkpoint"}

    def test_unpicklable_description_sends_nothing(self, graph, sent):
        with GraphSession(graph, num_machines=2, backend="pool") as sess:
            sess.khop([0], 2)
            sent.clear()
            with pytest.raises(UnsupportedConfigError, match="lambda"):
                run_program(
                    sess, lambda ctx: ListingTwoKHop(ctx, 0, 2)
                )
        assert sent == []


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
