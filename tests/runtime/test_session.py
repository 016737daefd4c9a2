"""GraphSession: persistent runtime state reused across query batches.

The session contract has three load-bearing properties:

1. **bit-identical reuse** — a batch run on a long-lived session returns
   exactly the same answers as a one-shot call that rebuilds the world,
   on every in-process execution mode (serial, async delivery);
2. **isolation between batches** — no state (frontier planes, inbox
   messages, level counters) leaks from one batch into the next;
3. **reuse actually happens** — task lists and the undirected view are
   cached, and buffers are reset rather than reallocated.
"""

import shutil
from functools import partial

import numpy as np
import pytest

from repro.core.api import run_program
from repro.core.gas import run_gas
from repro.core.khop import KHopPartitionTask, concurrent_khop
from repro.core.multi_sssp import concurrent_sssp
from repro.core.ooc import concurrent_khop_out_of_core
from repro.core.pagerank import PageRankProgram, pagerank
from repro.core.reachability import reachability_queries
from repro.core.vertex_api import run_vertex_centric
from repro.graph import EdgeList
from repro.graph.generators import rmat_edges
from repro.runtime.message import Inbox, MessageBatch
from repro.runtime.session import GraphSession
from tests.core.test_api import EchoOnce, ListingTwoKHop
from tests.core.test_vertex_api import BFSVertexProgram, MaxValueProgram


@pytest.fixture(scope="module")
def graph():
    return rmat_edges(9, 4000, seed=11)


@pytest.fixture()
def session(graph):
    return GraphSession(graph, num_machines=3)


def _per_machine_loop(monkeypatch):
    """Run in-process k-hop batches through compute, flush, apply, finalize
    per machine, as the pool and the asynchronous engine do."""
    monkeypatch.setattr(KHopPartitionTask, "fused", classmethod(lambda *a: None))


def _roots(graph, n, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, graph.num_vertices, n)


def _assert_bit_identical(a, b):
    """Answers, wire counts and the virtual clock of two k-hop results."""
    np.testing.assert_array_equal(a.reached, b.reached)
    np.testing.assert_array_equal(a.completion_seconds, b.completion_seconds)
    assert a.total_messages == b.total_messages
    assert a.total_bytes == b.total_bytes
    assert a.total_edges_scanned == b.total_edges_scanned
    assert a.virtual_seconds == b.virtual_seconds
    assert a.per_step_seconds == b.per_step_seconds


class TestBitIdenticalReuse:
    """Session-reused runs must match one-shot runs exactly, all backends."""

    @pytest.mark.parametrize(
        "backend_kwargs",
        [{}, {"asynchronous": True}],
        ids=["serial", "async"],
    )
    def test_khop_matches_one_shot(self, graph, session, backend_kwargs):
        for batch, seed in ((17, 0), (64, 1), (5, 2)):
            roots = _roots(graph, batch, seed)
            one_shot = concurrent_khop(
                GraphSession(graph, num_machines=3), roots, 3, **backend_kwargs
            )
            reused = concurrent_khop(
                session, roots, 3, **backend_kwargs
            )
            np.testing.assert_array_equal(one_shot.reached, reused.reached)
            np.testing.assert_array_equal(
                one_shot.completion_level, reused.completion_level
            )
            assert one_shot.virtual_seconds == reused.virtual_seconds
            assert one_shot.total_edges_scanned == reused.total_edges_scanned

    @pytest.mark.parametrize(
        "backend_kwargs",
        [{}, {"asynchronous": True}],
        ids=["serial", "async"],
    )
    def test_gas_pagerank_matches_one_shot(self, graph, session, backend_kwargs):
        for _ in range(2):  # second run exercises the cached task list
            one_shot = pagerank(
                GraphSession(graph, num_machines=3), iterations=5, **backend_kwargs
            )
            reused = pagerank(
                session, iterations=5, **backend_kwargs
            )
            np.testing.assert_array_equal(one_shot.values, reused.values)
            assert one_shot.virtual_seconds == reused.virtual_seconds

    def test_khop_depths_match(self, graph, session):
        roots = _roots(graph, 32, 3)
        one = concurrent_khop(GraphSession(graph, num_machines=3), roots, None,
                              record_depths=True)
        two = concurrent_khop(session, roots, None, record_depths=True)
        np.testing.assert_array_equal(one.depths, two.depths)

    def test_reachability_matches(self, graph, session):
        s = _roots(graph, 20, 4)
        t = _roots(graph, 20, 5)
        one = reachability_queries(GraphSession(graph, num_machines=3), s, t, 4)
        two = reachability_queries(session, s, t, 4)
        np.testing.assert_array_equal(one.reachable, two.reachable)
        np.testing.assert_array_equal(one.hops, two.hops)

    def test_multi_sssp_matches(self, graph, session):
        weighted = graph.with_unit_weights()
        wsess = GraphSession(weighted, num_machines=3)
        roots = _roots(graph, 10, 6)
        one = concurrent_sssp(GraphSession(weighted, num_machines=3), roots, max_hops=4)
        two = concurrent_sssp(wsess, roots, max_hops=4)
        np.testing.assert_array_equal(one.distances, two.distances)

    def test_many_batches_deterministic(self, graph, session):
        """Back-to-back batches on one session never drift."""
        roots = _roots(graph, 64, 7)
        first = concurrent_khop(session, roots, 3)
        for _ in range(5):
            again = concurrent_khop(session, roots, 3)
            np.testing.assert_array_equal(first.reached, again.reached)
            assert first.virtual_seconds == again.virtual_seconds


class TestBatchIsolation:
    def test_stale_inbox_never_leaks(self, graph, session):
        """Messages queued by an aborted batch must not corrupt the next.

        Regression test for SimCluster.reset_buffers being dead code: we
        plant a poison message in every machine's inbox (as an aborted or
        crashed batch would leave behind) and check the next batch's
        results are untouched.
        """
        roots = _roots(graph, 16, 8)
        clean = concurrent_khop(session, roots, 3)
        for m in session.cluster.machines:
            poison = MessageBatch(
                np.arange(m.lo, min(m.hi, m.lo + 4), dtype=np.int64),
                np.full(min(4, m.num_local), np.uint64(0xFFFFFFFFFFFFFFFF)),
            )
            m.inbox.append(poison)
        after = concurrent_khop(session, roots, 3)
        np.testing.assert_array_equal(clean.reached, after.reached)
        assert clean.virtual_seconds == after.virtual_seconds

    def test_prepare_drops_outbox_too(self, session):
        m = session.cluster.machines[0]
        m.outbox.append(1, MessageBatch(np.array([0]), np.array([1.0])))
        session.prepare()
        assert m.outbox.is_empty
        assert m.inbox.is_empty

    # The slot plane (one row per boundary vertex, scattered into by compute
    # and read by the flush) is task state outside the checkpoint: whatever
    # an interrupted batch left in it must not reach the next batch's wire.
    # Push is forced because only the scatter depends on what the plane held.
    # The in-process k-hop runs its fused step (no per-task slot plane, see
    # tests/core/test_fused_superstep.py); the two tests that drive the
    # per-machine loop's compute and flush switch it off.

    @pytest.mark.parametrize("direction", ["push", "auto"])
    def test_truncated_batch_leaves_nothing_in_the_slot_plane(
        self, graph, session, direction
    ):
        wide = _roots(graph, 64, 12)
        cut = concurrent_khop(session, wide, 4,
                              direction=direction, max_virtual_seconds=1e-9)
        assert cut.truncated and cut.supersteps == 1
        narrow = _roots(graph, 5, 13)
        after = concurrent_khop(session, narrow, 3,
                                direction=direction)
        fresh = concurrent_khop(GraphSession(graph, num_machines=3), narrow, 3,
                                direction=direction)
        _assert_bit_identical(after, fresh)

    @pytest.mark.parametrize("direction", ["push", "auto"])
    def test_compute_raising_after_a_peer_scattered(
        self, graph, session, direction, monkeypatch
    ):
        """Machine 2 raises in its compute; machines 0 and 1 have already
        scattered and queued their plane slices, which are never flushed."""
        _per_machine_loop(monkeypatch)
        real_compute = KHopPartitionTask.compute

        def raise_on_last(task, stats):
            if task.machine.machine_id == 2:
                raise RuntimeError("injected compute failure")
            real_compute(task, stats)

        wide = _roots(graph, 64, 14)
        with monkeypatch.context() as patch:
            patch.setattr(KHopPartitionTask, "compute", raise_on_last)
            with pytest.raises(RuntimeError, match="injected"):
                concurrent_khop(session, wide, 3,
                                direction=direction)
        assert not session.cluster.machines[0].outbox.is_empty
        narrow = _roots(graph, 5, 15)
        after = concurrent_khop(session, narrow, 3,
                                direction=direction)
        fresh = concurrent_khop(GraphSession(graph, num_machines=3), narrow, 3,
                                direction=direction)
        _assert_bit_identical(after, fresh)

    @pytest.mark.parametrize("direction", ["push", "pull"])
    def test_delivered_batches_never_alias_a_slot_plane(
        self, graph, session, direction, monkeypatch
    ):
        _per_machine_loop(monkeypatch)
        delivered = []
        real_append = Inbox.append

        def record(inbox, batch):
            delivered.append(batch)
            real_append(inbox, batch)

        monkeypatch.setattr(Inbox, "append", record)
        concurrent_khop(session, _roots(graph, 64, 16), 3,
                        direction=direction)
        planes = session.gather_batch(lambda task: task._plane)
        boundaries = [p.exchange_plan().boundary for p in session.pg.partitions]
        assert delivered and all(p.size for p in planes)
        for batch in delivered:
            for plane, boundary in zip(planes, boundaries):
                assert not np.shares_memory(batch.payload, plane)
                assert not np.shares_memory(batch.vertices, boundary)

    def test_narrow_then_wide_batch(self, graph, session):
        """A narrower batch after a wider one must not see old query bits."""
        wide = _roots(graph, 64, 9)
        concurrent_khop(session, wide, 3)
        narrow = wide[:3]
        one_shot = concurrent_khop(GraphSession(graph, num_machines=3), narrow, 3)
        reused = concurrent_khop(session, narrow, 3)
        np.testing.assert_array_equal(one_shot.reached, reused.reached)


class TestStateReuse:
    def test_task_lists_are_cached(self, graph, session):
        roots = _roots(graph, 8, 10)
        concurrent_khop(session, roots, 2)
        tasks_first = session._task_cache[("khop",)]
        concurrent_khop(session, roots, 2)
        assert session._task_cache[("khop",)] is tasks_first

    def test_batches_run_counter(self, graph, session):
        before = session.batches_run
        roots = _roots(graph, 8, 11)
        concurrent_khop(session, roots, 2)
        assert session.batches_run == before + 1

    def test_undirected_view_cached(self, graph, session):
        assert session.undirected_pg() is session.undirected_pg()

    def test_service_seconds_memoised(self, graph, session):
        t1 = session.khop_service(0, 3)
        before = session.batches_run
        t2 = session.khop_service(0, 3)
        assert t1 == t2
        assert session.batches_run == before  # no re-traversal

    def test_session_adopts_or_partitions(self, graph, session):
        assert GraphSession(session.pg).pg is session.pg
        transient = GraphSession(graph, num_machines=2)
        assert transient is not session
        assert transient.num_machines == 2

    def test_session_convenience_methods(self, graph, session):
        res = session.khop([0, 1], 2)
        assert res.num_queries == 2
        run = pagerank(session, iterations=2)
        assert run.values.size == graph.num_vertices

    def test_check_sources_validation(self, session):
        with pytest.raises(ValueError, match="sources"):
            session.check_sources([], 64)
        with pytest.raises(ValueError, match="out of range"):
            session.check_sources([session.num_vertices], 64)


class TestGasIsolation:
    def test_different_programs_share_cached_structure(self, graph, session):
        """Two GAS runs with different programs reuse the structural task
        precompute but never each other's values."""
        one = run_gas(session, PageRankProgram(damping=0.85), 4)
        other = run_gas(session, PageRankProgram(damping=0.5), 4)
        again = run_gas(session, PageRankProgram(damping=0.85), 4)
        assert not np.array_equal(one.values, other.values)
        np.testing.assert_array_equal(one.values, again.values)


@pytest.fixture(scope="module")
def weighted(graph):
    rng = np.random.default_rng(4)
    return EdgeList(graph.src, graph.dst, graph.num_vertices,
                    rng.uniform(0.1, 4.0, graph.num_edges))


@pytest.fixture(scope="module")
def weighted_pool(weighted):
    with GraphSession(weighted, num_machines=3, backend="pool") as sess:
        yield sess


def _engine_row(result):
    total = result.total_stats()
    return (
        repr(result.virtual_seconds), result.per_step_seconds,
        total.total_messages, total.total_bytes, total.edges_scanned,
    )


def _sssp(sess, width):
    res = concurrent_sssp(sess, list(range(0, 3 * width, 3)), max_hops=4)
    return res.distances.tobytes(), _engine_row(res.engine_result)


def _program(sess, factory):
    programs, result = run_program(sess, factory, max_supersteps=50)
    return [vars(p) for p in programs], _engine_row(result)


def _vertex(sess, program):
    values, result = run_vertex_centric(sess, program, max_supersteps=50)
    return values.tobytes(), _engine_row(result)


class TestResidentReset:
    """Each described entry point twice on one session, the second call
    with different inputs, equals that call on a fresh session: a ``reset``
    that missed a field would leak the first call's state."""

    @pytest.mark.parametrize("backend", ["inproc", "pool"])
    @pytest.mark.parametrize(
        "entry, first, second",
        [
            (_sssp, 7, 2),
            # EchoOnce sends on superstep 0 only: a stale context shows
            (_program, partial(ListingTwoKHop, source=7, k=3),
             partial(EchoOnce, target=400, value=2.0)),
            (_vertex, MaxValueProgram(), BFSVertexProgram(3, k=4)),
        ],
        ids=["multi-sssp", "partition-program", "vertex-program"],
    )
    def test_second_call_matches_fresh(
        self, weighted, weighted_pool, backend, entry, first, second
    ):
        sess = (
            weighted_pool if backend == "pool"
            else GraphSession(weighted, num_machines=3)
        )
        entry(sess, first)
        got = entry(sess, second)
        assert got == entry(GraphSession(weighted, num_machines=3), second)

    def test_out_of_core_opens_a_new_store(self, weighted, tmp_path):
        def run(sess, sources, k, cache_blocks, spill):
            res = concurrent_khop_out_of_core(
                sess, sources, k, cache_blocks=cache_blocks,
                spill_directory=tmp_path / spill,
            )
            return (
                res.reached.tolist(), repr(res.virtual_seconds), res.supersteps,
                res.total_edges_scanned, res.disk_reads, res.disk_bytes_read,
                res.cache_hit_rate,
            )

        sess = GraphSession(weighted, num_machines=3)
        run(sess, [0, 5, 9], 2, 0, "first")
        shutil.rmtree(tmp_path / "first")  # a stale store would read here
        got = run(sess, [1, 2, 3, 4, 5], 3, 8, "second")
        want = run(GraphSession(weighted, num_machines=3),
                   [1, 2, 3, 4, 5], 3, 8, "fresh")
        assert got == want
