"""Bit-identical parity: the worker pool vs the in-process engine.

The pool backend is the same superstep protocol on real OS processes —
identical StepStats, identical reduction order, identical virtual clocks.
Every test here runs the same batch on both backends and asserts exact
equality, not tolerance: any drift is a protocol bug, not noise.

The pool sessions are module-scoped so the whole file pays worker spawn
once per session (one process per machine; spawn imports the package from
scratch).  The
"pool-degraded" session is a pool session whose ladder always ends on its
last rung: one attempt, no recoveries, a sticky crash — so every batch it
serves runs the same description on the in-process executor.
"""

from functools import partial

import numpy as np
import pytest

from repro.core.api import PartitionProgram, run_program
from repro.core.gas import run_gas
from repro.core.khop import concurrent_khop
from repro.core.multi_sssp import concurrent_sssp
from repro.core.pagerank import PageRankProgram, pagerank
from repro.core.reachability import reachability_queries
from repro.core.sssp import sssp
from repro.core.vertex_api import run_vertex_centric
from repro.errors import UnsupportedConfigError, WorkerTaskError
from repro.graph import EdgeList, rmat_edges
from repro.runtime.fault import FaultPlan, FaultTolerance
from repro.runtime.scheduler import QueryService
from repro.runtime.session import GraphSession
from tests.core.test_api import ListingTwoKHop
from tests.core.test_vertex_api import BFSVertexProgram


@pytest.fixture(scope="module")
def graph():
    return rmat_edges(10, 12000, seed=11).remove_self_loops().deduplicate()


@pytest.fixture(scope="module")
def pool_sess(graph):
    with GraphSession(graph, num_machines=2, backend="pool") as sess:
        yield sess


@pytest.fixture(scope="module")
def inproc_sess(graph):
    return GraphSession(graph, num_machines=2)


@pytest.fixture(scope="module")
def degraded_sess(graph):
    with GraphSession(
        graph, num_machines=2, backend="pool",
        fault_plan=FaultPlan().crash_worker(0, 0, sticky=True),
        fault_tolerance=FaultTolerance(max_recoveries=0),
    ) as sess:
        yield sess


@pytest.fixture(params=["pool_sess", "degraded_sess"], ids=["pool", "pool-degraded"])
def other_sess(request):
    return request.getfixturevalue(request.param)


class TestKHopParity:
    @pytest.mark.parametrize("width", [4, 65, 512])
    def test_full_result_parity(self, graph, inproc_sess, other_sess, width):
        sources = [0, 17, 333, 901] + list(range(width - 4))
        a = concurrent_khop(inproc_sess, sources, 3, record_depths=True)
        b = concurrent_khop(other_sess, sources, 3, record_depths=True)
        assert other_sess.degraded == (other_sess.fault_plan is not None)
        assert np.array_equal(a.reached, b.reached)
        assert np.array_equal(a.depths, b.depths)
        assert np.array_equal(a.completion_level, b.completion_level)
        assert np.array_equal(a.completion_seconds, b.completion_seconds)
        assert a.virtual_seconds == b.virtual_seconds
        assert a.supersteps == b.supersteps
        assert a.per_step_seconds == b.per_step_seconds
        assert a.total_bytes == b.total_bytes
        assert a.total_messages == b.total_messages

    def test_second_batch_reuses_resident_tasks(self, inproc_sess, pool_sess):
        # resident task state must be fully re-armed between batches
        for sources, k in ([5, 6], 2), ([0], None), ([100, 200, 300], 4):
            a = inproc_sess.khop(sources, k)
            b = pool_sess.khop(sources, k)
            assert np.array_equal(a.reached, b.reached)
            assert a.virtual_seconds == b.virtual_seconds

    def test_deterministic_across_repeats(self, pool_sess):
        a = pool_sess.khop([3, 44, 555], 3)
        b = pool_sess.khop([3, 44, 555], 3)
        assert np.array_equal(a.reached, b.reached)
        assert a.virtual_seconds == b.virtual_seconds
        assert a.per_step_seconds == b.per_step_seconds

    def test_k_zero(self, inproc_sess, pool_sess):
        a = inproc_sess.khop([7], 0)
        b = pool_sess.khop([7], 0)
        assert np.array_equal(a.reached, b.reached)
        assert a.reached[0] == 1

    def test_edge_sets_require_inproc(self, pool_sess):
        """Edge-sets once required the in-process backend; they are a layout
        of the exchange plan now and run on the pool (TestEdgeSetParity).
        The per-call keyword is gone; the asynchronous engine stays
        in-process only."""
        with pytest.raises(TypeError, match="use_edge_sets"):
            pool_sess.khop([0], 2, use_edge_sets=True)
        with pytest.raises(TypeError, match="use_edge_sets"):
            reachability_queries(pool_sess, [0], [1], 2, use_edge_sets=True)
        with pytest.raises(UnsupportedConfigError, match="asynchronous"):
            pool_sess.khop([0], 2, asynchronous=True)


def plan_layout(task):
    """Worker-side view of the task's exchange plan: ``(row bounds, column
    bounds, blocked)`` of its layout, ``None`` for a flat plan."""
    plan = task.machine.partition.exchange_plan()
    if plan.layout is None:
        return None
    layout = plan.layout
    return layout.row_bounds.tolist(), layout.col_bounds.tolist(), (
        plan.block_rows is not None
    )


@pytest.fixture(scope="module")
def edge_set_pool(graph):
    with GraphSession(
        graph, num_machines=2, backend="pool", edge_sets=True,
        sets_per_partition=4, consolidate_min_edges=256,
    ) as sess:
        yield sess


class TestEdgeSetParity:
    def test_pool_matches_inproc_on_the_edge_set_layout(
        self, graph, inproc_sess, edge_set_pool
    ):
        """The layout bounds ship in the shm manifest: workers build the
        same block-major plans, so the pool answers, scans and charges
        exactly what the in-process engine does — flat or blocked."""
        edge_set_inproc = GraphSession(
            graph, num_machines=2, edge_sets=True, sets_per_partition=4,
            consolidate_min_edges=256,
        )
        sources = [0, 17, 333, 901] + list(range(60))
        for direction in ("push", "pull", "auto"):
            a = concurrent_khop(edge_set_inproc, sources, 3, direction=direction)
            b = concurrent_khop(edge_set_pool, sources, 3, direction=direction)
            flat = concurrent_khop(inproc_sess, sources, 3, direction=direction)
            for res in (b, flat):
                assert np.array_equal(res.reached, a.reached)
                assert np.array_equal(res.completion_seconds, a.completion_seconds)
                assert res.total_edges_scanned == a.total_edges_scanned
                assert res.virtual_seconds == a.virtual_seconds
                assert res.total_bytes == a.total_bytes
        assert not edge_set_pool.degraded
        # the workers built their plans under the parent's layout
        assert edge_set_pool.gather_batch(plan_layout) == [
            (p.edge_sets.row_bounds.tolist(), p.edge_sets.col_bounds.tolist(), True)
            for p in edge_set_pool.pg.partitions
        ]
        reach = reachability_queries(edge_set_pool, [0, 5], [9, 3], 3)
        want = reachability_queries(inproc_sess, [0, 5], [9, 3], 3)
        assert np.array_equal(reach.reachable, want.reachable)
        assert reach.virtual_seconds == want.virtual_seconds


class TestWideParity:
    def test_wide_512_batch(self, graph, inproc_sess, pool_sess):
        sources = [i % graph.num_vertices for i in range(512)]
        a = concurrent_khop(inproc_sess, sources, 3)
        b = concurrent_khop(pool_sess, sources, 3)
        assert np.array_equal(a.reached, b.reached)
        assert a.virtual_seconds == b.virtual_seconds
        assert a.supersteps == b.supersteps


class TestGASParity:
    def test_pagerank_bitwise_equal(self, inproc_sess, pool_sess):
        a = pagerank(inproc_sess, iterations=10)
        b = pagerank(pool_sess, iterations=10)
        # float sums in identical order: exact equality, not allclose
        assert np.array_equal(a.values, b.values)
        assert a.virtual_seconds == b.virtual_seconds

    def test_custom_program_convergence(self, inproc_sess, pool_sess):
        prog_a = PageRankProgram(tolerance=1e-6)
        prog_b = PageRankProgram(tolerance=1e-6)
        a = run_gas(inproc_sess, prog_a, iterations=50)
        b = run_gas(pool_sess, prog_b, iterations=50)
        assert a.iterations == b.iterations
        assert np.array_equal(a.values, b.values)

    def test_async_requires_inproc(self, pool_sess):
        with pytest.raises(ValueError, match="inproc"):
            run_gas(pool_sess, PageRankProgram(), iterations=3, asynchronous=True)
        with pytest.raises(UnsupportedConfigError, match="asynchronous"):
            run_gas(pool_sess, PageRankProgram(), iterations=3, asynchronous=True)


class TestReachParity:
    def test_point_queries(self, inproc_sess, pool_sess):
        sources = [0, 5, 9, 33, 101]
        targets = [9, 0, 200, 44, 101]
        a = reachability_queries(inproc_sess, sources, targets, 4)
        b = reachability_queries(pool_sess, sources, targets, 4)
        assert np.array_equal(a.reachable, b.reachable)
        assert np.array_equal(a.hops, b.hops)
        assert np.array_equal(a.resolution_seconds, b.resolution_seconds)
        assert a.virtual_seconds == b.virtual_seconds


class TestServiceParity:
    def test_hybrid_planner_drain(self, graph):
        """A full QueryService drain — point queries through the hybrid
        index lane plus enumeration batches — must report identical times
        and verdicts on both backends."""
        rng = np.random.default_rng(5)
        n = graph.num_vertices
        point_s = rng.integers(0, n, 20)
        point_t = rng.integers(0, n, 20)
        enum_s = rng.integers(0, n, 40)
        reports = []
        for backend in ("inproc", "pool"):
            with GraphSession(graph, num_machines=2, backend=backend) as sess:
                svc = QueryService(sess, k=3, planner="hybrid")
                svc.submit_many(point_s, targets=point_t)
                svc.submit_many(enum_s, arrivals=np.linspace(0, 0.01, 40))
                reports.append(svc.drain())
        a, b = reports
        assert np.array_equal(a.finish_seconds, b.finish_seconds)
        assert np.array_equal(a.reachable, b.reachable)
        assert np.array_equal(a.routes, b.routes)
        assert a.clock_seconds == b.clock_seconds
        assert a.num_batches == b.num_batches


class RaiseAtStepOne(PartitionProgram):
    """Stays awake and raises on partition 0 at superstep 1."""

    def __init__(self, ctx):
        pass

    def compute(self, ctx):
        if ctx.partition_id == 0 and ctx.superstep == 1:
            raise RuntimeError("program raised at superstep 1")


def raise_on_partition_one(ctx):
    """A program factory that raises on partition 1 only."""
    if ctx.partition_id == 1:
        raise RuntimeError("factory raised on partition 1")
    return RaiseAtStepOne(ctx)


class TestTaskErrorKeepsThePoolInStep:
    """A task raising in one worker fails its batch typed, after every other
    worker's reply is read: the same pool then serves the next batch."""

    @pytest.mark.parametrize(
        "factory", [RaiseAtStepOne, raise_on_partition_one],
        ids=["step-raise", "begin-raise"],
    )
    def test_next_batch_matches_inproc(self, inproc_sess, pool_sess, factory):
        with pytest.raises(WorkerTaskError, match="raised"):
            run_program(pool_sess, factory)
        a = inproc_sess.khop([0, 5, 9], 3)
        b = pool_sess.khop([0, 5, 9], 3)
        assert np.array_equal(a.reached, b.reached)
        assert repr(a.virtual_seconds) == repr(b.virtual_seconds)
        assert not pool_sess.degraded
        assert pool_sess.pool().recoveries == 0


class TestDegeneratePool:
    def test_single_worker_pool(self, graph):
        ref = GraphSession(graph, num_machines=1).khop([0, 9], 3)
        with GraphSession(graph, num_machines=1, backend="pool") as sess:
            res = sess.khop([0, 9], 3)
        assert np.array_equal(ref.reached, res.reached)
        assert ref.virtual_seconds == res.virtual_seconds


@pytest.fixture(scope="module")
def weighted(graph):
    rng = np.random.default_rng(3)
    return EdgeList(graph.src, graph.dst, graph.num_vertices,
                    rng.uniform(0.1, 4.0, graph.num_edges))


@pytest.fixture(scope="module")
def pool3(weighted):
    with GraphSession(weighted, num_machines=3, backend="pool") as sess:
        yield sess


@pytest.fixture(scope="module")
def inproc3(weighted):
    return GraphSession(weighted, num_machines=3)


def _engine_row(result):
    """A run's clock and wire: every field bit-identical across executors."""
    total = result.total_stats()
    return (
        repr(result.virtual_seconds), result.per_step_seconds,
        total.total_messages, total.total_bytes, total.edges_scanned,
    )


def _ran_on_workers(sess):
    return type(sess._executor).__name__ == "WorkerPool"


class TestDescribedBatchParity:
    """Multi-SSSP, partition programs and vertex programs are descriptions
    too: on a pool session they run in the workers, bit-identically."""

    @pytest.mark.parametrize("max_hops", [None, 3])
    @pytest.mark.parametrize("width", [1, 7, 32])
    def test_multi_sssp(self, inproc3, pool3, width, max_hops):
        sources = [(37 * q) % inproc3.num_vertices for q in range(width)]
        a = concurrent_sssp(inproc3, sources, max_hops=max_hops)
        b = concurrent_sssp(pool3, sources, max_hops=max_hops)
        assert _ran_on_workers(pool3)
        assert a.distances.tobytes() == b.distances.tobytes()
        assert a.supersteps == b.supersteps
        assert _engine_row(a.engine_result) == _engine_row(b.engine_result)

    def test_sssp(self, inproc3, pool3):
        a = sssp(inproc3, 5, max_hops=4)
        b = sssp(pool3, 5, max_hops=4)
        assert _ran_on_workers(pool3)
        assert a.distances.tobytes() == b.distances.tobytes()
        assert a.hops_used == b.hops_used
        assert _engine_row(a.engine_result) == _engine_row(b.engine_result)

    def test_partition_program(self, inproc3, pool3):
        factory = partial(ListingTwoKHop, source=7, k=3)
        progs_a, a = run_program(inproc3, factory, max_supersteps=50)
        progs_b, b = run_program(pool3, factory, max_supersteps=50)
        assert _ran_on_workers(pool3)
        # the pool hands back unpickled copies holding the same user state
        assert [p.best for p in progs_a] == [p.best for p in progs_b]
        assert a.supersteps == b.supersteps
        assert _engine_row(a) == _engine_row(b)

    def test_program_past_the_outbox_bound(self, inproc_sess, pool_sess):
        # re-expansion sends one vertex several uncombined messages a step,
        # more than the pool's static outbox bound: the excess rides inline
        factory = partial(ListingTwoKHop, source=0, k=4)
        progs_a, a = run_program(inproc_sess, factory)
        progs_b, b = run_program(pool_sess, factory)
        assert _ran_on_workers(pool_sess)
        assert [p.best for p in progs_a] == [p.best for p in progs_b]
        assert _engine_row(a) == _engine_row(b)

    def test_vertex_program(self, inproc3, pool3):
        va, a = run_vertex_centric(inproc3, BFSVertexProgram(3, k=4),
                                   max_supersteps=50)
        vb, b = run_vertex_centric(pool3, BFSVertexProgram(3, k=4),
                                   max_supersteps=50)
        assert _ran_on_workers(pool3)
        assert va.tobytes() == vb.tobytes()
        assert a.supersteps == b.supersteps
        assert _engine_row(a) == _engine_row(b)

    def test_degraded_session_runs_a_lambda_factory(self, inproc_sess,
                                                    degraded_sess):
        # the last rung runs in-process: nothing crosses, nothing must pickle
        degraded_sess.khop([0], 1)
        assert degraded_sess.degraded
        factory = lambda ctx: ListingTwoKHop(ctx, 7, 3)  # noqa: E731
        progs_a, a = run_program(inproc_sess, factory)
        progs_b, b = run_program(degraded_sess, factory)
        assert [p.best for p in progs_a] == [p.best for p in progs_b]
        assert _engine_row(a) == _engine_row(b)
