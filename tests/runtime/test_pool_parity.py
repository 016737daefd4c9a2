"""Bit-identical parity: the worker pool vs the in-process engine.

The pool backend is the same superstep protocol on real OS processes —
identical StepStats, identical reduction order, identical virtual clocks.
Every test here runs the same batch on both backends and asserts exact
equality, not tolerance: any drift is a protocol bug, not noise.

The pool session is module-scoped so the whole file pays worker spawn once
(one process per machine; spawn imports the package from scratch).  The
"pool-degraded" session is a pool session whose ladder always ends on its
last rung: one attempt, no recoveries, a sticky crash — so every batch it
serves runs the same description on the in-process executor.
"""

import numpy as np
import pytest

from repro.core.khop import concurrent_khop
from repro.core.pagerank import PageRankProgram
from repro.errors import UnsupportedConfigError
from repro.graph import rmat_edges
from repro.runtime.fault import FaultPlan, FaultTolerance, RetryPolicy
from repro.runtime.scheduler import QueryService
from repro.runtime.session import GraphSession


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
        retry_policy=RetryPolicy(max_attempts=1),
    ) as sess:
        yield sess


@pytest.fixture(params=["pool_sess", "degraded_sess"], ids=["pool", "pool-degraded"])
def other_sess(request):
    return request.getfixturevalue(request.param)


class TestKHopParity:
    @pytest.mark.parametrize("width", [4, 65, 512])
    def test_full_result_parity(self, graph, inproc_sess, other_sess, width):
        sources = [0, 17, 333, 901] + list(range(width - 4))
        a = concurrent_khop(graph, sources, 3, record_depths=True,
                            session=inproc_sess)
        b = concurrent_khop(graph, sources, 3, record_depths=True,
                            session=other_sess)
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
        with pytest.raises(ValueError, match="inproc"):
            pool_sess.khop([0], 2, use_edge_sets=True)
        with pytest.raises(UnsupportedConfigError, match="use_edge_sets"):
            pool_sess.khop([0], 2, use_edge_sets=True)
        with pytest.raises(UnsupportedConfigError, match="use_edge_sets"):
            pool_sess.reach([0], [1], 2, use_edge_sets=True)
        with pytest.raises(UnsupportedConfigError, match="asynchronous"):
            pool_sess.khop([0], 2, asynchronous=True)


class TestWideParity:
    def test_wide_512_batch(self, graph, inproc_sess, pool_sess):
        sources = [i % graph.num_vertices for i in range(512)]
        a = concurrent_khop(graph, sources, 3, session=inproc_sess)
        b = concurrent_khop(graph, sources, 3, session=pool_sess)
        assert np.array_equal(a.reached, b.reached)
        assert a.virtual_seconds == b.virtual_seconds
        assert a.supersteps == b.supersteps


class TestGASParity:
    def test_pagerank_bitwise_equal(self, inproc_sess, pool_sess):
        a = inproc_sess.pagerank(iterations=10)
        b = pool_sess.pagerank(iterations=10)
        # float sums in identical order: exact equality, not allclose
        assert np.array_equal(a.values, b.values)
        assert a.virtual_seconds == b.virtual_seconds

    def test_custom_program_convergence(self, inproc_sess, pool_sess):
        prog_a = PageRankProgram(tolerance=1e-6)
        prog_b = PageRankProgram(tolerance=1e-6)
        a = inproc_sess.gas(prog_a, iterations=50)
        b = pool_sess.gas(prog_b, iterations=50)
        assert a.iterations == b.iterations
        assert np.array_equal(a.values, b.values)

    def test_async_requires_inproc(self, pool_sess):
        with pytest.raises(ValueError, match="inproc"):
            pool_sess.gas(PageRankProgram(), iterations=3, asynchronous=True)
        with pytest.raises(UnsupportedConfigError, match="asynchronous"):
            pool_sess.gas(PageRankProgram(), iterations=3, asynchronous=True)


class TestReachParity:
    def test_point_queries(self, inproc_sess, pool_sess):
        sources = [0, 5, 9, 33, 101]
        targets = [9, 0, 200, 44, 101]
        a = inproc_sess.reach(sources, targets, 4)
        b = pool_sess.reach(sources, targets, 4)
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


class TestDegeneratePool:
    def test_single_worker_pool(self, graph):
        ref = GraphSession(graph, num_machines=1).khop([0, 9], 3)
        with GraphSession(graph, num_machines=1, backend="pool") as sess:
            res = sess.khop([0, 9], 3)
        assert np.array_equal(ref.reached, res.reached)
        assert ref.virtual_seconds == res.virtual_seconds
