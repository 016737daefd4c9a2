"""Graceful degradation at the service boundary.

The :class:`QueryService` is where fault tolerance becomes user-visible
policy: admission control sheds load with a typed error instead of
queueing without bound, per-batch deadlines truncate execution and flag
the affected queries instead of stalling the drain, and a session that
lost its worker pool keeps answering (bit-identically) on the in-process
fallback with the degradation reported per drain.
"""

import numpy as np
import pytest

from repro.errors import Overloaded
from repro.graph import rmat_edges
from repro.runtime.fault import FaultPlan, FaultTolerance
from repro.runtime.scheduler import QueryService
from repro.runtime.session import GraphSession


@pytest.fixture(scope="module")
def graph():
    return rmat_edges(10, 12000, seed=11).remove_self_loops().deduplicate()


@pytest.fixture(scope="module")
def inproc_sess(graph):
    return GraphSession(graph, num_machines=2)


class TestLoadShedding:
    def test_overloaded_past_max_pending(self, inproc_sess):
        svc = QueryService(inproc_sess, k=3, max_pending=4)
        for s in range(4):
            svc.submit(s)
        with pytest.raises(Overloaded, match="max_pending=4"):
            svc.submit(4)
        assert svc.num_pending == 4  # the shed query was never queued
        report = svc.drain()
        assert report.shed == 1
        assert report.num_queries == 4

    def test_overfull_wave_queues_what_fits_and_sheds_the_rest(self, graph):
        from repro.telemetry import Instrumentation

        instr = Instrumentation()
        sess = GraphSession(graph, num_machines=2, instrumentation=instr)
        svc = QueryService(sess, k=3, max_pending=2)
        with pytest.raises(Overloaded, match="3 of 5 queries shed, 2 queued"):
            svc.submit_many([1, 2, 3, 4, 5])
        assert svc.num_pending == 2
        assert instr.metrics.get("cgraph_queries_shed_total").value() == 3
        report = svc.drain()
        assert report.shed == 3
        assert report.num_queries == 2
        np.testing.assert_array_equal(report.sources, [1, 2])

    def test_shed_counter_resets_per_drain(self, inproc_sess):
        svc = QueryService(inproc_sess, k=3, max_pending=1)
        svc.submit(0)
        with pytest.raises(Overloaded):
            svc.submit(1)
        assert svc.drain().shed == 1
        # the drain emptied the queue: admission is open again
        svc.submit(2)
        report = svc.drain()
        assert report.shed == 0
        assert svc.shed == 0

    def test_validation_never_counts_as_shed(self, inproc_sess):
        from repro.errors import InvalidQueryError

        svc = QueryService(inproc_sess, k=3, max_pending=8)
        with pytest.raises(InvalidQueryError):
            svc.submit(10**9)
        assert svc.drain().shed == 0


class TestDeadlines:
    def test_no_deadline_reports_none(self, inproc_sess):
        svc = QueryService(inproc_sess, k=3)
        svc.submit_many([0, 17, 333])
        report = svc.drain()
        assert report.deadline_missed is None
        assert svc.deadline_misses == 0

    def test_tight_deadline_truncates_and_flags(self, inproc_sess):
        svc = QueryService(inproc_sess, k=4, deadline_seconds=1e-9)
        qids = svc.submit_many([0, 17, 333, 901])
        report = svc.drain()
        assert report.deadline_missed is not None
        assert report.deadline_missed.shape == (len(qids),)
        assert report.deadline_missed.any()
        assert svc.deadline_misses == int(report.deadline_missed.sum())
        # a missed query is charged the truncated batch's virtual time —
        # finite, and never before its batch started executing
        assert np.isfinite(report.finish_seconds).all()
        assert (report.finish_seconds >= report.start_seconds).all()

    def test_loose_deadline_misses_nothing(self, inproc_sess):
        loose = QueryService(inproc_sess, k=3, deadline_seconds=1e6)
        strict = QueryService(inproc_sess, k=3)
        loose.submit_many([0, 17, 333])
        strict.submit_many([0, 17, 333])
        a, b = loose.drain(), strict.drain()
        assert a.deadline_missed is not None
        assert not a.deadline_missed.any()
        # an un-hit deadline must not perturb the times at all
        assert np.array_equal(a.finish_seconds, b.finish_seconds)

    def test_point_queries_respect_deadline(self, inproc_sess):
        svc = QueryService(
            inproc_sess, k=4, planner="traversal", deadline_seconds=1e-9
        )
        svc.submit_many([0, 17, 333], targets=[901, 333, 0])
        report = svc.drain()
        assert report.deadline_missed is not None
        assert report.deadline_missed.any()


class TestDegradedService:
    def test_drain_survives_losing_the_pool(self, graph, inproc_sess):
        sources = [0, 17, 333, 901]
        targets = [901, 333, 0, 17]

        ref_svc = QueryService(inproc_sess, k=3)
        ref_svc.submit_many(sources, targets=targets)
        ref = ref_svc.drain()
        assert not ref.degraded

        sess = GraphSession(
            graph, num_machines=2, backend="pool",
            fault_tolerance=FaultTolerance(max_recoveries=0),
            fault_plan=FaultPlan().crash_worker(1, 0, sticky=True),
        )
        try:
            svc = QueryService(sess, k=3)
            svc.submit_many(sources, targets=targets)
            report = svc.drain()
            # every pool attempt died; the fallback answered bit-identically
            assert report.degraded
            assert sess.degraded
            assert np.array_equal(ref.reachable, report.reachable)
            assert np.array_equal(ref.finish_seconds, report.finish_seconds)
            assert ref.clock_seconds == report.clock_seconds
        finally:
            sess.close()
