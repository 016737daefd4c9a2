"""The QoS layer end-to-end inside QueryService.

The subsystem's contract: weighted-fair lanes, quotas and the result
cache may reorder and re-price work, but never change an answer — every
test that exercises scheduling asserts verdicts against the FIFO drain
or a live traversal.
"""

import numpy as np
import pytest

from repro.core.reachability import reachability_queries
from repro.errors import InvalidQueryError, UnsupportedConfigError
from repro.graph.generators import rmat_edges
from repro.qos import LaneSpec, QosConfig, QuotaSpec, ResultCache
from repro.qos.lanes import TokenBucket
from repro.runtime.scheduler import QueryService
from repro.runtime.session import GraphSession
from repro.telemetry.instrument import Instrumentation


@pytest.fixture(scope="module")
def graph():
    return rmat_edges(8, 2500, seed=21).remove_self_loops().deduplicate()


@pytest.fixture(scope="module")
def session(graph):
    return GraphSession(graph, num_machines=3)


def point_wave(session, n, seed):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, session.num_vertices, n),
        rng.integers(0, session.num_vertices, n),
    )


def two_lane_trace(session, svc, seed=0, bulk=90, interactive=8):
    """The canonical trace: a bulk burst at t=0 plus spread interactive."""
    b_src, b_dst = point_wave(session, bulk, seed)
    i_src, i_dst = point_wave(session, interactive, seed + 1)
    svc.submit_many(b_src, targets=b_dst, lane="bulk", tenant="crawler")
    svc.submit_many(
        i_src,
        np.linspace(1e-4, 2e-3, interactive),
        targets=i_dst,
        lane="interactive",
        tenant="frontend",
    )


class TestWfqAnswers:
    def test_verdicts_bit_identical_to_fifo(self, session):
        reports = {}
        for name, qos in (("fifo", None), ("wfq", QosConfig())):
            svc = QueryService(session, k=3, qos=qos)
            two_lane_trace(session, svc)
            reports[name] = svc.drain()
        np.testing.assert_array_equal(
            reports["wfq"].reachable, reports["fifo"].reachable
        )
        # ... and the report stays aligned in submission order either way
        np.testing.assert_array_equal(
            reports["wfq"].query_ids, reports["fifo"].query_ids
        )
        np.testing.assert_array_equal(
            reports["wfq"].sources, reports["fifo"].sources
        )

    def test_deterministic_replay(self, session):
        def run():
            svc = QueryService(
                session,
                k=3,
                qos=QosConfig(
                    lanes={
                        "interactive": LaneSpec(weight=8.0, batch_width=8),
                        "bulk": LaneSpec(weight=1.0),
                    },
                    quotas={"crawler": QuotaSpec(rate=5e4, burst=4.0)},
                ),
            )
            two_lane_trace(session, svc)
            return svc.drain()

        a, b = run(), run()
        np.testing.assert_array_equal(a.reachable, b.reachable)
        np.testing.assert_array_equal(a.start_seconds, b.start_seconds)
        np.testing.assert_array_equal(a.finish_seconds, b.finish_seconds)
        assert a.clock_seconds == b.clock_seconds
        assert a.throttled == b.throttled

    def test_affinity_modes_agree_on_answers(self, session):
        """Lanes narrower than their backlog pack every batch by seed
        partition; the verdicts are still the FIFO service's."""
        qos = QosConfig(
            lanes={
                "interactive": LaneSpec(weight=8.0, batch_width=4),
                "bulk": LaneSpec(weight=1.0, batch_width=8),
            }
        )
        verdicts = []
        for cfg in (qos, None):
            svc = QueryService(session, k=3, qos=cfg)
            two_lane_trace(session, svc)
            verdicts.append(svc.drain().reachable)
        np.testing.assert_array_equal(verdicts[0], verdicts[1])

    def test_interactive_jumps_the_bulk_backlog(self, session):
        """An interactive query arriving mid-backlog starts well before the
        backlog is gone — the whole point of the lanes.  On a deep backlog
        the isolation has a floor, all on the virtual clock: interactive
        p99 at least 3x better than FIFO at no less than 0.75x its
        throughput (both drains finish the same trace, so throughput is
        the clock ratio)."""
        for bulk in (120, 1200):
            reports = {}
            for name, qos in (("fifo", None), ("wfq", QosConfig())):
                svc = QueryService(session, k=3, qos=qos)
                two_lane_trace(session, svc, bulk=bulk)
                reports[name] = svc.drain()
            fifo, wfq = reports["fifo"], reports["wfq"]
            for rep in (fifo, wfq):
                assert set(np.unique(rep.lanes)) == {"bulk", "interactive"}
            inter = wfq.lanes == "interactive"
            wfq_wait = wfq.queueing_seconds[inter].max()
            fifo_wait = fifo.queueing_seconds[inter].max()
            assert wfq_wait < fifo_wait
            if bulk == 1200:
                assert (
                    fifo.p99(lane="interactive")
                    >= 3 * wfq.p99(lane="interactive")
                )
                assert fifo.clock_seconds / wfq.clock_seconds >= 0.75

    def test_per_query_lane_and_tenant_arrays(self, session):
        """A mixed wave can carry per-query lane/tenant sequences; the
        schedule is identical to submitting each query individually."""
        src, dst = point_wave(session, 24, seed=6)
        rng = np.random.default_rng(9)
        lanes = np.where(rng.random(24) < 0.7, "bulk", "interactive")
        tenants = np.where(lanes == "bulk", "crawler", "frontend")
        arrivals = np.sort(rng.uniform(0.0, 1e-3, 24))

        def make():
            return QueryService(session, k=3, qos=QosConfig())

        wave = make()
        wave.submit_many(src, arrivals, targets=dst, lane=lanes, tenant=tenants)
        loop = make()
        for i in range(24):
            loop.submit(int(src[i]), float(arrivals[i]), target=int(dst[i]),
                        lane=str(lanes[i]), tenant=str(tenants[i]))
        a, b = wave.drain(), loop.drain()
        np.testing.assert_array_equal(a.reachable, b.reachable)
        np.testing.assert_array_equal(a.lanes, b.lanes)
        np.testing.assert_array_equal(a.start_seconds, b.start_seconds)
        assert a.clock_seconds == b.clock_seconds

    def test_mismatched_lane_array_rejected(self, session):
        src, dst = point_wave(session, 8, seed=7)
        svc = QueryService(session, k=3, qos=QosConfig())
        with pytest.raises(ValueError, match="lane"):
            svc.submit_many(src, targets=dst, lane=["bulk"] * 5)
        assert svc.num_pending == 0

    def test_enumeration_queries_ride_the_lanes_too(self, session):
        src, _ = point_wave(session, 20, seed=4)
        svc = QueryService(session, k=2, qos=QosConfig())
        svc.submit_many(src[:16], lane="bulk")
        svc.submit_many(src[16:], lane="interactive")
        rep = svc.drain()
        assert rep.num_queries == 20
        assert (rep.reachable == -1).all()  # no verdict bit: reach sets
        fifo = QueryService(session, k=2)
        fifo.submit_many(src[:16], lane="bulk")
        fifo.submit_many(src[16:], lane="interactive")
        assert fifo.drain().num_queries == 20


class TestQuotas:
    def test_token_bucket_paces_a_tenant(self, session):
        src, dst = point_wave(session, 10, seed=5)
        qos = QosConfig(quotas={"crawler": QuotaSpec(rate=1e4, burst=1.0)})
        svc = QueryService(session, k=2, qos=qos)
        svc.submit_many(src, targets=dst, lane="bulk", tenant="crawler")
        rep = svc.drain()
        # burst 1: the first query goes at once, the rest are paced out at
        # 1/rate spacing on the virtual clock
        assert rep.throttled == 9
        assert svc.throttled == 9
        starts = np.sort(rep.start_seconds)
        assert np.all(np.diff(starts) >= 1.0 / 1e4 - 1e-12)

    def test_unquotaed_tenant_is_untouched(self, session):
        src, dst = point_wave(session, 10, seed=6)
        qos = QosConfig(quotas={"crawler": QuotaSpec(rate=1e4, burst=1.0)})
        svc = QueryService(session, k=2, qos=qos)
        svc.submit_many(src, targets=dst, lane="bulk", tenant="frontend")
        rep = svc.drain()
        assert rep.throttled == 0

    def test_quota_preserves_answers(self, session):
        src, dst = point_wave(session, 30, seed=7)
        free = QueryService(session, k=3)
        free.submit_many(src, targets=dst)
        throttled = QueryService(
            session,
            k=3,
            qos=QosConfig(quotas={"default": QuotaSpec(rate=2e4, burst=2.0)}),
        )
        throttled.submit_many(src, targets=dst)
        np.testing.assert_array_equal(
            throttled.drain().reachable, free.drain().reachable
        )


class TestSelectorCost:
    def test_quota_evaluations_grow_linearly_with_queue_depth(
        self, session, monkeypatch
    ):
        """Quota eligibility is read once per queued query, then once per
        *tenant* per pick — not once per queued query per pick, which made
        a deep same-arrival backlog quadratic."""
        reads = [0]
        for name in ("ready_time", "wait"):
            original = getattr(TokenBucket, name)

            def counted(self, *args, _original=original):
                reads[0] += 1
                return _original(self, *args)

            monkeypatch.setattr(TokenBucket, name, counted)

        def bucket_reads(num_queries):
            qos = QosConfig(quotas={"crawler": QuotaSpec(rate=1e6, burst=64)})
            svc = QueryService(session, k=1, qos=qos)
            rng = np.random.default_rng(num_queries)
            svc.submit_many(
                rng.integers(0, session.num_vertices, num_queries),
                lane="bulk",
                tenant="crawler",
            )
            reads[0] = 0
            report = svc.drain()
            assert report.num_batches >= num_queries // 64
            return reads[0]

        shallow, deep = bucket_reads(256), bucket_reads(1024)
        assert deep < 6 * shallow


class TestLaneReport:
    def test_per_lane_percentiles(self, session):
        svc = QueryService(session, k=3, qos=QosConfig())
        two_lane_trace(session, svc)
        rep = svc.drain()
        inter = rep.response_seconds[rep.lanes == "interactive"]
        bulk = rep.response_seconds[rep.lanes == "bulk"]
        assert rep.p99(lane="interactive") == pytest.approx(
            float(np.percentile(inter, 99))
        )
        assert rep.p50(lane="bulk") == pytest.approx(
            float(np.percentile(bulk, 50))
        )
        assert rep.p99() == pytest.approx(
            float(np.percentile(rep.response_seconds, 99))
        )
        assert rep.lane_queries("interactive") == inter.size
        assert rep.lane_queries("bulk") == bulk.size

    def test_unknown_or_empty_lane_is_zero_not_nan(self, session):
        svc = QueryService(session, k=2, qos=QosConfig())
        src, dst = point_wave(session, 5, seed=8)
        svc.submit_many(src, targets=dst, lane="bulk")
        rep = svc.drain()
        assert rep.p99(lane="interactive") == 0.0
        assert rep.lane_queries("interactive") == 0

    def test_repr_breaks_down_lanes(self, session):
        svc = QueryService(session, k=2, qos=QosConfig())
        two_lane_trace(session, svc, bulk=20, interactive=4)
        text = repr(svc.drain())
        assert "lanes=[" in text
        assert "bulk: n=20" in text
        assert "interactive: n=4" in text
        assert "nan" not in text.lower()

    def test_lane_metadata_recorded_without_qos(self, session):
        svc = QueryService(session, k=2)
        src, dst = point_wave(session, 4, seed=9)
        svc.submit_many(src, targets=dst, lane="bulk", tenant="crawler")
        rep = svc.drain()
        assert (rep.lanes == "bulk").all()
        assert (rep.tenants == "crawler").all()

    def test_telemetry_counters(self, graph):
        instr = Instrumentation()
        sess = GraphSession(graph, num_machines=3, instrumentation=instr)
        svc = QueryService(sess, k=2, qos=QosConfig())
        two_lane_trace(sess, svc, bulk=12, interactive=3)
        svc.drain()
        m = instr.metrics
        assert m.get("cgraph_lane_queries_total").value(lane="bulk") == 12
        assert m.get("cgraph_lane_queries_total").value(lane="interactive") == 3


class TestResultCache:
    @pytest.fixture()
    def hybrid(self, graph):
        sess = GraphSession(graph, num_machines=2)
        cache = ResultCache(capacity=512)
        return QueryService(sess, k=3, planner="hybrid", cache=cache), cache

    def test_repeat_wave_hits_and_answers_stick(self, session, hybrid):
        svc, cache = hybrid
        src, dst = point_wave(session, 40, seed=10)
        svc.submit_many(src, targets=dst)
        first = svc.drain()
        assert first.cache_hits == 0 and first.cache_misses == 40
        assert (first.routes == "index").all()
        svc.submit_many(src, targets=dst)
        second = svc.drain()
        assert second.cache_hits == 40 and second.cache_misses == 0
        assert (second.routes == "cache").all()
        np.testing.assert_array_equal(second.reachable, first.reachable)
        assert cache.hit_ratio == pytest.approx(0.5)
        assert "cache=40h/0m" in repr(second)

    def test_hits_are_cheaper_on_the_virtual_clock(self, session, hybrid):
        svc, _ = hybrid
        src, dst = point_wave(session, 30, seed=11)
        svc.submit_many(src, targets=dst)
        first = svc.drain()
        svc.submit_many(src, targets=dst)
        second = svc.drain()
        assert second.response_seconds.sum() < first.response_seconds.sum()
        hits = second.routes == "cache"
        np.testing.assert_allclose(
            second.finish_seconds[hits] - second.start_seconds[hits],
            svc.session.netmodel.work_seconds(0, 1),
        )

    def test_epoch_advance_invalidates(self, graph):
        sess = GraphSession(graph, num_machines=2)
        sess.dynamic()
        cache = ResultCache(capacity=512)
        svc = QueryService(sess, k=3, planner="hybrid", cache=cache)
        rng = np.random.default_rng(12)
        src = rng.integers(0, sess.num_vertices, 25)
        dst = rng.integers(0, sess.num_vertices, 25)
        svc.submit_many(src, targets=dst)
        svc.drain()
        n = sess.num_vertices
        svc.apply_mutations([(int(src[0]), (int(dst[0]) + 1) % n)])
        svc.submit_many(src, targets=dst)
        rep = svc.drain()
        assert rep.cache_hits == 0 and rep.cache_misses == 25
        assert cache.invalidated == 25
        oracle = reachability_queries(sess, src, dst, 3)
        np.testing.assert_array_equal(
            rep.reachable.astype(bool), oracle.reachable.astype(bool)
        )

    def test_cross_check_catches_a_poisoned_cache(self, graph):
        sess = GraphSession(graph, num_machines=2)
        cache = ResultCache(capacity=64)
        svc = QueryService(
            sess, k=3, planner="hybrid", cache=cache, cross_check=True
        )
        rng = np.random.default_rng(13)
        src = rng.integers(0, sess.num_vertices, 10)
        dst = rng.integers(0, sess.num_vertices, 10)
        svc.submit_many(src, targets=dst)
        svc.drain()
        for gen in cache._generations.values():  # poison every cached verdict
            gen.used ^= 1
        svc.submit_many(src, targets=dst)
        with pytest.raises(AssertionError, match="index cross-check failed"):
            svc.drain()

    def test_cache_serves_one_session(self):
        """The key ``(s, t, k, epoch)`` does not name the graph: a cache
        wired to one session is refused by a service on another, whose
        epoch-0 keys would replay the first graph's verdicts."""
        first, second = (
            GraphSession(
                rmat_edges(8, 2000, seed=seed).remove_self_loops().deduplicate(),
                num_machines=2,
            )
            for seed in (1, 2)
        )
        cache = ResultCache(capacity=512)
        QueryService(first, k=2, planner="hybrid", cache=cache)
        with pytest.raises(UnsupportedConfigError, match="another session"):
            QueryService(second, k=2, planner="hybrid", cache=cache)

    def test_one_session_may_share_a_cache_across_k(self, graph):
        """``k`` is in the key, so services with different hop budgets on
        the same session share one cache and stay exact."""
        sess = GraphSession(graph, num_machines=2)
        cache = ResultCache(capacity=512)
        src, dst = point_wave(sess, 30, seed=14)
        for k in (2, 3, 2, 3):
            svc = QueryService(sess, k=k, planner="hybrid", cache=cache)
            svc.submit_many(src, targets=dst)
            rep = svc.drain()
            np.testing.assert_array_equal(
                rep.reachable.astype(bool),
                reachability_queries(sess, src, dst, k).reachable.astype(bool),
            )
        assert cache.hits == 60


class TestValidation:
    def test_qos_requires_batch_discipline(self, session):
        with pytest.raises(ValueError, match="discipline='batch'"):
            QueryService(session, k=2, discipline="pool", qos=QosConfig())

    def test_qos_must_be_typed(self, session):
        with pytest.raises(TypeError, match="QosConfig"):
            QueryService(session, k=2, qos={"interactive": 4})

    def test_cache_requires_hybrid_planner(self, session):
        with pytest.raises(ValueError, match="hybrid"):
            QueryService(session, k=2, cache=ResultCache())

    def test_unknown_lane_rejected_at_submit(self, session):
        svc = QueryService(session, k=2, qos=QosConfig())
        with pytest.raises(InvalidQueryError, match="unknown lane"):
            svc.submit(0, lane="batch")
        # without qos any label is accepted (metadata only)
        QueryService(session, k=2).submit(0, lane="batch")
