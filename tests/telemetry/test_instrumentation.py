"""The instrumentation facade threaded through the live runtime.

The acceptance contract for the whole telemetry layer lives here: a traced
service drain must export (a) a Chrome-trace span file whose per-superstep
virtual durations sum to the ``ServiceReport`` makespan, and (b) a
Prometheus file exposing the headline work counters and the response-time
histogram.  The trace and the report are two views of the same virtual
time — not two estimates.
"""

import inspect

import numpy as np
import pytest

from repro.graph.generators import rmat_edges
from repro.runtime.scheduler import QueryService
from repro.runtime.session import GraphSession
from repro.telemetry import (
    NULL_INSTRUMENTATION,
    Instrumentation,
    NullInstrumentation,
    load_trace,
    prometheus_text,
    write_chrome_trace,
)


@pytest.fixture
def edges():
    return rmat_edges(8, 2000, seed=11)


def traced_drain(edges, num_queries=48, k=3, seed=5, **service_kwargs):
    instr = Instrumentation()
    sess = GraphSession(edges, num_machines=3, instrumentation=instr)
    svc = QueryService(sess, k=k, **service_kwargs)
    rng = np.random.default_rng(seed)
    svc.submit_many(rng.integers(0, edges.num_vertices, num_queries))
    return instr, svc, svc.drain()


class TestNullDefault:
    def test_null_is_the_default_everywhere(self, edges):
        sess = GraphSession(edges, num_machines=2)
        svc = QueryService(sess, k=2)
        planner = sess.index_planner()
        assert sess.instr is NULL_INSTRUMENTATION
        assert sess.cluster.instr is NULL_INSTRUMENTATION
        assert svc.instr is NULL_INSTRUMENTATION
        assert planner.instrumentation is NULL_INSTRUMENTATION

    def test_null_records_nothing_and_costs_nothing(self, edges):
        null = NullInstrumentation()
        assert null.enabled is False
        assert null.tracer is None and null.metrics is None
        with null.span("anything", cat="x"):
            pass  # nullcontext: no tracer touched
        null.on_dispatch("batch")
        null.on_queries_done(np.array(["traversal"]), "batch", np.ones(1))
        null.on_clock(2.0)
        null.on_index_lookup(1, 10)
        sess = GraphSession(edges, num_machines=2,
                            instrumentation=NullInstrumentation())
        svc = QueryService(sess, k=2)
        svc.submit_many([0, 1, 2])
        rep = svc.drain()  # whole path runs with telemetry disabled
        assert rep.num_queries == 3

    def test_every_hook_is_a_noop_on_the_null_facade(self):
        # the null facade is generated from Instrumentation's own hooks:
        # a hook added there can never be forgotten here (it would reach
        # for counters the null never allocated)
        null = NullInstrumentation()
        assert null.enabled is False
        hooks = [n for n in dir(Instrumentation) if n.startswith("on_")]
        assert "on_superstep" in hooks and "on_cache" in hooks
        for name in hooks:
            live = getattr(Instrumentation, name)
            assert getattr(NullInstrumentation, name) is not live, name
            required = [
                p for p in list(inspect.signature(live).parameters.values())[1:]
                if p.default is p.empty
            ]
            assert getattr(null, name)(*[None] * len(required)) is None, name


class TestTracedService:
    def test_drain_produces_the_span_taxonomy(self, edges):
        instr, svc, rep = traced_drain(edges)
        cats = {s.cat for s in instr.tracer.spans}
        assert {"service", "dispatch", "batch", "superstep", "compute",
                "session"} <= cats
        names = [s.name for s in instr.tracer.spans]
        assert "session prepare" in names
        assert any(n.startswith("superstep") for n in names)

    def test_superstep_spans_nest_under_dispatch(self, edges):
        instr, svc, rep = traced_drain(edges, num_queries=8)
        by_id = {s.span_id: s for s in instr.tracer.spans}
        steps = [s for s in instr.tracer.spans if s.cat == "superstep"]
        assert steps
        for s in steps:
            chain = []
            cur = s
            while cur.parent_id is not None:
                cur = by_id[cur.parent_id]
                chain.append(cur.cat)
            assert "batch" in chain
            assert "dispatch" in chain
            assert "service" in chain

    def test_work_counters_match_the_trace(self, edges):
        instr, svc, rep = traced_drain(edges)
        steps = [s for s in instr.tracer.spans if s.cat == "superstep"]
        edges_counter = instr.metrics.get("cgraph_edges_scanned_total")
        assert edges_counter.total == sum(
            s.args["edges_scanned"] for s in steps
        )
        assert edges_counter.total > 0
        supersteps = instr.metrics.get("cgraph_supersteps_total")
        assert supersteps.total == len(steps)
        queries = instr.metrics.get("cgraph_queries_total")
        assert queries.total == rep.num_queries

    def test_virtual_cursor_tracks_service_clock(self, edges):
        instr = Instrumentation()
        sess = GraphSession(edges, num_machines=3, instrumentation=instr)
        svc = QueryService(sess, k=2)
        rng = np.random.default_rng(0)
        roots = rng.integers(0, edges.num_vertices, 8)
        svc.submit_many(roots)
        svc.drain()
        # second wave lands after an idle gap: cursor must jump it
        svc.submit_many(roots, arrivals=[svc.clock + 1.0] * len(roots))
        svc.drain()
        assert instr.tracer.virtual_now == pytest.approx(svc.clock)
        assert svc.clock > 1.0

    def test_index_lane_instrumented_under_hybrid(self, edges):
        instr = Instrumentation()
        sess = GraphSession(edges, num_machines=3, instrumentation=instr)
        svc = QueryService(sess, k=3, planner="hybrid")
        rng = np.random.default_rng(2)
        n = 12
        svc.submit_many(
            rng.integers(0, edges.num_vertices, n),
            targets=rng.integers(0, edges.num_vertices, n),
        )
        rep = svc.drain()
        assert (rep.routes == "index").all()
        assert instr.metrics.get("cgraph_index_lookups_total").total == n
        assert instr.metrics.get("cgraph_index_entries_scanned_total").total > 0
        cats = {s.cat for s in instr.tracer.spans}
        assert "index" in cats

    @pytest.mark.parametrize("planner", ["traversal", "hybrid"])
    def test_recording_never_perturbs_the_report(self, edges, planner):
        """Telemetry observes: the same mixed wave (enumeration + point
        queries, spread arrivals) drains to the same report on a null and
        on a recording session — answers, routes and every virtual time."""
        rng = np.random.default_rng(4)
        n = edges.num_vertices
        roots, src, dst = (rng.integers(0, n, 24) for _ in range(3))
        arrivals = np.sort(rng.uniform(0.0, 5e-3, 24))
        recorder = Instrumentation()
        reports = []
        for instr in (None, recorder):
            sess = GraphSession(edges, num_machines=3, instrumentation=instr)
            svc = QueryService(sess, k=3, planner=planner, batch_width=8)
            svc.submit_many(roots, arrivals)
            svc.submit_many(src, arrivals, targets=dst)
            reports.append(svc.drain())
        null, recording = reports
        assert recorder.tracer.num_recorded > 0
        assert set(null.reachable.tolist()) == {-1, 0, 1}
        for name in ("start_seconds", "finish_seconds", "reachable", "routes"):
            np.testing.assert_array_equal(
                getattr(null, name), getattr(recording, name), err_msg=name
            )
        assert null.busy_seconds == recording.busy_seconds
        assert null.clock_seconds == recording.clock_seconds
        assert null.num_batches == recording.num_batches > 1


class TestAcceptance:
    """The ISSUE's acceptance criteria, verbatim."""

    def test_superstep_virtual_durations_sum_to_makespan(self, edges,
                                                         tmp_path):
        instr, svc, rep = traced_drain(edges, num_queries=64,
                                       discipline="batch")
        path = write_chrome_trace(instr.tracer, tmp_path / "trace.json")
        events = load_trace(path)
        step_virtual_s = sum(
            e["args"]["virtual_us"] for e in events
            if e["cat"] == "superstep"
        ) / 1e6
        assert rep.makespan > 0
        assert step_virtual_s == pytest.approx(rep.makespan, rel=1e-9)

    def test_makespan_invariant_survives_idle_arrival_gaps(self, edges):
        instr = Instrumentation()
        sess = GraphSession(edges, num_machines=3, instrumentation=instr)
        svc = QueryService(sess, k=2, discipline="batch")
        rng = np.random.default_rng(9)
        roots = rng.integers(0, edges.num_vertices, 96)
        # arrivals spread over 10 virtual seconds: plenty of idle time
        svc.submit_many(roots, arrivals=np.linspace(0.0, 10.0, roots.size))
        rep = svc.drain()
        step_virtual_s = sum(
            s.virt_seconds for s in instr.tracer.spans
            if s.cat == "superstep"
        )
        assert step_virtual_s == pytest.approx(rep.makespan, rel=1e-9)
        # makespan is busy time only; the clock includes the idle gaps
        assert rep.makespan < rep.clock_seconds

    def test_prometheus_export_exposes_required_metrics(self, edges):
        instr, svc, rep = traced_drain(edges, discipline="batch")
        text = prometheus_text(instr.metrics)
        for name in ("cgraph_messages_total", "cgraph_bytes_total",
                     "cgraph_edges_scanned_total"):
            assert f"# TYPE {name} counter" in text
            assert f"{name}{{machine=" in text
        assert "# TYPE cgraph_response_seconds histogram" in text
        assert 'cgraph_response_seconds_bucket{discipline="batch",le="+Inf"}' \
            f" {rep.num_queries}" in text
        assert f"cgraph_response_seconds_count{{discipline=\"batch\"}} " \
            f"{rep.num_queries}" in text
        # the durability family is always registered, even before any
        # durable session exists (zero-valued series are how operators
        # alert on "recovery never ran")
        for name in ("cgraph_wal_appends_total", "cgraph_wal_fsyncs_total",
                     "cgraph_wal_bytes_total", "cgraph_checkpoints_total",
                     "cgraph_replayed_records_total"):
            assert f"# TYPE {name} counter" in text
        assert "# TYPE cgraph_recovery_seconds gauge" in text
