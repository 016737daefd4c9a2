"""Property tests: *any* QoS configuration preserves answers and determinism.

Hypothesis draws lane weights, batch-width caps and quotas; for every
draw the weighted-fair drain must return verdicts
bit-identical to the FIFO drain of the same trace (scheduling may move a
query in time, never change its answer — a point verdict depends only on
``(source, target, k, graph epoch)``), and every draw must replay
bit-identically: same verdicts, same start/finish times, same virtual
clock.  With mid-drain mutations in the trace, batch composition decides
which epoch a query is answered at, so the FIFO twin is no longer an
oracle; there the drain runs under ``cross_check=True``, which rebuilds a
from-scratch session per epoch inside the service and asserts every
batch's answers and virtual clocks against it.  A final property asserts
the whole QoS report is bit-identical across the inproc and pool
backends.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph import rmat_edges
from repro.qos import LaneSpec, QosConfig, QuotaSpec
from repro.runtime.scheduler import QueryService
from repro.runtime.session import GraphSession

K = 3
NUM_QUERIES = 48


@pytest.fixture(scope="module")
def graph():
    return rmat_edges(9, 5000, seed=29).remove_self_loops().deduplicate()


@pytest.fixture(scope="module")
def inproc_sess(graph):
    return GraphSession(graph, num_machines=2)


@pytest.fixture(scope="module")
def pool_sess(graph):
    with GraphSession(graph, num_machines=2, backend="pool") as sess:
        yield sess


@pytest.fixture(scope="module")
def trace(graph):
    """One fixed arrival trace: sources, targets, arrivals, lanes, tenants."""
    rng = np.random.default_rng(31)
    n = graph.num_vertices
    lanes = np.where(rng.random(NUM_QUERIES) < 0.7, "bulk", "interactive")
    tenants = np.where(lanes == "bulk", "crawler", "frontend")
    return {
        "sources": rng.integers(0, n, NUM_QUERIES),
        "targets": rng.integers(0, n, NUM_QUERIES),
        "arrivals": np.sort(rng.uniform(0.0, 5e-3, NUM_QUERIES)),
        "lanes": lanes,
        "tenants": tenants,
    }


def submit_trace(svc, trace):
    for i in range(NUM_QUERIES):
        svc.submit(
            int(trace["sources"][i]),
            float(trace["arrivals"][i]),
            target=int(trace["targets"][i]),
            lane=str(trace["lanes"][i]),
            tenant=str(trace["tenants"][i]),
        )


@st.composite
def qos_configs(draw):
    lanes = {
        "interactive": LaneSpec(
            weight=draw(st.sampled_from([1.0, 2.0, 4.0, 8.0, 16.0])),
            batch_width=draw(st.sampled_from([None, 4, 8, 32])),
        ),
        "bulk": LaneSpec(
            weight=draw(st.sampled_from([0.5, 1.0, 2.0])),
            batch_width=draw(st.sampled_from([None, 16, 64])),
        ),
    }
    quotas = {}
    if draw(st.booleans()):
        quotas["crawler"] = QuotaSpec(
            rate=draw(st.sampled_from([2e3, 2e4, 2e5])),
            burst=draw(st.sampled_from([1.0, 4.0, 16.0])),
        )
    if draw(st.booleans()):
        quotas["frontend"] = QuotaSpec(rate=1e5, burst=2.0)
    return QosConfig(lanes=lanes, quotas=quotas)


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(cfg=qos_configs())
def test_any_config_keeps_answers_and_replays_bitwise(inproc_sess, trace, cfg):
    fifo = QueryService(inproc_sess, k=K)
    submit_trace(fifo, trace)
    fifo_rep = fifo.drain()

    def run():
        svc = QueryService(inproc_sess, k=K, qos=cfg)
        submit_trace(svc, trace)
        return svc.drain()

    a, b = run(), run()
    # scheduling may never change a verdict...
    np.testing.assert_array_equal(a.reachable, fifo_rep.reachable)
    # ...and the whole schedule is a pure function of (trace, config)
    np.testing.assert_array_equal(a.reachable, b.reachable)
    np.testing.assert_array_equal(a.start_seconds, b.start_seconds)
    np.testing.assert_array_equal(a.finish_seconds, b.finish_seconds)
    np.testing.assert_array_equal(a.lanes, b.lanes)
    assert a.clock_seconds == b.clock_seconds
    assert a.throttled == b.throttled


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    cfg=qos_configs(),
    mut_seed=st.integers(min_value=0, max_value=2**16 - 1),
)
def test_any_config_survives_mid_drain_mutations(graph, trace, cfg, mut_seed):
    """With mutations due mid-drain, scheduling decides which epoch each
    batch sees, so the service's internal oracle is the contract: under
    ``cross_check=True`` every dispatched batch's verdicts AND virtual
    clocks are asserted against a from-scratch session rebuilt at that
    batch's epoch (the drain raises on any divergence)."""
    n = graph.num_vertices

    def run():
        sess = GraphSession(graph, num_machines=2)
        sess.dynamic()
        svc = QueryService(sess, k=K, qos=cfg, cross_check=True)
        submit_trace(svc, trace)
        mut_rng = np.random.default_rng(mut_seed)
        for arrival in (1e-3, 3e-3):
            u, v = int(mut_rng.integers(0, n)), int(mut_rng.integers(0, n))
            if u != v:
                svc.apply_mutations([(u, v)], arrival=arrival)
        rep = svc.drain()
        return rep, sess.graph_epoch

    (a, epoch_a), (b, epoch_b) = run(), run()
    assert epoch_a == epoch_b >= 1
    np.testing.assert_array_equal(a.reachable, b.reachable)
    np.testing.assert_array_equal(a.start_seconds, b.start_seconds)
    np.testing.assert_array_equal(a.finish_seconds, b.finish_seconds)
    assert a.clock_seconds == b.clock_seconds


@pytest.mark.parametrize(
    "cfg",
    [
        QosConfig(),
        QosConfig(
            lanes={
                "interactive": LaneSpec(weight=8.0, batch_width=8),
                "bulk": LaneSpec(weight=1.0),
            },
            quotas={"crawler": QuotaSpec(rate=2e4, burst=2.0)},
        ),
        # widths below each lane's backlog: every batch is affinity-packed
        QosConfig(
            lanes={
                "interactive": LaneSpec(weight=2.0, batch_width=4),
                "bulk": LaneSpec(weight=1.0, batch_width=8),
            },
        ),
    ],
)
def test_qos_report_bit_identical_across_backends(
    inproc_sess, pool_sess, trace, cfg
):
    """The pool backend must reproduce the whole QoS report exactly:
    verdicts, schedule, virtual clock and throttle counts."""
    reports = []
    for sess in (inproc_sess, pool_sess):
        svc = QueryService(sess, k=K, qos=cfg)
        submit_trace(svc, trace)
        reports.append(svc.drain())
    a, b = reports
    np.testing.assert_array_equal(a.reachable, b.reachable)
    np.testing.assert_array_equal(a.start_seconds, b.start_seconds)
    np.testing.assert_array_equal(a.finish_seconds, b.finish_seconds)
    np.testing.assert_array_equal(a.lanes, b.lanes)
    np.testing.assert_array_equal(a.routes, b.routes)
    assert a.clock_seconds == b.clock_seconds
    assert a.throttled == b.throttled
