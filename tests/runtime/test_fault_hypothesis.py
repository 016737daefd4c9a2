"""Property test: *any* seeded fault schedule leaves answers bit-identical.

The example-based chaos suite pins specific scenarios; this file lets
Hypothesis draw the schedule.  For every seed, ``FaultPlan.random`` yields
some mix of crashes, stragglers, dropped outboxes and corrupted inboxes
across workers and supersteps — and the pool must still reproduce the
fault-free in-process answer exactly, virtual clock included.

One module-scoped pool serves every example (re-armed via
``set_fault_plan``), so the property pays worker spawn once.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.pagerank import pagerank
from repro.core.reachability import reachability_queries
from repro.graph import rmat_edges
from repro.runtime.fault import FaultPlan, FaultTolerance
from repro.runtime.session import GraphSession

SOURCES = [0, 17, 333, 901]
TARGETS = [901, 333, 0, 17]
K = 4


@pytest.fixture(scope="module")
def graph():
    return rmat_edges(10, 12000, seed=11).remove_self_loops().deduplicate()


@pytest.fixture(scope="module")
def reference(graph):
    sess = GraphSession(graph, num_machines=2)
    return (
        sess.khop(SOURCES, K),
        reachability_queries(sess, SOURCES, TARGETS, K),
        pagerank(sess, iterations=6),
    )


@pytest.fixture(scope="module")
def pool_sess(graph):
    ft = FaultTolerance(max_recoveries=32, step_timeout=30.0)
    with GraphSession(
        graph, num_machines=2, backend="pool", fault_tolerance=ft
    ) as sess:
        yield sess


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_any_seeded_plan_is_invisible_in_khop(pool_sess, reference, seed):
    plan = FaultPlan.random(
        seed, num_workers=2, max_step=K - 1, num_events=2,
        delay_seconds=0.02,
    )
    pool_sess.set_fault_plan(plan)
    try:
        res = pool_sess.khop(SOURCES, K)
    finally:
        pool_sess.set_fault_plan(None)
    ref = reference[0]
    assert not pool_sess.degraded
    assert np.array_equal(ref.reached, res.reached)
    assert ref.virtual_seconds == res.virtual_seconds
    assert ref.per_step_seconds == res.per_step_seconds
    assert ref.supersteps == res.supersteps


@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_any_seeded_plan_is_invisible_in_reach(pool_sess, reference, seed):
    plan = FaultPlan.random(
        seed, num_workers=2, max_step=K - 1, num_events=3,
        delay_seconds=0.02,
    )
    pool_sess.set_fault_plan(plan)
    try:
        res = reachability_queries(pool_sess, SOURCES, TARGETS, K)
    finally:
        pool_sess.set_fault_plan(None)
    ref = reference[1]
    assert not pool_sess.degraded
    assert np.array_equal(ref.reachable, res.reachable)
    assert np.array_equal(ref.hops, res.hops)
    assert ref.virtual_seconds == res.virtual_seconds


@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_any_seeded_plan_is_invisible_in_gas(pool_sess, reference, seed):
    plan = FaultPlan.random(
        seed, num_workers=2, max_step=5, num_events=2, delay_seconds=0.02,
    )
    pool_sess.set_fault_plan(plan)
    try:
        res = pagerank(pool_sess, iterations=6)
    finally:
        pool_sess.set_fault_plan(None)
    ref = reference[2]
    assert not pool_sess.degraded
    # replayed float sums in identical order: exact equality, not allclose
    assert np.array_equal(ref.values, res.values)
    assert ref.virtual_seconds == res.virtual_seconds
