"""The typed error hierarchy: one base, builtin-compatible leaves.

Two contracts matter: everything deliberate derives from ``ReproError``
(callers can catch the whole framework in one clause), and every concrete
class still derives the builtin its call site historically raised, so
pre-existing ``except RuntimeError:`` / ``except ValueError:`` handlers —
and tests pinning them — keep working across the fault-tolerance refactor.
"""

import pytest

from repro.core.api import run_program
from repro.core.gas import run_gas
from repro.core.khop import concurrent_khop
from repro.core.ooc import concurrent_khop_out_of_core
from repro.core.pagerank import PageRankProgram
from repro.errors import (
    CheckpointError,
    CorruptCheckpoint,
    CorruptLog,
    CorruptMessage,
    DurabilityError,
    InvalidQueryError,
    Overloaded,
    PoolError,
    ReproError,
    UnsupportedConfigError,
    WorkerLost,
    WorkerTaskError,
)
from repro.core.reachability import reachability_queries
from repro.core.sssp import sssp
from repro.graph import path_graph
from repro.qos import QosConfig, ResultCache
from repro.runtime.scheduler import QueryService
from repro.runtime.session import GraphSession
from tests.core.test_api import ListingTwoKHop

ALL = [
    PoolError,
    WorkerLost,
    WorkerTaskError,
    CheckpointError,
    CorruptMessage,
    Overloaded,
    InvalidQueryError,
    UnsupportedConfigError,
    DurabilityError,
    CorruptLog,
    CorruptCheckpoint,
]


@pytest.mark.parametrize("exc", ALL)
def test_every_error_is_a_repro_error(exc):
    assert issubclass(exc, ReproError)
    assert issubclass(exc, Exception)


@pytest.mark.parametrize(
    "exc, builtin",
    [
        (PoolError, RuntimeError),
        (WorkerLost, RuntimeError),
        (WorkerTaskError, RuntimeError),
        (CheckpointError, RuntimeError),
        (CorruptMessage, RuntimeError),
        (Overloaded, RuntimeError),
        (InvalidQueryError, ValueError),
        (UnsupportedConfigError, ValueError),
        (DurabilityError, RuntimeError),
        (CorruptLog, RuntimeError),
        (CorruptCheckpoint, RuntimeError),
    ],
)
def test_builtin_compatibility(exc, builtin):
    # legacy handlers written against the builtins must keep catching
    assert issubclass(exc, builtin)
    with pytest.raises(builtin):
        raise exc("x")


def test_pool_failures_discriminate_retryability():
    # WorkerLost (infrastructure, retryable) and WorkerTaskError
    # (deterministic, never retried) are siblings under PoolError
    assert issubclass(WorkerLost, PoolError)
    assert issubclass(WorkerTaskError, PoolError)
    assert not issubclass(WorkerLost, WorkerTaskError)
    assert not issubclass(WorkerTaskError, WorkerLost)


def test_durability_failures_discriminate_retryability():
    # CorruptCheckpoint is the retryable flavour (recovery falls back to
    # an older checkpoint); CorruptLog is deterministic (the same bytes
    # fail the same way); both sit under the terminal DurabilityError.
    assert issubclass(CorruptLog, DurabilityError)
    assert issubclass(CorruptCheckpoint, DurabilityError)
    assert not issubclass(CorruptLog, CorruptCheckpoint)
    assert not issubclass(CorruptCheckpoint, CorruptLog)


def test_catching_the_base_catches_everything():
    for exc in ALL:
        try:
            raise exc("boom")
        except ReproError as caught:
            assert isinstance(caught, exc)


@pytest.mark.parametrize(
    "call",
    [
        lambda sess: sess.khop([0], 2, use_edge_sets=True),
        lambda sess: sess.khop([0], 2, asynchronous=True),
        lambda sess: reachability_queries(sess, [0], [1], 2, use_edge_sets=True),
        lambda sess: run_gas(sess, PageRankProgram(), 2, asynchronous=True),
        lambda sess: QueryService(sess, 2, use_edge_sets=True),
        lambda sess: concurrent_khop_out_of_core(sess, [0], 2),
    ],
    ids=[
        "khop-edge-sets", "khop-async", "reach-edge-sets", "gas-async",
        "service-edge-sets", "out-of-core",
    ],
)
def test_inproc_only_modes_fail_fast_and_typed_on_a_pool_session(call):
    # one check, before any work: nothing was prepared, spawned or run
    with GraphSession(path_graph(6), num_machines=2, backend="pool") as sess:
        with pytest.raises(UnsupportedConfigError, match="backend='inproc'"):
            call(sess)
        assert sess._pool is None
        assert sess.batches_run == 0


@pytest.mark.parametrize(
    "call",
    [
        lambda sess: QueryService(sess, 2, discipline="pool", qos=QosConfig()),
        lambda sess: QueryService(sess, 2, cache=ResultCache(8)),
        lambda sess: QueryService(sess, 2, cross_check=True),
        lambda sess: sess.khop([0], 2, use_edge_sets=True, direction="pull"),
        lambda sess: reachability_queries(
            sess, [0], [1], 2, use_edge_sets=True, direction="pull"
        ),
        # edge-set mode before the edge sets are built
        lambda sess: QueryService(sess, 2, use_edge_sets=True),
        lambda sess: sess.khop([0], 2, use_edge_sets=True),
        lambda sess: reachability_queries(sess, [0], [1], 2, use_edge_sets=True),
    ],
    ids=[
        "qos-pool-discipline",
        "cache-without-hybrid",
        "cross-check-static-traversal",
        "khop-edge-sets-pull",
        "reach-edge-sets-pull",
        "service-edge-sets-unbuilt",
        "khop-edge-sets-unbuilt",
        "reach-edge-sets-unbuilt",
    ],
)
def test_unsupported_combinations_fail_typed_before_any_work(call):
    with GraphSession(path_graph(6), num_machines=2) as sess:
        with pytest.raises(UnsupportedConfigError):
            call(sess)
        assert sess.batches_run == 0


@pytest.mark.parametrize(
    "call",
    [
        lambda sess: sess.khop([5], -1),
        lambda sess: reachability_queries(sess, [5], [5], -1),
        lambda sess: concurrent_khop_out_of_core(sess, [5], -1),
        lambda sess: QueryService(sess, -1, planner="traversal"),
        lambda sess: QueryService(sess, -1, planner="hybrid"),
    ],
    ids=[
        "khop", "reach", "out-of-core", "service-traversal", "service-hybrid",
    ],
)
def test_negative_hop_budget_is_refused_typed_before_any_work(call):
    with GraphSession(path_graph(6), num_machines=2) as sess:
        with pytest.raises(InvalidQueryError, match="k must be >= 0"):
            call(sess)
        assert sess.batches_run == 0


@pytest.mark.parametrize(
    "call",
    [
        lambda sess: concurrent_khop(sess, [0, 1], 2.5),
        lambda sess: concurrent_khop(sess, [0, 1], True),
        lambda sess: concurrent_khop(sess, [0, 1], "2"),
        lambda sess: reachability_queries(sess, [0], [5], 2.5),
        lambda sess: QueryService(sess, 2.5, planner="traversal"),
        lambda sess: QueryService(sess, 2.5, planner="hybrid"),
        lambda sess: sess.index().reach_many([0], [5], 2.5),
        lambda sess: sssp(sess, 0, max_hops=-1),
        lambda sess: sssp(sess, 0, max_hops=2.5),
    ],
    ids=[
        "khop-fractional", "khop-bool", "khop-str", "reach-fractional",
        "service-traversal", "service-hybrid", "index", "sssp-negative",
        "sssp-fractional",
    ],
)
def test_malformed_hop_budget_is_refused_typed_before_any_work(call):
    """A fractional budget would run ``ceil(k)`` supersteps in the engine
    while the index compares ``d <= k``: the two planners would disagree."""
    weighted = path_graph(6).with_unit_weights()
    with GraphSession(weighted, num_machines=2) as sess:
        with pytest.raises(InvalidQueryError, match="(k|max_hops) must be"):
            call(sess)
        assert sess.batches_run == 0


def _gas_with_a_local_class(sess):
    class LocalRank(PageRankProgram):
        pass

    run_gas(sess, LocalRank(), 2)


@pytest.mark.parametrize(
    "call, culprit",
    [
        (_gas_with_a_local_class, "LocalRank"),
        (
            lambda sess: run_program(
                sess, lambda ctx: ListingTwoKHop(ctx, 0, 2)
            ),
            "lambda",
        ),
    ],
    ids=["gas-local-class", "program-lambda-factory"],
)
def test_unpicklable_description_is_refused_typed_and_the_pool_serves_on(
    call, culprit
):
    # refused where the pool sends it, before any worker changes: no retry,
    # no degradation, and the same pool serves the next batch
    graph = path_graph(6)
    want = GraphSession(graph, num_machines=2).khop([0], 3)
    with GraphSession(graph, num_machines=2, backend="pool") as sess:
        sess.khop([0], 3)
        pool = sess.pool()
        with pytest.raises(UnsupportedConfigError, match=culprit):
            call(sess)
        assert sess.pool_failures == 0 and not sess.degraded
        got = sess.khop([0], 3)
        assert sess.pool() is pool
        assert got.reached.tolist() == want.reached.tolist()
        assert got.virtual_seconds == want.virtual_seconds
