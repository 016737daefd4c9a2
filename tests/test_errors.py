"""The typed error hierarchy: one base, builtin-compatible leaves.

Two contracts matter: everything deliberate derives from ``ReproError``
(callers can catch the whole framework in one clause), and every concrete
class still derives the builtin its call site historically raised, so
pre-existing ``except RuntimeError:`` / ``except ValueError:`` handlers —
and tests pinning them — keep working across the fault-tolerance refactor.
"""

import importlib.util

import numpy as np
import pytest

import repro.core.frontier
import repro.dynamic
import repro.dynamic.delta
import repro.graph
import repro.qos
from repro.cli import build_parser
from repro.core.api import run_program
from repro.core.frontier import BitFrontier
from repro.core.gas import run_gas
from repro.core.kcore import core_numbers
from repro.core.khop import _run_traversal, concurrent_khop
from repro.core.ooc import concurrent_khop_out_of_core
from repro.core.pagerank import PageRankProgram
from repro.dynamic import DynamicGraph
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
from repro.graph.csr import build_csc, build_csr
from repro.graph.properties import DenseVertexValues
from repro.index.incremental import IncrementalIndex
from repro.qos import QosConfig, ResultCache
from repro.runtime.netmodel import NetworkModel
from repro.runtime.pool import WorkerPool
from repro.runtime.scheduler import QueryService
from repro.runtime.session import GraphSession
from repro.runtime.shm import build_graph_image
from repro.telemetry.instrument import Instrumentation
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
    "call, mode",
    [
        (lambda sess: sess.khop([0], 2, asynchronous=True), "asynchronous"),
        (lambda sess: run_gas(sess, PageRankProgram(), 2, asynchronous=True),
         "asynchronous"),
        (lambda sess: concurrent_khop_out_of_core(sess, [0], 2), "out_of_core"),
        (lambda sess: core_numbers(sess), "kcore"),
    ],
    ids=["khop-async", "gas-async", "out-of-core", "kcore"],
)
def test_inproc_only_modes_fail_fast_and_typed_on_a_pool_session(call, mode):
    # one check, before any work: nothing was prepared, spawned or run; the
    # refusal names the mode the caller asked for
    with GraphSession(path_graph(6), num_machines=2, backend="pool") as sess:
        with pytest.raises(
            UnsupportedConfigError, match=f"^{mode} requires backend='inproc'$"
        ):
            call(sess)
        assert sess._pool is None
        assert sess.batches_run == 0


@pytest.mark.parametrize(
    "call",
    [
        lambda sess: sess.khop([0], 2).reached,
        lambda sess: reachability_queries(sess, [0], [4], 2).reachable,
        lambda sess: _drained(QueryService(sess, 2)).reached,
        lambda sess: sess.khop([0], 2, direction="pull").reached,
        lambda sess: reachability_queries(
            sess, [0], [4], 2, direction="pull"
        ).reachable,
    ],
    ids=[
        "khop-edge-sets", "reach-edge-sets", "service-edge-sets",
        "khop-edge-sets-pull", "reach-edge-sets-pull",
    ],
)
def test_edge_set_layout_runs_where_it_was_refused(call):
    # edge-sets are a layout of the exchange plan, not a mode: the pool
    # backend and the pull direction run on it with the flat answers
    want = call(GraphSession(path_graph(6), num_machines=2))
    with GraphSession(
        path_graph(6), num_machines=2, edge_sets=True, sets_per_partition=2,
        backend="pool",
    ) as sess:
        assert sess.has_edge_sets
        assert call(sess).tolist() == want.tolist()
        assert not sess.degraded


def _drained(svc):
    svc.submit_many([0, 1])
    return svc.drain()


@pytest.mark.parametrize(
    "call",
    [
        lambda sess: sess.khop([0], 2, use_edge_sets=True),
        lambda sess: reachability_queries(sess, [0], [1], 2, use_edge_sets=True),
        lambda sess: QueryService(sess, 2, use_edge_sets=True),
    ],
    ids=[
        "khop-edge-sets-unbuilt", "reach-edge-sets-unbuilt",
        "service-edge-sets-unbuilt",
    ],
)
def test_the_per_call_edge_set_switch_is_gone(call):
    # the layout is the session's: there is no mode to ask for per call
    # (and so none to ask for before a layout exists)
    with GraphSession(path_graph(6), num_machines=2) as sess:
        with pytest.raises(TypeError, match="use_edge_sets"):
            call(sess)
        assert sess.batches_run == 0


@pytest.mark.parametrize(
    "layout", [{"consolidate_min_edges": 10}, {"sets_per_partition": 3}],
    ids=["consolidate-min-edges", "sets-per-partition"],
)
def test_layout_settings_without_edge_sets_are_refused_typed(layout):
    # without edge_sets=True nothing would read them: refuse, do not ignore
    with pytest.raises(UnsupportedConfigError, match="edge_sets=True"):
        GraphSession(path_graph(6), num_machines=2, **layout)
    with GraphSession(path_graph(6), num_machines=2, edge_sets=True,
                      **layout) as sess:
        assert sess.has_edge_sets


def test_a_second_edge_set_layout_is_refused_typed():
    sess = GraphSession(
        path_graph(64), num_machines=2, edge_sets=True, sets_per_partition=2
    )
    held = [p.edge_sets for p in sess.pg.partitions]
    sess.pg.build_edge_sets(sets_per_partition=2)  # the same one: a no-op
    with pytest.raises(UnsupportedConfigError, match="different edge-set layout"):
        sess.pg.build_edge_sets(sets_per_partition=8, consolidate_min_edges=10**9)
    with pytest.raises(UnsupportedConfigError, match="different edge-set layout"):
        GraphSession(sess.pg, edge_sets=True, sets_per_partition=8)
    assert all(p.edge_sets is es for p, es in zip(sess.pg.partitions, held))
    assert [es.num_blocks for es in held] == [4, 4]
    # the layout is a constructor setting: no session method re-tiles it
    assert not hasattr(GraphSession, "build_edge_sets")


@pytest.mark.parametrize(
    "call",
    [
        lambda sess: QueryService(sess, 2, discipline="pool", qos=QosConfig()),
        lambda sess: QueryService(sess, 2, cache=ResultCache(8)),
        lambda sess: QueryService(sess, 2, cross_check=True),
    ],
    ids=[
        "qos-pool-discipline",
        "cache-without-hybrid",
        "cross-check-static-traversal",
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


@pytest.mark.parametrize(
    "call",
    [
        lambda sess: GraphSession(path_graph(6), pool_seed=0),
        lambda sess: WorkerPool(None, seed=0),
        lambda sess: WorkerPool(None, start_method="spawn"),
        lambda sess: Instrumentation(registry=None),
        lambda sess: Instrumentation(tracer=None),
        lambda sess: Instrumentation(flight_recorder_spans=8),
        lambda sess: QueryService(sess, 2, instrumentation=None),
        lambda sess: ResultCache(8, hit_seconds=1.0),
        lambda sess: ResultCache(8, cross_check=True),
        lambda sess: QosConfig(affinity="none"),
        lambda sess: QosConfig.from_cli(None, None, affinity="none"),
        lambda sess: concurrent_khop(sess, [0], 2, max_supersteps=1),
        lambda sess: _run_traversal(sess, np.array([0]), 2, max_supersteps=1),
        lambda sess: build_csr(np.array([0]), np.array([1]), 2,
                               sort_columns=False),
        lambda sess: build_csc(np.array([0]), np.array([1]), 2,
                               sort_rows=False),
        lambda sess: DenseVertexValues(4, 1, fill=0.0),
        lambda sess: NetworkModel().with_async(enabled=True),
        lambda sess: build_graph_image(sess.pg, "unused", base_shards=None),
        lambda sess: WorkerPool(None, base_shards=None),
    ],
    ids=[
        "session-pool-seed", "pool-seed", "pool-start-method",
        "instrumentation-registry", "instrumentation-tracer",
        "instrumentation-flight-recorder-spans", "service-instrumentation",
        "cache-hit-seconds", "cache-cross-check", "qos-affinity",
        "qos-from-cli-affinity", "khop-max-supersteps",
        "traversal-max-supersteps", "csr-sort-columns", "csc-sort-rows",
        "dense-values-fill", "netmodel-with-async-enabled",
        "graph-image-base-shards", "pool-base-shards",
    ],
)
def test_removed_settings_are_gone(call):
    with GraphSession(path_graph(6), num_machines=2) as sess:
        with pytest.raises(TypeError, match="unexpected keyword"):
            call(sess)
        assert sess.batches_run == 0


def _dynamic_session():
    sess = GraphSession(path_graph(6))
    sess.dynamic()
    return sess


def _index_twin():
    sess = _dynamic_session()
    return IncrementalIndex(sess.index(), sess.pg)


@pytest.mark.parametrize(
    "owner, name",
    [
        (ResultCache, "lookup"),
        (ResultCache, "store"),
        (NetworkModel, "choose_direction"),
        (BitFrontier, "active_count"),
        (BitFrontier, "density"),
        (repro.qos, "partition_query_masks"),
        (repro.qos, "locality_score"),
        (repro.core.frontier, "query_mask_for"),
        (repro.dynamic, "SnapshotStore"),
        (repro.dynamic, "GraphSnapshot"),
        (repro.dynamic, "MutationLog"),
        (repro.dynamic.delta, "MutationLog"),
        (GraphSession, "snapshots"),
        (GraphSession, "index_is_current"),
        (_dynamic_session(), "_index_epoch"),
        (_dynamic_session(), "_mutation_batches"),
        (repro.dynamic, "PartitionDelta"),
        (repro.dynamic.delta, "PartitionDelta"),
        (repro.dynamic, "apply_partition_delta"),
        (repro.dynamic.delta, "apply_partition_delta"),
        (DynamicGraph, "pool_deltas"),
        (DynamicGraph, "num_pending"),
        (DynamicGraph, "has_pending"),
        (DynamicGraph, "num_edges"),
        (_dynamic_session().pg, "edges"),
        (repro.graph, "subgraph"),
        (_index_twin(), "out_csr"),
        (_index_twin(), "in_csc"),
        (IncrementalIndex, "_splice"),
        (IncrementalIndex, "_repack"),
        (IncrementalIndex, "from_graph"),
    ],
)
def test_removed_helpers_are_gone(owner, name):
    assert not hasattr(owner, name)


def test_the_snapshot_module_is_gone():
    # DynamicGraph.edges_at / graph_at replay the epoch history
    assert importlib.util.find_spec("repro.dynamic.snapshot") is None


def test_the_subgraph_module_is_gone():
    assert importlib.util.find_spec("repro.graph.subgraph") is None


def test_the_affinity_flag_is_gone():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["service", "--affinity", "none"])
