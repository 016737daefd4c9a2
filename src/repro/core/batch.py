"""Query-stream batching: packing arbitrary query counts into batches.

§3.5: "A fixed number of concurrent queries are decided based on hardware
parameters, for example, the length of the cache line."  A stream of Q
queries is split into ``ceil(Q / batch_width)`` batches that execute
back-to-back on the cluster; a query's response time is the start time of
its batch plus its own completion offset inside the batch (queries whose
frontier dies early respond early).

This module also powers the width ablation (W ∈ {8, 16, 32, 64}): narrower
batches share less traversal work, so total time grows — quantifying the
bit-parallel benefit the paper enables for Figure 13.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.frontier import MAX_WIDE_BATCH
from repro.core.khop import KHopResult, concurrent_khop
from repro.graph.edgelist import EdgeList
from repro.graph.partition import PartitionedGraph
from repro.runtime.netmodel import NetworkModel
from repro.runtime.session import GraphSession

__all__ = ["QueryStreamResult", "run_query_stream"]


@dataclass
class QueryStreamResult:
    """Per-query accounting for a batched stream.

    ``response_seconds[q]`` = batch start + in-batch completion (virtual
    time); ``total_seconds`` is when the last batch finished.
    """

    sources: np.ndarray
    k: int | None
    batch_width: int
    batch_of_query: np.ndarray
    response_seconds: np.ndarray
    reached: np.ndarray
    completion_level: np.ndarray
    total_seconds: float
    total_edges_scanned: int
    total_supersteps: int
    batch_results: list[KHopResult]

    @property
    def num_queries(self) -> int:
        return int(self.sources.size)

    @property
    def num_batches(self) -> int:
        return len(self.batch_results)


def run_query_stream(
    graph: EdgeList | PartitionedGraph,
    sources,
    k: int | None,
    batch_width: int = 64,
    num_machines: int = 1,
    netmodel: NetworkModel | None = None,
    use_edge_sets: bool = False,
    asynchronous: bool = False,
    session: GraphSession | None = None,
    direction: str = "auto",
) -> QueryStreamResult:
    """Execute a stream of concurrent queries in batches of ``batch_width``
    (up to :data:`~repro.core.frontier.MAX_WIDE_BATCH`).

    The graph is partitioned once into a :class:`GraphSession` and reused
    across every batch of the stream — frontier planes are re-armed in
    place between batches (per §3.3 the per-query state is bounded by one
    batch's planes); pass a persistent ``session`` to amortise the build
    across streams too.
    """
    if not 1 <= batch_width <= MAX_WIDE_BATCH:
        raise ValueError(f"batch_width must be in [1, {MAX_WIDE_BATCH}]")
    sources = np.asarray(sources, dtype=np.int64)
    if sources.size == 0:
        raise ValueError("at least one query required")
    sess = GraphSession.for_run(graph, num_machines, netmodel, session)
    if use_edge_sets:
        sess.build_edge_sets()

    num_queries = sources.size
    batch_of_query = np.arange(num_queries) // batch_width
    response = np.empty(num_queries, dtype=np.float64)
    reached = np.empty(num_queries, dtype=np.int64)
    completion_level = np.empty(num_queries, dtype=np.int64)
    batch_results: list[KHopResult] = []

    clock = 0.0
    edges = 0
    supersteps = 0
    for b in range(int(batch_of_query[-1]) + 1):
        idx = np.nonzero(batch_of_query == b)[0]
        res = concurrent_khop(
            sess.pg,
            sources[idx],
            k,
            use_edge_sets=use_edge_sets,
            asynchronous=asynchronous,
            session=sess,
            direction=direction,
        )
        response[idx] = clock + res.completion_seconds
        reached[idx] = res.reached
        completion_level[idx] = res.completion_level
        clock += res.virtual_seconds
        edges += res.total_edges_scanned
        supersteps += res.supersteps
        batch_results.append(res)

    return QueryStreamResult(
        sources=sources,
        k=k,
        batch_width=batch_width,
        batch_of_query=batch_of_query,
        response_seconds=response,
        reached=reached,
        completion_level=completion_level,
        total_seconds=clock,
        total_edges_scanned=edges,
        total_supersteps=supersteps,
        batch_results=batch_results,
    )
