"""Concurrent multi-query SSSP: weighted queries sharing one relaxation sweep.

The bit-parallel k-hop engine shares *unweighted* traversals; this module is
its weighted sibling, closing the loop on the paper's SDN motivation (§1):
many simultaneous distance-constrained path queries against one weighted
graph.  A batch of Q single-source queries keeps one ``(num_local, Q)``
distance matrix per partition; each superstep relaxes the out-edges of every
vertex improved *by any query*, so overlapping query neighbourhoods are
scanned once per superstep rather than once per query — the same
shared-subgraph effect, in min-plus algebra instead of boolean OR.

Messages carry a full Q-vector of candidate distances per boundary vertex
and are combined by elementwise minimum before the wire.  Single-source
:func:`~repro.core.sssp.sssp` is this engine at ``Q = 1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.edgelist import EdgeList
from repro.graph.partition import PartitionedGraph
from repro.runtime.cluster import SimCluster
from repro.runtime.engine import EngineResult, PartitionTask
from repro.runtime.message import combine_min, reduce_by_key
from repro.runtime.netmodel import NetworkModel, StepStats
from repro.runtime.session import GraphSession

__all__ = ["MultiSSSPResult", "concurrent_sssp"]

#: Practical batch cap: each message row is ``8 * Q`` bytes.
MAX_SSSP_BATCH = 64


@dataclass
class MultiSSSPResult:
    """Distance matrix + accounting for one weighted query batch."""

    sources: np.ndarray
    max_hops: int | None
    distances: np.ndarray  # (num_vertices, num_queries), inf = unreachable
    virtual_seconds: float
    supersteps: int
    total_edges_scanned: int
    engine_result: EngineResult

    @property
    def num_queries(self) -> int:
        return int(self.sources.size)


class _MultiSSSPTask(PartitionTask):
    def __init__(self, machine, cluster: SimCluster, num_queries: int,
                 max_hops: int | None):
        super().__init__(machine)
        self.cluster = cluster
        self.max_hops = max_hops
        self.hop = 0
        self.dist = np.full((machine.num_local, num_queries), np.inf)
        self.active = np.zeros(machine.num_local, dtype=bool)

    def seed(self, local_vertex: int, query: int) -> None:
        self.dist[local_vertex, query] = 0.0
        self.active[local_vertex] = True

    def compute(self, stats: StepStats) -> None:
        if self.max_hops is not None and self.hop >= self.max_hops:
            self.active[:] = False
            return
        rows = np.nonzero(self.active)[0]
        self.active[:] = False
        if rows.size == 0:
            return
        csr = self.machine.partition.out_csr
        if csr.weights is None:
            raise ValueError("SSSP requires a weighted graph")
        pos, counts = csr.gather_edges(rows)
        if pos.size == 0:
            return
        targets = csr.indices[pos]
        # candidate matrix: source row's distances + edge weight, per edge
        cand = np.repeat(self.dist[rows], counts, axis=0) + csr.weights[pos][:, None]
        stats.edges_scanned += int(targets.size)
        lo, hi = self.machine.lo, self.machine.hi
        local_mask = (targets >= lo) & (targets < hi)
        if local_mask.any():
            self._relax(targets[local_mask] - lo, cand[local_mask], stats)
        remote = ~local_mask
        if remote.any():
            rt, rc = targets[remote], cand[remote]
            self.machine.outbox.route(self.cluster.owner_of(rt), rt, rc)

    def apply_inbox(self, stats: StepStats) -> None:
        for batch in self.machine.inbox.drain():
            local = batch.vertices - self.machine.lo
            self._relax(local, batch.payload, stats)

    def finalize(self) -> bool:
        self.hop += 1
        if self.max_hops is not None and self.hop >= self.max_hops:
            return False
        return bool(self.active.any())

    def _relax(self, local: np.ndarray, cand: np.ndarray, stats: StepStats) -> None:
        # per-destination min over duplicate rows, then one improvement pass
        uv, umin = reduce_by_key(local, cand, np.minimum)
        improved_rows = (umin < self.dist[uv]).any(axis=1)
        if improved_rows.any():
            tgt = uv[improved_rows]
            # fancy indexing copies: assign back explicitly
            self.dist[tgt] = np.minimum(self.dist[tgt], umin[improved_rows])
            self.active[tgt] = True
            stats.vertices_updated += int(tgt.size)


def concurrent_sssp(
    graph: EdgeList | PartitionedGraph,
    sources,
    max_hops: int | None = None,
    num_machines: int = 1,
    netmodel: NetworkModel | None = None,
    session: GraphSession | None = None,
) -> MultiSSSPResult:
    """Run up to 64 weighted single-source queries in one shared sweep.

    ``distances[v, q]`` is query ``q``'s shortest distance to ``v`` using at
    most ``max_hops`` edges (``None`` = unconstrained).  Requires edge
    weights.
    """
    sess = GraphSession.for_run(graph, num_machines, netmodel, session)
    pg = sess.pg
    cluster = sess.cluster
    sources = sess.check_sources(sources, MAX_SSSP_BATCH)
    num_queries = int(sources.size)

    sess.prepare()
    tasks = [
        _MultiSSSPTask(m, cluster, num_queries, max_hops)
        for m in cluster.machines
    ]
    sess.seed_sources(tasks, sources)

    result = sess.run_batch(
        tasks=tasks, combiner=combine_min, max_supersteps=max_hops
    )

    distances = np.empty((pg.num_vertices, num_queries))
    for t in tasks:
        distances[t.machine.lo : t.machine.hi] = t.dist
    total = result.total_stats()
    return MultiSSSPResult(
        sources=sources,
        max_hops=max_hops,
        distances=distances,
        virtual_seconds=result.virtual_seconds,
        supersteps=result.supersteps,
        total_edges_scanned=total.edges_scanned,
        engine_result=result,
    )
