"""Distance-constrained shortest paths on weighted graphs.

The paper's introduction motivates weighted-graph path queries with
software-defined networks: "a path query must be subject to some distance
constraints in order to meet quality-of-service latency requirements" (§1).
This module implements distributed single-source shortest paths as
frontier-driven Bellman–Ford relaxation on the partition-centric engine,
with an optional **hop budget** — the weighted sibling of the k-hop query.

Messages carry candidate distances and are combined per destination with
``min`` before the wire, the same sharing trick the traversal engine uses
for query bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.edgelist import EdgeList
from repro.graph.partition import PartitionedGraph
from repro.runtime.cluster import SimCluster
from repro.runtime.engine import EngineResult, PartitionTask
from repro.runtime.message import MessageBatch, combine_min
from repro.runtime.netmodel import NetworkModel, StepStats
from repro.runtime.session import GraphSession

__all__ = ["SSSPResult", "sssp"]


@dataclass
class SSSPResult:
    """Distances (``inf`` = unreachable within the hop budget) + accounting."""

    source: int
    distances: np.ndarray
    hops_used: int
    virtual_seconds: float
    engine_result: EngineResult


class _SSSPTask(PartitionTask):
    def __init__(self, machine, cluster: SimCluster, max_hops: int | None):
        super().__init__(machine)
        self.cluster = cluster
        self.max_hops = max_hops
        self.hop = 0
        self.dist = np.full(machine.num_local, np.inf)
        self.active = np.zeros(machine.num_local, dtype=bool)

    def seed(self, local_vertex: int) -> None:
        self.dist[local_vertex] = 0.0
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
        cand = np.repeat(self.dist[rows], counts) + csr.weights[pos]
        stats.edges_scanned += int(targets.size)
        lo, hi = self.machine.lo, self.machine.hi
        local_mask = (targets >= lo) & (targets < hi)
        if local_mask.any():
            self._relax(targets[local_mask] - lo, cand[local_mask], stats)
        remote_mask = ~local_mask
        if remote_mask.any():
            rt, rc = targets[remote_mask], cand[remote_mask]
            owners = self.cluster.owner_of(rt)
            for dest in np.unique(owners):
                sel = owners == dest
                self.machine.outbox.append(
                    int(dest), MessageBatch(rt[sel], rc[sel])
                )

    def apply_inbox(self, stats: StepStats) -> None:
        for batches in self.machine.inbox.take_all().values():
            for batch in batches:
                local = batch.vertices - self.machine.lo
                self._relax(local, batch.payload, stats)

    def finalize(self) -> bool:
        self.hop += 1
        if self.max_hops is not None and self.hop >= self.max_hops:
            return False
        return bool(self.active.any())

    def _relax(self, local: np.ndarray, cand: np.ndarray, stats: StepStats) -> None:
        # min-combine duplicates first so the improvement test is one pass
        order = np.argsort(local, kind="stable")
        lv, cv = local[order], cand[order]
        starts = np.concatenate([[0], np.nonzero(lv[1:] != lv[:-1])[0] + 1])
        uv = lv[starts]
        umin = np.minimum.reduceat(cv, starts)
        improved = umin < self.dist[uv]
        if improved.any():
            tgt = uv[improved]
            self.dist[tgt] = umin[improved]
            self.active[tgt] = True
            stats.vertices_updated += int(tgt.size)


def sssp(
    graph: EdgeList | PartitionedGraph,
    source: int,
    max_hops: int | None = None,
    num_machines: int = 1,
    netmodel: NetworkModel | None = None,
    session: GraphSession | None = None,
) -> SSSPResult:
    """Distributed SSSP with an optional hop budget.

    With ``max_hops=h`` the result is the shortest distance using at most
    ``h`` edges (the SDN-style constrained path query); with ``None`` it is
    plain SSSP.  Requires edge weights
    (:meth:`~repro.graph.edgelist.EdgeList.with_unit_weights` turns hop count
    into distance).
    """
    sess = GraphSession.for_run(graph, num_machines, netmodel, session)
    pg = sess.pg
    cluster = sess.cluster
    if not 0 <= source < pg.num_vertices:
        raise ValueError("source out of range")
    sess.prepare()
    tasks = [_SSSPTask(m, cluster, max_hops) for m in cluster.machines]
    home = cluster.machine_of(source)
    tasks[home.machine_id].seed(source - home.lo)
    cap = None if max_hops is None else max_hops
    result = sess.run_batch(tasks=tasks, combiner=combine_min, max_supersteps=cap)
    distances = np.empty(pg.num_vertices)
    for t in tasks:
        distances[t.machine.lo : t.machine.hi] = t.dist
    return SSSPResult(
        source=source,
        distances=distances,
        hops_used=result.supersteps,
        virtual_seconds=result.virtual_seconds,
        engine_result=result,
    )
