"""Concurrent multi-query SSSP: weighted queries sharing one relaxation sweep.

The bit-parallel k-hop engine shares *unweighted* traversals; this module is
its weighted sibling, closing the loop on the paper's SDN motivation (§1):
many simultaneous distance-constrained path queries against one weighted
graph.  A batch of Q single-source queries keeps one ``(num_local, Q)``
distance matrix per partition; each superstep relaxes the out-edges of every
vertex improved *by any query*, so overlapping query neighbourhoods are
scanned once per superstep rather than once per query — the same
shared-subgraph effect, in min-plus algebra instead of boolean OR.

Messages carry a full Q-vector of candidate distances per boundary vertex,
min-reduced over the partition's exchange-plan slots where they are built.
Single-source :func:`~repro.core.sssp.sssp` is this engine at ``Q = 1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import adapters
from repro.errors import InvalidQueryError, UnsupportedConfigError
from repro.graph.validation import check_hops
from repro.runtime.cluster import SimCluster
from repro.runtime.engine import EngineResult, PartitionTask
from repro.runtime.message import MessageBatch, no_combine, reduce_by_key
from repro.runtime.netmodel import StepStats
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
    checkpointed = ("dist", "active", "hop")

    def __init__(self, machine, cluster: SimCluster, num_queries: int,
                 max_hops: int | None):
        super().__init__(machine)
        self.cluster = cluster
        self.reset(num_queries, max_hops)

    def reset(self, num_queries: int, max_hops: int | None) -> None:
        """Arm this task for a batch — the constructor's kwargs."""
        self.max_hops = max_hops
        self.hop = 0
        self.dist = np.full((self.machine.num_local, num_queries), np.inf)
        self.active = np.zeros(self.machine.num_local, dtype=bool)

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
        plan, cuts = self.exchange_plan()
        local, slot = plan.local_csr, plan.slot_csr
        pos, counts = local.gather_edges(rows)
        spos, scounts = slot.gather_edges(rows)
        stats.edges_scanned += int(pos.size + spos.size)
        # candidates: the source row's distances + edge weight, per edge
        # (copied out, so the local relaxation does not feed the remote half)
        dist = self.dist[rows]
        if pos.size:
            cand = np.repeat(dist, counts, axis=0) + local.weights[pos][:, None]
            self._improve(*reduce_by_key(local.indices[pos], cand, np.minimum), stats)
        if spos.size:
            cand = np.repeat(dist, scounts, axis=0) + slot.weights[spos][:, None]
            # one min per boundary vertex reached, slots ascending: each
            # destination's slice of it is its combined wire batch
            slots, mins = reduce_by_key(slot.indices[spos], cand, np.minimum)
            for dest, lo, hi in cuts:
                a, b = np.searchsorted(slots, (lo, hi))
                self.machine.outbox.append(
                    dest, MessageBatch(plan.boundary[slots[a:b]], mins[a:b])
                )

    def apply_inbox(self, stats: StepStats) -> None:
        for batch in self.machine.inbox.drain():
            # a combined batch names each vertex once: nothing to reduce
            self._improve(batch.vertices - self.machine.lo, batch.payload, stats)

    def finalize(self) -> bool:
        self.hop += 1
        if self.max_hops is not None and self.hop >= self.max_hops:
            return False
        return bool(self.active.any())

    def _improve(self, rows: np.ndarray, cand: np.ndarray, stats: StepStats) -> None:
        """One improvement pass over unique local ``rows``."""
        improved_rows = (cand < self.dist[rows]).any(axis=1)
        if improved_rows.any():
            tgt = rows[improved_rows]
            # fancy indexing copies: assign back explicitly
            self.dist[tgt] = np.minimum(self.dist[tgt], cand[improved_rows])
            self.active[tgt] = True
            stats.vertices_updated += int(tgt.size)


def concurrent_sssp(
    sess: GraphSession, sources, max_hops: int | None = None
) -> MultiSSSPResult:
    """Run up to 64 weighted single-source queries in one shared sweep.

    ``distances[v, q]`` is query ``q``'s shortest distance to ``v`` using at
    most ``max_hops`` edges (``None`` = unconstrained).  Requires edge
    weights.
    """
    check_hops(max_hops, "max_hops")
    pg = sess.pg
    if any(part.out_csr.weights is None for part in pg.partitions):
        raise InvalidQueryError("SSSP requires a weighted graph")
    if sess.uses_pool and not sess.degraded and sess.is_dynamic:
        # pool workers read the shared image: a dynamic graph's unweighted
        # base, spliced — never weights set on this process's shards
        raise UnsupportedConfigError("SSSP on a dynamic graph needs backend='inproc'")
    sources = sess.check_sources(sources, MAX_SSSP_BATCH)
    num_queries = int(sources.size)

    result = sess.run_batch(
        _MultiSSSPTask,
        dict(num_queries=num_queries, max_hops=max_hops),
        ("sssp",),
        sources=sources,
        combiner=no_combine,
        payload_width=8 * num_queries,
        max_supersteps=max_hops,
    )
    distances = np.empty((pg.num_vertices, num_queries))
    gathered = sess.gather_batch(adapters.task_attribute, "dist")
    for part, dist in zip(pg.partitions, gathered):
        distances[part.lo : part.hi] = dist
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
