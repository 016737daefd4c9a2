"""Out-of-core concurrent k-hop: traverse shards that don't fit in memory.

Combines the bit-parallel engine with
:class:`~repro.graph.outofcore.SpillableEdgeSetStore`: each machine scans
its edge-set blocks left-to-right through an LRU block cache, paying the
disk tier of the cost model on every miss (§3 overview: "the I/O cost may
also involve local disk I/O").  Answers are identical to the in-memory
engine; only the cost accounting (and the real memory footprint) change.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from repro.core.frontier import MAX_WIDE_BATCH
from repro.core.khop import KHopPartitionTask
from repro.graph.edgelist import EdgeList
from repro.graph.outofcore import SpillableEdgeSetStore
from repro.graph.partition import PartitionedGraph
from repro.runtime.message import combine_or
from repro.runtime.netmodel import NetworkModel
from repro.runtime.session import GraphSession

__all__ = ["OOCKHopResult", "concurrent_khop_out_of_core"]


class _OOCKHopTask(KHopPartitionTask):
    """K-hop partition task reading edge-sets through a spillable store."""

    def __init__(self, machine, cluster, num_queries, k,
                 store: SpillableEdgeSetStore):
        # always the push kernel: the block scan is what pays the disk tier
        super().__init__(machine, cluster, num_queries, k, direction="push")
        self.store = store

    def _expand_push(self, plan, active: np.ndarray, stats) -> None:
        # the fetch pays the disk tier; untouched blocks never leave disk
        store = self.store
        on_disk = (
            (*store.block_bounds(i)[:2], partial(store.get_block, i, stats=stats))
            for i in range(store.num_blocks)
        )
        self._scan_blocks(on_disk, active, stats)


@dataclass
class OOCKHopResult:
    """Out-of-core batch outcome plus I/O accounting."""

    sources: np.ndarray
    k: int | None
    reached: np.ndarray
    virtual_seconds: float
    supersteps: int
    total_edges_scanned: int
    disk_reads: int
    disk_bytes_read: int
    cache_hit_rate: float

    @property
    def num_queries(self) -> int:
        return int(self.sources.size)


def concurrent_khop_out_of_core(
    graph: EdgeList | PartitionedGraph,
    sources,
    k: int | None,
    num_machines: int = 1,
    netmodel: NetworkModel | None = None,
    cache_blocks: int = 4,
    sets_per_partition: int = 8,
    consolidate_min_edges: int | None = None,
    spill_directory=None,
    session: GraphSession | None = None,
) -> OOCKHopResult:
    """Run a concurrent k-hop batch with disk-resident edge-sets.

    Each partition's blocks are spilled to ``spill_directory`` (a temporary
    directory by default) and served through an LRU cache of
    ``cache_blocks`` blocks per machine.  Results equal the in-memory engine;
    the returned I/O counters and virtual time expose the disk tier's cost,
    which shrinks as ``cache_blocks`` grows or as consolidation
    (``consolidate_min_edges``) merges tiny blocks — the §3.2 trade this
    mode exists to demonstrate.
    """
    sess = GraphSession.for_run(graph, num_machines, netmodel, session)
    pg = sess.pg
    cluster = sess.cluster
    sess.build_edge_sets(sets_per_partition, consolidate_min_edges)
    sources = sess.check_sources(sources, MAX_WIDE_BATCH)
    num_queries = int(sources.size)

    tmp = None
    if spill_directory is None:
        tmp = tempfile.TemporaryDirectory(prefix="cgraph-ooc-")
        spill_directory = tmp.name
    try:
        sess.prepare()
        stores = [
            SpillableEdgeSetStore(
                part.edge_sets,
                Path(spill_directory) / f"part{part.part_id}",
                cache_blocks=cache_blocks,
            )
            for part in pg.partitions
        ]
        # tasks are per-call: the spill store is bound to this call's
        # spill directory, so caching them on the session would pin a
        # (possibly temporary) directory beyond its lifetime
        tasks = [
            _OOCKHopTask(m, cluster, num_queries, k, stores[m.machine_id])
            for m in cluster.machines
        ]
        sess.seed_sources(tasks, sources)

        result = sess.run_batch(
            tasks=tasks, combiner=combine_or, max_supersteps=k
        )

        reached = np.zeros(num_queries, dtype=np.int64)
        for t in tasks:
            reached += t.state.visited_counts()
        total = result.total_stats()
        hits = sum(s.hits for s in stores)
        loads = sum(s.loads for s in stores)
        return OOCKHopResult(
            sources=sources,
            k=k,
            reached=reached,
            virtual_seconds=result.virtual_seconds,
            supersteps=result.supersteps,
            total_edges_scanned=total.edges_scanned,
            disk_reads=total.disk_reads,
            disk_bytes_read=total.disk_bytes_read,
            cache_hit_rate=hits / (hits + loads) if (hits + loads) else 1.0,
        )
    finally:
        if tmp is not None:
            tmp.cleanup()
