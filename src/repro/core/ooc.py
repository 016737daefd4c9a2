"""Out-of-core concurrent k-hop: traverse shards that don't fit in memory.

Combines the bit-parallel engine with
:class:`~repro.graph.outofcore.SpillableEdgeSetStore`: each machine scans
its edge-set blocks left-to-right through an LRU block cache, paying the
disk tier of the cost model on every miss (§3 overview: "the I/O cost may
also involve local disk I/O").  Answers are identical to the in-memory
engine; only the cost accounting (and the real memory footprint) change.
"""

from __future__ import annotations

import contextlib
import tempfile
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from repro.core import adapters
from repro.core.frontier import MAX_WIDE_BATCH
from repro.core.khop import KHopPartitionTask
from repro.graph.outofcore import SpillableEdgeSetStore
from repro.runtime.message import combine_or
from repro.runtime.session import GraphSession

__all__ = ["OOCKHopResult", "concurrent_khop_out_of_core"]


class _OOCKHopTask(KHopPartitionTask):
    """K-hop partition task reading edge-sets through a spillable store."""

    def reset(self, num_queries, k, spill_directory, cache_blocks) -> None:
        """Arm for a batch with a new spill store under ``spill_directory``."""
        # always the push kernel: the block scan is what pays the disk tier
        super().reset(num_queries, k, direction="push")
        part = self.machine.partition
        self.store = SpillableEdgeSetStore(
            part.edge_sets,
            Path(spill_directory) / f"part{part.part_id}",
            cache_blocks=cache_blocks,
        )

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
    sess: GraphSession,
    sources,
    k: int | None,
    cache_blocks: int = 4,
    spill_directory=None,
) -> OOCKHopResult:
    """Run a concurrent k-hop batch with disk-resident edge-sets.

    Each partition's blocks are spilled to ``spill_directory`` (a temporary
    directory by default) and served through an LRU cache of
    ``cache_blocks`` blocks per machine.  The block layout is the session's
    (``GraphSession(..., edge_sets=True, consolidate_min_edges=...)``; the
    default layout is built if it has none).  Results equal the in-memory
    engine; the I/O counters and virtual time expose the disk tier's cost,
    which shrinks as ``cache_blocks`` grows or as consolidation merges tiny
    blocks — the §3.2 trade this mode exists to demonstrate.
    """
    GraphSession.check_hops(k)
    if sess.uses_pool:  # edge sets are not in the pool's shared image
        sess.require_inproc(use_edge_sets=True)
    sess.build_edge_sets()
    sources = sess.check_sources(sources, MAX_WIDE_BATCH)
    num_queries = int(sources.size)

    with (
        tempfile.TemporaryDirectory(prefix="cgraph-ooc-")
        if spill_directory is None
        else contextlib.nullcontext(spill_directory)
    ) as spill:
        result = sess.run_batch(
            _OOCKHopTask,
            dict(num_queries=num_queries, k=k, spill_directory=spill,
                 cache_blocks=cache_blocks),
            ("ooc",),
            sources=sources,
            combiner=combine_or,
            max_supersteps=k,
        )
        reached = sum(sess.gather_batch(adapters.khop_visited_counts))
        hits, loads = map(sum, zip(*sess.gather_batch(adapters.ooc_release_store)))
    total = result.total_stats()
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
