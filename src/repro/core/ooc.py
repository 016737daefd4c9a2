"""Out-of-core concurrent k-hop: traverse shards that don't fit in memory.

Combines the bit-parallel engine with
:class:`~repro.graph.outofcore.SpillableEdgeSetStore`: every superstep, each
machine reads the edge-sets its active rows fall in back from disk,
left-to-right through an LRU block cache, paying the disk tier of the cost
model on every miss (§3 overview: "the I/O cost may also involve local disk
I/O").  The batch runs the in-memory engine's fused step, push only: the
push kernel is the in-memory one, reading its edges from the fetched
blocks, so answers are identical to the in-memory engine; only the cost
accounting changes.
"""

from __future__ import annotations

import contextlib
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro.core import adapters
from repro.core.frontier import MAX_WIDE_BATCH
from repro.core.khop import KHopPartitionTask
from repro.graph.outofcore import SpillableEdgeSetStore
from repro.graph.validation import check_hops
from repro.runtime.message import combine_or
from repro.runtime.session import GraphSession

__all__ = ["OOCKHopResult", "concurrent_khop_out_of_core"]


class _OOCKHopTask(KHopPartitionTask):
    """K-hop partition task reading edge-sets through a spillable store."""

    def reset(self, num_queries, k, spill_directory, cache_blocks, layouts) -> None:
        """Arm for a batch with a new spill store under ``spill_directory``
        of the session's plan, or of one laid out by ``layouts[part_id]``."""
        # always the push kernel: its block reads are what pay the disk tier
        super().reset(num_queries, k, direction="push")
        part = self.machine.partition
        if layouts is not None:  # the session has none: a copy laid out so
            part = replace(part, edge_sets=layouts[part.part_id], plan_cache=None)
        self._spilled = part.exchange_plan()
        self.store = SpillableEdgeSetStore(
            self._spilled,
            Path(spill_directory) / f"part{part.part_id}",
            cache_blocks=cache_blocks,
        )

    def _expand_push(self, plan, active: np.ndarray, stats) -> None:
        # a plan's slot space is its boundary, which no layout reorders, so
        # the session plan's cuts hold for the spilled one
        super()._expand_push(self._spilled, active, stats)

    def _read_edges(self, plan, pos, spos, active, stats):
        # the disk tier: each block an active row falls in is fetched (a miss
        # is charged) and read from; untouched blocks never leave disk
        targets = np.empty(pos.size, plan.local_csr.indices.dtype)
        slots = np.empty(spos.size, plan.slot_csr.indices.dtype)
        for i in self.store.blocks_touching(active):
            block = self.store.get_block(i, stats=stats)
            _, _, local_lo, local_hi, slot_lo, slot_hi = self.store.blocks[i]
            _read_range(targets, pos, local_lo, local_hi, block["local"])
            _read_range(slots, spos, slot_lo, slot_hi, block["slot"])
        return targets, slots


def _read_range(out, pos, lo, hi, data) -> None:
    """``out[i] = data[pos[i] - lo]`` for the sorted ``pos`` in ``[lo, hi)``."""
    i, j = np.searchsorted(pos, (lo, hi))
    out[i:j] = data[pos[i:j] - lo]


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
    (``GraphSession(..., edge_sets=True, consolidate_min_edges=...)``); a
    session without one spills the default 8-stripe tiling, built for the
    call and not kept.  Results equal the in-memory engine; the I/O
    counters and virtual time expose the disk tier's cost, which shrinks as
    ``cache_blocks`` grows or as consolidation merges tiny blocks — the
    §3.2 trade this mode exists to demonstrate.  In-process only: a
    ``backend="pool"`` session raises
    :class:`~repro.errors.UnsupportedConfigError`.
    """
    check_hops(k)
    sess.require_inproc(out_of_core=True)
    sources = sess.check_sources(sources, MAX_WIDE_BATCH)
    num_queries = int(sources.size)
    layouts = None if sess.has_edge_sets else sess.pg.tile_edge_sets()

    with (
        tempfile.TemporaryDirectory(prefix="cgraph-ooc-")
        if spill_directory is None
        else contextlib.nullcontext(spill_directory)
    ) as spill:
        result = sess.run_batch(
            _OOCKHopTask,
            dict(num_queries=num_queries, k=k, spill_directory=spill,
                 cache_blocks=cache_blocks, layouts=layouts),
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
