"""Out-of-core edge-set storage: shards larger than memory (§3 overview).

"Note that a subgraph shard does not necessarily need to fit in memory; as a
result, the I/O cost may also involve local disk I/O."  This module spills a
partition's edge-sets to disk (one ``.npz`` per non-empty block,
GraphChi-style) and serves them back through an LRU cache of configurable
capacity.  A block is its slice of the partition's block-major
:class:`~repro.graph.partition.ExchangePlan` arrays, read back whole.
Every cache miss is counted — block loads and bytes — so the runtime's
:class:`~repro.runtime.netmodel.NetworkModel` can charge the disk tier of
the I/O hierarchy, and the cache-size ablation can show the locality value
of edge-set consolidation (§3.2: "loading or persisting many such small
edge-sets is inefficient due to the I/O latency").
"""

from __future__ import annotations

from collections import OrderedDict
from pathlib import Path

import numpy as np

from repro.graph.partition import ExchangePlan

__all__ = ["SpillableEdgeSetStore"]


class SpillableEdgeSetStore:
    """Disk-backed block store over one partition's :class:`ExchangePlan`.

    Parameters
    ----------
    plan:
        The plan to spill, one file per non-empty edge-set
        (:meth:`ExchangePlan.blocks`; a plan without a layout is one block).
    directory:
        Where block files live (created if missing).
    cache_blocks:
        Maximum number of blocks held in memory at once (LRU eviction).
        ``0`` forces a disk read per access — the pathological case the
        paper's consolidation avoids.
    """

    def __init__(self, plan: ExchangePlan, directory, cache_blocks: int = 4):
        if cache_blocks < 0:
            raise ValueError("cache_blocks must be >= 0")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.cache_blocks = cache_blocks
        blocks = plan.blocks()
        #: ``(row_lo, row_hi, local_lo, local_hi, slot_lo, slot_hi)`` per block
        self.blocks = np.array(blocks, np.int64).reshape(-1, 6)
        self._sizes: list[int] = []
        self._cache: OrderedDict[int, dict] = OrderedDict()
        self.loads = 0
        self.hits = 0
        self.bytes_read = 0
        for i, (_, _, a, b, c, d) in enumerate(blocks):
            payload = {
                "local": plan.local_csr.indices[a:b],
                "slot": plan.slot_csr.indices[c:d],
            }
            if plan.local_csr.weights is not None:
                payload["local_weights"] = plan.local_csr.weights[a:b]
                payload["slot_weights"] = plan.slot_csr.weights[c:d]
            path = self._path(i)
            np.savez(path, **payload)
            self._sizes.append(path.stat().st_size)

    @property
    def num_blocks(self) -> int:
        return int(self.blocks.shape[0])

    def blocks_touching(self, rows: np.ndarray) -> np.ndarray:
        """Indices, in scan order, of the blocks whose row range holds any
        of the sorted local ``rows``."""
        lo = np.searchsorted(rows, self.blocks[:, 0])
        hi = np.searchsorted(rows, self.blocks[:, 1])
        return np.flatnonzero(hi > lo)

    def get_block(self, index: int, stats=None) -> dict:
        """Fetch block ``index`` (its arrays by name), loading from disk on
        a cache miss.

        ``stats`` (a :class:`~repro.runtime.netmodel.StepStats`) receives
        ``record_disk_read`` on every miss.
        """
        if index in self._cache:
            self.hits += 1
            self._cache.move_to_end(index)
            return self._cache[index]
        with np.load(self._path(index)) as data:
            block = {name: data[name] for name in data.files}
        self.loads += 1
        self.bytes_read += self._sizes[index]
        if stats is not None:
            stats.record_disk_read(self._sizes[index])
        if self.cache_blocks > 0:
            self._cache[index] = block
            while len(self._cache) > self.cache_blocks:
                self._cache.popitem(last=False)
        return block

    def resident_bytes(self) -> int:
        """Memory currently pinned by cached blocks."""
        return sum(
            a.nbytes for block in self._cache.values() for a in block.values()
        )

    def _path(self, index: int) -> Path:
        return self.directory / f"block_{index:05d}.npz"
