"""Seed-partition-affinity batching for concurrent bit-parallel queries.

The wide-BFS kernels share one pass over each partition's edges across every
query in a batch, so a batch whose seeds cluster in few partitions touches
fewer partitions per superstep and ships fewer inter-machine message words.
This module picks *which* pending queries share a batch: take the oldest
pending query as the anchor, pull in every other candidate whose seed lives
in the anchor's partition, then fill the remaining width in arrival order.

Selection is a pure function of the candidate order and their seed owners —
no clocks, no randomness — so affinity batching preserves the service's
bit-identical determinism guarantees.  It is the QoS drain's one packing
rule, applied whenever a lane's admitted queries overflow its width.
"""

from __future__ import annotations

import numpy as np

__all__ = ["affinity_select"]


def affinity_select(owners: np.ndarray, width: int) -> np.ndarray:
    """Indices of the next batch among ``owners``-ordered candidates.

    ``owners[i]`` is the partition that owns candidate ``i``'s seed, with
    candidates already sorted by drain order (arrival, query id).  Returns
    sorted positions: candidate 0 (the anchor) plus same-partition candidates
    first, then earliest-arriving others, at most ``width`` total.
    """
    owners = np.asarray(owners, dtype=np.int64)
    width = int(width)
    if width < 1:
        raise ValueError(f"batch width must be >= 1, got {width}")
    if owners.size == 0:
        return np.empty(0, dtype=np.int64)
    same = np.nonzero(owners == owners[0])[0]
    if same.size >= width:
        return same[:width]
    others = np.nonzero(owners != owners[0])[0]
    return np.sort(np.concatenate([same, others[: width - same.size]]))
