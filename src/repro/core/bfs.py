"""Concurrent breadth-first search: the k → ∞ special case of k-hop.

"Breadth-first-search (BFS) is a special case of k-hop, where k → ∞" (§2).
These wrappers run full-depth traversals on the same bit-parallel engine;
Figure 13's concurrent-BFS experiment ("we enabled bit operations in this
experiment") is exactly this mode.
"""

from __future__ import annotations

import numpy as np

from repro.core.khop import KHopResult, concurrent_khop
from repro.graph.edgelist import EdgeList
from repro.graph.partition import PartitionedGraph
from repro.runtime.netmodel import NetworkModel

__all__ = ["concurrent_bfs", "single_source_bfs"]


def concurrent_bfs(
    graph: EdgeList | PartitionedGraph,
    sources,
    num_machines: int = 1,
    netmodel: NetworkModel | None = None,
    use_edge_sets: bool = False,
    asynchronous: bool = False,
    record_depths: bool = False,
    session=None,
) -> KHopResult:
    """Run up to 512 full BFS traversals concurrently (bit-parallel batch)."""
    return concurrent_khop(
        graph,
        sources,
        k=None,
        num_machines=num_machines,
        netmodel=netmodel,
        use_edge_sets=use_edge_sets,
        asynchronous=asynchronous,
        record_depths=record_depths,
        session=session,
    )


def single_source_bfs(
    graph: EdgeList | PartitionedGraph,
    source: int,
    num_machines: int = 1,
    netmodel: NetworkModel | None = None,
    session=None,
) -> np.ndarray:
    """Hop distances from one source (-1 unreachable), via the batch engine."""
    res = concurrent_khop(
        graph,
        [source],
        k=None,
        num_machines=num_machines,
        netmodel=netmodel,
        record_depths=True,
        session=session,
    )
    return res.depths[:, 0].astype(np.int32)
