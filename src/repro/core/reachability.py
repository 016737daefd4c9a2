"""Pairwise k-hop reachability queries — the query of the paper's title.

"The 'reachability query' is essentially a graph traversal to search for a
possible path between two given vertices in a graph.  Graph queries are
often associated with constraints such as ... a maximum number of hops to
reach a destination" (§2).  A batch of ``(source, target)`` pairs runs on
the same bit-parallel engine as k-hop, with one extra optimisation the
open-ended query cannot use: **early termination** — the moment query ``q``
reaches its target (or dies), bit ``q`` is cleared from every partition's
frontier, so resolved queries stop consuming traversal work while the rest
of the batch continues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import adapters
from repro.core.frontier import MAX_BATCH_WIDTH
from repro.core.khop import KHopPartitionTask, _check_direction
from repro.graph.edgelist import EdgeList
from repro.graph.partition import PartitionedGraph
from repro.runtime.message import combine_or
from repro.runtime.netmodel import NetworkModel
from repro.runtime.session import GraphSession

__all__ = ["ReachabilityResult", "reachability_queries"]


@dataclass
class ReachabilityResult:
    """Per-pair verdicts for one reachability batch.

    ``reachable[q]`` — whether ``targets[q]`` lies within ``k`` hops of
    ``sources[q]``; ``hops[q]`` — the hop count at which it was reached
    (0 when source == target, -1 when unreachable within budget);
    ``resolution_seconds[q]`` — virtual time at which the verdict settled
    (reached, frontier died, or budget exhausted).
    """

    sources: np.ndarray
    targets: np.ndarray
    k: int | None
    reachable: np.ndarray
    hops: np.ndarray
    resolution_seconds: np.ndarray
    virtual_seconds: float
    supersteps: int
    total_edges_scanned: int
    #: Per-query settled flags: all True unless a ``max_virtual_seconds``
    #: deadline truncated the run, in which case unresolved queries keep
    #: their best-effort verdict (``reachable=False`` so far).
    resolved: np.ndarray | None = None
    truncated: bool = False

    @property
    def num_queries(self) -> int:
        return int(self.sources.size)


def reachability_queries(
    graph: EdgeList | PartitionedGraph,
    sources,
    targets,
    k: int | None,
    num_machines: int = 1,
    netmodel: NetworkModel | None = None,
    use_edge_sets: bool = False,
    session: GraphSession | None = None,
    max_virtual_seconds: float | None = None,
    direction: str = "auto",
) -> ReachabilityResult:
    """Answer up to 64 ``source -> target`` within-``k``-hops queries at once.

    Queries share the traversal exactly as in :func:`concurrent_khop`;
    additionally, a query's bit is masked out of every frontier as soon as
    its verdict is known, shrinking the shared batch as answers arrive.
    ``max_virtual_seconds`` deadlines the batch's virtual clock: the run
    stops at the first barrier past it, flagging still-open queries False
    in ``resolved`` (graceful degradation — both backends truncate at the
    identical superstep).  ``direction`` selects the traversal mode exactly
    as in :func:`concurrent_khop` (answers and virtual clocks are
    direction-independent).
    """
    _check_direction(direction, use_edge_sets)
    sess = GraphSession.for_run(graph, num_machines, netmodel, session)
    sess.require_inproc(use_edge_sets=use_edge_sets)
    pg = sess.pg
    sources = sess.check_sources(sources, MAX_BATCH_WIDTH)
    num_queries = int(sources.size)
    targets = sess.check_targets(targets, num_queries)

    reachable = sources == targets
    hops = np.where(reachable, 0, -1).astype(np.int64)
    resolution = np.zeros(num_queries)
    resolved_mask = int(
        sum(1 << q for q in range(num_queries) if reachable[q])
    )
    target_machine = pg.owner_of(targets)
    target_local = targets - pg.bounds[target_machine]

    # each partition's probe reports the visited bit of the targets it owns
    target_locals = [[] for _ in range(sess.num_machines)]
    for q in range(num_queries):
        target_locals[int(target_machine[q])].append((q, int(target_local[q])))

    def on_step(step_index: int, stats, now: float, probes):
        """Settle one level's verdicts, then drop every resolved query from
        every frontier (early termination)."""
        nonlocal resolved_mask
        level = step_index + 1
        alive = 0
        hit_bits = 0
        for partition_alive, hits in probes:
            alive |= partition_alive
            for q, bit in hits:
                hit_bits |= bit << q
        exhausted = k is not None and level >= k
        for q in range(num_queries):
            if resolved_mask >> q & 1:
                continue
            if hit_bits >> q & 1:
                reachable[q] = True
                hops[q] = level
            elif alive >> q & 1 and not exhausted:
                continue
            resolution[q] = now
            resolved_mask |= 1 << q
        if resolved_mask:
            return adapters.mask_frontier, (~resolved_mask & 0xFFFFFFFFFFFFFFFF,)
        return None

    sess.prepare()
    result = sess.run_batch(
        KHopPartitionTask,
        dict(
            num_queries=num_queries,
            k=k,
            use_edge_sets=use_edge_sets,
            direction=direction,
            push_coeff=sess.netmodel.seconds_per_edge_push,
            pull_coeff=sess.netmodel.seconds_per_edge_pull,
        ),
        ("reach", use_edge_sets),
        sources=sources,
        combiner=combine_or,
        max_supersteps=k,
        on_step=on_step,
        probe=adapters.reach_probe,
        probe_args=[(locals_,) for locals_ in target_locals],
        max_virtual_seconds=max_virtual_seconds,
    )

    if result.truncated:
        resolved = np.array(
            [bool(resolved_mask >> q & 1) for q in range(num_queries)]
        )
    else:
        resolved = np.ones(num_queries, dtype=bool)

    total = result.total_stats()
    return ReachabilityResult(
        sources=sources,
        targets=targets,
        k=k,
        reachable=reachable,
        hops=hops,
        resolution_seconds=resolution,
        virtual_seconds=result.virtual_seconds,
        supersteps=result.supersteps,
        total_edges_scanned=total.edges_scanned,
        resolved=resolved,
        truncated=result.truncated,
    )
