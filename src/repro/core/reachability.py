"""Pairwise k-hop reachability queries — the query of the paper's title.

"The 'reachability query' is essentially a graph traversal to search for a
possible path between two given vertices in a graph.  Graph queries are
often associated with constraints such as ... a maximum number of hops to
reach a destination" (§2).  A batch of ``(source, target)`` pairs is the
k-hop batch with targets (:func:`~repro.core.khop._run_traversal`), plus one
optimisation the open-ended query cannot use: **early termination** — once
query ``q`` reaches its target, bit ``q`` is cleared from every partition's
frontier, so resolved queries stop consuming traversal work while the rest
of the batch continues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.frontier import MAX_WIDE_BATCH
from repro.core.khop import _check_traversal, _run_traversal
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
    sess: GraphSession,
    sources,
    targets,
    k: int | None,
    max_virtual_seconds: float | None = None,
    direction: str = "auto",
) -> ReachabilityResult:
    """Answer up to 512 ``source -> target`` within-``k``-hops queries at once.

    Queries share the traversal exactly as in :func:`concurrent_khop`;
    additionally, a query's bit is masked out of every frontier as soon as
    its target is reached, shrinking the shared batch as answers arrive.
    ``max_virtual_seconds`` deadlines the batch's virtual clock: the run
    stops at the first barrier past it, flagging still-open queries False
    in ``resolved`` (graceful degradation — both backends truncate at the
    identical superstep).  ``direction`` selects the traversal mode exactly
    as in :func:`concurrent_khop` (answers and virtual clocks are
    direction-independent).
    """
    _check_traversal(sess, k, direction)
    sources = sess.check_sources(sources, MAX_WIDE_BATCH)
    targets = sess.check_targets(targets, int(sources.size))
    level, seconds, resolved, hit, result = _run_traversal(
        sess, sources, k, targets,
        max_virtual_seconds=max_virtual_seconds,
        direction=direction,
    )
    # source == target pairs are hit from seeding, settled at hop 0, t=0
    same = sources == targets
    hops = np.where(hit, level, -1)
    hops[same] = 0
    seconds[same] = 0.0
    return ReachabilityResult(
        sources=sources,
        targets=targets,
        k=k,
        reachable=same | hit,
        hops=hops,
        resolution_seconds=seconds,
        virtual_seconds=result.virtual_seconds,
        supersteps=result.supersteps,
        total_edges_scanned=result.total_stats().edges_scanned,
        resolved=resolved | same,
        truncated=result.truncated,
    )
