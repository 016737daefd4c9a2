"""The ``Traverse`` operator (§3.4, Listing 2) and single-query helpers.

The paper splits graph applications into *traversals on structure*
(``Traverse``) and *iterative computation on property* (``Update``/GAS).
:func:`traverse` is the structure-side operator: starting from a source, it
visits the reachable neighbourhood level by level up to a hop budget,
invoking a user ``visit`` callback with each level's newly reached vertices
— exactly the role of Listing 2's loop, but vectorised and distributed.

:func:`shortest_hop_path` materialises one path from a width-1 batch of the
bit-parallel engine.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.khop import KHopResult, concurrent_khop
from repro.runtime.session import GraphSession

__all__ = ["traverse", "shortest_hop_path"]


def traverse(
    sess: GraphSession,
    source: int,
    hops: int | None,
    visit: Callable[[int, np.ndarray], None] | None = None,
    direction: str = "auto",
) -> KHopResult:
    """Listing 2's ``Traverse``: visit the ≤ ``hops`` neighbourhood of ``source``.

    ``visit(level, vertices)`` is called for each level 1..L with the global
    ids newly reached at that level (level 0 is the source itself and is not
    reported).  Returns the underlying :class:`KHopResult` with depths
    recorded.  ``direction`` selects the traversal mode (push/pull/auto).
    """
    res = concurrent_khop(
        sess, [source], hops, record_depths=True, direction=direction
    )
    if visit is not None:
        depths = res.depths[:, 0]
        max_level = int(depths.max(initial=0))
        for level in range(1, max_level + 1):
            verts = np.nonzero(depths == level)[0]
            if verts.size:
                visit(level, verts)
    return res


def shortest_hop_path(
    sess: GraphSession, source: int, target: int, k: int | None = None
) -> list[int] | None:
    """One minimum-hop path ``source -> ... -> target`` within ``k`` hops.

    The paper notes that "every query returns with found paths" (§4.2); this
    helper materialises one.  Implementation: a depth-recording traversal,
    then a backward walk — from the target at depth ``d``, any in-neighbour
    at depth ``d - 1`` extends the path (the in-edge CSC of §3.2 makes the
    backward step a local scan).  Returns ``None`` when the target is not
    reachable within the budget.
    """
    pg = sess.pg
    target = int(sess._as_vertex_ids(target, "target"))
    res = concurrent_khop(sess, [source], k, record_depths=True)
    depths = res.depths[:, 0]
    if depths[target] < 0:
        return None
    path = [target]
    current = target
    for depth in range(int(depths[target]), 0, -1):
        part = pg.partition_of(current)
        in_nbrs = part.in_csc.neighbors(current - part.lo)
        preds = in_nbrs[depths[in_nbrs] == depth - 1]
        if preds.size == 0:  # pragma: no cover - depths guarantee a parent
            return None
        current = int(preds[0])
        path.append(current)
    path.reverse()
    return path

