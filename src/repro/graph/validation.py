"""Graph500-style result validation for traversal outputs.

The Graph500 benchmark validates each BFS run structurally rather than
against a reference (kernel 2 validation); this module ports that idea to
the k-hop setting so tests — and users — can check any engine's output
without a second implementation:

* the source has depth 0 and nothing else does;
* every edge spans at most one level: ``depth[v] <= depth[u] + 1`` whenever
  both endpoints were visited;
* every visited non-source vertex has a parent one level up;
* every unvisited vertex has no visited in-neighbour at depth ``< k``
  (i.e. the traversal did not stop early) — for full BFS, no visited
  in-neighbour at all.

:func:`validate_khop_depths` returns a list of human-readable violations
(empty = valid).  :func:`check_hops` is the one validator of a query's hop
budget, shared by the traversal engine and the label index.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidQueryError
from repro.graph.csr import build_csc
from repro.graph.edgelist import EdgeList

__all__ = ["validate_khop_depths", "assert_valid_khop", "check_hops"]


def check_hops(k, name: str = "k") -> None:
    """Refuse a hop budget that is not a non-negative integer (``None``
    means unbounded).  A fractional budget would run ``ceil(k)``
    supersteps in the engine but compare ``d <= k`` in the index."""
    if k is None:
        return
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise InvalidQueryError(
            f"{name} must be an integer hop count or None, got {k!r}"
        )
    if k < 0:
        raise InvalidQueryError(f"{name} must be >= 0 or None, got {k}")


def validate_khop_depths(
    edges: EdgeList,
    source: int,
    depths: np.ndarray,
    k: int | None = None,
) -> list[str]:
    """Structural validation of one query's depth vector.

    ``depths[v]`` is the hop at which ``v`` was visited, ``-1`` for
    unvisited.  ``k`` is the hop budget (``None`` = full BFS).  Returns the
    list of violations found.
    """
    depths = np.asarray(depths)
    n = edges.num_vertices
    problems: list[str] = []
    if depths.shape != (n,):
        return [f"depth vector has shape {depths.shape}, expected ({n},)"]

    if depths[source] != 0:
        problems.append(f"source {source} has depth {depths[source]}, expected 0")
    zero_depth = np.nonzero(depths == 0)[0]
    if zero_depth.size != 1 or (zero_depth.size and zero_depth[0] != source):
        problems.append(f"vertices at depth 0: {zero_depth.tolist()}, expected [{source}]")

    visited = depths >= 0
    if k is not None and visited.any() and depths.max() > k:
        problems.append(f"max depth {int(depths.max())} exceeds budget k={k}")

    # edge condition: for u -> v with both visited, depth[v] <= depth[u] + 1
    du = depths[edges.src]
    dv = depths[edges.dst]
    both = (du >= 0) & (dv >= 0)
    bad = both & (dv > du + 1)
    if bad.any():
        i = int(np.nonzero(bad)[0][0])
        problems.append(
            f"edge {int(edges.src[i])}->{int(edges.dst[i])} spans levels "
            f"{int(du[i])}->{int(dv[i])}"
        )

    # parent condition: visited non-source vertices have an in-neighbour one
    # level up
    csc = build_csc(edges.src, edges.dst, n)
    for v in np.nonzero(visited)[0]:
        if v == source:
            continue
        preds = csc.neighbors(int(v))
        pd = depths[preds]
        if not ((pd >= 0) & (pd == depths[v] - 1)).any():
            problems.append(
                f"vertex {int(v)} at depth {int(depths[v])} has no parent at "
                f"depth {int(depths[v]) - 1}"
            )
            break  # one witness is enough

    # completeness: an unvisited vertex must not have a visited in-neighbour
    # with remaining budget
    frontier_cap = np.inf if k is None else k - 1
    unvisited = np.nonzero(~visited)[0]
    for v in unvisited:
        preds = csc.neighbors(int(v))
        pd = depths[preds]
        expandable = (pd >= 0) & (pd <= frontier_cap)
        if expandable.any():
            u = int(preds[np.nonzero(expandable)[0][0]])
            problems.append(
                f"vertex {int(v)} unvisited but in-neighbour {u} sits at depth "
                f"{int(depths[u])} with budget remaining"
            )
            break
    return problems


def assert_valid_khop(
    edges: EdgeList, source: int, depths: np.ndarray, k: int | None = None
) -> None:
    """Raise ``AssertionError`` listing violations, if any."""
    problems = validate_khop_depths(edges, source, depths, k)
    if problems:
        raise AssertionError("; ".join(problems))
