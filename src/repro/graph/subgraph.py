"""Induced subgraph extraction — materialising query results as graphs.

A k-hop query's natural *result object* for downstream analysis is the
induced neighbourhood subgraph (the paper's queries "return with found
paths"; applications like the recommendation example in §1 then analyse the
neighbourhood).  :func:`induced_subgraph` relabels a vertex subset densely
and keeps the edges among it; :func:`khop_subgraph` composes that with the
query engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.edgelist import EdgeList

__all__ = ["Subgraph", "induced_subgraph", "khop_subgraph"]


@dataclass
class Subgraph:
    """An induced subgraph with its mapping back to the parent graph.

    ``vertices[i]`` is the parent id of local vertex ``i``; ``edges`` uses
    local ids.
    """

    edges: EdgeList
    vertices: np.ndarray  # local id -> parent id

    @property
    def num_vertices(self) -> int:
        return self.edges.num_vertices

    @property
    def num_edges(self) -> int:
        return self.edges.num_edges

    def to_parent(self, local_ids) -> np.ndarray:
        """Map local vertex id(s) back to parent graph ids."""
        return self.vertices[np.asarray(local_ids)]

    def from_parent(self, parent_ids) -> np.ndarray:
        """Map parent id(s) to local ids (-1 when not in the subgraph)."""
        parent_ids = np.asarray(parent_ids)
        sorter = np.argsort(self.vertices)
        pos = np.searchsorted(self.vertices, parent_ids, sorter=sorter)
        pos = np.clip(pos, 0, self.vertices.size - 1)
        found = self.vertices[sorter[pos]] == parent_ids
        out = np.where(found, sorter[pos], -1)
        return out


def induced_subgraph(edges: EdgeList, vertices) -> Subgraph:
    """The subgraph induced by ``vertices`` (kept edges have both endpoints
    inside), with vertices relabelled ``0..len(vertices)-1`` in sorted parent
    order.  Duplicate ids are collapsed; weights are carried."""
    vertices = np.unique(np.asarray(vertices, dtype=np.int64))
    if vertices.size and (
        vertices.min() < 0 or vertices.max() >= edges.num_vertices
    ):
        raise ValueError("subgraph vertex out of range")
    lookup = np.full(edges.num_vertices, -1, dtype=np.int64)
    lookup[vertices] = np.arange(vertices.size)
    src_local = lookup[edges.src]
    dst_local = lookup[edges.dst]
    keep = (src_local >= 0) & (dst_local >= 0)
    weights = None if edges.weight is None else edges.weight[keep]
    sub = EdgeList(src_local[keep], dst_local[keep], vertices.size, weights)
    return Subgraph(edges=sub, vertices=vertices)


def khop_subgraph(sess, source: int, k: int) -> Subgraph:
    """The induced subgraph of everything within ``k`` hops of ``source``."""
    from repro.core.traversal import khop_query

    members = khop_query(sess, source, k)
    edges = sess.dynamic().materialize_edges() if sess.is_dynamic else sess.pg.edges
    return induced_subgraph(edges, members)
