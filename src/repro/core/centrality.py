"""Closeness and harmonic centrality on concurrent BFS batches.

Section 1's thesis: "many higher-level analyses can be described and
implemented in terms of k-hop queries ... a graph processing system's
ability to handle k-hop access patterns predicts its performance on
higher-level analyses."  Centrality is the cleanest such analysis: closeness
needs the full distance vector from every (sampled) vertex — exactly a
stream of concurrent BFS queries, which the bit-parallel engine serves in
shared 64-wide batches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.khop import concurrent_khop
from repro.runtime.session import GraphSession

__all__ = ["CentralityResult", "closeness_centrality", "harmonic_centrality"]


@dataclass
class CentralityResult:
    """Per-root centrality scores plus traversal accounting."""

    roots: np.ndarray
    scores: np.ndarray
    virtual_seconds: float
    total_edges_scanned: int

    def top(self, count: int) -> list[tuple[int, float]]:
        """The ``count`` highest-scoring roots as (vertex, score) pairs."""
        order = np.argsort(-self.scores)[:count]
        return [(int(self.roots[i]), float(self.scores[i])) for i in order]


class _DepthStream:
    """Streams per-root BFS depth vectors out of 64-wide shared batches,
    accumulating the batches' virtual time and edge-scan counts.

    All batches of the stream run on one :class:`GraphSession`, so the
    frontier planes are re-armed in place between batches instead of
    reallocated per chunk of 64 roots.
    """

    def __init__(self, session: GraphSession, roots):
        self.session = session
        self.roots = (
            np.arange(session.num_vertices)
            if roots is None
            else session._as_vertex_ids(roots, "roots")
        )
        self.virtual_seconds = 0.0
        self.total_edges_scanned = 0

    def __iter__(self):
        for start in range(0, self.roots.size, 64):
            chunk = self.roots[start : start + 64]
            res = concurrent_khop(self.session, chunk, None, record_depths=True)
            self.virtual_seconds += res.virtual_seconds
            self.total_edges_scanned += res.total_edges_scanned
            for q in range(chunk.size):
                yield start + q, res.depths[:, q]


def closeness_centrality(sess: GraphSession, roots=None) -> CentralityResult:
    """Wasserman–Faust closeness of ``roots`` (default: every vertex).

    ``C(v) = ((r-1)/(n-1)) * (r-1) / sum_of_distances`` where ``r`` is the
    size of ``v``'s reachable set — the standard correction for disconnected
    graphs (networkx's ``wf_improved=True``).  Distances are *outgoing* from
    each root (the query engine's traversal direction); on the symmetric
    social graphs of the paper the distinction vanishes.
    """
    n = sess.num_vertices
    stream = _DepthStream(sess, roots)
    scores = np.zeros(stream.roots.size)
    for i, depths in stream:
        reachable = depths > 0
        r = int(reachable.sum()) + 1  # + the root itself
        total = float(depths[reachable].sum())
        if total > 0 and n > 1:
            scores[i] = ((r - 1) / (n - 1)) * ((r - 1) / total)
    return CentralityResult(
        stream.roots, scores, stream.virtual_seconds, stream.total_edges_scanned
    )


def harmonic_centrality(sess: GraphSession, roots=None) -> CentralityResult:
    """Harmonic centrality: ``sum over reachable u of 1 / d(v, u)``.

    Robust to disconnection without correction terms; same outgoing-distance
    convention as :func:`closeness_centrality`.
    """
    stream = _DepthStream(sess, roots)
    scores = np.zeros(stream.roots.size)
    for i, depths in stream:
        reachable = depths > 0
        if reachable.any():
            scores[i] = float((1.0 / depths[reachable]).sum())
    return CentralityResult(
        stream.roots, scores, stream.virtual_seconds, stream.total_edges_scanned
    )
