"""Degree-ordered pruned construction of the distance-label index.

The build is pruned landmark labeling specialised to the repo's structures:
hubs are processed in descending total-degree order (social-graph hubs cover
the bulk of shortest paths, so early hubs prune almost every later BFS), and
each hub runs one forward and one backward pruned BFS over the global
CSR/CSC adjacency assembled from the partitioned graph's shards:

* forward BFS from hub ``h`` labels every vertex ``v`` it reaches whose
  current labels cannot already prove ``dist(h, v) <= d`` — the entry
  ``(rank(h), d)`` joins ``v``'s **in-label**;
* backward BFS (over the CSC) symmetrically extends **out-labels**.

Pruned vertices are not expanded, which is where the index's size and build
time collapse from O(n²) to roughly the label size.  The canonical-labeling
theorem (Akiba et al. 2013) guarantees the pruned labels still answer every
exact distance, which the property tests assert against the networkx oracle.

While building, each side's labels sit in a padded 2-D slab (a row per
vertex, ranks ascending, padding at a rank whose root distance is ∞), so
pruning a whole BFS level is one row gather, an add and a row ``min``.  For
a fixed order the labelling is canonical, so ``tests/index/`` holds this
build to a pure-Python reference byte for byte.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSR, build_csc, build_csr
from repro.graph.edgelist import EdgeList
from repro.graph.partition import PartitionedGraph
from repro.index.labels import HubLabels

__all__ = ["IndexBuild", "build_hub_labels", "global_csr_csc", "hub_order"]

# root and label distances are int32; ∞ plus any hop count (< n) fits in
# int32 while n <= 2**30
_INF = np.iinfo(np.int32).max // 2


@dataclass
class IndexBuild:
    """A built index plus its one-time construction accounting."""

    labels: HubLabels
    build_seconds: float
    labeled_visits: int  # BFS visits that produced a label entry
    pruned_visits: int  # BFS visits cut off by the existing labels

    @property
    def prune_ratio(self) -> float:
        total = self.labeled_visits + self.pruned_visits
        return self.pruned_visits / total if total else 0.0


def global_csr_csc(graph: EdgeList | PartitionedGraph) -> tuple[CSR, CSR]:
    """Whole-graph out-CSR and in-CSC, reusing partition shards when given.

    Partitions hold contiguous local-row CSR/CSC slices with global column
    ids, so the global structures are a straight concatenation — no re-sort.
    """
    if isinstance(graph, EdgeList):
        return (
            build_csr(graph.src, graph.dst, graph.num_vertices),
            build_csc(graph.src, graph.dst, graph.num_vertices),
        )
    return (
        _concat_shards([p.out_csr for p in graph.partitions]),
        _concat_shards([p.in_csc for p in graph.partitions]),
    )


def _concat_shards(shards: list[CSR]) -> CSR:
    indptr = [np.zeros(1, dtype=np.int64)]
    indices = []
    offset = 0
    for csr in shards:
        indptr.append(csr.indptr[1:] + offset)
        indices.append(csr.indices)
        offset += csr.nnz
    return CSR(
        indptr=np.concatenate(indptr),
        indices=(
            np.concatenate(indices) if indices else np.empty(0, dtype=np.int32)
        ),
    )


def hub_order(graph: EdgeList | PartitionedGraph) -> np.ndarray:
    """Vertex ids in hub-rank order: total degree descending, id ascending.

    A partitioned graph's degrees are read off its shards, so a dynamic
    session ranks by the current graph."""
    degrees = graph.out_degrees() + graph.in_degrees()
    # argsort on -degree is stable, so equal degrees keep ascending ids
    return np.argsort(-degrees, kind="stable").astype(np.int64)


class _LabelSlab:
    """One side's labels during construction: a padded 2-D slab.

    Row ``v`` holds ``v``'s entries in columns ``[0, length[v])``, already
    rank-sorted because ranks are processed in ascending order.  Padding is
    the rank ``n`` at distance 0, and the BFS keeps ``root_dist[n]`` at ∞,
    so a prune test may read a whole padded width.  The width doubles when
    a row fills.
    """

    def __init__(self, num_vertices: int):
        self.length = np.zeros(num_vertices, dtype=np.int64)
        self.hubs = np.full((num_vertices, 1), num_vertices, dtype=np.int32)
        self.dists = np.zeros((num_vertices, 1), dtype=np.int32)

    def row(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """Vertex ``v``'s ``(hubs, dists)`` entries (views into the slab)."""
        w = self.length[v]
        return self.hubs[v, :w], self.dists[v, :w]

    def append(self, vertices: np.ndarray, rank: int, dist: int) -> None:
        """Append ``(rank, dist)`` to each of the distinct ``vertices``."""
        col = self.length[vertices]
        width = self.hubs.shape[1]
        if col.size and col.max() >= width:
            sentinel = self.hubs.shape[0]
            self.hubs = np.pad(self.hubs, ((0, 0), (0, width)),
                               constant_values=sentinel)
            self.dists = np.pad(self.dists, ((0, 0), (0, width)))
        self.hubs[vertices, col] = rank
        self.dists[vertices, col] = dist
        self.length[vertices] = col + 1

    def unpruned(
        self, cand: np.ndarray, d: int, root_dist: np.ndarray
    ) -> np.ndarray:
        """Candidates whose entries cannot already prove a distance ``<= d``.

        One 2-D gather of every candidate's padded row against the root's
        dense rank -> distance scatter, then a row ``min``.
        """
        w = int(self.length[cand].max())
        if w == 0:
            return cand
        via = root_dist.take(self.hubs[cand, :w])
        via += self.dists[cand, :w]
        return cand[via.min(axis=1) > d]

    def finalize(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pack the slab into CSR ``(indptr, hubs, dists)``."""
        indptr = np.zeros(self.length.size + 1, dtype=np.int64)
        np.cumsum(self.length, out=indptr[1:])
        filled = np.arange(self.hubs.shape[1]) < self.length[:, None]
        return indptr, self.hubs[filled], self.dists[filled]


class _PrunedBFS:
    """One direction's reusable pruned-BFS scratch state.

    ``adj`` is the out-CSR for the forward direction (extending in-labels)
    or the in-CSC for the backward direction (extending out-labels); any
    adjacency with ``targets`` will do.
    """

    def __init__(self, adj: CSR, num_vertices: int):
        self.adj = adj
        # dense hub-rank -> distance scatter of the root's opposite-side
        # label; the extra last slot is the slab's padding rank, always ∞
        self.root_dist = np.full(num_vertices + 1, _INF, dtype=np.int32)
        self.visited = np.zeros(num_vertices, dtype=bool)
        # frontier dedup: each candidate writes its position, one survives
        self.slot = np.zeros(num_vertices, dtype=np.int64)

    def run(
        self,
        starts: list,
        dists: list,
        rank: int,
        root_label: tuple[np.ndarray, np.ndarray],
        labels,
    ) -> tuple[np.ndarray, int]:
        """Pruned BFS for hub ``rank``, entering at each of the distinct
        ``starts`` at the matching distance in ``dists`` (ascending);
        labels survivors with ``(rank, d)``.

        The build starts at the hub itself at 0, which no earlier hub pair
        can prune (none witnesses ``dist(root, root) <= 0``), so distance 0
        skips the test; an insert's resumption (:mod:`repro.index.incremental`)
        enters at the new edges' far ends, one hop past the hub's distance
        to their near ends.  The 2-hop pruning query for a
        candidate ``v`` at distance ``d`` intersects the hub's opposite-side
        label (``root_label``, scattered densely by rank) with ``v``'s row
        in ``labels`` — the side this BFS extends, any store with the slab's
        ``unpruned`` and ``append``.  Candidates whose existing labels
        already prove a distance ``<= d`` are neither labeled nor expanded.
        Returns the labeled vertices and the count of pruned visits.
        """
        root_hubs, root_dists = root_label
        self.root_dist[root_hubs] = root_dists
        self.root_dist[rank] = 0

        cand = np.empty(0, dtype=np.int64)
        seen, labeled = [], []
        pruned = entered = 0
        d = dists[0]
        while True:
            if entered < len(dists) and dists[entered] == d:  # seeds enter
                stop = entered + dists[entered:].count(d)
                cand = np.concatenate((cand, starts[entered:stop]))
                entered = stop
            cand = cand[~self.visited[cand]]
            if cand.size:
                at = np.arange(cand.size)
                self.slot[cand] = at
                cand = cand[self.slot[cand] == at]
                self.visited[cand] = True
                seen.append(cand)
                keep = labels.unpruned(cand, d, self.root_dist) if d else cand
                pruned += int(cand.size - keep.size)
                if keep.size:
                    labels.append(keep, rank, d)
                    labeled.append(keep)
                cand = self.adj.targets(keep) if keep.size else keep
            if cand.size == 0 and entered == len(dists):
                break
            d = d + 1 if cand.size else dists[entered]

        for block in seen:
            self.visited[block] = False
        self.root_dist[root_hubs] = _INF
        self.root_dist[rank] = _INF
        return (np.concatenate(labeled) if labeled else cand), pruned


def _check_order(order, n: int) -> np.ndarray:
    """``order`` as int64 ids, refused unless each vertex appears once."""
    order = np.asarray(order)
    integral = order.dtype.kind in "iu" or order.size == 0
    if not integral or not np.array_equal(np.sort(order), np.arange(n)):
        raise ValueError("order must be a permutation of the vertex ids")
    return order.astype(np.int64, copy=False)


def build_hub_labels(
    graph: EdgeList | PartitionedGraph,
    order: np.ndarray | None = None,
) -> IndexBuild:
    """Build the pruned distance-label index for ``graph``.

    ``order`` overrides the hub sequence (vertex ids, most important first);
    the default is total-degree descending.  Returns the labels plus build
    accounting; the build is deterministic for a fixed graph and order.
    """
    t0 = time.perf_counter()
    n = graph.num_vertices
    order = hub_order(graph) if order is None else _check_order(order, n)

    out_csr, in_csc = global_csr_csc(graph)
    out_labels = _LabelSlab(n)  # per-vertex hubs it reaches
    in_labels = _LabelSlab(n)  # per-vertex hubs reaching it

    forward = _PrunedBFS(out_csr, n)
    backward = _PrunedBFS(in_csc, n)
    labeled = pruned = 0
    for rank, root in enumerate(order.tolist()):
        # forward: d(root, v) — prune via out(root) ∩ in(v), extend in-labels
        lab, pru = forward.run([root], [0], rank, out_labels.row(root), in_labels)
        labeled += lab.size
        pruned += pru
        # backward: d(v, root) — prune via out(v) ∩ in(root), extend out-labels
        lab, pru = backward.run([root], [0], rank, in_labels.row(root), out_labels)
        labeled += lab.size
        pruned += pru

    out_indptr, out_hubs, out_dists = out_labels.finalize()
    in_indptr, in_hubs, in_dists = in_labels.finalize()
    labels = HubLabels(
        num_vertices=n,
        order=order,
        out_indptr=out_indptr,
        out_hubs=out_hubs,
        out_dists=out_dists,
        in_indptr=in_indptr,
        in_hubs=in_hubs,
        in_dists=in_dists,
    )
    return IndexBuild(
        labels=labels,
        build_seconds=time.perf_counter() - t0,
        labeled_visits=labeled,
        pruned_visits=pruned,
    )
