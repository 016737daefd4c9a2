"""Dict-label incremental patch: the index patch's executable spec.

The patch ``repro.index.incremental`` ran before it walked the live shards:
per-vertex ``{hub rank: distance}`` dicts, a private global CSR/CSC spliced
per inserted edge, and one pure-Python resumption BFS per hub of an
inserted edge.  Slow and obvious on purpose: for the same batches it writes
the same entries and takes the same rebuild decisions, so the vectorised
patch must reproduce its labels byte for byte (see
``tests/dynamic/test_incremental_index.py``).  Build it from the graph
*before* a batch lands (:meth:`IncrementalIndex.from_graph`); it splices its
own adjacency as it patches.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.dynamic.delta import splice_effective_csr
from repro.graph.analysis import bfs_levels
from repro.graph.csr import CSR, expand_ranges
from repro.index.labels import HubLabels


@dataclass(frozen=True)
class IndexPatchResult:
    """Accounting for one :meth:`IncrementalIndex.apply` call."""

    patched: bool  # labels were updated in place
    needs_rebuild: bool  # budget exceeded: caller must rebuild fully
    entries_patched: int = 0  # label entries written
    vertices_repaired: int = 0  # full-label recomputations (deletes)
    resumptions: int = 0  # pruned resumption BFS runs (inserts)
    visits: int = 0  # total BFS vertex visits
    seconds: float = 0.0  # wall time of the patch


_NO_EDGES = np.empty((0, 2), dtype=np.int64)


class IncrementalIndex:
    """Mutable twin of a frozen :class:`HubLabels`, patchable per batch.

    Holds per-vertex ``{hub rank: distance}`` maps plus its own copy of the
    adjacency — a global out-CSR and in-CSC, rows sorted, spliced per
    mutation by the kernel that splices the graph's shards — so patching
    never depends on the resident graph's representation.
    :meth:`finalize` re-freezes into a :class:`HubLabels` with the same
    storage contract (ranks ascending per vertex), so the planner,
    ``dist_many`` and the service are oblivious to how the labels were
    produced.

    Invariant maintained by every patch: **all stored entries are exact
    distances** in the current graph and the labels remain a 2-hop cover
    — queries through :meth:`finalize`'s output match a from-scratch
    build's answers (not necessarily its exact entry set; full-label
    repairs over-approximate the *pruned* entry set, which is what the
    staleness budget bounds).
    """

    def __init__(
        self,
        labels: HubLabels,
        out_csr: CSR,
        in_csc: CSR,
        churn_threshold: float = 0.02,
        region_threshold: float = 0.5,
    ):
        n = labels.num_vertices
        self.num_vertices = n
        self.order = labels.order.copy()
        self.rank_of = np.empty(n, dtype=np.int64)
        self.rank_of[self.order] = np.arange(n, dtype=np.int64)
        self.out_labels = [
            dict(
                zip(
                    labels.out_hubs[labels.out_indptr[v]:labels.out_indptr[v + 1]].tolist(),
                    labels.out_dists[labels.out_indptr[v]:labels.out_indptr[v + 1]].tolist(),
                )
            )
            for v in range(n)
        ]
        self.in_labels = [
            dict(
                zip(
                    labels.in_hubs[labels.in_indptr[v]:labels.in_indptr[v + 1]].tolist(),
                    labels.in_dists[labels.in_indptr[v]:labels.in_indptr[v + 1]].tolist(),
                )
            )
            for v in range(n)
        ]
        # Packed image of the labels as of the last finalize (seeded from
        # the input build), plus the vertices whose dicts diverged from it.
        # finalize() then re-packs only the dirty rows.
        self._packed_out = (
            labels.out_indptr.copy(), labels.out_hubs.copy(),
            labels.out_dists.copy(),
        )
        self._packed_in = (
            labels.in_indptr.copy(), labels.in_hubs.copy(),
            labels.in_dists.copy(),
        )
        self._dirty_out: set[int] = set()
        self._dirty_in: set[int] = set()
        self.out_csr = out_csr
        self.in_csc = in_csc
        self.base_edges = out_csr.nnz
        self.churn_threshold = float(churn_threshold)
        self.region_threshold = float(region_threshold)
        self.mutations_since_build = 0
        self.entries_patched_total = 0

    @classmethod
    def from_graph(cls, labels: HubLabels, graph, **kwargs) -> "IncrementalIndex":
        """Construct from the resident graph (its current global CSR/CSC).

        ``graph`` must be at the same epoch the labels were built at.
        """
        from repro.index.build import global_csr_csc

        return cls(labels, *global_csr_csc(graph), **kwargs)

    # -- queries against the live (mutable) labels --------------------------- #

    def _query(self, x: int, y: int) -> float:
        """Current two-hop distance estimate for ``x -> y``."""
        lx, ly = self.out_labels[x], self.in_labels[y]
        if len(ly) < len(lx):
            best = min(
                (lx[r] + d for r, d in ly.items() if r in lx),
                default=float("inf"),
            )
        else:
            best = min(
                (d + ly[r] for r, d in lx.items() if r in ly),
                default=float("inf"),
            )
        return best

    # -- the patch ----------------------------------------------------------- #

    def apply(self, inserts: np.ndarray, deletes: np.ndarray) -> IndexPatchResult:
        """Patch the labels for one *applied* mutation batch.

        ``inserts``/``deletes`` are the ``(k, 2)`` arrays a
        :class:`~repro.dynamic.delta.MutationResult` reports — already
        canonical (disjoint, no no-ops).  Deletes are processed first,
        then inserts one edge at a time, mirroring the set semantics of
        :meth:`~repro.dynamic.delta.DynamicGraph.apply`.

        When the staleness budget trips, the adjacency is still brought
        up to date but the labels are **not** patched — the caller must
        rebuild from scratch (and construct a fresh IncrementalIndex).
        """
        t0 = time.perf_counter()
        ins = np.asarray(inserts, dtype=np.int64).reshape(-1, 2)
        dels = np.asarray(deletes, dtype=np.int64).reshape(-1, 2)
        self.mutations_since_build += int(ins.shape[0] + dels.shape[0])
        over_churn = (
            self.mutations_since_build
            > self.churn_threshold * max(self.base_edges, 1)
        )
        if over_churn:
            self._splice(ins, dels)
            return IndexPatchResult(
                patched=False,
                needs_rebuild=True,
                seconds=time.perf_counter() - t0,
            )

        entries = visits = repaired = resumptions = 0

        # -- delete phase: invalidate and repair the affected region -------- #
        if dels.shape[0]:
            n = self.num_vertices
            tails = np.unique(dels[:, 0]).tolist()
            heads = np.unique(dels[:, 1]).tolist()
            old_f = {u: bfs_levels(None, u, self.out_csr) for u in tails}
            old_b = {v: bfs_levels(None, v, self.in_csc) for v in heads}
            self._splice(_NO_EDGES, dels)
            changed_f = np.zeros(n, dtype=bool)
            changed_b = np.zeros(n, dtype=bool)
            for u in tails:
                new = bfs_levels(None, u, self.out_csr)
                visits += int((old_f[u] >= 0).sum() + (new >= 0).sum())
                changed_f |= old_f[u] != new
            for v in heads:
                new = bfs_levels(None, v, self.in_csc)
                visits += int((old_b[v] >= 0).sum() + (new >= 0).sum())
                changed_b |= old_b[v] != new
            w_f = np.flatnonzero(changed_f)
            w_b = np.flatnonzero(changed_b)
            if w_f.size + w_b.size > self.region_threshold * n:
                # Repairing most of the graph costs more than rebuilding.
                self._splice(ins, _NO_EDGES)
                return IndexPatchResult(
                    patched=False,
                    needs_rebuild=True,
                    visits=visits,
                    seconds=time.perf_counter() - t0,
                )
            for y in w_f.tolist():
                dists = bfs_levels(None, y, self.in_csc)  # ancestors: d(a, y)
                vs = np.flatnonzero(dists >= 0)
                visits += vs.size
                self.in_labels[y] = dict(
                    zip(self.rank_of[vs].tolist(), dists[vs].tolist())
                )
                self._dirty_in.add(y)
                entries += vs.size
                repaired += 1
            for x in w_b.tolist():
                dists = bfs_levels(None, x, self.out_csr)  # descendants: d(x, b)
                vs = np.flatnonzero(dists >= 0)
                visits += vs.size
                self.out_labels[x] = dict(
                    zip(self.rank_of[vs].tolist(), dists[vs].tolist())
                )
                self._dirty_out.add(x)
                entries += vs.size
                repaired += 1

        # -- insert phase: pruned resumption, one edge at a time ------------ #
        for u, v in ins.tolist():
            self._splice(np.array([[u, v]], dtype=np.int64), _NO_EDGES)
            for r, d_hu in sorted(self.in_labels[u].items()):
                e, vis = self._resume(
                    self.out_csr, self.in_labels, self._dirty_in,
                    r, v, d_hu + 1, forward=True,
                )
                entries += e
                visits += vis
                resumptions += 1
            for r, d_vh in sorted(self.out_labels[v].items()):
                e, vis = self._resume(
                    self.in_csc, self.out_labels, self._dirty_out,
                    r, u, d_vh + 1, forward=False,
                )
                entries += e
                visits += vis
                resumptions += 1

        self.entries_patched_total += entries
        return IndexPatchResult(
            patched=True,
            needs_rebuild=False,
            entries_patched=entries,
            vertices_repaired=repaired,
            resumptions=resumptions,
            visits=visits,
            seconds=time.perf_counter() - t0,
        )

    def _resume(
        self, adj: CSR, labels: list, dirty: set, rank: int, start: int,
        start_dist: int, forward: bool,
    ) -> tuple[int, int]:
        """One pruned resumption BFS for hub ``order[rank]``.

        ``forward=True`` walks out-edges writing in-label entries (hub
        reaches the visited vertices); ``forward=False`` walks in-edges
        writing out-label entries.  Prunes wherever the current two-hop
        query already matches the candidate distance.
        """
        h = int(self.order[rank])
        indptr, indices = adj.indptr, adj.indices
        entries = visits = 0
        seen = {start}
        frontier = [start]
        d = start_dist
        while frontier:
            nxt = []
            for w in frontier:
                visits += 1
                q = self._query(h, w) if forward else self._query(w, h)
                if q <= d:
                    continue  # covered: neither label nor expand
                labels[w][rank] = d
                dirty.add(w)
                entries += 1
                for x in indices[indptr[w]:indptr[w + 1]].tolist():
                    if x not in seen:
                        seen.add(x)
                        nxt.append(x)
            frontier = nxt
            d += 1
        return entries, visits

    def _splice(self, ins: np.ndarray, dels: np.ndarray) -> None:
        """Bring the adjacency to ``(current − dels) ∪ ins``."""
        n = self.num_vertices
        self.out_csr = splice_effective_csr(
            self.out_csr, n, ins[:, 0], ins[:, 1], dels[:, 0], dels[:, 1]
        )
        self.in_csc = splice_effective_csr(
            self.in_csc, n, ins[:, 1], ins[:, 0], dels[:, 1], dels[:, 0]
        )

    # -- freezing back ------------------------------------------------------- #

    def finalize(self) -> HubLabels:
        """Freeze into a :class:`HubLabels` (ranks ascending per vertex).

        Incremental: only vertices whose dicts diverged since the last
        finalize are re-packed; clean rows are copied from the cached
        packed image a run at a time, so a finalize after a small patch
        walks the dirty rows' entries in Python and copies the rest.
        """
        self._packed_out = self._repack(
            self.out_labels, self._packed_out, self._dirty_out
        )
        self._dirty_out = set()
        self._packed_in = self._repack(
            self.in_labels, self._packed_in, self._dirty_in
        )
        self._dirty_in = set()
        out_indptr, out_hubs, out_dists = self._packed_out
        in_indptr, in_hubs, in_dists = self._packed_in
        return HubLabels(
            num_vertices=self.num_vertices,
            order=self.order.copy(),
            out_indptr=out_indptr,
            out_hubs=out_hubs,
            out_dists=out_dists,
            in_indptr=in_indptr,
            in_hubs=in_hubs,
            in_dists=in_dists,
        )

    def _repack(
        self, label_dicts: list, packed: tuple, dirty: set
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if not dirty:
            return packed
        indptr0, hubs0, dists0 = packed
        rows = np.array(sorted(dirty), dtype=np.int64)
        dicts = [label_dicts[v] for v in rows.tolist()]
        lens = np.fromiter(map(len, dicts), dtype=np.int64, count=rows.size)
        total = int(lens.sum())
        hubs = np.fromiter(chain.from_iterable(dicts), hubs0.dtype, total)
        dists = np.fromiter(
            chain.from_iterable(map(dict.values, dicts)), dists0.dtype, total
        )
        # one sort by (row, rank); ranks are < n, so row·n + rank is the key
        order = np.argsort(np.repeat(rows * self.num_vertices, lens) + hubs)
        counts = np.diff(indptr0)
        counts[rows] = lens
        indptr = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        out_hubs = np.empty(int(indptr[-1]), dtype=hubs0.dtype)
        out_dists = np.empty(int(indptr[-1]), dtype=dists0.dtype)
        at = expand_ranges(indptr[rows], indptr[rows + 1])
        out_hubs[at] = hubs[order]
        out_dists[at] = dists[order]
        # the clean rows between two dirty ones move as one block
        runs = zip([0, *(rows + 1).tolist()], [*rows.tolist(), counts.size])
        for lo, hi in runs:
            if lo < hi:
                new = slice(indptr[lo], indptr[hi])
                old = slice(indptr0[lo], indptr0[hi])
                out_hubs[new] = hubs0[old]
                out_dists[new] = dists0[old]
        return indptr, out_hubs, out_dists

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IncrementalIndex(n={self.num_vertices}, "
            f"mutations_since_build={self.mutations_since_build})"
        )
