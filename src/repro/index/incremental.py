"""Incremental maintenance of the pruned 2-hop index under mutations.

A full :func:`~repro.index.build.build_hub_labels` run is one pruned BFS
per vertex — the right cost to pay once, the wrong cost to pay per edge
mutation.  This module patches the resident labels once a batch has landed
on the live shards, TOL-style (Zhu et al., SIGMOD'14 maintain a total-order
labeling under ``addEdge``/``DeleteNode`` the same way).  Every BFS walks
the global CSR/CSC concatenated from the shards, with the batch's own
edits masked so that each step sees the graph it is about.

**Insert** — pruned resumption BFS (Akiba–Iwata–Yoshida).  Inserting
``(u, v)`` can only create shorter paths *through* that edge, and the
prefix ``h ⇝ u`` of any such path is unaffected, so for every entry
``(h, d_hu)`` of ``u``'s in-label the build's own pruned BFS resumes from
``v`` at distance ``d_hu + 1``, writing in-label entries where the current
two-hop query cannot already match the candidate distance; symmetrically
backward from ``u`` over ``v``'s out-label.  Edges of a batch go in one at
a time, the later ones hidden, so each resumption runs against exact
labels for the previous graph — the induction the correctness proof needs.

**Delete** — invalidate-and-repair, before the batch's inserts.  If
deleting edge set ``D`` changes ``d(x, y)``, then along any old shortest
path the *first* deleted edge ``(u, v)`` has ``d(u, y)`` changed and the
*last* one ``(u', v')`` has ``d(x, v')`` changed.  So the changed pairs lie
in ``W_b × W_f``, where ``W_f`` collects vertices whose distance *from*
some deleted tail changed (old/new forward BFS diff, the old BFS walking
the deleted edges) and ``W_b`` those whose distance *to* some deleted head
changed.  Repair rewrites full exact in-labels for ``W_f`` and out-labels
for ``W_b``; every other entry is provably still exact, and a repaired
pair always finds an exact witness through the source's own hub.

**Staleness budget** — past ``churn_threshold`` cumulative mutations per
edge of the last full build, or a delete region over ``region_threshold``
of the vertices (where repair would out-cost a rebuild), the patch reports
``needs_rebuild`` and the session rebuilds instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.graph.analysis import bfs_levels
from repro.graph.csr import CSR, expand_ranges
from repro.index.build import _INF, _PrunedBFS, global_csr_csc
from repro.index.labels import HubLabels

__all__ = ["IncrementalIndex", "IndexPatchResult"]


@dataclass(frozen=True)
class IndexPatchResult:
    """Accounting for one :meth:`IncrementalIndex.apply` call."""

    needs_rebuild: bool  # budget exceeded: caller must rebuild fully
    entries_patched: int = 0  # label entries written
    vertices_repaired: int = 0  # full-label recomputations (deletes)
    seconds: float = 0.0  # wall time of the patch


class _LabelRows:
    """One side's labels while patching: a frozen image plus an overlay.

    Row ``v`` is ``hubs[start[v]:start[v] + length[v]]`` (and ``dists``).
    The packed ``(indptr, hubs, dists)`` image of the last :meth:`finalize`
    fills the front of the buffers and is never written, so the labels
    handed out stay frozen; a row patched since is rewritten behind it, in
    any rank order, and :meth:`finalize` sorts and re-packs only those.
    """

    def __init__(self, indptr: np.ndarray, hubs: np.ndarray, dists: np.ndarray):
        self.image = (indptr, hubs, dists)
        self.hubs, self.dists = hubs, dists
        self.used = hubs.size
        self.start = indptr[:-1].copy()
        self.length = np.diff(indptr)
        self.moved = np.zeros(self.length.size, dtype=bool)

    def row(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """Vertex ``v``'s ``(hubs, dists)`` (views of written, unchanging
        buffer positions)."""
        at = slice(self.start[v], self.start[v] + self.length[v])
        return self.hubs[at], self.dists[at]

    def best(self, rows: np.ndarray, root_dist: np.ndarray) -> np.ndarray:
        """Per row, its entries' minimum ``root_dist[hub] + dist`` (∞ when
        none): one gather over every row, then a segmented ``min``."""
        length = self.length[rows]
        pos = expand_ranges(self.start[rows], self.start[rows] + length)
        via = root_dist.take(self.hubs[pos]) + self.dists[pos]
        best = np.full(rows.size, _INF, dtype=np.int32)
        some = length > 0
        if via.size:
            best[some] = np.minimum.reduceat(via, (np.cumsum(length) - length)[some])
        return best

    def unpruned(self, cand: np.ndarray, d, root_dist: np.ndarray) -> np.ndarray:
        """Candidates whose entries cannot already prove a distance ``<= d``."""
        return cand[self.best(cand, root_dist) > d]

    def append(self, vertices: np.ndarray, rank: int, dist: int) -> None:
        """Give each of the distinct ``vertices`` the entry ``(rank, dist)``:
        a new entry, or a lower distance for the one it holds."""
        length = self.length[vertices]
        src = expand_ranges(self.start[vertices], self.start[vertices] + length)
        held = self.hubs[src] == rank
        has = np.zeros(vertices.size, dtype=bool)
        has[np.repeat(np.arange(vertices.size), length)[held]] = True
        new_len = length + ~has
        at = self._reserve(int(new_len.sum())) + np.cumsum(new_len) - new_len
        dst = expand_ranges(at, at + length)
        self.hubs[dst] = self.hubs[src]
        self.dists[dst] = self.dists[src]
        self.dists[dst[held]] = dist
        tail = (at + length)[~has]
        self.hubs[tail] = rank
        self.dists[tail] = dist
        self._moved(vertices, at, new_len)

    def set_row(self, v: int, hubs: np.ndarray, dists: np.ndarray) -> None:
        """Replace vertex ``v``'s row by ``(hubs, dists)``."""
        at = self._reserve(hubs.size)
        self.hubs[at:at + hubs.size] = hubs
        self.dists[at:at + hubs.size] = dists
        self._moved(v, at, hubs.size)

    def _moved(self, rows, at, length) -> None:
        self.start[rows] = at
        self.length[rows] = length
        self.moved[rows] = True

    def _reserve(self, count: int) -> int:
        """Offset of ``count`` fresh buffer slots past every written one."""
        at = self.used
        if at + count > self.hubs.size:  # new buffers: an image keeps the old
            cap = max(2 * self.hubs.size, at + count)
            self.hubs = np.resize(self.hubs, cap)
            self.dists = np.resize(self.dists, cap)
        self.used = at + count
        return at

    def finalize(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The packed image, re-packed when rows moved."""
        rows = np.flatnonzero(self.moved)
        if rows.size == 0:
            return self.image
        n, lens = self.length.size, self.length[rows]
        # sort each moved row by rank where it lies (row·n + rank is the key)
        at = expand_ranges(self.start[rows], self.start[rows] + lens)
        by_rank = at[np.argsort(np.repeat(rows * n, lens) + self.hubs[at])]
        self.hubs[at], self.dists[at] = self.hubs[by_rank], self.dists[by_rank]
        # now each moved row, and each run of clean rows, is one slice
        cuts = np.unique(np.concatenate(([0, n], rows, rows + 1)))
        lo, hi = cuts[:-1], cuts[1:] - 1
        first, last = self.start[lo], self.start[hi] + self.length[hi]
        ends = list(zip(first.tolist(), last.tolist()))
        self.hubs, self.dists = (
            np.concatenate([buf[a:b] for a, b in ends])
            for buf in (self.hubs, self.dists)
        )
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self.length, out=indptr[1:])
        self.image = (indptr, self.hubs, self.dists)
        self.used, self.start = self.hubs.size, indptr[:-1].copy()
        self.moved[:] = False
        return self.image


class _BatchView:
    """One direction of the live graph as one step of a batch sees it.

    ``adj`` is the global out-CSR (or in-CSC) after the batch: its inserted
    edges are hidden until :meth:`reveal` lets each in, and the deleted ones
    are walked until :meth:`drop`.  Pairs are ``(row, column)`` in this
    direction.
    """

    def __init__(self, adj: CSR, ins: np.ndarray, dels: np.ndarray):
        self.adj = adj
        self.num_rows = adj.num_rows
        self.del_rows, self.del_cols = dels[:, 0], dels[:, 1]
        self.ins_at = [
            adj.indptr[u]
            + np.searchsorted(adj.indices[adj.indptr[u]:adj.indptr[u + 1]], v)
            for u, v in ins.tolist()
        ]
        self.hidden = np.zeros(adj.nnz, dtype=bool)
        self.hidden[self.ins_at] = True

    def drop(self) -> None:
        """Stop walking the deleted edges."""
        self.del_rows = self.del_rows[:0]

    def reveal(self, i: int) -> None:
        """Walk the batch's ``i``-th insert from now on."""
        self.hidden[self.ins_at[i]] = False

    def targets(self, rows: np.ndarray) -> np.ndarray:
        pos, _ = self.adj.gather_edges(rows)
        nbrs = self.adj.indices[pos[~self.hidden[pos]]]
        if self.del_rows.size:
            extra = self.del_cols[np.isin(self.del_rows, rows)]
            nbrs = np.concatenate((nbrs, extra))
        return nbrs


class IncrementalIndex:
    """Patchable twin of a frozen :class:`HubLabels`, one batch at a time.

    Holds the frozen hub order and each side's labels as a
    :class:`_LabelRows` — the packed arrays plus the rows patched since the
    last :meth:`finalize` — and reads the graph from ``pg``'s live shards,
    so it keeps no adjacency of its own.  ``labels`` must be exact for the
    graph ``pg`` holds before the first batch handed to :meth:`apply`; the
    twin may be made before or after that batch lands.  :meth:`finalize`
    re-freezes into a :class:`HubLabels` with the same storage contract
    (ranks ascending per vertex), so the planner, ``dist_many`` and the
    service are oblivious to how the labels were produced.

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
        pg,
        churn_threshold: float = 0.02,
        region_threshold: float = 0.5,
    ):
        n = labels.num_vertices
        self.num_vertices = n
        self.pg = pg
        self.order = labels.order.copy()
        self.rank_of = np.empty(n, dtype=np.int64)
        self.rank_of[self.order] = np.arange(n, dtype=np.int64)
        self.out_rows = _LabelRows(labels.out_indptr, labels.out_hubs, labels.out_dists)
        self.in_rows = _LabelRows(labels.in_indptr, labels.in_hubs, labels.in_dists)
        self.base_edges = None  # the labels' graph's edge count, set by apply
        self.churn_threshold = float(churn_threshold)
        self.region_threshold = float(region_threshold)
        self.mutations_since_build = 0

    # -- the patch ----------------------------------------------------------- #

    def apply(self, inserts: np.ndarray, deletes: np.ndarray) -> IndexPatchResult:
        """Patch the labels for one batch already applied to the shards.

        ``inserts``/``deletes`` are the ``(k, 2)`` arrays a
        :class:`~repro.dynamic.delta.MutationResult` reports — already
        canonical (disjoint, no no-ops).  Deletes are processed first,
        then inserts one edge at a time, mirroring the set semantics of
        :meth:`~repro.dynamic.delta.DynamicGraph.apply`.

        When the staleness budget trips the labels are **not** patched —
        the caller must rebuild from scratch (and make a fresh twin).
        """
        t0 = time.perf_counter()
        ins = np.asarray(inserts, dtype=np.int64).reshape(-1, 2)
        dels = np.asarray(deletes, dtype=np.int64).reshape(-1, 2)
        if self.base_edges is None:
            self.base_edges = self.pg.num_edges - len(ins) + len(dels)
        self.mutations_since_build += int(ins.shape[0] + dels.shape[0])
        budget = self.churn_threshold * max(self.base_edges, 1)
        if self.mutations_since_build > budget:
            return IndexPatchResult(
                needs_rebuild=True, seconds=time.perf_counter() - t0
            )

        out_csr, in_csc = global_csr_csc(self.pg)
        fwd = _BatchView(out_csr, ins, dels)
        bwd = _BatchView(in_csc, ins[:, ::-1], dels[:, ::-1])
        entries = repaired = 0

        # -- delete phase: invalidate and repair the affected region -------- #
        if dels.shape[0]:
            n = self.num_vertices
            tails, heads = np.unique(dels[:, 0]), np.unique(dels[:, 1])
            old_f = [bfs_levels(None, u, fwd) for u in tails.tolist()]
            old_b = [bfs_levels(None, v, bwd) for v in heads.tolist()]
            fwd.drop()
            bwd.drop()
            changed_f = np.zeros(n, dtype=bool)
            changed_b = np.zeros(n, dtype=bool)
            for u, old in zip(tails.tolist(), old_f):
                changed_f |= old != bfs_levels(None, u, fwd)
            for v, old in zip(heads.tolist(), old_b):
                changed_b |= old != bfs_levels(None, v, bwd)
            w_f = np.flatnonzero(changed_f)
            w_b = np.flatnonzero(changed_b)
            if w_f.size + w_b.size > self.region_threshold * n:
                # Repairing most of the graph costs more than rebuilding.
                return IndexPatchResult(
                    needs_rebuild=True, seconds=time.perf_counter() - t0
                )
            # in-labels: every ancestor a at d(a, y); out-labels: descendants
            for rows, view, ends in (
                (self.in_rows, bwd, w_f), (self.out_rows, fwd, w_b)
            ):
                for y in ends.tolist():
                    dists = bfs_levels(None, y, view)
                    vs = np.flatnonzero(dists >= 0)
                    rows.set_row(y, self.rank_of[vs], dists[vs])
                    entries += vs.size
                    repaired += 1

        # -- insert phase: pruned resumption, one edge at a time ------------ #
        forward = _PrunedBFS(fwd, self.num_vertices)
        backward = _PrunedBFS(bwd, self.num_vertices)
        for i, (u, v) in enumerate(ins.tolist()):
            fwd.reveal(i)
            bwd.reveal(i)
            # hubs reaching u now reach v: extend in-labels from v
            entries += self._resume(forward, self.in_rows, self.out_rows, u, v)
            # hubs v reaches are now reached from u: extend out-labels from u
            entries += self._resume(backward, self.out_rows, self.in_rows, v, u)

        return IndexPatchResult(
            needs_rebuild=False,
            entries_patched=entries,
            vertices_repaired=repaired,
            seconds=time.perf_counter() - t0,
        )

    def _resume(
        self, bfs: _PrunedBFS, extend: _LabelRows, opposite: _LabelRows,
        near: int, start: int,
    ) -> int:
        """Resume the pruned BFS of every hub in ``near``'s ``extend`` row
        from ``start``, one hop further; returns the entries written.

        One gather first tests every hub's two-hop query at ``start``: a
        hub it already covers would be cut at its first vertex, and the
        resumptions before it only lower queries, so it is skipped.
        """
        hubs, dists = extend.row(near)
        start_hubs, start_dists = extend.row(start)
        scatter = bfs.root_dist  # all ∞ between runs
        scatter[start_hubs] = start_dists
        need = opposite.best(self.order[hubs], scatter) > dists + 1
        scatter[start_hubs] = _INF
        entries = 0
        for rank, d in sorted(zip(hubs[need].tolist(), dists[need].tolist())):
            h = int(self.order[rank])
            entries += bfs.run(start, d + 1, rank, opposite.row(h), extend)[0]
        return entries

    # -- freezing back ------------------------------------------------------- #

    def finalize(self) -> HubLabels:
        """Freeze into a :class:`HubLabels` (ranks ascending per vertex).

        Incremental: only rows patched since the last finalize are sorted
        and re-packed; clean rows are copied from the last image a run at a
        time, and with nothing patched that image is handed back as is.
        """
        out_indptr, out_hubs, out_dists = self.out_rows.finalize()
        in_indptr, in_hubs, in_dists = self.in_rows.finalize()
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

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IncrementalIndex(n={self.num_vertices}, "
            f"mutations_since_build={self.mutations_since_build})"
        )
