"""Incremental maintenance of the pruned 2-hop index under mutations.

A full :func:`~repro.index.build.build_hub_labels` run is one pruned BFS
per vertex — the right cost to pay once, the wrong cost to pay per edge
mutation.  This module patches the resident labels once a batch has landed
on the live shards, TOL-style (Zhu et al., SIGMOD'14).  **Invariant:**
after every batch the labels equal ``build_hub_labels(graph,
order=frozen)`` entry for entry.  That labelling is canonical — hub ``h``
labels ``x`` iff no higher-ranked vertex lies on a shortest path between
them — so a batch changes only the entries of pairs whose shortest paths
it changed, and the build's own :class:`~repro.index.build._PrunedBFS`
restores them hub by hub in the build's order (rank ascending, forward
before backward), each run pruning against labels already final for the
ranks above it.  Every BFS walks the global CSR/CSC of the shards.

**Delete** — D'Angelo, D'Emidio and Frigioni's decremental step, before
the batch's inserts (which stay hidden).  A hub whose BFS reached ``v``
only over a deleted ``(u, v)`` drops its entries on that side and runs
again.  An entry a run loses can unprune a lower-ranked run: the losing
vertex's own on the other side, and that of any hub which reached the
vertex from a labeled predecessor and would no longer prune it there.
Those run again in their turn.

**Insert** — pruned resumption (Akiba–Iwata–Yoshida).  A new shortest
path through ``(u, v)`` keeps its prefix ``h ⇝ u``, so every hub of
``u``'s in-label resumes its forward BFS at ``v``, one hop past
``d(h, u)`` (a batch's edges as one run per hub), and every hub of
``v``'s out-label its backward BFS at ``u``.  An entry the new paths
dominate has its witness among the entries just written, in its own row
or in its hub's opposite row; those candidates are tested, and dropped.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.graph.csr import expand_ranges, splice_csr
from repro.index.build import _INF, _PrunedBFS, global_csr_csc
from repro.index.labels import HubLabels

__all__ = ["IncrementalIndex"]


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

    def entries(self, rows: np.ndarray):
        """``(owner, hubs, dists)`` of every entry of ``rows``; ``owner``
        indexes ``rows``."""
        length = self.length[rows]
        at = expand_ranges(self.start[rows], self.start[rows] + length)
        owner = np.repeat(np.arange(rows.size), length)
        return owner, self.hubs[at], self.dists[at]

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

    def holders(self, ranks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, hubs, dists)`` of every entry whose hub is in ``ranks``."""
        indptr, hubs, dists = self.image
        pos = np.flatnonzero(np.isin(hubs, ranks) if np.ndim(ranks) else hubs == ranks)
        rows = np.searchsorted(indptr, pos, side="right") - 1
        clean = ~self.moved[rows]
        rows, pos = rows[clean], pos[clean]
        moved = np.flatnonzero(self.moved)
        owner, mhubs, mdists = self.entries(moved)
        hit = np.isin(mhubs, ranks) if np.ndim(ranks) else mhubs == ranks
        return (
            np.concatenate((rows, moved[owner[hit]])),
            np.concatenate((hubs[pos], mhubs[hit])),
            np.concatenate((dists[pos], mdists[hit])),
        )

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

    def drop(self, rows: np.ndarray, ranks: np.ndarray) -> None:
        """Remove hub ``ranks[i]`` from row ``rows[i]``, for every ``i``."""
        if rows.size == 0:
            return
        vs, which = np.unique(rows, return_inverse=True)
        length = self.length[vs]
        src = expand_ranges(self.start[vs], self.start[vs] + length)
        owner = np.repeat(np.arange(vs.size), length)
        key = self.length.size + 1  # beyond every rank
        gone = np.isin(owner * key + self.hubs[src], which * key + ranks)
        keep = src[~gone]
        new_len = length - np.bincount(owner[gone], minlength=vs.size)
        at = self._reserve(keep.size)
        self.hubs[at:at + keep.size] = self.hubs[keep]
        self.dists[at:at + keep.size] = self.dists[keep]
        self._moved(vs, at + np.cumsum(new_len) - new_len, new_len)

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
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self.length, out=indptr[1:])
        size = int(indptr[-1])
        # pack into the front of new buffers twice the size, so the next
        # patches append behind the image instead of regrowing the side
        hubs = np.empty(2 * size, dtype=self.hubs.dtype)
        dists = np.empty(2 * size, dtype=self.dists.dtype)
        np.concatenate([self.hubs[a:b] for a, b in ends], out=hubs[:size])
        np.concatenate([self.dists[a:b] for a, b in ends], out=dists[:size])
        self.hubs, self.dists = hubs, dists
        self.image = (indptr, self.hubs[:size], self.dists[:size])
        self.used, self.start = size, indptr[:-1].copy()
        self.moved[:] = False
        return self.image


class _Side:
    """One direction of the build: its BFS, the labels that BFS extends
    (in-labels forward, out-labels backward), the labels its roots prune
    with, and the reverse adjacency (who reaches a vertex in one hop)."""

    def __init__(self, adj, back, extend: _LabelRows, opposite: _LabelRows, n):
        self.bfs = _PrunedBFS(adj, n)
        self.back = back
        self.extend = extend
        self.opposite = opposite


class IncrementalIndex:
    """Patchable twin of a frozen :class:`HubLabels`, one batch at a time.

    Holds the frozen hub order and each side's labels as a
    :class:`_LabelRows` (the packed arrays plus the rows patched since the
    last :meth:`finalize`) and reads the graph from ``pg``'s live shards.
    ``labels`` must be the build's labels, under their own order, of the
    graph ``pg`` holds before the first batch handed to :meth:`apply`; the
    twin may be made before or after that batch lands.  Every patch keeps
    them the build's labels of the current graph under that order, so the
    planner, ``dist_many`` and the service cannot tell a patched index
    from a rebuilt one.
    """

    def __init__(self, labels: HubLabels, pg):
        n = labels.num_vertices
        self.num_vertices = n
        self.pg = pg
        self.order = labels.order.copy()
        self.rank_of = np.empty(n, dtype=np.int64)
        self.rank_of[self.order] = np.arange(n, dtype=np.int64)
        self.out_rows = _LabelRows(labels.out_indptr, labels.out_hubs, labels.out_dists)
        self.in_rows = _LabelRows(labels.in_indptr, labels.in_hubs, labels.in_dists)
        self.frozen = labels  # the labels finalize handed out last
        self.dirty = False  # patched since

    # -- the patch ----------------------------------------------------------- #

    def apply(self, inserts: np.ndarray, deletes: np.ndarray) -> int:
        """Patch the labels for one batch already applied to the shards;
        returns the label entries written.

        ``inserts``/``deletes`` are the ``(k, 2)`` arrays a
        :class:`~repro.dynamic.delta.MutationResult` reports — already
        canonical (disjoint, no no-ops).  Deletes are processed first, over
        the graph without the batch's inserts, then the inserts, mirroring
        the set semantics of :meth:`~repro.dynamic.delta.DynamicGraph.apply`.
        """
        ins = np.asarray(inserts, dtype=np.int64).reshape(-1, 2)
        dels = np.asarray(deletes, dtype=np.int64).reshape(-1, 2)
        out_csr, in_csc = global_csr_csc(self.pg)
        self.dirty, entries = True, 0
        if dels.size:  # over the graph without the batch's inserts
            n, none = self.num_vertices, ins[:0, 0]
            before = (splice_csr(out_csr, n, none, none, ins[:, 0], ins[:, 1]),
                      splice_csr(in_csc, n, none, none, ins[:, 1], ins[:, 0]))
            entries += self._delete(self._sides(*before), dels)
        if ins.size:
            entries += self._insert(self._sides(out_csr, in_csc), ins)
        return entries

    def _sides(self, fwd, bwd) -> tuple[_Side, _Side]:
        n = self.num_vertices
        return (
            _Side(fwd, bwd, self.in_rows, self.out_rows, n),
            _Side(bwd, fwd, self.out_rows, self.in_rows, n),
        )

    def _delete(self, sides, dels: np.ndarray) -> int:
        """Run again, in the build's order, every hub BFS the deletes
        change; returns the entries written."""
        todo = set()
        for s, side in enumerate(sides):
            for far in np.unique(dels[:, 1 - s]).tolist():
                todo.update((r, s) for r in self._crossing(side, far))
        heap = sorted(todo)
        entries = 0
        while heap:
            rank, s = heapq.heappop(heap)
            side, hub = sides[s], int(self.order[rank])
            rows, _, dists = side.extend.holders(rank)
            side.extend.drop(rows, np.full(rows.size, rank))
            labeled, _ = side.bfs.run(
                [hub], [0], rank, side.opposite.row(hub), side.extend
            )
            entries += labeled.size
            fresh = self._unpruned_by(side, s, rank, rows, dists) - todo
            todo |= fresh
            for nxt in fresh:
                heapq.heappush(heap, nxt)
        return entries

    def _crossing(self, side: _Side, far: int) -> list[int]:
        """Ranks whose BFS on ``side`` labeled ``far``, the head of a deleted
        edge there, from no predecessor it still has (read before the
        batch's labels change): none they label is one hop closer."""
        without = np.full(self.num_vertices, _INF, dtype=np.int64)
        _, hubs, dists = side.extend.entries(side.back.targets(np.array([far])))
        np.minimum.at(without, hubs, dists + 1)
        hubs, dists = side.extend.row(far)
        return hubs[(dists > 0) & (without[hubs] > dists)].tolist()

    def _unpruned_by(self, side: _Side, s: int, rank: int, rows, dists):
        """The runs a run of hub ``rank`` (its entries were ``(rows,
        dists)``) may unprune by an entry it lost: the losing vertex's own
        run on the other side, and that of each lower hub which reached it
        from a labeled predecessor, could have been pruned there by the lost
        entry, and whose prune test, the kernel's, fails there now."""
        n = self.num_vertices
        now = np.full(n, _INF, dtype=np.int64)
        held, _, held_dists = side.extend.holders(rank)
        now[held] = held_dists
        lost = now[rows] > dists
        xs, was = rows[lost], dists[lost]
        runs = {(int(r), 1 - s) for r in self.rank_of[xs] if r > rank}
        pos, degree = side.back.gather_edges(xs)
        owner = np.repeat(np.arange(xs.size), degree)
        at, hubs, d = side.extend.entries(side.back.indices[pos])
        at, level = owner[at], d + 1
        to_hub = np.full(n, _INF, dtype=np.int64)  # by rank: d(h, hub)
        held, _, held_dists = side.opposite.holders(rank)
        to_hub[self.rank_of[held]] = held_dists
        near = np.flatnonzero((hubs > rank) & (to_hub[hubs] + was[at] <= level))
        # each (vertex, hub) once, at the level the hub's BFS first reached it
        near = near[np.argsort(level[near], kind="stable")]
        near = near[np.unique(at[near] * n + hubs[near], return_index=True)[1]]
        at, hubs, level = at[near], hubs[near], level[near]
        test = _two_hop_below(side.extend, xs[at], side.opposite,
                              self.order[hubs], hubs + 1, n)
        return runs | {(int(r), s) for r in hubs[test > level]}

    def _insert(self, sides, ins: np.ndarray) -> int:
        """Resume every hub BFS the inserts extend, in the build's order,
        then drop the entries the new paths dominate; returns the entries
        written."""
        n, seeds = self.num_vertices, {}
        for s, side in enumerate(sides):
            # hubs reaching u now reach v: forward from v; hubs v reaches
            # are now reached from u: backward from u.  A hub whose 2-hop
            # query already covers the far end would be cut there.
            for near, far in (ins if s == 0 else ins[:, ::-1]).tolist():
                hubs, dists = side.extend.row(near)
                covered = _two_hop_below(side.opposite, self.order[hubs], side.extend,
                                         np.full(hubs.size, far), n, n)
                need = covered > dists + 1
                for r, d in zip(hubs[need].tolist(), dists[need].tolist()):
                    entry = seeds.setdefault((r, s), {})  # far end -> distance
                    entry[far] = min(entry.get(far, d + 1), d + 1)
        written = ([], [])  # per side: the rows each run wrote
        for (rank, s), entry in sorted(seeds.items()):
            side, hub = sides[s], int(self.order[rank])
            starts = sorted(entry, key=entry.get)
            labeled, _ = side.bfs.run(
                starts, [entry[v] for v in starts], rank,
                side.opposite.row(hub), side.extend,
            )
            written[s].append(labeled)
        entries = sum(w.size for side in written for w in side)
        written = [np.unique(np.concatenate(w or [ins[:0, 0]])) for w in written]
        for s, side in enumerate(sides):
            side.extend.drop(*self._dominated(side, written[s], written[1 - s]))
        return entries

    def _dominated(self, side: _Side, rows: np.ndarray, hubs: np.ndarray):
        """``(rows, ranks)`` of this side's entries that a higher-ranked
        vertex on one of their shortest paths now covers, by the 2-hop
        query over the ranks above theirs.  An entry ``(h, x)`` whose
        shortest paths the batch changed has its witness among the entries
        just written: in ``x``'s row (one of ``rows``) or in ``h``'s
        opposite row (one of ``hubs``), so only those entries are tested."""
        at, ranks, dists = side.extend.entries(rows)
        more = side.extend.holders(self.rank_of[hubs])
        rows, ranks, dists = (
            np.concatenate(pair) for pair in zip((rows[at], ranks, dists), more)
        )
        best = _two_hop_below(side.extend, rows, side.opposite,
                              self.order[ranks], ranks, self.num_vertices)
        covered = best <= dists
        return rows[covered], ranks[covered]

    # -- freezing back ------------------------------------------------------- #

    def finalize(self) -> HubLabels:
        """Freeze into a :class:`HubLabels` (ranks ascending per vertex),
        the same object until the next patch.

        Incremental: only rows patched since the last finalize are sorted
        and re-packed; clean rows are copied from the last image a run at a
        time, and with nothing patched that image is handed back as is.
        The last image's dense head, when derived, is carried the same way:
        copied, with only the moved rows rewritten.
        """
        if self.dirty:
            moved = [np.flatnonzero(r.moved) for r in (self.out_rows, self.in_rows)]
            out_indptr, out_hubs, out_dists = self.out_rows.finalize()
            in_indptr, in_hubs, in_dists = self.in_rows.finalize()
            labels = HubLabels(
                num_vertices=self.num_vertices,
                order=self.order.copy(),
                out_indptr=out_indptr,
                out_hubs=out_hubs,
                out_dists=out_dists,
                in_indptr=in_indptr,
                in_hubs=in_hubs,
                in_dists=in_dists,
            )
            labels.carry_head(self.frozen, *moved)
            self.frozen, self.dirty = labels, False
        return self.frozen


def _two_hop_below(a: _LabelRows, a_rows, b: _LabelRows, b_rows, bound, n: int):
    """Per pair ``i``, the least ``a[a_rows[i]][w] + b[b_rows[i]][w]`` over
    the hubs ``w < bound[i]`` (∞ when none; ``bound`` may be one rank).

    The side with fewer distinct rows is scattered densely, a bounded block
    of rows at a time; the other is gathered per pair and reduced."""
    if np.unique(a_rows).size > np.unique(b_rows).size:
        a, a_rows, b, b_rows = b, b_rows, a, a_rows
    bound = np.broadcast_to(bound, a_rows.shape)
    keys, group = np.unique(a_rows, return_inverse=True)
    block = max(1, (1 << 20) // (n + 1))
    best = np.full(bound.size, _INF, dtype=np.int32)
    for lo in range(0, keys.size, block):
        pairs = np.flatnonzero((group >= lo) & (group < lo + block))
        dense = np.full((min(block, keys.size - lo), n + 1), _INF, dtype=np.int32)
        at, hubs, d = a.entries(keys[lo:lo + block])
        dense[at, hubs] = d
        at, hubs, d = b.entries(b_rows[pairs])
        via = dense[group[pairs][at] - lo, hubs] + d
        via[hubs >= bound[pairs][at]] = _INF
        np.minimum.at(best, pairs[at], via)
    return best
