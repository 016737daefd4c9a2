"""Vectorised 2-hop / landmark distance-label storage and query kernel.

A pruned landmark (2-hop) index stores, per vertex ``v``:

* an **out-label** — hubs ``h`` reachable *from* ``v`` with ``d(v, h)``, and
* an **in-label** — hubs ``h`` that *reach* ``v`` with ``d(h, v)``,

such that for every reachable pair ``d(s, t) = min_h d(s, h) + d(h, t)``
over the hubs common to ``out(s)`` and ``in(t)`` (the 2-hop cover property;
see Zhu et al.'s total-order labeling and Akiba et al.'s pruned landmark
labeling).  A k-hop reachability query is then a sorted label intersection:
``reach(s, t, k)  iff  dist(s, t) <= k``.

Labels live in CSR-style numpy arrays — ``indptr`` into flat ``hubs`` /
``dists`` arrays, hub *ranks* strictly ascending within each vertex's slice
(:func:`check_labels` refuses anything else) — so a batch of point queries
is answered with no sort and no per-pair python loop.

Entries crowd the top ranks, so each side also has a derived, never saved
**head**: ``plane[v, r]`` is ``v``'s distance to hub rank ``r < width``
(``_NONE`` if none or ``>= _FAR``) over the row's leading ``length[v]``
entries, those of rank ``< width``.  ``dist_many`` answers heads with one
uint8 gather and a row ``min`` and merges only the tails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.graph.csr import expand_ranges
from repro.graph.validation import check_hops

__all__ = ["HubLabels", "UNREACHABLE", "check_labels"]

#: Public sentinel for "no path": ``dist_many`` returns -1 for such pairs.
UNREACHABLE = -1

# Internal sentinel kept far from int64 overflow when two of them are added.
_INF = np.iinfo(np.int64).max // 4

# A head cell with no entry, and the least distance a head cannot hold:
# two held distances sum to at most 2 * 63 < _NONE <= any sum with a _NONE.
_NONE, _FAR = 127, 64


class _Head(NamedTuple):
    """One side's head; ``short``: a distance ``>= _FAR`` left out (merge whole)."""

    plane: np.ndarray  # uint8 (n, width)
    length: np.ndarray  # int64 (n,)
    short: np.ndarray  # bool (n,)


def _head_width(n: int, label_bytes: int) -> int:
    """The largest power of two ``<= n`` whose two heads (``2 n width``
    bytes) fit in the label arrays' bytes; 1 when none does."""
    return 1 << max(int(min(n, label_bytes // max(2 * n, 1))).bit_length() - 1, 0)


def _write_head(indptr, hubs, dists, width: int, head=None, rows=None) -> _Head:
    """One side's head derived whole, or ``rows`` of ``head`` rewritten in
    place."""
    if head is None:
        rows = np.arange(indptr.size - 1)
        head = _Head(np.empty((rows.size, width), np.uint8),
                     np.empty(rows.size, np.int64), np.empty(rows.size, bool))
    lo, lens = indptr[rows], indptr[rows + 1] - indptr[rows]
    pos = expand_ranges(lo, lo + lens)
    owner = np.repeat(np.arange(rows.size), lens)
    rank, dist = hubs[pos], dists[pos]
    below = rank < width
    held = below & (dist < _FAR)
    head.plane[rows] = _NONE
    head.plane[rows[owner[held]], rank[held]] = dist[held]
    head.length[rows] = np.bincount(owner[below], minlength=rows.size)
    head.short[rows] = head.length[rows] > np.bincount(owner[held], minlength=rows.size)
    return head


@dataclass(frozen=True)
class HubLabels:
    """The distance-label index over one graph.

    ``out_indptr``/``out_hubs``/``out_dists`` hold every vertex's out-label
    (hubs sorted by rank ascending); the ``in_*`` triple holds the in-labels.
    ``order[r]`` is the vertex chosen as hub rank ``r`` (degree-descending
    build order); ranks — not raw vertex ids — are what label entries store,
    so intersection order equals importance order.
    """

    num_vertices: int
    order: np.ndarray  # int64, hub rank -> vertex id
    out_indptr: np.ndarray  # int64, (n + 1,)
    out_hubs: np.ndarray  # int32 hub ranks, sorted per vertex
    out_dists: np.ndarray  # int32 hop distances
    in_indptr: np.ndarray  # int64, (n + 1,)
    in_hubs: np.ndarray  # int32
    in_dists: np.ndarray  # int32
    # (out, in) heads, derived on first use (``head``); never saved
    _head: tuple | None = field(default=None, init=False, repr=False, compare=False)

    # -- stats ------------------------------------------------------------- #

    @property
    def num_entries(self) -> int:
        """Total label entries across both directions."""
        return int(self.out_hubs.size + self.in_hubs.size)

    @property
    def mean_label_size(self) -> float:
        """Average entries per vertex per direction."""
        if self.num_vertices == 0:
            return 0.0
        return self.num_entries / (2.0 * self.num_vertices)

    def label_sizes(self, s: int) -> tuple[int, int]:
        """``(|out(s)|, |in(s)|)`` — the work one endpoint contributes."""
        out = int(self.out_indptr[s + 1] - self.out_indptr[s])
        inn = int(self.in_indptr[s + 1] - self.in_indptr[s])
        return out, inn

    def nbytes(self) -> int:
        return int(self.order.nbytes + sum(
            a.nbytes for side in self._sides() for a in side))

    # -- the dense head ---------------------------------------------------- #

    def _sides(self) -> tuple[tuple, tuple]:
        return ((self.out_indptr, self.out_hubs, self.out_dists),
                (self.in_indptr, self.in_hubs, self.in_dists))

    @property
    def head(self) -> tuple[_Head, _Head]:
        """The ``(out, in)`` heads, derived whole on first use."""
        if self._head is None:
            size = sum(h.nbytes + d.nbytes for _, h, d in self._sides())
            width = _head_width(self.num_vertices, size)
            heads = tuple(_write_head(*side, width) for side in self._sides())
            object.__setattr__(self, "_head", heads)
        return self._head

    def carry_head(self, prior: HubLabels, out_rows, in_rows) -> None:
        """Take over ``prior``'s heads, when derived, and their width: only
        the rows moved since (``out_rows``, ``in_rows``) are rewritten, in
        place, and ``prior`` derives its own again if it is read."""
        if prior._head is not None:
            width = prior._head[0].plane.shape[1]
            heads = tuple(
                _write_head(*side, width, old, rows) for side, old, rows in
                zip(self._sides(), prior._head, (out_rows, in_rows))
            )
            object.__setattr__(prior, "_head", None)
            object.__setattr__(self, "_head", heads)

    # -- queries ----------------------------------------------------------- #

    def _check_ids(self, v: np.ndarray, name: str) -> np.ndarray:
        v = np.asarray(v, dtype=np.int64)
        if v.size and (v.min() < 0 or v.max() >= self.num_vertices):
            raise ValueError(f"{name} vertex out of range")
        return v

    def dist_many(self, sources, targets) -> np.ndarray:
        """Hop distances for aligned ``(sources[i], targets[i])`` pairs.

        Returns an int64 array; ``UNREACHABLE`` (-1) marks pairs with no
        path.  The heads answer one part: a gather of both endpoints' head
        rows, a uint8 add (at most 254) and a row ``min``.  The tails past
        them (whole rows when either head is ``short``) are gathered as keys
        ``pair * n + rank``.  Ranks ascend within each slice, so both key
        arrays come out globally sorted; one ``searchsorted`` of the in-keys
        into the out-keys finds the hubs each pair has in common, and a
        ``min`` per pair over their distance sums and the head's answers it.
        """
        sources = self._check_ids(sources, "source")
        targets = self._check_ids(targets, "target")
        if sources.shape != targets.shape:
            raise ValueError("sources/targets must align")
        num_pairs = int(sources.size)
        if num_pairs == 0:
            return np.empty(0, dtype=np.int64)

        n = self.num_vertices
        out_head, in_head = self.head
        near = (out_head.plane[sources] + in_head.plane[targets]).min(axis=1)
        result = np.where(near < _NONE, near.astype(np.int64), _INF)
        part = ~(out_head.short[sources] | in_head.short[targets])
        out_lo = self.out_indptr[sources] + out_head.length[sources] * part
        in_lo = self.in_indptr[targets] + in_head.length[targets] * part
        out_hi, in_hi = self.out_indptr[sources + 1], self.in_indptr[targets + 1]
        out_pos = expand_ranges(out_lo, out_hi)
        in_pos = expand_ranges(in_lo, in_hi)
        base = np.arange(num_pairs, dtype=np.int64) * n
        out_keys = np.repeat(base, out_hi - out_lo)
        out_keys += self.out_hubs[out_pos]
        in_keys = np.repeat(base, in_hi - in_lo)
        in_keys += self.in_hubs[in_pos]

        if out_keys.size and in_keys.size:
            at = np.searchsorted(out_keys, in_keys)
            np.minimum(at, out_keys.size - 1, out=at)
            common = np.flatnonzero(out_keys[at] == in_keys)
            total = np.add(
                self.out_dists[out_pos[at[common]]],
                self.in_dists[in_pos[common]],
                dtype=np.int64,
            )
            np.minimum.at(result, in_keys[common] // n, total)
        # a vertex always reaches itself in 0 hops, labels or not
        result[sources == targets] = 0
        result[result >= _INF] = UNREACHABLE
        return result

    def dist(self, s: int, t: int) -> int:
        """Hop distance ``s -> t`` (-1 when unreachable)."""
        return int(self.dist_many([s], [t])[0])

    def reach_many(self, sources, targets, k: int | None) -> np.ndarray:
        """Boolean verdicts: is ``targets[i]`` within ``k`` hops of
        ``sources[i]``?  ``k=None`` means plain (unbounded) reachability."""
        check_hops(k)
        d = self.dist_many(sources, targets)
        if k is None:
            return d >= 0
        return (d >= 0) & (d <= k)

    def reach(self, s: int, t: int, k: int | None) -> bool:
        """Is ``t`` within ``k`` hops of ``s``? (``None`` = unbounded)."""
        return bool(self.reach_many([s], [t], k)[0])

    def entries_scanned(self, sources, targets) -> np.ndarray:
        """Label entries a query over each pair touches (its work measure)."""
        sources = self._check_ids(sources, "source")
        targets = self._check_ids(targets, "target")
        out = self.out_indptr[sources + 1] - self.out_indptr[sources]
        inn = self.in_indptr[targets + 1] - self.in_indptr[targets]
        return (out + inn).astype(np.int64)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HubLabels(n={self.num_vertices}, entries={self.num_entries}, "
            f"mean_label={self.mean_label_size:.1f})"
        )


def check_labels(labels: HubLabels) -> HubLabels:
    """Refuse structurally invalid labels; returns ``labels`` unchanged.

    :meth:`HubLabels.dist_many` relies on every slice's ranks ascending
    strictly, so an index read from disk or handed to a session is checked
    here first.  Raises :class:`ValueError` naming the field when an
    ``indptr`` is not ``n + 1`` long, starting at 0, non-decreasing and
    ending at its ``hubs`` size; when ``hubs`` and ``dists`` differ in
    length; when a rank is outside ``[0, n)`` or not strictly above its
    predecessor in the slice; when a distance is negative; or when
    ``order`` is not a permutation of the vertices.
    """
    n = int(labels.num_vertices)
    for side, arrays in zip(("out", "in"), labels._sides()):
        indptr, hubs, dists = map(np.asarray, arrays)
        if (
            indptr.shape != (n + 1,)
            or indptr[0] != 0
            or np.any(np.diff(indptr) < 0)
            or indptr[-1] != hubs.size
        ):
            raise ValueError(
                f"{side}_indptr must have length n + 1 = {n + 1}, start at 0, "
                f"never decrease and end at {side}_hubs.size = {hubs.size}"
            )
        if hubs.shape != dists.shape or hubs.ndim != 1:
            raise ValueError(
                f"{side}_hubs and {side}_dists must be 1-D of equal length, "
                f"got {hubs.shape} and {dists.shape}"
            )
        if hubs.size and (hubs.min() < 0 or hubs.max() >= n):
            raise ValueError(f"{side}_hubs ranks must lie in [0, {n})")
        rising = np.diff(hubs.astype(np.int64)) > 0
        starts = indptr[1:-1]
        rising[starts[(starts > 0) & (starts < hubs.size)] - 1] = True
        if not rising.all():
            v = int(np.searchsorted(indptr, np.argmin(rising) + 1, "right")) - 1
            raise ValueError(
                f"{side}_hubs ranks must ascend strictly within each slice "
                f"(vertex {v})"
            )
        if dists.size and dists.min() < 0:
            raise ValueError(f"{side}_dists must be non-negative")
    order = np.asarray(labels.order)
    if order.shape != (n,) or not np.array_equal(
        np.sort(order), np.arange(n)
    ):
        raise ValueError(f"order must be a permutation of the {n} vertices")
    return labels
