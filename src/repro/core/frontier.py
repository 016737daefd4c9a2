"""MS-BFS-style bit-parallel frontier state (§3.5, Figure 6).

For a batch of concurrent queries, each partition keeps three bit-plane
arrays indexed by local vertex:

* ``frontier`` — bit ``q`` set ⇔ the vertex is in query ``q``'s current
  frontier;
* ``next``     — bit ``q`` set ⇔ the vertex enters query ``q``'s next
  frontier;
* ``visited``  — bit ``q`` set ⇔ query ``q`` has already visited the vertex.

(The paper describes "2 bits to indicate if a vertex exists in the current or
next frontier, and 1 bit to track if it has been visited" — i.e. exactly
these three planes.)  One pass over an edge-set serves every query whose
frontier intersects it: the traversal *shares* the subgraph across queries,
which is the paper's core optimisation.

The batch width is fixed by hardware parameters: one 64-byte cache line
holds 512 query bits (:data:`MAX_WIDE_BATCH`), the one limit on every
traversal batch.  Planes have shape ``(num_local, words)`` with ``words =
ceil(num_queries / 64)``, so k-hop and pairwise-reachability batches of any
width share one implementation, one checkpoint format and one probe
(:mod:`repro.core.adapters`).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BitFrontier",
    "popcount",
    "per_query_counts",
    "words_for",
    "make_query_mask",
    "MAX_WIDE_BATCH",
]

_WORD = np.uint64
_WORD_BITS = 64
#: 512 query bits — one 64-byte cache line of query slots (§3.5).
MAX_WIDE_BATCH = 512
#: ``_BYTE_BITS[b, i]`` is bit ``i`` of byte value ``b``.
_BYTE_BITS = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little"
).astype(np.int64)


def words_for(num_queries: int) -> int:
    """Number of 64-bit plane words that cover a batch of ``num_queries``."""
    return (int(num_queries) + _WORD_BITS - 1) // _WORD_BITS


def make_query_mask(num_queries: int) -> np.ndarray:
    """The ``(words,)`` uint64 mask with the batch's valid query bits set.

    Bit ``q`` of the mask (word ``q // 64``, bit ``q % 64``) is set for every
    query slot ``q < num_queries`` — the plane-wide AND mask that keeps spill
    bits of a partially filled last word from leaking into the frontier.
    """
    num_queries = int(num_queries)
    if num_queries < 0:
        raise ValueError(f"num_queries must be non-negative, got {num_queries}")
    mask = np.zeros(words_for(num_queries), dtype=_WORD)
    full, rem = divmod(num_queries, _WORD_BITS)
    mask[:full] = np.uint64(0xFFFFFFFFFFFFFFFF)
    if rem:
        mask[full] = np.uint64((1 << rem) - 1)
    return mask


def popcount(x: np.ndarray) -> np.ndarray:
    """Per-element set-bit count of a uint64 array (SWAR algorithm).

    The input is never mutated: uint64 input is used as-is (no defensive
    copy on the hot path) and the first SWAR step allocates the scratch
    array; other dtypes are converted once.
    """
    if x.dtype != _WORD:
        x = x.astype(_WORD)
    m1 = np.uint64(0x5555555555555555)
    m2 = np.uint64(0x3333333333333333)
    m4 = np.uint64(0x0F0F0F0F0F0F0F0F)
    h01 = np.uint64(0x0101010101010101)
    x = x - ((x >> np.uint64(1)) & m1)
    x = (x & m2) + ((x >> np.uint64(2)) & m2)
    x = (x + (x >> np.uint64(4))) & m4
    return ((x * h01) >> np.uint64(56)).astype(np.int64)


def per_query_counts(bits: np.ndarray, num_queries: int) -> np.ndarray:
    """How many array elements have bit ``q`` set, for each query ``q``.

    ``bits`` is a 1-D word array (one word per vertex) or a 2-D
    ``(vertices, words)`` plane; query ``q`` lives in word ``q // 64``,
    bit ``q % 64``.  One ``bincount`` of ``(byte column << 8) | byte value``
    keys, times the 256×8 bit table, gives every bit column's count — exact
    at any width, without expanding the plane to a byte per bit.
    """
    arr = np.asarray(bits, dtype=_WORD)
    if arr.ndim == 1:
        arr = arr[:, None]
    n, words = arr.shape
    if num_queries > words * _WORD_BITS:
        raise ValueError(
            f"{num_queries} queries do not fit in {words} word(s)"
        )
    # explicit little-endian view keeps byte order platform-stable
    by = arr.astype("<u8", copy=False).view(np.uint8).reshape(n, words * 8)
    keys = by + (np.arange(words * 8, dtype=np.intp) << 8)
    hist = np.bincount(keys.ravel(), minlength=words * 8 * 256)
    return (hist.reshape(words * 8, 256) @ _BYTE_BITS).ravel()[:num_queries]


class BitFrontier:
    """Per-partition frontier/next/visited bit planes for one query batch.

    Planes are ``(num_local, words)`` uint64 arrays; a word-wide batch is
    simply the ``words == 1`` case.  The class is the single frontier
    abstraction behind every traversal kernel: seeding, scatter-OR updates,
    end-of-level rotation, density accounting for the push/pull direction
    heuristic, and checkpoint/restore for the fault-tolerant pool.
    """

    def __init__(self, num_local: int, num_queries: int):
        if not 1 <= num_queries <= MAX_WIDE_BATCH:
            raise ValueError(
                f"batch width must be in [1, {MAX_WIDE_BATCH}], got {num_queries}"
            )
        self.num_local = int(num_local)
        self.num_queries = int(num_queries)
        self.words = words_for(num_queries)
        self.query_mask = make_query_mask(num_queries)
        shape = (self.num_local, self.words)
        self.frontier = np.zeros(shape, dtype=_WORD)
        self.next = np.zeros(shape, dtype=_WORD)
        self.visited = np.zeros(shape, dtype=_WORD)

    def clear(self) -> None:
        """Zero all three planes in place (batch reuse without reallocation)."""
        self.frontier.fill(0)
        self.next.fill(0)
        self.visited.fill(0)

    def snapshot(self) -> tuple:
        """Deep copies of the three planes (checkpoint/replay support).

        ``next`` is all-zero at every superstep barrier (:meth:`promote`
        just swapped-and-cleared it), so a zero plane is elided — pool
        checkpoints write two planes per worker, not three.
        """
        nxt = self.next.copy() if self.next.any() else None
        return self.frontier.copy(), nxt, self.visited.copy()

    def load(self, snap: tuple) -> None:
        """Restore planes from :meth:`snapshot`, in place."""
        frontier, nxt, visited = snap
        self.frontier[...] = frontier
        if nxt is None:
            self.next.fill(0)
        else:
            self.next[...] = nxt
        self.visited[...] = visited

    def seed(self, local_vertex: int, query_index: int) -> None:
        """Place ``query_index``'s source at ``local_vertex`` (level 0)."""
        if not 0 <= query_index < self.num_queries:
            raise ValueError("query index out of batch")
        w, b = divmod(query_index, _WORD_BITS)
        bit = np.uint64(1 << b)
        self.frontier[local_vertex, w] |= bit
        self.visited[local_vertex, w] |= bit

    def active_vertices(self) -> np.ndarray:
        """Local indices with any frontier bit set (sparse active list)."""
        if self.words == 1:
            return np.nonzero(self.frontier[:, 0])[0]
        return np.nonzero(self.frontier.any(axis=1))[0]

    def or_into_next(self, local_vertices: np.ndarray, bits: np.ndarray) -> None:
        """Scatter-OR query bit rows into ``next`` (duplicate targets allowed).

        ``bits`` is ``(m, words)``; a 1-D word array is accepted for
        word-wide batches.
        """
        bits = np.asarray(bits, dtype=_WORD)
        if bits.ndim == 1:
            bits = bits[:, None]
        np.bitwise_or.at(self.next, local_vertices, bits)

    def alive_bits(self) -> int:
        """OR over the current frontier: which queries still have frontier
        here, folded into one arbitrary-precision Python int (bit ``q`` set
        ⇔ query ``q`` alive).  Python ints cross process boundaries and OR
        across partitions without any word-count bookkeeping."""
        if self.frontier.size == 0:
            return 0
        words = np.bitwise_or.reduce(self.frontier, axis=0)
        alive = 0
        for w in range(self.words):
            alive |= int(words[w]) << (w * _WORD_BITS)
        return alive

    def promote(self) -> np.ndarray:
        """End-of-level rotation; returns the newly visited plane.

        ``next`` is masked against ``visited`` (each query visits a vertex at
        most once — Figure 5: "the visited vertices are synchronized after
        each iteration and won't be visited") and against the batch's query
        mask, then becomes the new frontier.
        """
        np.bitwise_and(self.next, ~self.visited, out=self.next)
        np.bitwise_and(self.next, self.query_mask, out=self.next)
        newly = self.next
        self.visited |= newly
        self.frontier, self.next = newly, self.frontier
        self.next.fill(0)
        return newly

    # -- accounting --------------------------------------------------------- #

    def visited_counts(self) -> np.ndarray:
        """Visited vertices per query in this partition."""
        return per_query_counts(self.visited, self.num_queries)

    def frontier_counts(self) -> np.ndarray:
        """Current-frontier size per query in this partition."""
        return per_query_counts(self.frontier, self.num_queries)

    def nbytes(self) -> int:
        return int(self.frontier.nbytes + self.next.nbytes + self.visited.nbytes)
