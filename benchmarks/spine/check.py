"""Off-the-clock correctness: an independent numpy BFS over the edge list.

The reference shares no code with the engine: it relaxes *every* edge once
per hop (``bits[dst] |= bits[src]``), one uint64 query plane per 64 sources,
on the edge list as it stood at the checked wave's epoch.  The harness knows
that edge list without asking the program, because it generated every
mutation itself.
"""

from __future__ import annotations

import hashlib

import numpy as np

WORD = 64


def edges_at(graph, mutations: dict, wave: int):
    """``(src, dst)`` after every mutation batch scheduled at or before ``wave``.

    The generated stream only inserts edges that were never present and only
    deletes base edges, so the batches commute and fold into one pass.
    """
    n = graph.num_vertices
    keys = graph.src.astype(np.int64) * n + graph.dst.astype(np.int64)
    due = [mutations[g] for g in sorted(mutations) if g <= wave]
    if not due:
        return keys // n, keys % n
    inserts = np.concatenate([ins for ins, _ in due])
    deletes = np.concatenate([dels for _, dels in due])
    keys = np.setdiff1d(keys, deletes[:, 0] * n + deletes[:, 1])
    keys = np.union1d(keys, inserts[:, 0] * n + inserts[:, 1])
    return keys // n, keys % n


def reach_planes(src, dst, n: int, sources, k: int) -> np.ndarray:
    """``bits[v] >> q & 1`` iff ``v`` is within ``k`` hops of ``sources[q]``."""
    sources = np.asarray(sources, dtype=np.int64)
    if sources.size > WORD:
        raise ValueError("one plane holds at most 64 sources")
    bits = np.zeros(n, dtype=np.uint64)
    np.bitwise_or.at(bits, sources, np.uint64(1) << np.arange(sources.size, dtype=np.uint64))
    for _ in range(k):
        grown = bits.copy()
        np.bitwise_or.at(grown, dst, bits[src])
        if np.array_equal(grown, bits):
            break
        bits = grown
    return bits


def reached_counts(src, dst, n: int, sources, k: int) -> np.ndarray:
    """Vertices within ``k`` hops of each source (the source included)."""
    out = []
    for lo in range(0, len(sources), WORD):
        chunk = sources[lo:lo + WORD]
        bits = reach_planes(src, dst, n, chunk, k)
        shifts = np.arange(len(chunk), dtype=np.uint64)
        out.append(((bits[:, None] >> shifts) & np.uint64(1)).sum(axis=0))
    return np.concatenate(out).astype(np.int64) if out else np.empty(0, np.int64)


def point_verdicts(src, dst, n: int, sources, targets, k: int) -> np.ndarray:
    """Whether ``targets[i]`` lies within ``k`` hops of ``sources[i]``."""
    sources = np.asarray(sources, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    unique, slot = np.unique(sources, return_inverse=True)
    verdicts = np.zeros(sources.size, dtype=bool)
    for lo in range(0, unique.size, WORD):
        bits = reach_planes(src, dst, n, unique[lo:lo + WORD], k)
        mine = (slot >= lo) & (slot < lo + WORD)
        shift = (slot[mine] - lo).astype(np.uint64)
        verdicts[mine] = (bits[targets[mine]] >> shift) & np.uint64(1) == 1
    return verdicts


def count_wrong(session, k: int, report, src, dst) -> int:
    """Answers of one drained wave that disagree with the reference.

    Point verdicts come from ``report.reachable``; the report carries no
    reach *sets*, so each enumeration source is re-asked through
    ``session.khop`` on the same resident state.
    """
    n = session.num_vertices
    is_point = report.targets >= 0
    wrong = 0
    if is_point.any():
        ref = point_verdicts(
            src, dst, n, report.sources[is_point], report.targets[is_point], k
        )
        wrong += int((report.reachable[is_point].astype(bool) != ref).sum())
    enum_sources = report.sources[~is_point]
    if enum_sources.size:
        ref = reached_counts(src, dst, n, enum_sources, k)
        for lo in range(0, enum_sources.size, WORD):
            got = session.khop(enum_sources[lo:lo + WORD], k).reached
            wrong += int((got != ref[lo:lo + WORD]).sum())
    return wrong


class AnswerDigest:
    """SHA-256 over every answer of a run — verdicts, reach counts, epochs,
    never clocks — so a later change that moves an answer fails loudly."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *arrays) -> None:
        for a in arrays:
            if a is not None:
                self._h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())

    def hexdigest(self) -> str:
        return self._h.hexdigest()[:32]
