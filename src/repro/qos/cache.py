"""Bounded LRU result cache for repeated point-reach queries.

Entries are keyed on ``(source, target, k, graph_epoch)``: a verdict is only
ever replayed for the exact graph version it was computed against, so within
one session the cache can never serve a stale answer — the mutation lane's
epoch advance makes every older entry unreachable, and
:meth:`ResultCache.on_epoch` sweeps them out eagerly so capacity is not
wasted on dead epochs.  The key does not name the graph, so a cache serves
one session: the first :class:`~repro.runtime.scheduler.QueryService` it is
wired to binds it, and a service on any other session refuses it.

The entries live in array columns, one generation per ``(k, epoch)``: a
sorted int64 key ``(source << 32) | target`` and, beside it, the entry's
``last_used`` tick with the verdict in its low bit.  The clock ticks once
per probed or stored row, so the ticks keep the order an ``OrderedDict``'s
``move_to_end`` would.  A group probe is one ``searchsorted`` plus a tick
scatter; a group store is one ``partition`` of the ticks (the least
recently used go) and one sorted insert.  No per-query loop runs in the
interpreter.  Vertex ids fit in 31 bits, as the label index's int32 ranks
already require.

A hit is charged one vertex-update under the session's cost model (a hash
probe), versus the index lane's per-query label merge.  The service's own
``cross_check=True`` re-answers every index-lane verdict, hits included, on
the traversal engine.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ResultCache"]


class _Generation:
    """The columns of one ``(k, epoch)``: ``keys`` ascending and, at the same
    positions, ``used`` — the key's ``last_used`` tick shifted left one bit,
    its verdict in the low bit.  Ticks are unique, so ``used`` orders
    entries by recency."""

    __slots__ = ("keys", "used")

    def __init__(self):
        self.keys = np.empty(0, dtype=np.int64)
        self.used = np.empty(0, dtype=np.int64)

    def find(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(positions, present)`` of ascending ``keys``; a position is only
        meaningful where ``present``."""
        pos = np.searchsorted(self.keys, keys)
        if self.keys.size == 0:
            return pos, np.zeros(keys.size, dtype=bool)
        return pos, self.keys[np.minimum(pos, self.keys.size - 1)] == keys

    def keep(self, mask: np.ndarray) -> None:
        self.keys, self.used = self.keys[mask], self.used[mask]

    def insert(self, keys: np.ndarray, used: np.ndarray) -> None:
        """Merge absent ``keys`` (ascending) and their ``used`` into the
        columns."""
        at = np.searchsorted(self.keys, keys) + np.arange(keys.size)
        old = np.ones(self.keys.size + keys.size, dtype=bool)
        old[at] = False
        for name, new in (("keys", keys), ("used", used)):
            merged = np.empty(old.size, dtype=np.int64)
            merged[old] = getattr(self, name)
            merged[at] = new
            setattr(self, name, merged)


def _generation(k, epoch) -> tuple[int, int]:
    return (int(k) if k is not None else -1, int(epoch))


def _keys(sources, targets) -> np.ndarray:
    return (np.asarray(sources, dtype=np.int64) << 32) | np.asarray(
        targets, dtype=np.int64
    )


class ResultCache:
    """Bounded LRU map ``(source, target, k, epoch) -> reachable verdict``."""

    def __init__(self, capacity: int = 4096):
        if int(capacity) < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        #: The :class:`~repro.runtime.session.GraphSession` whose verdicts
        #: this cache holds; set by the first service it is wired to.
        self.session = None
        self._generations: dict[tuple[int, int], _Generation] = {}
        self._clock = 0  # the next row's last_used tick
        self._epoch = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidated = 0

    def __len__(self) -> int:
        return sum(gen.keys.size for gen in self._generations.values())

    @property
    def hit_ratio(self) -> float:
        """Hits over lookups so far; 0.0 before any lookup (NaN-free)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def on_epoch(self, epoch: int) -> int:
        """Note a graph-epoch advance; drop entries from older epochs.

        Returns the number of entries invalidated.  Idempotent and cheap when
        the epoch has not moved (the common case — one comparison).
        """
        epoch = int(epoch)
        if epoch <= self._epoch:
            return 0
        self._epoch = epoch
        stale = [key for key in self._generations if key[1] < epoch]
        dropped = sum(self._generations.pop(key).keys.size for key in stale)
        self.invalidated += dropped
        return dropped

    def lookup_many(
        self, sources: np.ndarray, targets: np.ndarray, k: int, epoch: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Probe a whole point-query group at once, refreshing each hit to
        most-recently-used.

        Returns ``(verdicts, hit_mask)`` — ``verdicts[i]`` is only meaningful
        where ``hit_mask[i]``.  This is exactly the probe the service's index
        lane runs per group, exposed so benchmarks time the real hit path.
        """
        keys = _keys(sources, targets)
        n = keys.size
        clock, self._clock = self._clock, self._clock + n
        gen = self._generations.get(_generation(k, epoch))
        if gen is None:
            self.misses += n
            return np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
        order = np.argsort(keys)  # ascending probes walk the column fastest
        pos, found = gen.find(keys[order])
        hit_mask = np.zeros(n, dtype=bool)
        hit_mask[order] = found
        where = np.empty(n, dtype=np.int64)
        where[order] = pos
        rows = np.flatnonzero(hit_mask)
        at = where[rows]
        verdicts = np.zeros(n, dtype=bool)
        verdicts[rows] = flags = gen.used[at] & 1
        # a repeated key keeps its last row's tick, as move_to_end would
        gen.used[at] = (clock + rows) << 1 | flags
        self.hits += rows.size
        self.misses += n - rows.size
        return verdicts, hit_mask

    def store_many(
        self,
        sources: np.ndarray,
        targets: np.ndarray,
        k: int,
        epoch: int,
        verdicts: np.ndarray,
    ) -> None:
        """Insert (or refresh) a whole group of fresh verdicts (index-lane
        miss path) in order, evicting the least recently used entries when
        full.

        A key stored twice keeps its last verdict and tick.  ``evictions``
        counts the entries that leave: a key pushed out and stored again
        within one call (only when more than ``capacity`` other keys come
        between) is counted once, where a one-at-a-time LRU counts a pop
        per reinsertion.
        """
        keys = _keys(sources, targets)
        n = keys.size
        clock, self._clock = self._clock, self._clock + n
        # the last occurrence of each key, keys ascending
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        last = np.ones(n, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=last[:-1])
        rows, keys = order[last], keys[last]
        used = (clock + rows) << 1 | np.asarray(verdicts, dtype=bool)[rows]
        gen = self._generations.setdefault(_generation(k, epoch), _Generation())
        at, present = gen.find(keys)
        gen.used[at[present]] = used[present]
        keys, used = keys[~present], used[~present]
        over = len(self) + keys.size - self.capacity
        if over > 0:
            # the ``over`` oldest ticks go: cached entries first, as every
            # tick of this call is newer, then this call's oldest keys
            self.evictions += over
            gens = list(self._generations.values())
            every = np.concatenate([g.used for g in gens] + [used])
            cut = np.partition(every, over - 1)[over - 1]
            for g in gens:
                g.keep(g.used > cut)
            fresh = used > cut
            keys, used = keys[fresh], used[fresh]
        gen.insert(keys, used)

    def __repr__(self) -> str:
        return (
            f"ResultCache(entries={len(self)}/{self.capacity}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"hit_ratio={self.hit_ratio:.3f}, evictions={self.evictions}, "
            f"invalidated={self.invalidated}, epoch={self._epoch})"
        )
