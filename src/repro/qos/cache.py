"""Bounded LRU result cache for repeated point-reach queries.

Entries are keyed on ``(source, target, k, graph_epoch)``: a verdict is only
ever replayed for the exact graph version it was computed against, so within
one session the cache can never serve a stale answer — the mutation lane's
epoch advance makes every older entry unreachable, and
:meth:`ResultCache.on_epoch` sweeps them out eagerly so capacity is not
wasted on dead epochs.  The key does not name the graph, so a cache serves
one session: the first :class:`~repro.runtime.scheduler.QueryService` it is
wired to binds it, and a service on any other session refuses it.

A hit is charged one vertex-update under the session's cost model (a hash
probe), versus the index lane's per-query label merge; the wall-clock path
is a dict probe versus the planner's vectorised label scan.  The service's
own ``cross_check=True`` re-answers every index-lane verdict, hits
included, on the traversal engine.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

__all__ = ["ResultCache"]


class ResultCache:
    """Bounded LRU map ``(source, target, k, epoch) -> reachable verdict``."""

    def __init__(self, capacity: int = 4096):
        if int(capacity) < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        #: The :class:`~repro.runtime.session.GraphSession` whose verdicts
        #: this cache holds; set by the first service it is wired to.
        self.session = None
        self._entries: OrderedDict[tuple[int, int, int, int], bool] = OrderedDict()
        self._epoch = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidated = 0

    def __len__(self) -> int:
        return len(self._entries)

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
        stale = [key for key in self._entries if key[3] < epoch]
        for key in stale:
            del self._entries[key]
        self.invalidated += len(stale)
        return len(stale)

    def lookup_many(
        self, sources: np.ndarray, targets: np.ndarray, k: int, epoch: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Probe a whole point-query group at once, refreshing each hit to
        most-recently-used.

        Returns ``(verdicts, hit_mask)`` — ``verdicts[i]`` is only meaningful
        where ``hit_mask[i]``.  This is exactly the loop the service's index
        lane runs per group, exposed so benchmarks time the real hit path.
        """
        srcs = np.asarray(sources).tolist()
        tgts = np.asarray(targets).tolist()
        n = len(srcs)
        k = int(k) if k is not None else -1
        epoch = int(epoch)
        # Bound locals on the probe loop: this is the service's per-group
        # hit path, and a warm cache runs it once per query served.
        entries = self._entries
        get = entries.get
        move_to_end = entries.move_to_end
        rows: list[int] = []
        found: list[bool] = []
        for i, key in enumerate(zip(srcs, tgts, [k] * n, [epoch] * n)):
            verdict = get(key)
            if verdict is not None:
                move_to_end(key)
                rows.append(i)
                found.append(verdict)
        verdicts = np.zeros(n, dtype=bool)
        hit_mask = np.zeros(n, dtype=bool)
        verdicts[rows] = found
        hit_mask[rows] = True
        self.hits += len(rows)
        self.misses += n - len(rows)
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
        miss path) in order, evicting the least recently used entry when
        full."""
        srcs = np.asarray(sources).tolist()
        tgts = np.asarray(targets).tolist()
        flags = np.asarray(verdicts, dtype=bool).tolist()
        n = len(srcs)
        k = int(k) if k is not None else -1
        epoch = int(epoch)
        entries = self._entries
        move_to_end = entries.move_to_end
        popitem = entries.popitem
        size, capacity, evictions = len(entries), self.capacity, 0
        for key, verdict in zip(zip(srcs, tgts, [k] * n, [epoch] * n), flags):
            if key in entries:
                move_to_end(key)
            elif size >= capacity:
                popitem(last=False)
                evictions += 1
            else:
                size += 1
            entries[key] = verdict
        self.evictions += evictions

    def __repr__(self) -> str:
        return (
            f"ResultCache(entries={len(self._entries)}/{self.capacity}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"hit_ratio={self.hit_ratio:.3f}, evictions={self.evictions}, "
            f"invalidated={self.invalidated}, epoch={self._epoch})"
        )
