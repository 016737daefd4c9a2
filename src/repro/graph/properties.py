"""Vertex property storage, including the paper's level-limited store (§3.3).

Concurrent queries are memory-hungry: a naive engine keeps one value per
vertex per query for the whole traversal.  C-Graph instead "only stores
vertex values for those in the previous and current levels", reclaiming every
older level as the frontier advances.  :class:`LevelLimitedValues` implements
exactly that contract and exposes byte accounting so the memory ablation
bench can quantify the saving against :class:`DenseVertexValues`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DenseVertexValues", "LevelLimitedValues"]


class DenseVertexValues:
    """Baseline store: one dense value array per query for all vertices."""

    def __init__(self, num_vertices: int, num_queries: int):
        self.values = np.full((num_queries, num_vertices), -1.0)

    def set_level(self, query: int, vertices: np.ndarray, value: float) -> None:
        """Record ``value`` for ``vertices`` under ``query``."""
        self.values[query, vertices] = value

    def get(self, query: int, vertex: int) -> float:
        return float(self.values[query, vertex])

    def nbytes(self) -> int:
        return int(self.values.nbytes)


class LevelLimitedValues:
    """Sparse two-level store: values only for previous + current frontier.

    The store accepts one level at a time per query (monotonically
    increasing, as a traversal produces them) and retains at most the two
    most recent levels.  Older values become unavailable — that is the
    paper's deliberate trade: a k-hop query only ever needs its parents'
    values to extend the frontier.

    ``peak_nbytes`` tracks the high-water mark, the number the paper's memory
    argument is about.
    """

    def __init__(self, num_queries: int):
        self.num_queries = num_queries
        # per query: {level: (vertex_array, value_array)} with <= 2 entries
        self._levels: list[dict[int, tuple[np.ndarray, np.ndarray]]] = [
            {} for _ in range(num_queries)
        ]
        self.peak_nbytes = 0

    def push_level(
        self, query: int, level: int, vertices: np.ndarray, values: np.ndarray
    ) -> None:
        """Store this level's frontier values, evicting levels older than 1.

        Raises ``ValueError`` if levels arrive out of order for the query.
        """
        store = self._levels[query]
        if store and level <= max(store):
            raise ValueError(f"level {level} not ahead of stored levels {sorted(store)}")
        vertices = np.asarray(vertices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if vertices.shape != values.shape:
            raise ValueError("vertices/values shape mismatch")
        store[level] = (vertices, values)
        while len(store) > 2:
            del store[min(store)]
        self.peak_nbytes = max(self.peak_nbytes, self.nbytes())

    def get_level(self, query: int, level: int) -> tuple[np.ndarray, np.ndarray]:
        """Fetch a retained level; ``KeyError`` if it was reclaimed."""
        return self._levels[query][level]

    def available_levels(self, query: int) -> list[int]:
        return sorted(self._levels[query])

    def nbytes(self) -> int:
        total = 0
        for store in self._levels:
            for verts, vals in store.values():
                total += verts.nbytes + vals.nbytes
        return total
