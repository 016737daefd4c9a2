"""A Gemini-like engine: fast single-query core, serialized concurrency.

"Gemini is very efficient and only takes tens of milliseconds for a single
3-hop query [but] concurrently-issued queries are serialized and a query's
response time will be determined by any backlogged queries" (§4.2).

The analog runs each query on the same vectorised distributed engine as
C-Graph — Gemini's per-query performance is state of the art, and the paper
concedes Gemini beats C-Graph on single-application runs — but executes
queries strictly one after another (Figures 8b and 13).
"""

from __future__ import annotations

import numpy as np

from repro.runtime.scheduler import simulate_fifo_pool
from repro.runtime.session import GraphSession

__all__ = ["GeminiLikeEngine"]


class GeminiLikeEngine:
    """Single-query-at-a-time distributed traversal engine.

    ``single_query_speedup`` models Gemini's edge over C-Graph on a single
    traversal (its NUMA-aware C++ kernels vs. our engine); the paper's
    Figure 13 shows both starting "with the same performance for a single
    BFS", so the default is 1.0.
    """

    def __init__(self, sess: GraphSession, single_query_speedup: float = 1.0):
        self.sess = sess
        if single_query_speedup <= 0:
            raise ValueError("single_query_speedup must be positive")
        self.speedup = single_query_speedup

    def single_query_seconds(self, source: int, k: int | None) -> float:
        """Virtual seconds for one k-hop/BFS query run alone."""
        return self.sess.khop_service(source, k)[0] / self.speedup

    def serialized_response_times(self, sources, k: int | None) -> np.ndarray:
        """Per-query response times when the stream is serialized (Fig 8b).

        Query ``i`` waits for every query before it: response[i] = sum of
        service times 0..i.
        """
        service = np.array(
            [self.single_query_seconds(int(s), k) for s in np.asarray(sources)]
        )
        return simulate_fifo_pool(service, 1)

    def total_execution_seconds(self, sources, k: int | None) -> float:
        """Total time to drain the stream (the Figure 13 y-axis): linear in
        the number of queries."""
        return float(
            sum(self.single_query_seconds(int(s), k) for s in np.asarray(sources))
        )
