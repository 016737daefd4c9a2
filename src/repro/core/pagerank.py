"""PageRank on the GAS ``Update`` interface (§3.4 Listing 3, Figure 10).

The paper's formulation (unnormalised, damping 0.85)::

    def Gather(v, sum)  sum += v.val
    def Apply(v, sum)   v.val = 0.15 + 0.85 * sum
    def Scatter(v)      v.val / v.outdegree

Each iteration every vertex is active; 10 iterations are run for the
Figure 10 multi-machine scalability comparison.  ``pagerank`` returns both
the rank vector and the engine's virtual-time accounting, which the
scalability bench normalises to the single-machine run.
"""

from __future__ import annotations


import numpy as np

from repro.core.gas import GASRun, VertexProgram, run_gas
from repro.runtime.session import GraphSession

__all__ = ["PageRankProgram", "pagerank"]

DEFAULT_ITERATIONS = 10  # the paper: "we ran 10 iterations"


class PageRankProgram(VertexProgram):
    """Listing 3, vectorised.

    ``damping`` defaults to the paper's 0.85; dangling vertices (out-degree
    zero) scatter nothing, matching the listing's semantics.
    """

    combiner = np.add
    identity = 0.0

    def __init__(self, damping: float = 0.85, tolerance: float | None = None):
        if not 0.0 < damping < 1.0:
            raise ValueError("damping must be in (0, 1)")
        self.damping = damping
        self.tolerance = tolerance

    def initial_values(self, num_vertices: int) -> np.ndarray:
        return np.full(num_vertices, 1.0 - self.damping)

    def scatter(self, values: np.ndarray, part) -> np.ndarray:
        out_deg = part.out_csr.degrees()
        with np.errstate(divide="ignore", invalid="ignore"):
            contrib = np.where(out_deg > 0, values / np.maximum(out_deg, 1), 0.0)
        return contrib

    def apply(self, values: np.ndarray, gathered: np.ndarray, part) -> np.ndarray:
        return (1.0 - self.damping) + self.damping * gathered

    def has_converged(self, old: np.ndarray, new: np.ndarray) -> bool:
        if self.tolerance is None:
            return False
        if old.size == 0:
            return True
        return bool(np.abs(new - old).max() < self.tolerance)


def pagerank(
    sess: GraphSession,
    iterations: int = DEFAULT_ITERATIONS,
    damping: float = 0.85,
    tolerance: float | None = None,
    asynchronous: bool = False,
) -> GASRun:
    """Run PageRank; returns a :class:`~repro.core.gas.GASRun`.

    ``run.values[v]`` is vertex ``v``'s (unnormalised) rank;
    ``run.virtual_seconds`` feeds the Figure 10 scalability bench.
    """
    program = PageRankProgram(damping=damping, tolerance=tolerance)
    return run_gas(sess, program, iterations, asynchronous=asynchronous)
