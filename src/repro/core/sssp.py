"""Distance-constrained shortest paths on weighted graphs.

The paper's introduction motivates weighted-graph path queries with
software-defined networks: "a path query must be subject to some distance
constraints in order to meet quality-of-service latency requirements" (§1).
Distributed single-source shortest paths — frontier-driven Bellman–Ford
relaxation on the partition-centric engine, with an optional **hop budget**,
the weighted sibling of the k-hop query — is the width-1 case of
:func:`~repro.core.multi_sssp.concurrent_sssp`, which owns the engine: this
module is the single-query entry point and its result type.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.multi_sssp import concurrent_sssp
from repro.runtime.engine import EngineResult
from repro.runtime.session import GraphSession

__all__ = ["SSSPResult", "sssp"]


@dataclass
class SSSPResult:
    """Distances (``inf`` = unreachable within the hop budget) + accounting."""

    source: int
    distances: np.ndarray
    hops_used: int
    virtual_seconds: float
    engine_result: EngineResult


def sssp(
    sess: GraphSession, source: int, max_hops: int | None = None
) -> SSSPResult:
    """Distributed SSSP with an optional hop budget.

    With ``max_hops=h`` the result is the shortest distance using at most
    ``h`` edges (the SDN-style constrained path query); with ``None`` it is
    plain SSSP.  Requires edge weights
    (:meth:`~repro.graph.edgelist.EdgeList.with_unit_weights` turns hop count
    into distance).
    """
    batch = concurrent_sssp(sess, [source], max_hops)
    return SSSPResult(
        source=source,
        distances=batch.distances[:, 0],
        hops_used=batch.supersteps,
        virtual_seconds=batch.virtual_seconds,
        engine_result=batch.engine_result,
    )
