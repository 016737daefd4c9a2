"""Distributed k-core decomposition (coreness) on the partition engine.

The paper's future work promises "more types of graph applications", and its
related-work section leans on core decomposition (Wu et al., IEEE Big Data
2015).  This module implements coreness with the **iterative H-index
algorithm** (Lü et al., Nature Comm. 2016): initialise ``c(v)`` to the
degree, then repeatedly set ``c(v)`` to the H-index of its neighbours'
current values; the fixpoint is exactly the core number.  The update is a
pure neighbourhood gather, so it runs as a partition-centric superstep
program: each round, machines exchange the (combined) values of boundary
vertices and recompute local H-indices vectorised.

Works on the undirected simple view of the graph, matching the classical
definition (and ``networkx.core_number``, the test oracle).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSR
from repro.runtime.netmodel import StepStats, VirtualClock
from repro.runtime.session import GraphSession

__all__ = ["KCoreResult", "core_numbers", "h_index_per_row"]


def h_index_per_row(csr: CSR, values: np.ndarray) -> np.ndarray:
    """Vectorised per-row H-index of neighbour ``values``.

    For each row ``v`` with neighbour values ``x_1 >= x_2 >= ...``, the
    H-index is ``max_i min(i, x_i)`` — the largest ``h`` such that ``h``
    neighbours have value at least ``h``.  Computed for all rows at once:
    sort edges by (row, -value), rank within row, take the row-max of
    ``min(rank, value)``.
    """
    n = csr.num_rows
    if csr.nnz == 0:
        return np.zeros(n, dtype=np.int64)
    deg = csr.degrees()
    rows = np.repeat(np.arange(n, dtype=np.int64), deg)
    vals = values[csr.indices]
    order = np.lexsort((-vals, rows))
    vals_sorted = vals[order]
    rank = np.arange(rows.size, dtype=np.int64) - np.repeat(csr.indptr[:-1], deg) + 1
    cand = np.minimum(rank, vals_sorted)
    out = np.zeros(n, dtype=np.int64)
    nonempty = deg > 0
    starts = csr.indptr[:-1][nonempty]
    out[nonempty] = np.maximum.reduceat(cand, starts)
    return out


@dataclass
class KCoreResult:
    """Core numbers plus engine accounting."""

    core: np.ndarray
    rounds: int
    virtual_seconds: float


def core_numbers(
    sess: GraphSession, max_rounds: int | None = None
) -> KCoreResult:
    """Coreness of every vertex of the session's undirected simple view.

    Each round, every machine recomputes local H-indices from the current
    global value vector; only *changed boundary values* are charged to the
    network (values start at the degree and only decrease, so per-round
    traffic shrinks as the fixpoint nears).  Converges in at most
    ``O(max_degree)`` rounds, usually far fewer.  The view and its
    partitioning are cached on the session; rounds are charged to its cost
    model.  The rounds run here, outside the superstep executor, so a
    ``backend="pool"`` session is refused rather than served in-process.
    """
    sess.require_inproc(kcore=True)
    pg = sess.undirected_pg()

    values = pg.out_degrees().astype(np.int64)
    clock = VirtualClock()
    rounds = 0
    boundary = [p.boundary_vertices() for p in pg.partitions]
    while max_rounds is None or rounds < max_rounds:
        stats = [StepStats() for _ in pg.partitions]
        new_values = values.copy()
        for pid, part in enumerate(pg.partitions):
            local = h_index_per_row(part.out_csr, values)
            new_values[part.lo : part.hi] = local
            stats[pid].edges_scanned += part.out_csr.nnz
        changed = new_values != values
        for pid, part in enumerate(pg.partitions):
            # each machine ships its changed local values to every machine
            # that holds them as boundary vertices
            changed_local = np.nonzero(changed[part.lo : part.hi])[0] + part.lo
            if changed_local.size == 0:
                continue
            for other, bverts in enumerate(boundary):
                if other == pid:
                    continue
                shipped = np.intersect1d(changed_local, bverts, assume_unique=False)
                if shipped.size:
                    stats[pid].record_send(other, int(shipped.size) * 12,
                                           int(shipped.size))
        clock.advance(sess.netmodel.superstep_seconds(stats))
        rounds += 1
        if not changed.any():
            break
        values = new_values
    return KCoreResult(core=values, rounds=rounds, virtual_seconds=clock.now)
