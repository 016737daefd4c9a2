"""The C-Graph facade: the one-object public API.

:class:`CGraph` bundles ingestion (re-indexing), range partitioning,
edge-set construction and the query/compute operators behind a single
handle, mirroring how the paper's framework is deployed: build once per
graph, then serve concurrent queries and iterative jobs against it.

Quickstart::

    from repro import CGraph
    from repro.graph import rmat_edges

    g = CGraph(rmat_edges(14, 200_000, seed=1), num_machines=3)
    batch = g.khop_batch(sources=[0, 42, 99], k=3)      # concurrent queries
    print(batch.reached, batch.response_seconds)

    ranks = g.pagerank().values                          # iterative compute
"""

from __future__ import annotations

import numpy as np

from repro.core.gas import GASRun, VertexProgram, run_gas
from repro.core.khop import KHopResult, concurrent_khop
from repro.core.pagerank import DEFAULT_ITERATIONS, pagerank
from repro.core.kcore import KCoreResult, core_numbers
from repro.core.reachability import ReachabilityResult, reachability_queries
from repro.core.sssp import SSSPResult, sssp
from repro.core.traversal import khop_query, traverse
from repro.core.triangles import khop_triangle_count, triangle_count
from repro.graph.edgelist import EdgeList
from repro.graph.partition import PartitionedGraph
from repro.runtime.netmodel import NetworkModel
from repro.runtime.scheduler import QueryService, ServiceReport
from repro.runtime.session import GraphSession

__all__ = ["CGraph"]


class CGraph:
    """A partitioned, query-ready graph.

    Parameters
    ----------
    edges:
        The input graph.  ``reindex="identity"`` (default) keeps the
        caller's ids; ``"degree"`` applies the ingestion-time re-indexing
        of §3.1.
    num_machines:
        Number of simulated machines / partitions.
    netmodel:
        Virtual-time cost model (calibrated default if omitted).
    edge_sets:
        Build the blocked edge-set representation eagerly (§3.2); traversal
        calls can then opt in with ``use_edge_sets=True``.
    """

    def __init__(
        self,
        edges: EdgeList,
        num_machines: int = 1,
        netmodel: NetworkModel | None = None,
        reindex: str = "identity",
        edge_sets: bool = False,
        sets_per_partition: int = 8,
        consolidate_min_edges: int | None = None,
    ):
        if reindex != "identity":
            edges, mapping = edges.reindex(reindex)
            self.id_map = mapping
        else:
            self.id_map = None
        self.edges = edges
        # The facade is backed by a persistent GraphSession: partitions,
        # cluster, cost model and per-algorithm task state all live for the
        # CGraph's lifetime and are reused across every query batch.
        self.session = GraphSession(
            edges,
            num_machines=num_machines,
            netmodel=netmodel,
            edge_sets=edge_sets,
            sets_per_partition=sets_per_partition,
            consolidate_min_edges=consolidate_min_edges,
        )
        self.netmodel = self.session.netmodel
        self.pg: PartitionedGraph = self.session.pg

    # -- structure --------------------------------------------------------- #

    @property
    def num_vertices(self) -> int:
        return self.pg.num_vertices

    @property
    def num_edges(self) -> int:
        return self.pg.num_edges

    @property
    def num_machines(self) -> int:
        return self.pg.num_partitions

    @property
    def has_edge_sets(self) -> bool:
        return self.session.has_edge_sets

    def build_edge_sets(
        self, sets_per_partition: int = 8, consolidate_min_edges: int | None = None
    ) -> None:
        """Tile partitions into LLC-sized edge-sets (§3.2)."""
        self.session.build_edge_sets(sets_per_partition, consolidate_min_edges)

    def to_internal(self, vertices) -> np.ndarray:
        """Map caller vertex ids through the ingestion re-indexing (if any)."""
        v = np.asarray(vertices, dtype=np.int64)
        return v if self.id_map is None else self.id_map[v].astype(np.int64)

    # -- traversal queries --------------------------------------------------#

    def khop(self, sources, k: int | None, **kwargs) -> KHopResult:
        """One bit-parallel batch of up to 512 concurrent k-hop queries."""
        if self.has_edge_sets:
            kwargs.setdefault("use_edge_sets", True)
        return concurrent_khop(
            self.session, self.to_internal(sources), k, **kwargs
        )

    def khop_batch(self, sources, k: int | None,
                   batch_width: int = 64) -> ServiceReport:
        """A stream of any number of concurrent queries, batched word-wide
        by a :class:`QueryService` drain (all queries arrive at once)."""
        svc = QueryService(self.session, k, batch_width=batch_width,
                           use_edge_sets=self.has_edge_sets)
        svc.submit_many(self.to_internal(sources))
        return svc.drain()

    def reachable_within(self, source: int, k: int) -> np.ndarray:
        """Internal-id vertex set within k hops of ``source``."""
        return khop_query(self.session, int(self.to_internal([source])[0]), k)

    def bfs_levels(self, source: int) -> np.ndarray:
        """Hop distances from one source (internal indexing)."""
        res = traverse(self.session, int(self.to_internal([source])[0]), None)
        return res.depths[:, 0].astype(np.int32)

    def traverse(self, source: int, hops: int | None, visit=None) -> KHopResult:
        """Listing 2's Traverse with a per-level visit callback."""
        return traverse(self.session, int(self.to_internal([source])[0]), hops,
                        visit=visit)

    # -- iterative compute --------------------------------------------------#

    def pagerank(self, iterations: int = DEFAULT_ITERATIONS, **kwargs) -> GASRun:
        """Listing 3's PageRank (10 iterations by default, as in §4.1)."""
        return pagerank(self.session, iterations=iterations, **kwargs)

    def run_vertex_program(self, program: VertexProgram, iterations: int,
                           **kwargs) -> GASRun:
        """Run any GAS vertex program on this graph."""
        return run_gas(self.session, program, iterations, **kwargs)

    def sssp(self, source: int, max_hops: int | None = None) -> SSSPResult:
        """Weighted shortest paths with optional hop budget (SDN queries)."""
        return sssp(self.session, int(self.to_internal([source])[0]),
                    max_hops=max_hops)

    def reach(self, sources, targets, k: int | None) -> ReachabilityResult:
        """Pairwise ``source -> target`` within-k reachability (title query).

        Queries share the traversal and terminate early as verdicts settle.
        """
        return reachability_queries(
            self.session,
            self.to_internal(sources),
            self.to_internal(targets),
            k,
            use_edge_sets=self.has_edge_sets,
        )

    def core_numbers(self) -> KCoreResult:
        """Coreness of every vertex (undirected simple view), distributed."""
        return core_numbers(self.session)

    # -- derived analytics ----------------------------------------------------#

    def triangles(self) -> int:
        """Exact global triangle count."""
        return triangle_count(self.edges)

    def triangles_via_khop(self, roots=None) -> int:
        """Triangle counting expressed as composed 1/2-hop queries (§1)."""
        r = None if roots is None else self.to_internal(roots)
        return khop_triangle_count(self.edges, roots=r)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CGraph(n={self.num_vertices}, m={self.num_edges}, "
            f"machines={self.num_machines}, edge_sets={self.has_edge_sets})"
        )
