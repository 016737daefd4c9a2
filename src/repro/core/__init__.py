"""C-Graph core: the paper's primary contribution.

Each job has one spelling: a function here that takes the resident
:class:`~repro.runtime.session.GraphSession` first.

* :mod:`repro.core.frontier` — MS-BFS bit-parallel frontier planes (§3.5).
* :mod:`repro.core.khop` — the concurrent k-hop reachability engine, for
  batches of 1 to 512 queries (one cache line of query bits).
* :mod:`repro.core.adapters` — the probes, gathers and controls a batch
  runs next to its tasks, on either executor.
* :mod:`repro.core.traversal` — the ``Traverse`` operator (Listing 2).
* :mod:`repro.core.gas` / :mod:`repro.core.pagerank` — the GAS ``Update``
  interface (Listing 3) and PageRank.
* :mod:`repro.core.sssp` — weighted, hop-constrained shortest paths.
* :mod:`repro.core.triangles` — triangle counting via k-hop composition.
* :mod:`repro.core.reachability` — pairwise s→t reachability (the title
  query): the k-hop batch with targets and per-query early termination.
* :mod:`repro.core.kcore` — distributed k-core decomposition (H-index).
* :mod:`repro.core.ooc` — out-of-core traversal over disk-resident
  edge-sets.
* :mod:`repro.core.vertex_api` — the vertex-centric (Pregel) model (§3.3).
* :mod:`repro.core.api` — the partition-centric programming API (Listing 1).
"""

from repro.core.frontier import (
    BitFrontier,
    popcount,
    per_query_counts,
    MAX_WIDE_BATCH,
)
from repro.core.khop import DIRECTIONS, KHopResult, concurrent_khop
from repro.core.traversal import traverse
from repro.core.gas import VertexProgram, run_gas, GASRun
from repro.core.pagerank import PageRankProgram, pagerank
from repro.core.sssp import SSSPResult, sssp
from repro.core.triangles import triangle_count, khop_triangle_count, local_triangles
from repro.core.multi_sssp import MultiSSSPResult, concurrent_sssp
from repro.core.centrality import (
    CentralityResult,
    closeness_centrality,
    harmonic_centrality,
)
from repro.core.ooc import OOCKHopResult, concurrent_khop_out_of_core
from repro.core.vertex_api import (
    VertexContext,
    VertexCentricProgram,
    run_vertex_centric,
)
from repro.core.traversal import shortest_hop_path
from repro.core.reachability import ReachabilityResult, reachability_queries
from repro.core.kcore import KCoreResult, core_numbers, h_index_per_row
from repro.core.api import PartitionContext, PartitionProgram, run_program

__all__ = [
    "BitFrontier",
    "popcount",
    "per_query_counts",
    "MAX_WIDE_BATCH",
    "DIRECTIONS",
    "KHopResult",
    "concurrent_khop",
    "traverse",
    "VertexProgram",
    "run_gas",
    "GASRun",
    "PageRankProgram",
    "pagerank",
    "SSSPResult",
    "sssp",
    "triangle_count",
    "khop_triangle_count",
    "local_triangles",
    "MultiSSSPResult",
    "concurrent_sssp",
    "CentralityResult",
    "closeness_centrality",
    "harmonic_centrality",
    "OOCKHopResult",
    "concurrent_khop_out_of_core",
    "VertexContext",
    "VertexCentricProgram",
    "run_vertex_centric",
    "shortest_hop_path",
    "ReachabilityResult",
    "reachability_queries",
    "KCoreResult",
    "core_numbers",
    "h_index_per_row",
    "PartitionContext",
    "PartitionProgram",
    "run_program",
]
