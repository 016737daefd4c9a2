"""C-Graph: a concurrent graph reachability query framework.

A production-quality Python reproduction of *"C-Graph: A Highly Efficient
Concurrent Graph Reachability Query Framework"* (Zhou, Chen, Xia,
Teodorescu -- ICPP 2018).

Public entry points:

* :class:`repro.CGraph` -- build once, then serve concurrent k-hop
  queries, PageRank, SSSP and triangle analytics.
* :class:`repro.GraphSession` / :class:`repro.QueryService` -- the
  persistent service runtime: one resident partitioned graph serving many
  query batches, with an online admission loop producing per-query
  response times.
* :mod:`repro.graph` -- graph substrate (formats, partitioning, generators,
  datasets, analysis).
* :mod:`repro.runtime` -- the simulated distributed runtime and its cost
  model.
* :mod:`repro.index` -- the pruned distance-label reachability index and
  the hybrid index/traversal query planner.
* :mod:`repro.baselines` -- Titan-like graph DB, Gemini-like serialized
  engine, the naive queue traversal, and networkx oracles.
* :mod:`repro.bench` -- workload generation and the per-figure experiment
  drivers reproducing the paper's evaluation.
"""

from repro.core.cgraph import CGraph
from repro.core import (
    concurrent_khop,
    reachability_queries,
    core_numbers,
    pagerank,
    sssp,
    triangle_count,
)
from repro.index import HubLabels, IndexPlanner, build_hub_labels
from repro.runtime.netmodel import NetworkModel
from repro.runtime.scheduler import QueryService
from repro.runtime.session import GraphSession

__version__ = "1.0.0"

__all__ = [
    "CGraph",
    "GraphSession",
    "QueryService",
    "concurrent_khop",
    "reachability_queries",
    "core_numbers",
    "pagerank",
    "sssp",
    "triangle_count",
    "NetworkModel",
    "HubLabels",
    "IndexPlanner",
    "build_hub_labels",
    "__version__",
]
