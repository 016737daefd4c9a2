"""Graph substrate: storage formats, partitioning, generators and analysis.

This subpackage provides everything C-Graph's core engine sits on:

* :mod:`repro.graph.edgelist` — raw edge-list container with ingestion-time
  re-indexing (paper §3.1: "vertex ID ... is re-indexed during graph
  ingestion").
* :mod:`repro.graph.csr` — vectorised CSR/CSC construction (§3.2 multi-modal
  representation).
* :mod:`repro.graph.edgeset` — the *edge-set* layout (stripe bounds with
  horizontal/vertical consolidation) exchange plans are ordered by (§3.2).
* :mod:`repro.graph.outofcore` — a disk-backed store of a plan's edge-sets.
* :mod:`repro.graph.partition` — range-based, edge-balanced partitioning
  (§3.1) producing :class:`~repro.graph.partition.PartitionedGraph`.
* :mod:`repro.graph.generators` — Graph500/RMAT Kronecker and classic
  synthetic generators used to build scaled analogs of the paper's datasets.
* :mod:`repro.graph.datasets` — the named dataset registry mirroring Table 1.
* :mod:`repro.graph.analysis` — hop plots and effective diameters (Figure 1).
* :mod:`repro.graph.properties` — vertex/edge property storage, including the
  level-limited store from §3.3.
"""

from repro.graph.edgelist import EdgeList
from repro.graph.csr import CSR, build_csr, build_csc
from repro.graph.edgeset import EdgeSetMatrix, degree_balanced_ranges
from repro.graph.partition import (
    Partition,
    PartitionedGraph,
    partition_with_bounds,
    range_partition,
)
from repro.graph.generators import (
    rmat_edges,
    graph500_kronecker,
    erdos_renyi,
    watts_strogatz,
    barabasi_albert,
    star_graph,
    path_graph,
    grid_graph,
    complete_graph,
)
from repro.graph.datasets import DatasetSpec, DATASETS, load_dataset, dataset_table
from repro.graph.analysis import (
    hop_plot,
    effective_diameter,
    degree_statistics,
    degree_histogram,
    average_clustering,
    largest_connected_component_size,
)
from repro.graph.validation import validate_khop_depths, assert_valid_khop
from repro.graph.outofcore import SpillableEdgeSetStore
from repro.graph.properties import LevelLimitedValues, DenseVertexValues

__all__ = [
    "EdgeList",
    "CSR",
    "build_csr",
    "build_csc",
    "EdgeSetMatrix",
    "degree_balanced_ranges",
    "Partition",
    "PartitionedGraph",
    "range_partition",
    "partition_with_bounds",
    "rmat_edges",
    "graph500_kronecker",
    "erdos_renyi",
    "watts_strogatz",
    "barabasi_albert",
    "star_graph",
    "path_graph",
    "grid_graph",
    "complete_graph",
    "DatasetSpec",
    "DATASETS",
    "load_dataset",
    "dataset_table",
    "hop_plot",
    "effective_diameter",
    "degree_statistics",
    "degree_histogram",
    "average_clustering",
    "largest_connected_component_size",
    "validate_khop_depths",
    "assert_valid_khop",
    "SpillableEdgeSetStore",
    "LevelLimitedValues",
    "DenseVertexValues",
]
