"""Dynamic graph layer: streaming edge mutations over a resident graph.

A production reachability service never gets a frozen graph — it gets a
stream of edge inserts and deletes interleaved with query traffic.  This
subpackage keeps one :class:`~repro.graph.partition.PartitionedGraph`
resident (and its shared-memory image attached to pool workers) while the
edge set changes underneath it:

* :mod:`repro.dynamic.delta` — the live shards and their epoch history:
  each mutation batch splices the touched partitions' shards in place by
  its own effective record (:func:`~repro.dynamic.delta.splice_record`),
  so traversal kernels (push scatter and dense pull alike) read the
  current graph with no base copy beside it, and
  ``DynamicGraph.edges_at(e)`` / ``graph_at(e)`` replay the history to the
  exact edge set (and an oracle partitioning) of any past epoch, which is
  what the service's cross-check mode compares answers against.  Pool
  workers splice their attached shard with the same function, by the
  records newer than the shm image that each batch's ``begin`` carries.
* :mod:`repro.dynamic.wal` — the durable twin of the in-memory history: an
  append-only, CRC32-framed write-ahead log with torn-tail repair, the
  substrate of whole-process crash recovery
  (:mod:`repro.runtime.durability`).

Index maintenance for the dynamic graph lives with the index itself in
:mod:`repro.index.incremental`; the service-facing mutation lane is
:meth:`repro.runtime.session.GraphSession.apply_mutations` and
:meth:`repro.runtime.scheduler.QueryService.apply_mutations`.
"""

from repro.dynamic.delta import (
    DynamicGraph,
    MutationRecord,
    MutationResult,
    splice_effective_csr,
    splice_record,
)
from repro.dynamic.wal import FSYNC_POLICIES, WriteAheadLog

__all__ = [
    "FSYNC_POLICIES",
    "WriteAheadLog",
    "DynamicGraph",
    "MutationRecord",
    "MutationResult",
    "splice_effective_csr",
    "splice_record",
]
