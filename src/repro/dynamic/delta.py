"""The dynamic graph: epoch history over the live partition shards.

A :class:`~repro.graph.partition.PartitionedGraph` is built once and then
shared: the in-process engine reads its shards directly and the pool
backend packs the same arrays into one shared-memory image the workers
attach for their whole lifetime.  The shards are the graph, and each
mutation batch moves them forward by its own effective
:class:`MutationRecord`:

* :meth:`DynamicGraph.apply` tests each named pair against its owner's
  sorted out-CSR row, keeps the effective ones (each delete names a
  present edge, each insert an absent one) and hands that record to
  :func:`splice_record`, which swaps the touched partitions'
  ``out_csr``/``in_csc`` for spliced copies in place — resident
  :class:`~repro.runtime.cluster.Machine` objects stay valid;
* every pool batch's ``begin`` carries the records newer than the shm
  image, and a worker splices its *attached* shard with the same
  :func:`splice_record`, skipping records at or below the shard's epoch —
  a respawned worker re-attaches the image and replays them all; the
  session repacks the image once the records pass a bound
  (:meth:`~repro.runtime.session.GraphSession.run_batch_pool`);
* the splice is a sorted-key merge: every shard is sorted by
  ``row·n + col`` with no repeats (what :func:`~repro.graph.csr.build_csr`
  emits), so removing the deleted entries and inserting the new ones at
  their ``searchsorted`` slots costs the batch plus one copy of the shard —
  never a sort — and the result is byte-identical to a partition rebuilt
  from scratch on the mutated edge list, which is the invariant every
  cross-check and property test in ``tests/dynamic`` pins.

Epochs
------
The graph version counter.  Every batch of applied mutations (and every
compaction) advances :attr:`DynamicGraph.epoch` by one; a query batch runs
entirely against the epoch current at its dispatch.  An epoch advance
drops resident task state on both executors, so it can never straddle two
graph versions.  :attr:`DynamicGraph.history` holds one
:class:`MutationRecord` per epoch advance, and
:meth:`DynamicGraph.edges_at` / :meth:`DynamicGraph.graph_at` replay it to
the exact edge set — and a from-scratch oracle partitioning — of any past
epoch: shard construction is a pure function of the edge set, so the
oracle's shards are byte-identical to the live shards at the same epoch,
which is what the service's cross-check mode and the dynamic property
suite compare against.

Dynamic graphs are restricted to unweighted, duplicate-free graphs
(reachability's natural domain): set semantics make insert-existing and
delete-absent well-defined no-ops.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import MutationError
from repro.graph.csr import CSR, row_positions, splice_csr
from repro.graph.edgelist import EdgeList
from repro.graph.partition import (
    Partition,
    PartitionedGraph,
    owner_of_bounds,
    partition_with_bounds,
    splice_plan,
)

__all__ = [
    "DynamicGraph",
    "MutationRecord",
    "MutationResult",
    "splice_effective_csr",
    "splice_record",
]


# --------------------------------------------------------------------------- #
# mutation records
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class MutationRecord:
    """One applied mutation batch (or compaction): an entry of
    :attr:`DynamicGraph.history`, one frame of the write-ahead log and what
    a pool worker splices its shard by."""

    epoch: int  # the epoch this batch created
    inserts: np.ndarray = field(repr=False)  # (k, 2) int64, applied only
    deletes: np.ndarray = field(repr=False)  # (k, 2) int64, applied only
    compaction: bool = False


@dataclass(frozen=True)
class MutationResult:
    """What one :meth:`DynamicGraph.apply` call actually did."""

    epoch: int  # graph epoch after the batch
    inserted: np.ndarray = field(repr=False)  # (k, 2) int64, applied
    deleted: np.ndarray = field(repr=False)  # (k, 2) int64, applied
    noop_inserts: int = 0  # already present
    noop_deletes: int = 0  # already absent (or re-inserted in-batch)
    touched_partitions: tuple = ()

    @property
    def changed(self) -> bool:
        return bool(self.inserted.size or self.deleted.size)


# --------------------------------------------------------------------------- #
# the splice (shared by the coordinator and the pool workers)
# --------------------------------------------------------------------------- #


def splice_effective_csr(
    base: CSR,
    num_vertices: int,
    ins_rows: np.ndarray,
    ins_cols: np.ndarray,
    del_rows: np.ndarray,
    del_cols: np.ndarray,
) -> CSR:
    """One shard (local rows, global columns below ``num_vertices``) as
    ``(base − deletes) ∪ inserts``.

    ``base`` holds each row's columns ascending and without repeats (what
    `build_csr` emits), every delete names a base entry and no insert does —
    what an effective :class:`MutationRecord` guarantees — so the splice is
    :func:`~repro.graph.csr.splice_csr`'s sorted-key merge, and the result
    matches a from-scratch rebuild byte for byte.
    """
    return splice_csr(base, num_vertices, ins_rows, ins_cols, del_rows, del_cols)


def splice_record(part: Partition, rec: MutationRecord, num_vertices: int) -> None:
    """Bring ``part``'s shards from the epoch before ``rec`` to ``rec.epoch``.

    ``rec`` holds effective pairs only, so every delete the partition owns
    names one of its entries and no insert does — what
    :func:`splice_effective_csr` needs.  The out-CSR takes the pairs whose
    source the partition owns, the in-CSC those whose target it owns.  A
    built exchange plan is spliced with the shard
    (:func:`~repro.graph.partition.splice_plan`): the out-edges fix it, so
    an in-CSC change from remote sources leaves it as it is, and a
    partition the record does not touch keeps its arrays and plan and only
    moves its epoch.  The coordinator and the pool workers both call this,
    so their shards and plans stay byte-identical.
    """

    def owned(pairs: np.ndarray, col: int) -> np.ndarray:
        return pairs[(pairs[:, col] >= part.lo) & (pairs[:, col] < part.hi)]

    lo = part.lo
    ins, dels = owned(rec.inserts, 0), owned(rec.deletes, 0)
    if ins.size or dels.size:
        part.out_csr = splice_effective_csr(
            part.out_csr, num_vertices,
            ins[:, 0] - lo, ins[:, 1], dels[:, 0] - lo, dels[:, 1],
        )
        if part.plan_cache is not None:
            part.plan_cache = splice_plan(part.plan_cache, part, ins, dels)
    ins, dels = owned(rec.inserts, 1), owned(rec.deletes, 1)
    if ins.size or dels.size:
        part.in_csc = splice_effective_csr(
            part.in_csc, num_vertices,
            ins[:, 1] - lo, ins[:, 0], dels[:, 1] - lo, dels[:, 0],
        )
    part.graph_epoch = rec.epoch


# --------------------------------------------------------------------------- #
# the dynamic graph
# --------------------------------------------------------------------------- #


class DynamicGraph:
    """Streaming edge mutations over one resident partitioned graph.

    Wraps (and mutates in place) a :class:`PartitionedGraph` whose
    partition bounds are frozen for the graph's lifetime.  Its shards are
    the current edge set: :meth:`apply` advances the epoch and splices the
    touched partitions by the batch's record, and :meth:`compact` marks a
    new epoch over the same edges.  Both append to :attr:`history`, which
    :meth:`edges_at` and :meth:`graph_at` replay.  This class moves the
    graph only; a session's resident index follows the mutations that go
    through :meth:`~repro.runtime.session.GraphSession.apply_mutations`.
    """

    def __init__(self, pg: PartitionedGraph):
        if any(p.out_csr.weights is not None for p in pg.partitions):
            raise MutationError("dynamic graphs must be unweighted")
        self.pg = pg
        self.num_vertices = n = pg.num_vertices
        edges = pg.edge_list()
        keys = edges.src.astype(np.int64) * n + edges.dst
        if keys.size and not np.all(np.diff(keys)):
            raise MutationError(
                "dynamic graphs need a duplicate-free base edge list "
                "(EdgeList.deduplicate() it first)"
            )
        self.bounds = pg.bounds.copy()
        self.epoch = 0
        # The epoch history starts at — 0 for a graph built live, the
        # checkpoint's epoch after restore_epoch() — with its edge set, and
        # one record per epoch advance since.
        self.base_epoch = 0
        self._base_epoch_keys = keys
        self.history: list[MutationRecord] = []
        self.compactions = 0
        for p in pg.partitions:
            p.graph_epoch = 0

    # -- state -------------------------------------------------------------- #

    def _encode(self, pairs: np.ndarray) -> np.ndarray:
        """(k, 2) endpoint pairs -> int64 keys ``u·n + v``."""
        return pairs[:, 0] * self.num_vertices + pairs[:, 1]

    def _decode(self, keys: np.ndarray) -> np.ndarray:
        """Sorted int64 keys -> (k, 2) global endpoint pairs."""
        n = self.num_vertices
        return np.stack([keys // n, keys % n], axis=1) if keys.size else keys.reshape(0, 2)

    def _present(self, pairs: np.ndarray) -> np.ndarray:
        """Whether each ``(u, v)`` is a current edge: a search of ``u``'s
        sorted row in its owning partition's out-CSR."""
        hit = np.zeros(len(pairs), dtype=bool)
        owners = owner_of_bounds(self.bounds, pairs[:, 0])
        for pid in np.unique(owners).tolist():
            mine = owners == pid
            part = self.pg.partitions[pid]
            out = part.out_csr
            rows, cols = pairs[mine, 0] - part.lo, pairs[mine, 1]
            pos = row_positions(out, rows, cols, self.num_vertices)
            found = pos < out.indptr[rows + 1]
            found[found] = out.indices[pos[found]] == cols[found]
            hit[mine] = found
        return hit

    def materialize_edges(self) -> EdgeList:
        """The current edge set as a fresh :class:`EdgeList` (key-sorted,
        i.e. ``(src, dst)``-lexicographic — input-order independent)."""
        return self.pg.edge_list()

    def _edge_list(self, keys: np.ndarray) -> EdgeList:
        pairs = self._decode(keys)
        return EdgeList(pairs[:, 0], pairs[:, 1], self.num_vertices)

    # -- history ------------------------------------------------------------- #

    def edges_at(self, epoch: int) -> EdgeList:
        """The exact edge set of ``epoch`` (key-sorted, like
        :meth:`materialize_edges`), replayed from :attr:`history`.

        Every record holds effective subsets only — each delete names a
        present edge, each insert an absent one — so the replay is a
        sorted-key delete and insert per record, never a set of all edges.
        Epochs before :attr:`base_epoch` are not reconstructible (a
        restored graph starts its history at the checkpoint)."""
        if not self.base_epoch <= epoch <= self.epoch:
            raise MutationError(
                f"epoch {epoch} outside [{self.base_epoch}, {self.epoch}]"
            )
        keys = self._base_epoch_keys
        for rec in self.history:
            if rec.epoch > epoch:
                break
            if rec.compaction:
                continue  # same edge set
            keys = np.delete(keys, np.searchsorted(keys, self._encode(rec.deletes)))
            ins = self._encode(rec.inserts)
            keys = np.insert(keys, np.searchsorted(keys, ins), ins)
        return self._edge_list(keys)

    def graph_at(self, epoch: int) -> PartitionedGraph:
        """A from-scratch oracle partitioning of ``epoch``'s edge set under
        the frozen bounds — shard arrays byte-identical to the live shards
        at that epoch."""
        return partition_with_bounds(self.edges_at(epoch), self.bounds)

    # -- mutation ------------------------------------------------------------ #

    def as_pairs(self, pairs, name: str) -> np.ndarray:
        """``pairs`` as an ``(m, 2)`` int64 array, or :class:`MutationError`
        when they are not integer ``(u, v)`` pairs inside the vertex set."""
        arr = np.asarray(list(pairs) if not isinstance(pairs, np.ndarray) else pairs)
        if arr.shape == (0,):  # an empty list names no pairs
            return np.empty((0, 2), dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise MutationError(f"{name} must be (u, v) pairs")
        if arr.dtype.kind not in "iuf" or (
            arr.dtype.kind == "f" and not np.all(np.floor(arr) == arr)
        ):  # floor keeps NaN and inf unequal or out of range, without a warning
            raise MutationError(f"{name} must be integer vertex pairs")
        if arr.size and (arr.min() < 0 or arr.max() >= self.num_vertices):
            raise MutationError(
                f"{name} endpoint out of range for n={self.num_vertices} "
                "(the dynamic layer cannot grow the vertex set)"
            )
        return arr.astype(np.int64)

    def apply(self, inserts=(), deletes=()) -> MutationResult:
        """Apply one mutation batch; returns what actually changed.

        Batch semantics are set-valued: the new edge set is
        ``(current − deletes) ∪ inserts`` (a pair named in both lists ends
        up present).  Inserting a present edge or deleting an absent one
        is a no-op; a batch with no net effect does **not** advance the
        epoch.
        """
        ins_keys = np.unique(self._encode(self.as_pairs(inserts, "inserts")))
        del_keys = np.unique(self._encode(self.as_pairs(deletes, "deletes")))
        ins_arr = self._decode(ins_keys)
        ins_arr = ins_arr[~self._present(ins_arr)]
        del_arr = self._decode(np.setdiff1d(del_keys, ins_keys, assume_unique=True))
        del_arr = del_arr[self._present(del_arr)]
        noop_ins = ins_keys.size - len(ins_arr)
        noop_del = del_keys.size - len(del_arr)
        if not ins_arr.size and not del_arr.size:
            return MutationResult(self.epoch, ins_arr, del_arr, noop_ins, noop_del)

        self.epoch += 1
        rec = MutationRecord(self.epoch, ins_arr, del_arr)
        for part in self.pg.partitions:
            splice_record(part, rec, self.num_vertices)
        self.history.append(rec)
        return MutationResult(
            self.epoch, ins_arr, del_arr, noop_ins, noop_del,
            self._touched_partitions(ins_arr, del_arr),
        )

    def _touched_partitions(self, ins: np.ndarray, dels: np.ndarray) -> tuple:
        endpoints = np.concatenate([ins.ravel(), dels.ravel()])
        return tuple(np.unique(owner_of_bounds(self.bounds, endpoints)).tolist())

    # -- recovery ------------------------------------------------------------ #

    def restore_epoch(self, epoch: int, compactions: int = 0) -> None:
        """Re-stamp a pristine graph with a checkpoint's epoch counters.

        Recovery rebuilds the graph from checkpointed edges — so the
        *content* is already epoch ``epoch``; this aligns the version
        counters so WAL suffix replay advances them exactly as the
        original process did.  Only valid before any mutation: the shards
        must BE the checkpointed state."""
        if self.epoch != 0 or self.history:
            raise MutationError(
                "restore_epoch requires a pristine dynamic graph "
                "(no mutations, no history)"
            )
        if epoch < 0 or compactions < 0:
            raise MutationError("restored epoch/compactions must be >= 0")
        self.epoch = int(epoch)
        self.base_epoch = int(epoch)
        self.compactions = int(compactions)
        for p in self.pg.partitions:
            p.graph_epoch = self.epoch

    # -- compaction ---------------------------------------------------------- #

    def compact(self) -> MutationResult:
        """Mark a compaction: a new epoch over the same edge set.

        The shards do not change, but the epoch still advances and a
        record joins the history (and the WAL), so like any epoch advance
        it drops resident task state; a pool worker splices the empty
        record to move its shard's epoch.
        """
        self.epoch += 1
        self.compactions += 1
        empty = np.empty((0, 2), dtype=np.int64)
        rec = MutationRecord(self.epoch, empty, empty, compaction=True)
        for part in self.pg.partitions:
            part.graph_epoch = self.epoch
        self.history.append(rec)
        return MutationResult(self.epoch, empty, empty)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DynamicGraph(n={self.num_vertices}, m={self.pg.num_edges}, "
            f"epoch={self.epoch})"
        )
