"""The dynamic graph: epoch history and the delta-aware partitioned CSR/CSC.

A :class:`~repro.graph.partition.PartitionedGraph` is built once and then
shared: the in-process engine reads its shards directly and the pool
backend packs the same arrays into one shared-memory image the workers
attach for their whole lifetime.  Rebuilding that world per edge mutation
would forfeit everything the resident-session design buys, so the dynamic
layer keeps the *base* arrays frozen and splices **effective shards** over
them instead:

* every partition's ``out_csr``/``in_csc`` attribute is swapped in place
  for a freshly built CSR over ``(base − deleted) ∪ inserted``, touching
  only the partitions that own a mutated endpoint — resident
  :class:`~repro.runtime.cluster.Machine` objects and the shm graph image
  both stay valid;
* pool workers receive the pending per-partition delta piggybacked on the
  next task install (:func:`build_with_delta`) and patch their *attached*
  shard the same way — the coordinator never repacks shared memory until
  :meth:`DynamicGraph.compact` folds the delta into a new base;
* the spliced CSR is a sorted-key merge into the base: every shard is
  sorted by ``row·n + col`` with no repeats (what
  :func:`~repro.graph.csr.build_csr` emits), so removing the deleted
  entries and inserting the new ones at their ``searchsorted`` slots costs
  the batch plus one copy of the shard — never a sort — and the result is
  byte-identical to a partition rebuilt from scratch on the mutated edge
  list, which is the invariant every cross-check and property test in
  ``tests/dynamic`` pins;
* the base edge set is one sorted key array, so membership tests are a
  ``searchsorted`` and :meth:`DynamicGraph.compact` adopts the spliced
  shards as the new base instead of re-partitioning the edge list.

Epochs
------
The graph version counter.  Every batch of applied mutations (and every
compaction) advances :attr:`DynamicGraph.epoch` by one; a query batch runs
entirely against the epoch current at its dispatch.  The session joins the
epoch into its task cache keys, so resident task state can never straddle
two graph versions.  :attr:`DynamicGraph.history` holds one
:class:`MutationRecord` per epoch advance, and
:meth:`DynamicGraph.edges_at` / :meth:`DynamicGraph.graph_at` replay it to
the exact edge set — and a from-scratch oracle partitioning — of any past
epoch: shard construction is a pure function of the edge set, so the
oracle's shards are byte-identical to the resident graph's effective
shards at the same epoch, which is what the service's cross-check mode and
the dynamic property suite compare against.

Dynamic graphs are restricted to unweighted, duplicate-free base edge
lists (reachability's natural domain): set semantics make insert-existing
and delete-absent well-defined no-ops.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import MutationError
from repro.graph.csr import CSR, expand_ranges
from repro.graph.edgelist import EdgeList
from repro.graph.partition import (
    PartitionedGraph,
    owner_of_bounds,
    partition_with_bounds,
)

__all__ = [
    "DynamicGraph",
    "MutationRecord",
    "MutationResult",
    "PartitionDelta",
    "apply_partition_delta",
    "build_with_delta",
    "splice_effective_csr",
]


# --------------------------------------------------------------------------- #
# mutation records
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class MutationRecord:
    """One applied mutation batch (or compaction): an entry of
    :attr:`DynamicGraph.history` and one frame of the write-ahead log."""

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
# effective-shard construction (shared by parent, workers, degraded path)
# --------------------------------------------------------------------------- #


def _row_positions(base: CSR, rows: np.ndarray, cols: np.ndarray, n: int):
    """Where each ``(rows[i], cols[i])`` sits in ``base.indices``, or the slot
    it would be inserted at to keep its row sorted.

    Only the named rows are keyed (``row·n + col``, sorted because the rows
    are), so the cost is their degree, not the shard's size."""
    touched = np.unique(rows)
    starts, ends = base.indptr[touched], base.indptr[touched + 1]
    keys = np.repeat(touched * n, ends - starts)
    keys += base.indices[expand_ranges(starts, ends)]
    rank = np.searchsorted(keys, rows * n + cols) - np.searchsorted(keys, rows * n)
    return base.indptr[rows] + rank


def splice_effective_csr(
    base: CSR,
    num_rows: int,
    num_vertices: int,
    ins_rows: np.ndarray,
    ins_cols: np.ndarray,
    del_rows: np.ndarray,
    del_cols: np.ndarray,
) -> CSR:
    """One shard as ``(base − deletes) ∪ inserts``.

    Rows are local (partition-relative), columns global.  ``base`` holds
    each row's columns ascending and without repeats (what `build_csr`
    emits), every delete names a base entry and no insert does — the
    pending delta's invariants.  The splice is then one sorted-key merge:
    drop the deleted positions, insert the new columns at their slots and
    shift ``indptr`` by the per-row counts.  Nothing of the base is
    sorted, and the result matches a from-scratch rebuild byte for byte.
    """
    n = num_vertices
    ins_rows, ins_cols, del_rows, del_cols = (
        np.asarray(a, dtype=np.int64)
        for a in (ins_rows, ins_cols, del_rows, del_cols)
    )
    # np.insert keeps values bound for one slot in the order given
    order = np.argsort(ins_rows * n + ins_cols)
    ins_rows, ins_cols = ins_rows[order], ins_cols[order]
    del_pos = np.sort(_row_positions(base, del_rows, del_cols, n))
    ins_pos = _row_positions(base, ins_rows, ins_cols, n)
    ins_pos -= np.searchsorted(del_pos, ins_pos)  # slots after the deletes
    indices = base.indices
    if del_pos.size:
        indices = np.delete(indices, del_pos)
    if ins_pos.size:
        indices = np.insert(indices, ins_pos, ins_cols.astype(indices.dtype))
    counts = (
        base.degrees()
        + np.bincount(ins_rows, minlength=num_rows)
        - np.bincount(del_rows, minlength=num_rows)
    )
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSR(indptr=indptr, indices=indices)


@dataclass(frozen=True)
class PartitionDelta:
    """The cumulative pending delta for one partition, relative to its base.

    Endpoint pairs are global ``(u, v)`` ids; ``out_*`` mutate the
    partition's out-CSR (it owns ``u``), ``in_*`` its in-CSC (it owns
    ``v``).  Picklable — this is the payload `build_with_delta` broadcasts
    to pool workers.
    """

    part_id: int
    epoch: int  # the graph epoch this delta brings the shard to
    num_vertices: int
    out_inserts: np.ndarray = field(repr=False)  # (k, 2) int64
    out_deletes: np.ndarray = field(repr=False)
    in_inserts: np.ndarray = field(repr=False)
    in_deletes: np.ndarray = field(repr=False)


def apply_partition_delta(part, delta: PartitionDelta, base: tuple | None = None):
    """Swap ``part``'s shards for their effective (base+delta) versions.

    ``base`` is the ``(out_csr, in_csc)`` pair the delta is relative to;
    by default the partition's current arrays (correct on first patch of a
    freshly attached shard).  The exchange plan is dropped — it is rebuilt
    lazily and deterministically from the new shards, under the partition's
    edge-set layout, whose bounds stay frozen.
    """
    base_out, base_in = base if base is not None else (part.out_csr, part.in_csc)
    n = delta.num_vertices
    part.out_csr = splice_effective_csr(
        base_out,
        part.num_local,
        n,
        delta.out_inserts[:, 0] - part.lo,
        delta.out_inserts[:, 1],
        delta.out_deletes[:, 0] - part.lo,
        delta.out_deletes[:, 1],
    )
    part.in_csc = splice_effective_csr(
        base_in,
        part.num_local,
        n,
        delta.in_inserts[:, 1] - part.lo,
        delta.in_inserts[:, 0],
        delta.in_deletes[:, 1] - part.lo,
        delta.in_deletes[:, 0],
    )
    part.plan_cache = None
    part.graph_epoch = delta.epoch


#: Worker-process registry of pristine attached shards, keyed by partition
#: id.  A pool worker owns exactly one partition whose base arrays live in
#: the (immutable between compactions) shm image; the first delta install
#: stashes those views here so every later cumulative delta re-splices
#: from the true base, and a respawned worker starts from an empty
#: registry against a freshly attached image.
_WORKER_BASE: dict[int, tuple[CSR, CSR]] = {}


def build_with_delta(machine, cluster, _inner_build=None, _deltas=None, **kwargs):
    """Pool task builder that patches the worker's shard, then delegates.

    Installed in place of the algorithm's real ``build`` whenever the
    session has pending deltas: ``_deltas`` maps partition id to its
    :class:`PartitionDelta` and ``_inner_build`` is the wrapped task class
    (e.g. :class:`repro.core.khop.KHopPartitionTask`).  The patch is
    skipped when the shard already sits at the delta's epoch.
    """
    part = machine.partition
    delta = None if _deltas is None else _deltas.get(part.part_id)
    if delta is not None and getattr(part, "graph_epoch", 0) != delta.epoch:
        base = _WORKER_BASE.setdefault(part.part_id, (part.out_csr, part.in_csc))
        apply_partition_delta(part, delta, base=base)
    return _inner_build(machine, cluster, **kwargs)


# --------------------------------------------------------------------------- #
# the dynamic graph
# --------------------------------------------------------------------------- #


class DynamicGraph:
    """Streaming edge mutations over one resident partitioned graph.

    Wraps (and mutates in place) a :class:`PartitionedGraph` whose
    partition bounds are frozen for the graph's lifetime.  The current
    edge set is ``(base − deleted) ∪ inserted``; :meth:`apply` advances
    the epoch and re-splices the touched partitions' shards, and
    :meth:`compact` folds the pending delta into a new base (after which
    the pool must repack its shm image — the session handles that by
    closing the pool on compaction).  Both append to :attr:`history`,
    which :meth:`edges_at` and :meth:`graph_at` replay.  This class moves
    the graph only; a session's resident index follows the mutations that
    go through :meth:`~repro.runtime.session.GraphSession.apply_mutations`.
    """

    def __init__(self, pg: PartitionedGraph):
        if pg.edges.weight is not None:
            raise MutationError("dynamic graphs must be unweighted")
        n = pg.num_vertices
        base_keys = pg.edges.src.astype(np.int64) * n + pg.edges.dst.astype(np.int64)
        sorted_keys = np.unique(base_keys)
        if sorted_keys.size != base_keys.size:
            raise MutationError(
                "dynamic graphs need a duplicate-free base edge list "
                "(EdgeList.deduplicate() it first)"
            )
        self.pg = pg
        self.num_vertices = n
        self.bounds = pg.bounds.copy()
        self.epoch = 0
        # The epoch history starts at — 0 for a graph built live, the
        # checkpoint's epoch after restore_epoch() — with its edge set, and
        # one record per epoch advance since.
        self.base_epoch = 0
        self._base_epoch_keys = sorted_keys
        self.history: list[MutationRecord] = []
        self.compactions = 0
        self._base_keys = sorted_keys  # the base edge set, sorted int64 keys
        self._base_shards = {
            p.part_id: (p.out_csr, p.in_csc) for p in pg.partitions
        }
        self._inserted: set[int] = set()  # pending, disjoint from base
        self._deleted: set[int] = set()  # pending, subset of base
        # Partitions mutated since the base shards were (re)built: the
        # set pool_deltas() must cover even when pending nets to empty,
        # so a patched worker can converge back onto the base image.
        self._touched_since_base: set[int] = set()
        for p in pg.partitions:
            p.graph_epoch = 0

    # -- state -------------------------------------------------------------- #

    @property
    def num_pending(self) -> int:
        return len(self._inserted) + len(self._deleted)

    @property
    def has_pending(self) -> bool:
        return bool(self._inserted or self._deleted)

    @property
    def num_edges(self) -> int:
        return self.pg.edges.num_edges - len(self._deleted) + len(self._inserted)

    def _encode(self, pairs: np.ndarray) -> np.ndarray:
        """(k, 2) endpoint pairs -> int64 keys ``u·n + v``."""
        return pairs[:, 0] * self.num_vertices + pairs[:, 1]

    def _decode(self, keys: np.ndarray) -> np.ndarray:
        """Sorted int64 keys -> (k, 2) global endpoint pairs."""
        n = self.num_vertices
        return np.stack([keys // n, keys % n], axis=1) if keys.size else keys.reshape(0, 2)

    def _sorted_keys(self, keys: set) -> np.ndarray:
        return np.array(sorted(keys), dtype=np.int64)

    def _in_base(self, keys: np.ndarray) -> np.ndarray:
        """Membership of each key in the base edge set."""
        base = self._base_keys
        pos = np.searchsorted(base, keys)
        hit = pos < base.size
        hit[hit] = base[pos[hit]] == keys[hit]
        return hit

    def _current_keys(self) -> np.ndarray:
        """The current edge set as sorted keys: the base less the pending
        deletes (all base entries), plus the pending inserts (none are)."""
        keys = self._base_keys
        if self._deleted:
            dels = self._sorted_keys(self._deleted)
            keys = np.delete(keys, np.searchsorted(keys, dels))
        if self._inserted:
            ins = self._sorted_keys(self._inserted)
            keys = np.insert(keys, np.searchsorted(keys, ins), ins)
        return keys

    def materialize_edges(self) -> EdgeList:
        """The current edge set as a fresh :class:`EdgeList` (key-sorted,
        i.e. ``(src, dst)``-lexicographic — input-order independent)."""
        return self._edge_list(self._current_keys())

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
                continue  # representation change only
            keys = np.delete(keys, np.searchsorted(keys, self._encode(rec.deletes)))
            ins = self._encode(rec.inserts)
            keys = np.insert(keys, np.searchsorted(keys, ins), ins)
        return self._edge_list(keys)

    def graph_at(self, epoch: int) -> PartitionedGraph:
        """A from-scratch oracle partitioning of ``epoch``'s edge set under
        the frozen bounds — shard arrays byte-identical to the resident
        graph's effective shards at that epoch."""
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
        ins = self.as_pairs(inserts, "inserts")
        dels = self.as_pairs(deletes, "deletes")
        ins_keys = dict.fromkeys(self._encode(ins).tolist())
        del_keys = dict.fromkeys(self._encode(dels).tolist())
        asked = [*ins_keys, *del_keys]
        in_base = dict(
            zip(asked, self._in_base(np.array(asked, dtype=np.int64)).tolist())
        )

        def present(key: int) -> bool:
            if key in self._inserted:
                return True
            return in_base[key] and key not in self._deleted

        applied_ins = [k for k in ins_keys if not present(k)]
        applied_del = [
            k for k in del_keys if k not in ins_keys and present(k)
        ]
        noop_ins = len(ins_keys) - len(applied_ins)
        noop_del = len(del_keys) - len(applied_del)
        if not applied_ins and not applied_del:
            empty = np.empty((0, 2), dtype=np.int64)
            return MutationResult(self.epoch, empty, empty, noop_ins, noop_del)

        for k in applied_ins:
            if in_base[k]:
                self._deleted.discard(k)
            else:
                self._inserted.add(k)
        for k in applied_del:
            if k in self._inserted:
                self._inserted.discard(k)
            else:
                self._deleted.add(k)
        self.epoch += 1

        ins_arr = self._decode(np.array(sorted(applied_ins), dtype=np.int64))
        del_arr = self._decode(np.array(sorted(applied_del), dtype=np.int64))
        touched = self._touched_partitions(ins_arr, del_arr)
        self._touched_since_base.update(touched)
        pending = self._pending_pairs()
        for pid in touched:
            apply_partition_delta(
                self.pg.partitions[pid],
                self._partition_delta(pid, *pending),
                base=self._base_shards[pid],
            )
        # Parent-side invariant: every resident partition carries the
        # current epoch, so build_with_delta's skip test holds on the
        # degraded in-process path.
        for p in self.pg.partitions:
            p.graph_epoch = self.epoch
        self.history.append(MutationRecord(self.epoch, ins_arr, del_arr))
        return MutationResult(
            self.epoch, ins_arr, del_arr, noop_ins, noop_del, tuple(touched)
        )

    def _touched_partitions(self, ins: np.ndarray, dels: np.ndarray) -> list[int]:
        endpoints = np.concatenate([ins.ravel(), dels.ravel()])
        if not endpoints.size:
            return []
        owners = owner_of_bounds(self.bounds, endpoints)
        return sorted(set(np.asarray(owners).tolist()))

    def _pending_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Cumulative pending (inserts, deletes) as sorted (k, 2) arrays."""
        return (
            self._decode(self._sorted_keys(self._inserted)),
            self._decode(self._sorted_keys(self._deleted)),
        )

    def _partition_delta(self, pid: int, ins: np.ndarray, dels: np.ndarray):
        part = self.pg.partitions[pid]
        lo, hi = part.lo, part.hi

        def side(pairs: np.ndarray, col: int) -> np.ndarray:
            if not pairs.size:
                return pairs.reshape(0, 2)
            mask = (pairs[:, col] >= lo) & (pairs[:, col] < hi)
            return pairs[mask]

        return PartitionDelta(
            part_id=pid,
            epoch=self.epoch,
            num_vertices=self.num_vertices,
            out_inserts=side(ins, 0),
            out_deletes=side(dels, 0),
            in_inserts=side(ins, 1),
            in_deletes=side(dels, 1),
        )

    def pool_deltas(self) -> dict[int, PartitionDelta] | None:
        """Pending per-partition deltas for pool broadcast (None when clean).

        Ships a delta for every partition mutated since the base image —
        cumulative relative to that image, stamped with the current epoch
        — so a worker (fresh, respawned, or lagging several epochs)
        always converges on the same effective shard.  A partition whose
        pending delta netted back to empty still gets an (empty) delta:
        a worker patched at an earlier epoch must re-splice to return to
        the base arrays.
        """
        if not self._touched_since_base:
            return None
        ins, dels = self._pending_pairs()
        deltas = {}
        for pid in sorted(self._touched_since_base):
            deltas[pid] = self._partition_delta(pid, ins, dels)
        return deltas or None

    # -- recovery ------------------------------------------------------------ #

    def restore_epoch(self, epoch: int, compactions: int = 0) -> None:
        """Re-stamp a pristine graph with a checkpoint's epoch counters.

        Recovery rebuilds the graph from checkpointed edges — so the
        *content* is already epoch ``epoch``; this aligns the version
        counters so WAL suffix replay advances them exactly as the
        original process did.  Only valid before any mutation: the base
        arrays must BE the checkpointed state."""
        if self.epoch != 0 or self.history or self.has_pending:
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
        """Fold the pending delta into a new base edge list.

        The graph itself does not change — only its representation — but
        the epoch still advances: the base arrays backing any shm image
        are replaced, so resident pool state keyed on the old epoch must
        never be reused (the session closes its pool on compaction and the
        next batch packs a fresh image).  The effective shards already are
        what a rebuild from the compacted edge list would produce, byte for
        byte, so they become the new base as they stand.
        """
        keys = self._current_keys()
        for part in self.pg.partitions:
            part.plan_cache = None
        self.pg.edges = self._edge_list(keys)
        self.epoch += 1
        self.compactions += 1
        self._base_keys = keys
        self._base_shards = {
            p.part_id: (p.out_csr, p.in_csc) for p in self.pg.partitions
        }
        self._inserted.clear()
        self._deleted.clear()
        self._touched_since_base.clear()
        for p in self.pg.partitions:
            p.graph_epoch = self.epoch
        empty = np.empty((0, 2), dtype=np.int64)
        self.history.append(
            MutationRecord(self.epoch, empty, empty, compaction=True)
        )
        return MutationResult(self.epoch, empty, empty)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DynamicGraph(n={self.num_vertices}, m={self.num_edges}, "
            f"epoch={self.epoch}, pending={self.num_pending})"
        )
