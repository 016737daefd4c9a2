"""Shared-memory plumbing for the persistent worker pool (zero-copy shards).

The pool backend (:mod:`repro.runtime.pool`) runs one long-lived OS process
per simulated machine.  Two kinds of state cross the process boundary as
named ``multiprocessing.shared_memory`` segments instead of pickles:

* the **graph image** — every partition's CSR/CSC arrays plus the partition
  bounds, packed into one segment by the parent and attached read-only by
  every worker exactly once at pool start (each partition's edge-set layout
  is a few stripe bounds and rides in the manifest itself, as does the
  graph epoch its shards hold);
* per-worker **outbox segments** — each worker owns one segment into which
  it writes its combined per-destination message batches every superstep;
  peers attach lazily and read the batches as zero-copy numpy views.

Only the parent ever *creates* (and therefore unlinks) segments: CPython
registers shared memory with the resource tracker on create only, so
attach-side workers never fight the tracker over cleanup, and a crashed
pool still has a single owner responsible for every segment.

Manifests (:class:`GraphManifest`, :class:`BatchRef`) are plain dataclasses
of names/offsets/dtypes — a few hundred bytes over a pipe buys access to
arbitrarily large arrays already sitting in shared memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.errors import CorruptMessage
from repro.graph.csr import CSR
from repro.graph.edgeset import EdgeSetMatrix
from repro.graph.partition import Partition, PartitionedGraph
from repro.runtime.fault import batch_checksum

__all__ = [
    "ArraySpec",
    "CSRManifest",
    "PartitionManifest",
    "GraphManifest",
    "BatchRef",
    "build_graph_image",
    "attach_graph",
    "create_segment",
    "OutboxWriter",
    "OutboxReader",
]


@dataclass(frozen=True)
class ArraySpec:
    """Location of one numpy array inside a named segment."""

    offset: int
    dtype: str
    shape: tuple


@dataclass(frozen=True)
class CSRManifest:
    indptr: ArraySpec
    indices: ArraySpec
    weights: ArraySpec | None


@dataclass(frozen=True)
class PartitionManifest:
    part_id: int
    lo: int
    hi: int
    out_csr: CSRManifest
    in_csc: CSRManifest
    edge_sets: EdgeSetMatrix | None = None
    epoch: int = 0  # the dynamic graph's epoch the packed shards hold


@dataclass(frozen=True)
class GraphManifest:
    """Everything a worker needs to rebuild its shard over shared views."""

    segment: str
    bounds: ArraySpec
    partitions: list[PartitionManifest]


@dataclass(frozen=True)
class BatchRef:
    """One combined message batch, by reference into a sender's outbox.

    ``checksum`` is a CRC-32 over the batch's vertex + payload bytes,
    computed by the sender as it writes the segment and re-verified by the
    receiver before it applies the batch (``-1`` = unchecked).  It is the
    end-to-end integrity check the fault model's ``corrupt_inbox`` events
    are detected by.
    """

    segment: str
    sender: int
    dest: int
    vertices: ArraySpec | np.ndarray
    payload: ArraySpec | np.ndarray
    checksum: int = -1


def _align8(offset: int) -> int:
    return (offset + 7) & ~7


def view_array(buf, spec: ArraySpec, writeable: bool = False) -> np.ndarray:
    """A numpy view over ``buf`` at ``spec`` (read-only unless writing)."""
    arr = np.ndarray(
        spec.shape, dtype=np.dtype(spec.dtype), buffer=buf, offset=spec.offset
    )
    if not writeable:
        arr.flags.writeable = False
    return arr


def create_segment(name: str, nbytes: int) -> shared_memory.SharedMemory:
    """Create (and own) a named segment; the creator must unlink it."""
    return shared_memory.SharedMemory(
        name=name, create=True, size=max(int(nbytes), 1)
    )


# -- the graph image ------------------------------------------------------- #


class _Planner:
    """Assigns 8-byte-aligned offsets while totalling the segment size."""

    def __init__(self) -> None:
        self.cursor = 0

    def plan(self, arr: np.ndarray) -> ArraySpec:
        offset = _align8(self.cursor)
        self.cursor = offset + arr.nbytes
        return ArraySpec(offset=offset, dtype=arr.dtype.str, shape=arr.shape)


def build_graph_image(
    pg: PartitionedGraph, name: str
) -> tuple[shared_memory.SharedMemory, GraphManifest]:
    """Pack a partitioned graph's current shards into one named segment
    (parent side).

    Returns the owning :class:`SharedMemory` (caller unlinks on shutdown)
    and the manifest workers use to attach, edge-set layouts included, so
    every worker builds its exchange plan as the parent would.  Each
    partition's manifest is stamped with the graph epoch its shards hold:
    a worker splices only the mutation records newer than that
    (:meth:`~repro.runtime.pool.WorkerPool.ensure_task`).
    """
    planner = _Planner()
    copies: list[tuple[ArraySpec, np.ndarray]] = []

    def plan(arr: np.ndarray) -> ArraySpec:
        spec = planner.plan(arr)
        copies.append((spec, arr))
        return spec

    def plan_csr(csr: CSR) -> CSRManifest:
        return CSRManifest(
            indptr=plan(csr.indptr),
            indices=plan(csr.indices),
            weights=None if csr.weights is None else plan(csr.weights),
        )

    bounds_spec = plan(pg.bounds)
    part_manifests = [
        PartitionManifest(
            part_id=p.part_id,
            lo=p.lo,
            hi=p.hi,
            out_csr=plan_csr(p.out_csr),
            in_csc=plan_csr(p.in_csc),
            edge_sets=p.edge_sets,
            epoch=p.graph_epoch,
        )
        for p in pg.partitions
    ]
    shm = create_segment(name, planner.cursor)
    for spec, arr in copies:
        view_array(shm.buf, spec, writeable=True)[...] = arr
    manifest = GraphManifest(
        segment=shm.name,
        bounds=bounds_spec,
        partitions=part_manifests,
    )
    return shm, manifest


@dataclass
class AttachedGraph:
    """A worker's zero-copy handle on the shared graph image."""

    segment: shared_memory.SharedMemory
    bounds: np.ndarray
    partitions: list[Partition]

    def close(self) -> None:
        # Partitions hold views into the mapping; drop them before closing
        # so the exported-pointer check in SharedMemory.close cannot trip.
        self.partitions = []
        self.bounds = None
        try:
            self.segment.close()
        except BufferError:
            # A task somewhere still holds a view; the mapping is released
            # when the process exits, and the parent owns the unlink.
            pass


def attach_graph(manifest: GraphManifest) -> AttachedGraph:
    """Rebuild read-only :class:`Partition` objects over shared views."""
    shm = shared_memory.SharedMemory(name=manifest.segment)

    def csr(m: CSRManifest) -> CSR:
        return CSR(
            indptr=view_array(shm.buf, m.indptr),
            indices=view_array(shm.buf, m.indices),
            weights=None if m.weights is None else view_array(shm.buf, m.weights),
        )

    partitions = [
        Partition(
            part_id=p.part_id,
            lo=p.lo,
            hi=p.hi,
            out_csr=csr(p.out_csr),
            in_csc=csr(p.in_csc),
            edge_sets=p.edge_sets,
            graph_epoch=p.epoch,
        )
        for p in manifest.partitions
    ]
    return AttachedGraph(
        segment=shm,
        bounds=view_array(shm.buf, manifest.bounds),
        partitions=partitions,
    )


# -- per-worker outbox segments -------------------------------------------- #


class OutboxWriter:
    """A worker's write handle on its own outbox segment.

    The parent creates (and later unlinks) the segment and tells the worker
    its name; the worker bump-allocates combined batches into it each
    superstep and describes them to the coordinator as :class:`BatchRef`
    records.  Batches live until the next ``begin()`` — the coordinator's
    barrier guarantees every peer has consumed them by then.
    """

    def __init__(self, worker_id: int):
        self.worker_id = worker_id
        self._shm: shared_memory.SharedMemory | None = None
        self._cursor = 0

    def begin(self, name: str) -> None:
        """Start a superstep in segment ``name``: previous batches may now
        be overwritten.  A new name (the parent grew the outbox) is
        attached first."""
        if self._shm is None or self._shm.name != name:
            self.close()
            self._shm = shared_memory.SharedMemory(name=name)
        self._cursor = 0

    def _write(self, arr: np.ndarray) -> ArraySpec:
        offset = _align8(self._cursor)
        end = offset + arr.nbytes
        spec = ArraySpec(offset=offset, dtype=arr.dtype.str, shape=arr.shape)
        view_array(self._shm.buf, spec, writeable=True)[...] = arr
        self._cursor = end
        return spec

    def write(self, dest: int, vertices: np.ndarray, payload: np.ndarray) -> BatchRef:
        """Copy one combined batch into the segment, return its reference.

        The reference carries a CRC-32 of the batch bytes so the receiver
        can prove the payload survived the trip through shared memory.  A
        batch past the segment's end — only an uncombined user program can
        outgrow the pool's static bound — rides inline in the reference.
        """
        end = _align8(_align8(self._cursor) + vertices.nbytes) + payload.nbytes
        inline = end > self._shm.size
        return BatchRef(
            segment=self._shm.name,
            sender=self.worker_id,
            dest=dest,
            vertices=vertices if inline else self._write(vertices),
            payload=payload if inline else self._write(payload),
            checksum=batch_checksum(vertices, payload),
        )

    def close(self) -> None:
        if self._shm is not None:
            self._shm.close()
            self._shm = None


class OutboxReader:
    """Zero-copy reads of peers' outbox batches, cached per sender.

    Attachment is lazy and keyed by segment name: when the parent grows a
    peer's outbox (new generation, new name), the first ref naming the new
    segment drops the stale mapping and attaches the new one.
    """

    def __init__(self) -> None:
        self._by_sender: dict[int, shared_memory.SharedMemory] = {}

    def view(self, ref: BatchRef) -> tuple[np.ndarray, np.ndarray]:
        if isinstance(ref.vertices, np.ndarray):  # an inline batch
            return ref.vertices, ref.payload
        shm = self._by_sender.get(ref.sender)
        if shm is None or shm.name != ref.segment:
            if shm is not None:
                shm.close()
            shm = shared_memory.SharedMemory(name=ref.segment)
            self._by_sender[ref.sender] = shm
        return view_array(shm.buf, ref.vertices), view_array(shm.buf, ref.payload)

    @staticmethod
    def verify(ref: BatchRef, vertices: np.ndarray, payload: np.ndarray) -> None:
        """Check a batch against its sender's checksum before applying it.

        Separate from :meth:`view` so the fault-injection hook can corrupt
        the receiver's copy *between* the read and the check — exactly the
        window a real memory fault would occupy.
        """
        if ref.checksum == -1:
            return
        actual = batch_checksum(vertices, payload)
        if actual != ref.checksum:
            raise CorruptMessage(
                f"batch {ref.sender}->{ref.dest} failed its checksum "
                f"(expected {ref.checksum:#010x}, got {actual:#010x})"
            )

    def close(self) -> None:
        for shm in self._by_sender.values():
            shm.close()
        self._by_sender.clear()
