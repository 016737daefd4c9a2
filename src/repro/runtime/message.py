"""Typed message batches and the one path from outbox to inbox (Figure 4/5).

Each partition owns a *remote task buffer* (:class:`Outbox`) and an
*incoming task buffer* (:class:`Inbox`).  "Each task is associated with the
destination vertex's unique ID" — a :class:`MessageBatch` carries a
destination-vertex array plus a same-length payload array, following the
mpi4py idiom of shipping numpy buffers rather than per-object messages.

The whole life of a remote task is written here once, so the message format
is this module's alone: :meth:`Outbox.route` queues user-program tasks under
their owning partitions (the built-in engines, whose partition laid the
boundary out ahead of time, :meth:`Outbox.append` one already-reduced item
per destination — a :class:`PlaneSlice` for traversals — and need no
bucketing or sort); :meth:`Outbox.flush` combines per destination, charges
the sender's ``StepStats`` and hands the batches to the executor's transport
(in-process inboxes, or the pool's shared memory); :meth:`Inbox.drain` hands
them to ``apply_inbox`` in delivery order, sender-ascending on both.

Reducing per vertex (k-hop by bitwise OR of query bit-masks, SSSP by
elementwise minimum) models the paper's observation that concurrent queries
share vertices — one message per vertex serves all queries in the batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MessageBatch", "PlaneSlice", "Outbox", "Inbox", "reduce_by_key",
    "combine_or", "combine_min", "combine_sum", "no_combine",
]


@dataclass
class MessageBatch:
    """A batch of tasks for one destination partition.

    ``vertices`` are **global** destination vertex ids; ``payload`` is the
    per-vertex message value (``uint64`` query bits for traversals,
    ``float64`` distances for SSSP, etc.).
    """

    vertices: np.ndarray
    payload: np.ndarray

    def __post_init__(self) -> None:
        self.vertices = np.asarray(self.vertices)
        self.payload = np.asarray(self.payload)
        if self.vertices.shape[0] != self.payload.shape[0]:
            raise ValueError("vertices/payload length mismatch")

    @property
    def num_tasks(self) -> int:
        return int(self.vertices.size)

    def nbytes(self) -> int:
        """Wire size: what the network model charges for this batch."""
        return int(self.vertices.nbytes + self.payload.nbytes)


@dataclass
class PlaneSlice:
    """One destination's slice of a sender's slot plane, queued as it lies.

    A traversal task keeps one plane row per boundary vertex it can reach
    (:class:`~repro.graph.partition.ExchangePlan`): ``vertices`` is the
    destination's contiguous slice of that sorted boundary and ``plane`` the
    matching rows — the OR of everything scattered at each vertex this
    superstep, zero where nothing was.  Both are views of the sender's
    arrays; :meth:`compress` copies out what goes on the wire.
    """

    vertices: np.ndarray
    plane: np.ndarray

    @property
    def num_tasks(self) -> int:
        """Slots in the slice, lit or not (what the combine is handed)."""
        return int(self.vertices.size)

    def compress(self) -> MessageBatch:
        """The lit rows, in slot order = ascending vertex id: one task per
        boundary vertex, exactly what sorting and OR-reducing the scattered
        edges would leave."""
        lit = np.flatnonzero(self.plane.any(axis=1))
        return MessageBatch(self.vertices[lit], self.plane[lit])


def reduce_by_key(keys: np.ndarray, values: np.ndarray, ufunc) -> tuple:
    """Reduce ``values`` rows that share a key: ``(unique_keys, reduced)``.

    Keys (non-empty) come back ascending.  A stable sort plus one ``reduceat``
    along axis 0: duplicates fold in emission order, so float sums repeat
    exactly, and ``values`` may be a matrix of per-query columns.
    """
    order = np.argsort(keys, kind="stable")
    k = keys[order]
    group_start = np.concatenate([[True], k[1:] != k[:-1]])
    starts = np.nonzero(group_start)[0]
    return k[starts], ufunc.reduceat(values[order], starts, axis=0)


def combine_or(batch: MessageBatch | PlaneSlice) -> MessageBatch:
    """Deduplicate destinations, OR-ing payload bits (traversal combiner).

    A :class:`PlaneSlice` was OR-ed per destination vertex as it was
    scattered, so combining it is the compress.
    """
    if isinstance(batch, PlaneSlice):
        return batch.compress()
    return _combine(batch, np.bitwise_or)


def combine_min(batch: MessageBatch) -> MessageBatch:
    """Deduplicate destinations, keeping the minimum payload."""
    return _combine(batch, np.minimum)


def combine_sum(batch: MessageBatch) -> MessageBatch:
    """Deduplicate destinations, summing payloads in emission order."""
    return _combine(batch, np.add)


def no_combine(batch: MessageBatch) -> MessageBatch:
    """Identity: for batches reduced where they are built (GAS, SSSP) and
    for user programs that must see every message individually."""
    return batch


def _combine(batch: MessageBatch, op) -> MessageBatch:
    if batch.num_tasks == 0:
        return batch
    return MessageBatch(*reduce_by_key(batch.vertices, batch.payload, op))


class Outbox:
    """A partition's remote task buffer: tasks queued per owning partition."""

    def __init__(self) -> None:
        self._queued: dict[int, list[MessageBatch | PlaneSlice]] = {}

    def append(self, dest: int, batch: MessageBatch | PlaneSlice) -> None:
        """Queue ``batch`` for partition ``dest`` (skip empty batches).

        A :class:`PlaneSlice` is its destination's whole superstep: queue one,
        alone, and flush with :func:`combine_or`.
        """
        if batch.num_tasks:
            self._queued.setdefault(dest, []).append(batch)

    def route(self, owners, vertices: np.ndarray, payload: np.ndarray) -> None:
        """Queue tasks under ``owners``, their owning partitions, one batch each.

        One stable bucketing: emission order survives inside a destination,
        which float ``combine_sum`` and non-reducing combiners depend on.
        """
        if owners.size == 0:
            return
        order = np.argsort(owners, kind="stable")
        owners_sorted = owners[order]
        cuts = np.nonzero(owners_sorted[1:] != owners_sorted[:-1])[0] + 1
        for sel in np.split(order, cuts):
            dest = int(owners[sel[0]])
            self.append(dest, MessageBatch(vertices[sel], payload[sel]))

    def flush(
        self, sender_id: int, stats, combiner
    ) -> list[tuple[int, MessageBatch]]:
        """Empty the buffer into wire-ready ``(dest, batch)`` pairs, ascending.

        ``combiner`` runs once per destination on everything queued for it —
        the distributed extension of MS-BFS sharing: one combined task per
        vertex per superstep, however many queries or parents produced it —
        and ``stats`` (the sender's ``StepStats``) is charged the post-combine
        wire size.  An empty combine is not sent; a self-addressed batch is
        refused, since local tasks never ride the wire.
        """
        queued, self._queued = self._queued, {}
        wire = []
        for dest, batches in sorted(queued.items()):
            if dest == sender_id:
                raise AssertionError("local tasks must not go through the outbox")
            if len(batches) == 1:
                batch = batches[0]
            else:
                batch = MessageBatch(
                    np.concatenate([b.vertices for b in batches]),
                    np.concatenate([b.payload for b in batches]),
                )
            batch = combiner(batch)
            if batch.num_tasks:
                stats.record_send(dest, batch.nbytes(), batch.num_tasks)
                wire.append((dest, batch))
        return wire

    @property
    def is_empty(self) -> bool:
        return not self._queued


class Inbox:
    """A partition's incoming task buffer: delivered batches, in order."""

    def __init__(self) -> None:
        self._delivered: list[MessageBatch] = []

    def append(self, batch: MessageBatch) -> None:
        """Deliver one combined batch."""
        self._delivered.append(batch)

    def drain(self) -> list[MessageBatch]:
        """Remove and return every delivered batch, in delivery order."""
        delivered, self._delivered = self._delivered, []
        return delivered

    @property
    def is_empty(self) -> bool:
        return not self._delivered
