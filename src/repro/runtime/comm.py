"""The exchange step: routing outboxes to inboxes with combining.

Synchronous mode is a full barrier exchange (Figure 5: "the visited vertices
are synchronized after each iteration"): every machine's outbox is combined
per destination, charged to the sender's :class:`StepStats`, and delivered.

Asynchronous mode delivers one machine's outbox immediately (used by the
engine's asynchronous step, §3.3: "the vertex value will be asynchronously
updated").
"""

from __future__ import annotations

from typing import Callable

from repro.runtime.cluster import SimCluster
from repro.runtime.message import MessageBatch, TaskBuffer, combine_or
from repro.runtime.netmodel import StepStats

__all__ = ["exchange_sync", "deliver_async"]

Combiner = Callable[[MessageBatch], MessageBatch]


def exchange_sync(
    cluster: SimCluster,
    stats: list[StepStats],
    combiner: Combiner = combine_or,
) -> int:
    """Barrier exchange: combine + deliver every machine's outbox.

    Per-destination batches are merged *before* the wire (the distributed
    extension of MS-BFS sharing: one combined task per vertex per superstep,
    no matter how many queries or frontier parents produced it).  Sender-side
    stats record the post-combine wire size.  Returns the number of delivered
    tasks.
    """
    delivered = 0
    for sender in cluster.machines:
        for dest_id in sender.outbox.partitions():
            merged = sender.outbox.merged(dest_id, combiner=combiner)
            if merged is None or merged.num_tasks == 0:
                continue
            if dest_id == sender.machine_id:
                raise AssertionError("local tasks must not go through the outbox")
            stats[sender.machine_id].record_send(
                dest_id, merged.nbytes(), merged.num_tasks
            )
            cluster.machines[dest_id].inbox.append(sender.machine_id, merged)
            delivered += merged.num_tasks
        sender.outbox = TaskBuffer()
    return delivered


def deliver_async(
    cluster: SimCluster,
    sender_id: int,
    stats: list[StepStats],
    combiner: Combiner = combine_or,
) -> int:
    """Immediately deliver one machine's outbox (asynchronous update model)."""
    sender = cluster.machines[sender_id]
    delivered = 0
    for dest_id in sender.outbox.partitions():
        merged = sender.outbox.merged(dest_id, combiner=combiner)
        if merged is None or merged.num_tasks == 0:
            continue
        stats[sender_id].record_send(dest_id, merged.nbytes(), merged.num_tasks)
        cluster.machines[dest_id].inbox.append(sender_id, merged)
        delivered += merged.num_tasks
    sender.outbox = TaskBuffer()
    return delivered
