"""The exchange step: the in-process transport from outboxes to inboxes.

Combining and charging are :meth:`~repro.runtime.message.Outbox.flush`'s;
this module carries what a flush returns to the destinations' inboxes.
Asynchronous mode delivers one machine's outbox immediately (used by the
engine's asynchronous step, §3.3: "the vertex value will be asynchronously
updated").  Synchronous mode is a full barrier exchange (Figure 5: "the
visited vertices are synchronized after each iteration"): that delivery for
every machine in machine order, which makes every inbox sender-ascending.
"""

from __future__ import annotations

from typing import Callable

from repro.runtime.cluster import SimCluster
from repro.runtime.message import MessageBatch, combine_or
from repro.runtime.netmodel import StepStats

__all__ = ["exchange_sync", "deliver_async"]

Combiner = Callable[[MessageBatch], MessageBatch]


def exchange_sync(
    cluster: SimCluster,
    stats: list[StepStats],
    combiner: Combiner = combine_or,
) -> int:
    """Barrier exchange: combine + deliver every machine's outbox.

    Returns the number of delivered (post-combine) tasks.
    """
    return sum(
        deliver_async(cluster, sender.machine_id, stats, combiner)
        for sender in cluster.machines
    )


def deliver_async(
    cluster: SimCluster,
    sender_id: int,
    stats: list[StepStats],
    combiner: Combiner = combine_or,
) -> int:
    """Immediately deliver one machine's outbox (asynchronous update model)."""
    delivered = 0
    outbox = cluster.machines[sender_id].outbox
    for dest, batch in outbox.flush(sender_id, stats[sender_id], combiner):
        cluster.machines[dest].inbox.append(batch)
        delivered += batch.num_tasks
    return delivered
