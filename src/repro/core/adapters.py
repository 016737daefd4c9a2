"""Probes, gathers and controls: the functions a batch runs next to its tasks.

A batch handed to :meth:`~repro.runtime.session.GraphSession.run_batch` is
described once and executed on either executor — in this process or inside
spawned pool workers (:mod:`repro.runtime.pool`).  Everything the
description names therefore crosses a process boundary by *qualified name*:
the task class itself (``KHopPartitionTask``, ``GASPartitionTask`` — built
as ``cls(machine, cluster, **kwargs)``, re-armed as ``task.reset(**kwargs)``)
and the module-level functions here, the only copy, used by both executors:

* probes run after every ``finalize`` and return the small per-partition
  summaries the entry points' ``on_step`` callbacks fold (alive bits,
  target-visited bits);
* gathers (``*_visited_counts``, ``khop_depths``, ``gas_values``) collect
  per-partition results after the run;
* ``mask_frontier`` is reachability's early-termination control, applied to
  every task between supersteps.

Combiners are :mod:`repro.runtime.message`'s (``combine_or`` for traversals;
GAS reduces through the exchange plan and flushes with ``no_combine``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # the task modules import this one
    from repro.core.gas import GASPartitionTask
    from repro.core.khop import KHopPartitionTask

__all__ = [
    "khop_alive",
    "khop_visited_counts",
    "khop_depths",
    "reach_probe",
    "mask_frontier",
    "gas_values",
]

#: Bytes per plane word of a combined-batch payload entry (outbox sizing).
WORD_PAYLOAD_WIDTH = 8


# -- k-hop (any batch width up to one cache line) --------------------------- #


def khop_alive(task: KHopPartitionTask) -> int:
    """Probe: this partition's still-alive query bits after finalize."""
    return int(task.state.alive_bits())


def khop_visited_counts(task: KHopPartitionTask) -> np.ndarray:
    return task.state.visited_counts()


def khop_depths(task: KHopPartitionTask) -> np.ndarray | None:
    return task.depths


# -- pairwise reachability -------------------------------------------------- #


def reach_probe(
    task: KHopPartitionTask, target_locals: list
) -> tuple[int, list]:
    """Probe: (alive bits, [(query, visited-bit)] for local targets)."""
    alive = task.state.alive_bits()
    # reachability batches are word-wide, so each query lives in word 0
    hits = [
        (q, int(task.state.visited[local, 0]) >> q & 1)
        for q, local in target_locals
    ]
    return alive, hits


def mask_frontier(task: KHopPartitionTask, keep: int) -> None:
    """Control: clear resolved queries' bits from this partition's frontier.

    ``keep`` broadcasts across plane words — exact for the word-wide
    batches reachability runs.
    """
    task.state.frontier &= np.uint64(keep)


# -- GAS / PageRank --------------------------------------------------------- #


def gas_values(task: GASPartitionTask) -> np.ndarray:
    return task.values
