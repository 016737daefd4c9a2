"""Probes, gathers and controls: the functions a batch runs next to its tasks.

A batch handed to :meth:`~repro.runtime.session.GraphSession.run_batch` is
described once and executed on either executor — in this process or inside
spawned pool workers (:mod:`repro.runtime.pool`).  Everything the
description names therefore crosses a process boundary by *qualified name*:
the task class itself (built as ``cls(machine, cluster, **kwargs)``,
re-armed as ``task.reset(**kwargs)``), its kwargs — user programs and
program factories included — and the module-level functions here, the only
copy, used by both executors:

* :func:`traversal_probe` runs after every ``finalize`` and returns the
  partition's alive and target-visited query bits, which the traversal
  batch's ``on_step`` folds;
* gathers collect per-partition results after the run — visit counts,
  depths, GAS and vertex-program values, SSSP distances, partition programs
  (unpickled copies on the pool) and the out-of-core block-cache counters;
* :func:`mask_frontier` is reachability's early-termination control, applied
  to every task between supersteps.

Query bits travel as Python ints (bit ``q`` ⇔ query ``q``, any batch width
up to :data:`~repro.core.frontier.MAX_WIDE_BATCH`).  Combiners are
:mod:`repro.runtime.message`'s (``combine_or`` for traversals; GAS reduces
through the exchange plan and flushes with ``no_combine``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # the task modules import this one
    from repro.core.khop import KHopPartitionTask

__all__ = [
    "traversal_probe",
    "khop_visited_counts",
    "task_attribute",
    "mask_frontier",
    "ooc_release_store",
]

#: Bytes per plane word of a combined-batch payload entry (outbox sizing).
WORD_PAYLOAD_WIDTH = 8


# -- traversal batches (k-hop and reachability) ----------------------------- #


def traversal_probe(
    task: KHopPartitionTask,
    queries: np.ndarray | None = None,
    local_targets: np.ndarray | None = None,
) -> tuple[int, int]:
    """Probe: (alive bits, visited bits of the targets this partition owns).

    ``queries[i]``'s target is local vertex ``local_targets[i]``; without
    targets the hit bits are 0.  ``visited`` is monotone, so hit bits are
    cumulative over the batch.
    """
    alive = task.state.alive_bits()
    if queries is None or queries.size == 0:
        return alive, 0
    words = task.state.visited[local_targets, queries >> 6]
    lit = (words >> (queries & 63).astype(np.uint64)) & np.uint64(1)
    hits = 0
    for q in queries[lit.astype(bool)].tolist():
        hits |= 1 << q
    return alive, hits


def khop_visited_counts(task: KHopPartitionTask) -> np.ndarray:
    return task.state.visited_counts()


def task_attribute(task, name: str):
    """One attribute of a task: depths, values, distances, the program."""
    return getattr(task, name)


def ooc_release_store(task) -> tuple[int, int]:
    """(hits, loads) of an out-of-core task's block cache, dropping the
    store: its spill directory does not outlive the call."""
    store, task.store = task.store, None
    return store.hits, store.loads


def mask_frontier(task: KHopPartitionTask, keep: int) -> None:
    """Control: clear every query bit not in ``keep`` from this partition's
    frontier, on every plane word."""
    width = 8 * task.state.words
    task.state.frontier &= np.frombuffer(keep.to_bytes(width, "little"), "<u8")

