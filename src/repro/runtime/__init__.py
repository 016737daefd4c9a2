"""Distributed runtime substrate: the simulated cluster C-Graph runs on.

The paper's testbed is a 9-node Xeon cluster with Socket/MPI networking.
Offline, this reproduction substitutes an **in-process simulated cluster**
(see DESIGN.md): each partition executes real vectorised compute, messages
flow through explicit inbox/outbox buffers (Figure 4/5), and a calibrated
:class:`~repro.runtime.netmodel.NetworkModel` converts counted work
(edges scanned, messages, bytes, barriers) into *virtual seconds*, which the
scalability experiments report.

Layers:

* :mod:`repro.runtime.message` — typed message batches, the outbox/inbox
  buffers and the one route → combine → charge → deliver path between them.
* :mod:`repro.runtime.comm` — the exchange step (sync barrier / async
  drain): the in-process transport for flushed outboxes.
* :mod:`repro.runtime.netmodel` — the cost model and virtual clock.
* :mod:`repro.runtime.cluster` — machines + partition placement.
* :mod:`repro.runtime.engine` — the superstep execution engine driving
  partition tasks.
* :mod:`repro.runtime.session` — the persistent per-graph session: the
  partitioned graph, cluster and task state built once and reused across
  query batches (build once, serve many).
* :mod:`repro.runtime.shm` / :mod:`repro.runtime.pool` — the parallel
  execution backend (``GraphSession(backend="pool")``): one persistent OS
  process per machine, graph shards and message payloads in shared memory,
  bit-identical to the in-process engine.
* :mod:`repro.runtime.scheduler` — concurrent-query admission: the online
  :class:`~repro.runtime.scheduler.QueryService` admission loop, producing
  per-query response times (plus :func:`simulate_fifo_pool` for service
  times that do not come from a session).
* :mod:`repro.runtime.durability` — whole-process crash recovery: WAL'd
  mutations, self-describing checkpoints;
  :func:`~repro.runtime.durability.recover_session` rebuilds the exact
  pre-crash epoch from the directory.
"""

from repro.runtime.message import Inbox, MessageBatch, Outbox
from repro.runtime.netmodel import NetworkModel, StepStats, VirtualClock
from repro.runtime.cluster import Machine, SimCluster
from repro.runtime.engine import PartitionTask, SuperstepEngine, EngineResult
from repro.runtime.session import GraphSession
from repro.runtime.durability import (
    DurabilityManager,
    RecoveryReport,
    recover_session,
    run_durable_drill,
)
from repro.runtime.pool import PoolError, WorkerPool
from repro.runtime.scheduler import (
    QueryService,
    ServiceReport,
    simulate_fifo_pool,
)

__all__ = [
    "GraphSession",
    "DurabilityManager",
    "RecoveryReport",
    "recover_session",
    "run_durable_drill",
    "WorkerPool",
    "PoolError",
    "QueryService",
    "ServiceReport",
    "MessageBatch",
    "Outbox",
    "Inbox",
    "NetworkModel",
    "StepStats",
    "VirtualClock",
    "Machine",
    "SimCluster",
    "PartitionTask",
    "SuperstepEngine",
    "EngineResult",
    "simulate_fifo_pool",
]
