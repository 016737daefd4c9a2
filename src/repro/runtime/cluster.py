"""Simulated cluster: machines, partition placement, shared global state.

One :class:`Machine` hosts one subgraph shard (Figure 2: "each node consists
of a processing unit with a cached subgraph shard") plus its ``Outbox`` and
``Inbox`` (:mod:`repro.runtime.message`).  The cluster wires machines to the
partitions of a :class:`~repro.graph.partition.PartitionedGraph` and owns the
:class:`~repro.runtime.netmodel.NetworkModel` used to convert counted work
into virtual time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.partition import Partition, PartitionedGraph
from repro.runtime.message import Inbox, Outbox
from repro.runtime.netmodel import NetworkModel

__all__ = ["Machine", "SimCluster"]


@dataclass
class Machine:
    """A processing unit plus its cached subgraph shard and task buffers."""

    machine_id: int
    partition: Partition
    inbox: Inbox = field(default_factory=Inbox)
    outbox: Outbox = field(default_factory=Outbox)

    @property
    def lo(self) -> int:
        return self.partition.lo

    @property
    def hi(self) -> int:
        return self.partition.hi

    @property
    def num_local(self) -> int:
        return self.partition.num_local

    def reset_buffers(self) -> None:
        """Drop queued messages (shared by the cluster and pool workers)."""
        self.inbox = Inbox()
        self.outbox = Outbox()


class SimCluster:
    """The set of machines executing one partitioned graph.

    Parameters
    ----------
    pg:
        The partitioned graph; machine ``i`` hosts partition ``i``.
    netmodel:
        Cost model for virtual time (a default-calibrated model if omitted).
    instrumentation:
        Telemetry facade shared by everything running on this cluster (the
        engine reads it per superstep); the no-op null by default.
    fault_plan:
        A :class:`~repro.runtime.fault.FaultPlan` of simulated machine
        faults; while one is armed the engine checkpoints at barriers and
        injected crashes are recovered by replay.  None (default) =
        fault-free, and nothing is ever snapshotted.
    fault_tolerance:
        :class:`~repro.runtime.fault.FaultTolerance` knobs for recovery
        (checkpoint interval, recovery budget); defaults if omitted.
    """

    def __init__(
        self,
        pg: PartitionedGraph,
        netmodel: NetworkModel | None = None,
        instrumentation=None,
        fault_plan=None,
        fault_tolerance=None,
    ):
        from repro.telemetry.instrument import NULL_INSTRUMENTATION

        self.pg = pg
        self.netmodel = netmodel or NetworkModel()
        self.instr = instrumentation or NULL_INSTRUMENTATION
        self.machines = [Machine(p.part_id, p) for p in pg.partitions]
        self.fault_tolerance = fault_tolerance
        self.fault_injector = None
        self.set_fault_plan(fault_plan)

    def set_fault_plan(self, plan) -> None:
        """Arm (or with None, disarm) a fault schedule for later runs."""
        from repro.runtime.fault import FaultInjector

        self.fault_plan = plan
        self.fault_injector = (
            FaultInjector(plan.events) if plan is not None else None
        )

    @property
    def num_machines(self) -> int:
        return len(self.machines)

    @property
    def num_vertices(self) -> int:
        return self.pg.num_vertices

    def owner_of(self, vertices) -> np.ndarray:
        """Vectorised global-vertex -> machine-id lookup."""
        return self.pg.owner_of(vertices)

    def machine_of(self, vertex: int) -> Machine:
        return self.machines[int(self.owner_of(vertex))]

    def reset_buffers(self) -> None:
        """Drop any queued messages (used between independent runs)."""
        for m in self.machines:
            m.reset_buffers()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimCluster(machines={self.num_machines}, graph={self.pg!r})"
