"""The partition-centric programming abstraction (§3.4, Listing 1).

C-Graph exposes the Giraph++-style interface so users can write their own
partition programs.  The method names follow the paper's Listing 1 exactly::

    void abstract compute();
    void sendTo(V destination, M msg);
    void voteTohalt();
    bool ifHasVertex(V vid);
    bool isLocalVertex(V vid);
    bool isBoundaryVertex(V vid);
    Collection getLocalVertices();
    Collection getBoundaryVertices();
    Collection getAllVertices();
    void barrier();

A :class:`PartitionProgram` subclass implements ``compute(ctx)``; the
adapter task runs it superstep by superstep on the generic engine.  The
highly-optimised built-in operators (bit-parallel k-hop, GAS PageRank)
bypass this layer for speed — exactly as the paper's hand-optimised C++
kernels do — but the layer is the documented extension point, and the test
suite reimplements Listing 2's k-hop on it to prove equivalence.
"""

from __future__ import annotations

import io
import pickle
from abc import ABC, abstractmethod

import numpy as np

from repro.core import adapters
from repro.runtime.cluster import SimCluster
from repro.runtime.engine import EngineResult, PartitionTask
from repro.runtime.message import no_combine
from repro.runtime.netmodel import StepStats
from repro.runtime.session import GraphSession

__all__ = ["PartitionContext", "PartitionProgram", "run_program"]


class PartitionContext:
    """The object handed to :meth:`PartitionProgram.compute` each superstep.

    Wraps one machine's shard with the Listing 1 API.  Messages are floats
    (the paper's ``M`` for traversal depth and rank values); ``sendTo`` works
    for any destination vertex — local deliveries short-circuit the network,
    remote ones ride the outbox.
    """

    def __init__(self, machine, cluster: SimCluster):
        self._machine = machine
        self._cluster = cluster
        self._inbox_by_vertex: dict[int, list[float]] = {}
        self._pending_local: dict[int, list[float]] = {}
        self._pending_remote: list[tuple[int, float]] = []
        self._halted = False
        self.superstep = 0

    # -- Listing 1 methods ------------------------------------------------ #

    def sendTo(self, destination: int, msg: float) -> None:
        """Queue ``msg`` for ``destination``, delivered next superstep."""
        if self.isLocalVertex(destination):
            self._pending_local.setdefault(int(destination), []).append(float(msg))
        else:
            self._pending_remote.append((int(destination), float(msg)))

    def voteToHalt(self) -> None:
        """Declare this partition idle; it wakes only on incoming messages."""
        self._halted = True

    # (the paper spells it voteTohalt — keep an alias faithful to Listing 1)
    voteTohalt = voteToHalt

    def ifHasVertex(self, vid: int) -> bool:
        """Does the graph contain ``vid`` at all?"""
        return 0 <= int(vid) < self._cluster.num_vertices

    def isLocalVertex(self, vid: int) -> bool:
        return self._machine.lo <= int(vid) < self._machine.hi

    def isBoundaryVertex(self, vid: int) -> bool:
        """Is ``vid`` remote but adjacent to this partition?"""
        if self.isLocalVertex(vid):
            return False
        return int(vid) in self._boundary_set()

    def getLocalVertices(self) -> np.ndarray:
        return np.arange(self._machine.lo, self._machine.hi, dtype=np.int64)

    def getBoundaryVertices(self) -> np.ndarray:
        return self._machine.partition.boundary_vertices().astype(np.int64)

    def getAllVertices(self) -> np.ndarray:
        return np.arange(self._cluster.num_vertices, dtype=np.int64)

    def barrier(self) -> None:
        """A no-op marker: the engine synchronises between supersteps.

        Kept for Listing 1 fidelity — partition programs written against the
        paper's API may call it; the superstep boundary *is* the barrier.
        """

    # -- message access and structure helpers ------------------------------ #

    def messages(self, vid: int) -> list[float]:
        """Messages delivered to local vertex ``vid`` this superstep."""
        return self._inbox_by_vertex.get(int(vid), [])

    def vertices_with_messages(self) -> list[int]:
        """Local vertices that received messages this superstep (sorted)."""
        return sorted(self._inbox_by_vertex)

    def out_neighbors(self, vid: int) -> np.ndarray:
        """Out-neighbours (global ids) of a *local* vertex."""
        if not self.isLocalVertex(vid):
            raise ValueError(f"{vid} is not local to partition {self._machine.machine_id}")
        return self._machine.partition.out_csr.neighbors(int(vid) - self._machine.lo)

    @property
    def partition_id(self) -> int:
        return self._machine.machine_id

    @property
    def num_partitions(self) -> int:
        return self._cluster.num_machines

    # -- internals --------------------------------------------------------- #

    def _boundary_set(self) -> set:
        if not hasattr(self, "_boundary_cache"):
            self._boundary_cache = set(
                self._machine.partition.boundary_vertices().tolist()
            )
        return self._boundary_cache


class PartitionProgram(ABC):
    """User algorithm: one instance per partition, driven superstep-wise."""

    @abstractmethod
    def compute(self, ctx: PartitionContext) -> None:
        """One superstep of work on this partition (Listing 1's compute())."""


class _ProgramTask(PartitionTask):
    """Adapter: runs a PartitionProgram on the generic superstep engine."""

    def __init__(self, machine, cluster: SimCluster, program_factory):
        super().__init__(machine)
        self.cluster = cluster
        self.reset(program_factory)

    def reset(self, program_factory) -> None:
        """A fresh context, and the factory's program built on it."""
        self.ctx = PartitionContext(self.machine, self.cluster)
        self._next_local = {}
        self.program = program_factory(self.ctx)

    def checkpoint(self) -> bytes:
        # at a barrier the program and its next inbox are the whole state; a
        # context the program holds stays a reference to the live one, so a
        # restored program's sendTo reaches the buffers the engine flushes
        buf = io.BytesIO()
        pickler = pickle.Pickler(buf, pickle.HIGHEST_PROTOCOL)
        pickler.persistent_id = lambda obj: "ctx" if obj is self.ctx else None
        pickler.dump((self.program, self.ctx.superstep, self.ctx._inbox_by_vertex))
        return buf.getvalue()

    def restore(self, state: bytes) -> None:
        ctx = self.ctx
        unpickler = pickle.Unpickler(io.BytesIO(state))
        unpickler.persistent_load = lambda pid: ctx
        self.program, ctx.superstep, ctx._inbox_by_vertex = unpickler.load()

    def compute(self, stats: StepStats) -> None:
        ctx = self.ctx
        ctx._halted = False
        self.program.compute(ctx)
        # Local deliveries become next superstep's inbox without the wire.
        self._next_local = ctx._pending_local
        ctx._pending_local = {}
        if ctx._pending_remote:
            dests = np.array([d for d, _ in ctx._pending_remote], dtype=np.int64)
            vals = np.array([v for _, v in ctx._pending_remote])
            self.machine.outbox.route(self.cluster.owner_of(dests), dests, vals)
            ctx._pending_remote = []
        stats.vertices_updated += len(self._next_local)

    def apply_inbox(self, stats: StepStats) -> None:
        incoming: dict[int, list[float]] = dict(self._next_local)
        for batch in self.machine.inbox.drain():
            for v, p in zip(batch.vertices.tolist(), batch.payload.tolist()):
                incoming.setdefault(int(v), []).append(float(p))
            stats.vertices_updated += batch.num_tasks
        self.ctx._inbox_by_vertex = incoming
        self._next_local = {}

    def finalize(self) -> bool:
        self.ctx.superstep += 1
        has_mail = bool(self.ctx._inbox_by_vertex)
        return has_mail or not self.ctx._halted


def run_program(
    sess: GraphSession,
    program_factory,
    max_supersteps: int | None = None,
    combiner=None,
) -> tuple[list[PartitionProgram], EngineResult]:
    """Instantiate one program per partition and run to quiescence.

    ``program_factory(ctx)`` is called once per partition with its context
    (so programs can seed state) and must return a
    :class:`PartitionProgram`.  Programs halt when every partition votes to
    halt with empty inboxes.  Returns the program instances (holding user
    state) and the engine result.  On a ``backend="pool"`` session the
    programs run in the workers: the factory (a module-level function or a
    ``functools.partial`` of one — a lambda is refused), the combiner and
    the program state must pickle, and the returned programs are copies.
    """
    result = sess.run_batch(
        _ProgramTask,
        dict(program_factory=program_factory),
        ("program",),
        combiner=combiner or no_combine,
        max_supersteps=max_supersteps,
    )
    return sess.gather_batch(adapters.task_attribute, "program"), result
