"""The vertex-centric (Pregel) programming model (§3.3).

"Our framework supports both the vertex-centric and partition-centric
models."  This module is the vertex-centric half: users write a per-vertex
``compute(vertex, messages, ctx)`` in classic Pregel style; the adapter runs
it over the same partitioned graph, message buffers and cost model as the
partition-centric engine.

The paper prefers the partition-centric model for traversals because it
"generally requires fewer supersteps to converge" — a partition program
propagates through local vertices *within* one superstep, a vertex program
advances one hop per superstep.  ``tests/core/test_vertex_api.py`` verifies
that claim directly by running the same k-hop on both models.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.core import adapters
from repro.runtime.cluster import SimCluster
from repro.runtime.engine import EngineResult, PartitionTask
from repro.runtime.message import no_combine
from repro.runtime.netmodel import StepStats
from repro.runtime.session import GraphSession

__all__ = ["VertexContext", "VertexCentricProgram", "run_vertex_centric"]


class VertexContext:
    """Per-superstep facilities handed to ``compute`` for one vertex."""

    __slots__ = ("_task", "vertex", "superstep", "_halted")

    def __init__(self, task, vertex: int, superstep: int):
        self._task = task
        self.vertex = vertex
        self.superstep = superstep
        self._halted = False

    def send_message_to(self, destination: int, value: float) -> None:
        """Queue a message for ``destination``, delivered next superstep."""
        self._task._emit(int(destination), float(value))

    def send_message_to_all_neighbors(self, value: float) -> None:
        """Convenience: message every out-neighbour."""
        for t in self.out_neighbors():
            self._task._emit(int(t), float(value))

    def out_neighbors(self) -> np.ndarray:
        """Out-neighbour global ids of this vertex."""
        machine = self._task.machine
        return machine.partition.out_csr.neighbors(self.vertex - machine.lo)

    def out_degree(self) -> int:
        machine = self._task.machine
        return machine.partition.out_csr.degree(self.vertex - machine.lo)

    def num_vertices(self) -> int:
        return self._task.cluster.num_vertices

    def get_value(self) -> float:
        machine = self._task.machine
        return float(self._task.values[self.vertex - machine.lo])

    def set_value(self, value: float) -> None:
        machine = self._task.machine
        self._task.values[self.vertex - machine.lo] = float(value)

    def vote_to_halt(self) -> None:
        """Deactivate this vertex; incoming messages reactivate it."""
        self._halted = True


class VertexCentricProgram(ABC):
    """A classic Pregel vertex program."""

    @abstractmethod
    def initial_value(self, vertex: int, num_vertices: int) -> float:
        """Starting value for ``vertex``."""

    @abstractmethod
    def compute(self, ctx: VertexContext, messages: list[float]) -> None:
        """One superstep of one active vertex."""

    def is_initially_active(self, vertex: int) -> bool:
        """Whether ``vertex`` starts active (default: all do, as in Pregel)."""
        return True


class _VertexTask(PartitionTask):
    """Runs a vertex program over one partition's local vertices."""

    # at a barrier the pending buffers are empty
    checkpointed = ("values", "active", "superstep", "_incoming")

    def __init__(self, machine, cluster: SimCluster, program: VertexCentricProgram):
        super().__init__(machine)
        self.cluster = cluster
        self.reset(program)

    def reset(self, program: VertexCentricProgram) -> None:
        """Re-arm per-run state from ``program``'s initial values."""
        self.program = program
        vertices = range(self.machine.lo, self.machine.hi)
        n = self.cluster.num_vertices
        self.values = np.array(
            [program.initial_value(v, n) for v in vertices], dtype=np.float64
        )
        self.active = np.array(
            [program.is_initially_active(v) for v in vertices], dtype=bool
        )
        self.superstep = 0
        self._incoming: dict[int, list[float]] = {}
        self._pending_local: dict[int, list[float]] = {}
        self._pending_remote: list[tuple[int, float]] = []

    # called by VertexContext
    def _emit(self, destination: int, value: float) -> None:
        if self.machine.lo <= destination < self.machine.hi:
            self._pending_local.setdefault(destination, []).append(value)
        else:
            self._pending_remote.append((destination, value))

    def compute(self, stats: StepStats) -> None:
        incoming, self._incoming = self._incoming, {}
        to_run = set(np.nonzero(self.active)[0] + self.machine.lo)
        to_run.update(incoming)
        self.active[:] = False
        for v in sorted(to_run):
            ctx = VertexContext(self, v, self.superstep)
            self.program.compute(ctx, incoming.get(v, []))
            if not ctx._halted:
                self.active[v - self.machine.lo] = True
            stats.vertices_updated += 1
        if self._pending_remote:
            dests = np.array([d for d, _ in self._pending_remote], dtype=np.int64)
            vals = np.array([x for _, x in self._pending_remote])
            self.machine.outbox.route(self.cluster.owner_of(dests), dests, vals)
            self._pending_remote = []

    def apply_inbox(self, stats: StepStats) -> None:
        incoming, self._pending_local = self._pending_local, {}
        for batch in self.machine.inbox.drain():
            for v, p in zip(batch.vertices.tolist(), batch.payload.tolist()):
                incoming.setdefault(int(v), []).append(float(p))
            stats.vertices_updated += batch.num_tasks
        self._incoming = incoming

    def finalize(self) -> bool:
        self.superstep += 1
        return bool(self.active.any() or self._incoming)


def run_vertex_centric(
    sess: GraphSession,
    program: VertexCentricProgram,
    max_supersteps: int | None = None,
) -> tuple[np.ndarray, EngineResult]:
    """Run a Pregel-style vertex program to quiescence.

    Returns ``(values, engine_result)`` where ``values`` is the assembled
    global per-vertex value vector.  On a ``backend="pool"`` session the
    program runs in the workers and must pickle (a module-level class).
    """
    pg = sess.pg
    result = sess.run_batch(
        _VertexTask,
        dict(program=program),
        ("vertex",),
        combiner=no_combine,
        max_supersteps=max_supersteps,
    )
    values = np.empty(pg.num_vertices, dtype=np.float64)
    gathered = sess.gather_batch(adapters.task_attribute, "values")
    for part, vals in zip(pg.partitions, gathered):
        values[part.lo : part.hi] = vals
    return values, result
