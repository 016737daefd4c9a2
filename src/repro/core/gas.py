"""The Gather-Apply-Scatter ``Update`` abstraction (§3.4, Listing 3).

Iterative property computations (PageRank, label propagation, …) run on a
vertex-programming interface layered over the partition-centric engine:

* **scatter** — each vertex derives a message value from its current value
  (Listing 3: ``v.val / v.outdegree``);
* **gather**  — messages travelling the out-edges are combined per
  destination with the program's combiner (``sum`` for PageRank, ``min`` for
  connected components);
* **apply**   — each vertex folds the gathered aggregate into its new value
  (``0.15 + 0.85 * sum``).

Because all out-edges of a vertex are partition-local (§3.1), the scatter
phase "does not generate additional traffic": only one aggregate per boundary
vertex crosses the network, reduced where it is built from the partition's
:class:`~repro.graph.partition.ExchangePlan`; the engine counts and charges it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.core import adapters
from repro.runtime.cluster import SimCluster
from repro.runtime.engine import EngineResult, PartitionTask
from repro.runtime.message import MessageBatch, no_combine
from repro.runtime.netmodel import StepStats
from repro.runtime.session import GraphSession

__all__ = ["VertexProgram", "GASPartitionTask", "run_gas", "GASRun"]


class VertexProgram(ABC):
    """A vectorised GAS vertex program.

    ``combiner`` must be a binary numpy ufunc (``np.add``, ``np.minimum``…);
    ``identity`` is its neutral element, used for vertices receiving no
    message.
    """

    combiner: np.ufunc = np.add
    identity: float = 0.0

    @abstractmethod
    def initial_values(self, num_vertices: int) -> np.ndarray:
        """Dense initial vertex values (global indexing)."""

    @abstractmethod
    def scatter(self, values: np.ndarray, part) -> np.ndarray:
        """Per-local-vertex message value derived from current values.

        ``part`` is the :class:`~repro.graph.partition.Partition`, giving
        access to degrees (PageRank divides by out-degree).
        """

    @abstractmethod
    def apply(self, values: np.ndarray, gathered: np.ndarray, part) -> np.ndarray:
        """New local values from old values + gathered aggregates."""

    def has_converged(self, old: np.ndarray, new: np.ndarray) -> bool:
        """Optional early-exit test (checked per partition, AND-ed)."""
        return False


@dataclass
class GASRun:
    """Result of a GAS execution: final values + engine accounting."""

    values: np.ndarray
    iterations: int
    engine_result: EngineResult

    @property
    def virtual_seconds(self) -> float:
        return self.engine_result.virtual_seconds


class GASPartitionTask(PartitionTask):
    """One machine's share of a GAS iteration.

    Each superstep: scatter local values along the out-edges as the
    partition's :class:`~repro.graph.partition.ExchangePlan` lays them out —
    a ``bincount`` over the local share, one segmented reduce per boundary
    vertex over the remote share, queued as one reduced batch per
    destination — then apply.  The task holds no edge arrays of its own.
    """

    def __init__(self, machine, cluster: SimCluster, program: VertexProgram,
                 initial: np.ndarray):
        super().__init__(machine)
        self.cluster = cluster
        self.reset(program, initial)

    def reset(self, program: VertexProgram, initial: np.ndarray) -> None:
        """Re-arm per-run state (values, aggregates) for a new program run."""
        machine = self.machine
        self.program = program
        self.values = np.array(initial[machine.lo : machine.hi], dtype=np.float64)
        self.gathered = np.full(
            machine.num_local, program.identity, dtype=np.float64
        )
        self.converged = False

    def compute(self, stats: StepStats) -> None:
        # ``gathered`` accumulates across the whole superstep (local adds
        # here, remote adds in apply_inbox) and is reset in finalize — the
        # order independence is what makes the async delivery mode safe.
        op = self.program.combiner
        scattered = self.program.scatter(self.values, self.machine.partition)
        plan, cuts = self.exchange_plan()
        stats.edges_scanned += plan.num_edges
        local = plan.local_csr
        if local.nnz:
            per_edge = plan.spread_local(scattered)
            if op is np.add:
                # bincount folds in edge order (a target's edges keep their
                # source order under any layout); a reduceat over the
                # sweep's local runs would sum pairwise and move low bits
                self.gathered = op(self.gathered, np.bincount(
                    local.indices, weights=per_edge, minlength=self.gathered.size
                ))
            else:
                op.at(self.gathered, local.indices, per_edge)
        if not cuts:
            return
        # Remote share: the sweep's slot runs list each boundary vertex's
        # sources in the order a stable sort by target leaves them, so one
        # reduceat yields every destination's combined batch, slot by slot.
        first = local.nnz
        reduced = op.reduceat(
            scattered[plan.sweep_sources[first:]],
            plan.sweep_starts[plan.sweep_rows.size :] - first,
        )
        for dest, lo, hi in cuts:  # the wire carries int64 ids
            ids = plan.boundary[lo:hi].astype(np.int64)
            self.machine.outbox.append(dest, MessageBatch(ids, reduced[lo:hi]))

    def apply_inbox(self, stats: StepStats) -> None:
        op = self.program.combiner
        for batch in self.machine.inbox.drain():
            # a reduced batch names each vertex once: no ``op.at`` needed
            local = batch.vertices - self.machine.lo
            self.gathered[local] = op(self.gathered[local], batch.payload)
            stats.vertices_updated += batch.num_tasks

    def checkpoint(self) -> dict:
        """Per-run value state only.  At a superstep barrier ``gathered`` is
        identity-filled (finalize just reset it), so that common case ships
        as ``None``."""
        idle = bool((self.gathered == self.program.identity).all())
        return {
            "values": self.values.copy(),
            "gathered": None if idle else self.gathered.copy(),
            "converged": self.converged,
        }

    def restore(self, state: dict) -> None:
        self.values = state["values"].copy()
        if state["gathered"] is None:
            self.gathered.fill(self.program.identity)
        else:
            self.gathered = state["gathered"].copy()
        self.converged = state["converged"]

    def finalize(self) -> bool:
        new = self.program.apply(self.values, self.gathered, self.machine.partition)
        self.converged = self.program.has_converged(self.values, new)
        self.values = new
        self.gathered.fill(self.program.identity)
        return not self.converged


def run_gas(
    sess: GraphSession,
    program: VertexProgram,
    iterations: int,
    asynchronous: bool = False,
) -> GASRun:
    """Execute a vertex program for up to ``iterations`` supersteps.

    Stops early if every partition's :meth:`VertexProgram.has_converged`
    returns True.  Returns the assembled global value vector.  The
    session's graph and cluster are reused; program state (values, gathered
    aggregates) is re-armed per run since it belongs to the program
    instance.
    On a ``backend="pool"`` session the iterations run on the worker pool
    (``program`` must be picklable; results are bit-identical, including
    float reduction order); ``asynchronous`` requires the in-process backend.
    """
    sess.require_inproc(asynchronous=asynchronous)
    pg = sess.pg
    result = sess.run_batch(
        GASPartitionTask,
        dict(program=program, initial=program.initial_values(pg.num_vertices)),
        ("gas",),
        combiner=no_combine,
        asynchronous=asynchronous,
        max_supersteps=iterations,
    )
    values = np.empty(pg.num_vertices, dtype=np.float64)
    gathered = sess.gather_batch(adapters.task_attribute, "values")
    for part, vals in zip(pg.partitions, gathered):
        values[part.lo : part.hi] = vals
    return GASRun(values=values, iterations=result.supersteps, engine_result=result)
