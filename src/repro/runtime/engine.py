"""The superstep protocol (§3.3): one driver, two executors.

Algorithms plug in one :class:`PartitionTask` per machine.  Each superstep:

1. every task *computes* on its local shard, emitting remote tasks into its
   machine's outbox;
2. the exchange step routes combined batches to destination inboxes
   (synchronous barrier, or immediate delivery in asynchronous mode);
3. every task *applies* its inbox;
4. every task *finalizes* (rotates frontiers) and votes whether it is still
   active — the distributed analog of ``voteToHalt``.

:func:`run_supersteps` is the only loop over supersteps in the runtime.  It
owns everything a run accounts for — the virtual clock advanced from the
counted :class:`~repro.runtime.netmodel.StepStats`, the per-step history,
the step and deadline caps, telemetry, the recovery budget, the rewind to
the last checkpoint and the :class:`EngineResult` — so every run yields both
the answer and its virtual-time cost, identically on either backend.

An *executor* supplies only how one step runs, how task state is saved and
restored, and how a function reaches every task (``step``, ``checkpoint``,
``recover``, ``gather`` — see :class:`SuperstepEngine`).  There are two:
:class:`SuperstepEngine` (every machine serially in this process, or, for a
task class whose :meth:`PartitionTask.fused` gives one, every machine's
synchronous step at once) and :class:`~repro.runtime.pool.WorkerPool` (one
OS process per machine).  Both
honour the same batch contract: an optional per-step ``probe(task, *args)``
evaluated next to the task after every finalize, whose per-machine results
are the fourth argument of ``on_step(step, stats, now, probes)``; an
``on_step`` that returns a ``(fn, args)`` control has ``fn(task, *args)``
applied to every task before the next superstep.
"""

from __future__ import annotations

import copy
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import CheckpointError, UnsupportedConfigError, WorkerLost
from repro.runtime.cluster import SimCluster
from repro.runtime.comm import deliver_async, exchange_sync
from repro.runtime.fault import CRASH, DELAY, FaultTolerance
from repro.runtime.message import combine_or
from repro.runtime.netmodel import StepStats, VirtualClock

__all__ = [
    "PartitionTask",
    "SuperstepEngine",
    "EngineResult",
    "Checkpoint",
    "WorkerFailure",
    "emit_superstep",
    "run_supersteps",
]


def emit_superstep(
    instr,
    netmodel,
    step: int,
    stats,
    clock,
    vbase: float,
    wall_start: float,
    wall_end: float,
    wall_compute=None,
) -> None:
    """Record one superstep on the telemetry facade.

    The pool executor reports per-worker wall-clock compute times
    (``wall_compute``), which the facade attaches to the per-machine
    compute spans alongside the virtual cost; in-process it is None.
    """
    now = clock.now
    instr.on_superstep(
        step,
        stats,
        netmodel,
        vbase + now - clock.per_step[-1],
        vbase + now,
        wall_start,
        wall_end,
        wall_compute=wall_compute,
    )


class PartitionTask(ABC):
    """One machine's share of a distributed algorithm.

    Subclasses hold per-partition state (frontiers, values) and read remote
    tasks from ``self.machine.inbox.drain()``; local updates touch no buffer.
    Built-ins queue one reduced batch per destination through
    :meth:`exchange_plan`; user programs, whose targets no plan knows, send
    with ``self.machine.outbox.route(owners, vertices, payload)``.
    """

    def __init__(self, machine):
        self.machine = machine

    @classmethod
    def fused(cls, tasks: list, probe, probe_args: list):
        """What runs every task's synchronous superstep at once (``step()``
        → votes, stats, probes), or None: the engine loops over machines."""
        return None

    def exchange_plan(self):
        """``(plan, cuts)``: the partition's
        :class:`~repro.graph.partition.ExchangePlan` and each destination's
        ``(dest, lo, hi)`` slice of its slot space — owners looked up (through
        ``self.cluster``) once per plan and kept with it, so only a plan a
        batch splices derives them again."""
        plan = self.machine.partition.exchange_plan()
        if plan.slot_cuts is None:
            plan.slot_cuts = plan.cuts(self.cluster.owner_of(plan.boundary))
        return plan, plan.slot_cuts

    @abstractmethod
    def compute(self, stats: StepStats) -> None:
        """Expand/update local state; emit remote tasks into the outbox."""

    @abstractmethod
    def apply_inbox(self, stats: StepStats) -> None:
        """Merge delivered inbox batches into local state."""

    @abstractmethod
    def finalize(self) -> bool:
        """Rotate per-superstep state; return True while work remains."""

    # -- fault tolerance ------------------------------------------------- #
    #
    # Checkpoint/replay needs these two as exact inverses at a superstep
    # barrier: ``restore(checkpoint())`` must leave the task bit-identical,
    # so a recovered run replays into the same answer as a fault-free one.
    # State must be picklable (the pool pickles it into shared memory) and
    # a deep copy.  By default it is the attributes ``checkpointed`` names.

    checkpointed: tuple[str, ...] = ()

    def checkpoint(self):
        """Snapshot this task's per-run state at a superstep barrier."""
        if not self.checkpointed:
            raise CheckpointError(
                f"{type(self).__name__} does not support checkpoint/replay"
            )
        return copy.deepcopy({a: getattr(self, a) for a in self.checkpointed})

    def restore(self, state) -> None:
        """Adopt a state previously returned by :meth:`checkpoint`."""
        for name, value in copy.deepcopy(state).items():
            setattr(self, name, value)


@dataclass
class EngineResult:
    """Outcome of one engine run.

    ``truncated`` is True when the run stopped at a virtual-time deadline
    (``max_virtual_seconds``) while tasks still voted to continue — the
    engine-level signal behind per-query ``deadline_missed`` accounting.
    """

    supersteps: int
    virtual_seconds: float
    per_step_seconds: list[float]
    per_step_stats: list[list[StepStats]] = field(repr=False)
    truncated: bool = False

    def total_stats(self) -> StepStats:
        """All machines' counts folded together across supersteps."""
        total = StepStats()
        for step in self.per_step_stats:
            for s in step:
                total.merge(s)
        return total

    def step_table(self, netmodel=None) -> list[dict]:
        """Per-superstep breakdown rows (observability / debugging aid).

        With a :class:`~repro.runtime.netmodel.NetworkModel`, each row also
        carries the modelled compute/communication split — the quantities
        behind every scalability figure.
        """
        rows = []
        for i, (seconds, stats) in enumerate(
            zip(self.per_step_seconds, self.per_step_stats)
        ):
            row = {
                "superstep": i,
                "seconds": seconds,
                "edges_scanned": sum(s.edges_scanned for s in stats),
                "vertices_updated": sum(s.vertices_updated for s in stats),
                "messages": sum(s.total_messages for s in stats),
                "bytes": sum(s.total_bytes for s in stats),
                "push_partitions": sum(s.push_partitions for s in stats),
                "pull_partitions": sum(s.pull_partitions for s in stats),
            }
            if netmodel is not None:
                row["max_compute_s"] = max(
                    (netmodel.compute_seconds(s) for s in stats), default=0.0
                )
                row["max_comm_s"] = max(
                    (netmodel.comm_seconds(s) for s in stats), default=0.0
                )
            rows.append(row)
        return rows


@dataclass(frozen=True)
class WorkerFailure:
    """One detected worker failure, classified for the recovery path."""

    worker_id: int
    kind: str  # "crash" | "hang" | "drop_outbox" | "corrupt_inbox"
    detail: str = ""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        suffix = f": {self.detail}" if self.detail else ""
        return f"worker {self.worker_id} {self.kind}{suffix}"


@dataclass
class Checkpoint:
    """The superstep driver's snapshot of one run at a barrier.

    ``task_states`` holds every machine's ``PartitionTask.checkpoint()``
    blob in machine order (from the executor); ``per_step_seconds`` /
    ``history`` are the virtual clock and stats prefixes up to ``step``, so
    recovery rewinds the *driver's* accounting to exactly the barrier the
    tasks restore to.  Recovered runs therefore replay into bit-identical
    answers *and* virtual clocks.
    """

    step: int
    task_states: list
    per_step_seconds: list[float] = field(default_factory=list)
    history: list = field(default_factory=list, repr=False)


class _StepFailures(Exception):
    """Internal: one superstep's collected machine failures (recoverable)."""

    def __init__(self, failures: list[WorkerFailure]):
        super().__init__(f"{len(failures)} worker failure(s)")
        self.failures = failures


def run_supersteps(
    executor,
    max_supersteps: int | None = None,
    on_step=None,
    max_virtual_seconds: float | None = None,
) -> EngineResult:
    """Drive ``executor`` until every task votes to halt (or a cap).

    ``max_virtual_seconds`` is a per-batch deadline on the virtual clock:
    the run stops at the first barrier at or past it and the result is
    marked ``truncated`` — on modelled time, so both executors truncate at
    the identical superstep.

    A step that raises :class:`_StepFailures` costs one recovery per
    failure: every task is rolled back to the last checkpoint, the clock
    and history are rewound to that barrier, and the run re-executes from
    there.  Replay is deterministic — ``on_step`` sees identical arguments
    (and returns identical controls) the second time — so recovered runs
    return bit-identical results.  Past ``fault_tolerance.max_recoveries``
    the run raises :class:`~repro.errors.WorkerLost`.
    """
    ft = executor.fault_tolerance
    netmodel = executor.netmodel
    # telemetry: one flag check per superstep when disabled (the null
    # facade), spans + counters per superstep when enabled
    instr = executor.instr
    tracing = instr.enabled
    vbase = instr.tracer.virtual_now if tracing else 0.0
    clock = VirtualClock()
    history: list[list[StepStats]] = []
    step = 0
    active = True
    recoveries = 0
    # Telemetry high-water mark: replayed supersteps must not re-emit
    # spans/metrics, or recovered runs would double-count.
    emitted = 0

    def snapshot() -> Checkpoint | None:
        states = executor.checkpoint()
        if states is None:
            return None
        return Checkpoint(step, states, list(clock.per_step), list(history))

    ckpt = snapshot()
    while active and (max_supersteps is None or step < max_supersteps) and (
        max_virtual_seconds is None or clock.now < max_virtual_seconds
    ):
        wall0 = time.perf_counter() if tracing else 0.0
        try:
            votes, stats, probes, walls = executor.step(step)
        except _StepFailures as exc:
            recoveries += len(exc.failures)
            for f in exc.failures:
                instr.on_fault(f.kind)
            if recoveries > ft.max_recoveries:
                raise WorkerLost(
                    f"recovery budget exhausted ({recoveries} > "
                    f"{ft.max_recoveries}) at superstep {step}: "
                    + "; ".join(str(f) for f in exc.failures)
                )
            executor.recover(exc.failures, step, ckpt)
            step = ckpt.step
            clock = VirtualClock()
            for seconds in ckpt.per_step_seconds:
                clock.advance(seconds)
            history = list(ckpt.history)
            active = True
            instr.on_recovery()
            continue
        active = any(votes)
        now = clock.advance(netmodel.superstep_seconds(stats))
        if tracing and step >= emitted:
            emit_superstep(
                instr, netmodel, step, stats, clock, vbase,
                wall0, time.perf_counter(), wall_compute=walls,
            )
            emitted = step + 1
        history.append(stats)
        step += 1
        if on_step is not None:
            control = on_step(step - 1, stats, now, probes)
            if control is not None:
                fn, args = control
                executor.gather(fn, *args)
        if ckpt is not None and active and step % ft.checkpoint_interval == 0:
            ckpt = snapshot()
            instr.on_checkpoint()
    if tracing:
        instr.tracer.virtual_now = vbase + clock.now
    return EngineResult(
        supersteps=step,
        virtual_seconds=clock.now,
        per_step_seconds=list(clock.per_step),
        per_step_stats=history,
        truncated=bool(
            active
            and max_virtual_seconds is not None
            and clock.now >= max_virtual_seconds
        ),
    )


class SuperstepEngine:
    """The in-process executor: a set of partition tasks on a cluster.

    Parameters
    ----------
    cluster:
        The simulated cluster (machines must align with ``tasks``).  When
        it has a :class:`~repro.runtime.fault.FaultPlan` armed, the engine
        checkpoints at barriers and injected crashes are recovered by
        replay; otherwise no state is ever snapshotted.
    tasks:
        One task per machine, same order as ``cluster.machines``.
    combiner:
        Message combiner applied per destination before the wire.
    asynchronous:
        When True, each machine's outbox is delivered immediately after its
        compute and inboxes are drained within the same round (§3.3 async
        update model); the cost model then overlaps compute/communication.
    probe, probe_args:
        ``probe(task, *probe_args[i])`` is evaluated on every task after
        each finalize (``probe_args`` is one tuple per machine, or None);
        the results reach ``on_step`` in machine order.
    """

    def __init__(
        self,
        cluster: SimCluster,
        tasks: list[PartitionTask],
        combiner=combine_or,
        asynchronous: bool = False,
        probe=None,
        probe_args=None,
    ):
        if len(tasks) != cluster.num_machines:
            raise ValueError("one task per machine required")
        injector = cluster.fault_injector
        self._injector = injector if injector and injector.events else None
        if asynchronous and self._injector is not None:
            raise UnsupportedConfigError(
                "fault injection requires the synchronous engine: a crash is "
                "recovered by replay from a superstep barrier"
            )
        self.cluster = cluster
        self.tasks = tasks
        self.combiner = combiner
        self.asynchronous = asynchronous
        self.probe = probe
        self.probe_args = probe_args or [()] * len(tasks)
        self._fused = None if asynchronous else type(tasks[0]).fused(
            tasks, probe, self.probe_args
        )
        self.instr = cluster.instr
        self.fault_tolerance = cluster.fault_tolerance or FaultTolerance()
        netmodel = cluster.netmodel
        if asynchronous and not netmodel.async_overlap:
            netmodel = netmodel.with_async()
        self.netmodel = netmodel

    def run(
        self,
        max_supersteps: int | None = None,
        on_step: Callable[[int, list[StepStats], float, list | None], tuple | None]
        | None = None,
        max_virtual_seconds: float | None = None,
    ) -> EngineResult:
        """Execute supersteps until every task votes to halt (or the cap).

        ``on_step(step_index, per_machine_stats, virtual_now, probes)`` is
        invoked after each superstep; algorithms use it to snapshot
        per-level state (e.g. per-query completion times) from the probe
        results, and may return a ``(fn, args)`` control for every task
        (reachability's early termination).  Caps, deadlines and recovery
        are :func:`run_supersteps`'s.
        """
        result = run_supersteps(self, max_supersteps, on_step, max_virtual_seconds)
        self._fused = None  # the session keeps this engine: let go of the batch's plans
        return result

    # -- the executor protocol ------------------------------------------- #

    def step(self, step: int):
        """One compute → exchange → apply → vote round on every machine.

        With a fault plan armed, crash events scheduled for ``step`` wipe
        the round (reported as failures for the driver to recover) and
        delay events cost wall time only; drop/corrupt events are wire
        faults and have no in-process analogue.
        """
        tasks = self.tasks
        injector = self._injector
        if injector is not None:
            crashed = [
                WorkerFailure(i, CRASH, "injected crash")
                for i in range(len(tasks))
                if injector.take(CRASH, step, machine=i) is not None
            ]
            for i in range(len(tasks)):
                event = injector.take(DELAY, step, machine=i)
                if event is not None:
                    time.sleep(event.seconds)
            if crashed:
                raise _StepFailures(crashed)
        if self._fused is not None:
            return (*self._fused.step(), None)
        stats = [StepStats() for _ in tasks]
        if self.asynchronous:
            for i, task in enumerate(tasks):
                task.apply_inbox(stats[i])
                task.compute(stats[i])
                deliver_async(self.cluster, i, stats, combiner=self.combiner)
        else:
            for i, task in enumerate(tasks):
                task.compute(stats[i])
            exchange_sync(self.cluster, stats, combiner=self.combiner)
        # (in asynchronous mode: the final drain, for later machines' sends)
        for i, task in enumerate(tasks):
            task.apply_inbox(stats[i])
        votes = [task.finalize() for task in tasks]
        probes = None
        if self.probe is not None:
            probes = [
                self.probe(task, *args)
                for task, args in zip(tasks, self.probe_args)
            ]
        return votes, stats, probes, None

    def checkpoint(self) -> list | None:
        """Every task's state at this barrier — or None when no fault plan
        is armed (nothing can fail in-process, so nothing is copied)."""
        if self._injector is None:
            return None
        return [task.checkpoint() for task in self.tasks]

    def recover(self, failures, step: int, ckpt: Checkpoint) -> None:
        """Restore *every* task from ``ckpt`` and drop in-flight messages
        (they belong to the abandoned step)."""
        for task, state in zip(self.tasks, ckpt.task_states):
            task.restore(state)
        self.cluster.reset_buffers()

    def gather(self, fn, *args) -> list:
        """``fn(task, *args)`` on every task; results in machine order."""
        return [fn(task, *args) for task in self.tasks]
