"""Fault model: deterministic injection schedules and the one fault policy.

The paper's testbed is a 9-node cluster where machines crash, straggle and
drop traffic; this module is the *model* of those failures plus the knobs
that govern surviving them.  Everything is deterministic and seedable so
every recovery path is unit-testable and CI-reproducible:

* :class:`FaultPlan` — a seeded schedule of fault events
  (``crash_worker``, ``delay_worker``, ``drop_outbox``, ``corrupt_inbox``),
  threaded into pool workers at spawn and into the in-process engine via
  the :class:`~repro.runtime.cluster.SimCluster`;
* :class:`FaultInjector` — the per-worker view of a plan.  Events fire
  **once**: a replayed superstep (after checkpoint recovery) does not
  re-crash, which is exactly how a real transient fault behaves.  Events
  marked ``sticky`` re-fire on every replay — the tool for exhausting the
  recovery budget so degradation can be tested;
* :class:`FaultTolerance` — the one policy: how often to checkpoint, how
  long a worker may take one superstep phase before it is declared hung,
  how many recoveries one run may spend, and whether a pool batch past
  that budget degrades to the in-process engine or raises.

Message integrity is checked end-to-end with :func:`batch_checksum`: the
sender checksums the exact bytes it wrote into shared memory, the receiver
re-checksums the bytes it is about to apply, and any difference raises
:class:`~repro.errors.CorruptMessage` — which the coordinator treats as one
more recoverable fault.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "CRASH",
    "DELAY",
    "DROP_OUTBOX",
    "CORRUPT_INBOX",
    "CRASH_POST_APPEND",
    "CRASH_MID_CHECKPOINT",
    "CRASH_MID_COMPACTION",
    "FAULT_KINDS",
    "DURABLE_FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
    "FaultTolerance",
    "batch_checksum",
]

CRASH = "crash"
DELAY = "delay"
DROP_OUTBOX = "drop_outbox"
CORRUPT_INBOX = "corrupt_inbox"

#: Every injectable fault kind, in schedule-drawing order.
FAULT_KINDS = (CRASH, DELAY, DROP_OUTBOX, CORRUPT_INBOX)

# Process-level crash points of the durability layer (PR: durable service
# state).  Unlike the worker faults above — which a supervisor recovers
# *within* one process's lifetime — these kill the whole coordinator with
# ``os._exit(CRASH_EXIT_CODE)`` and are survived by ``recover_session``
# from the WAL + checkpoint directory.  ``step`` carries the 1-based
# ordinal of the operation (the Nth WAL append / checkpoint / compaction)
# and ``machine`` is 0 (there is only one coordinator).
CRASH_POST_APPEND = "crash_post_append"  # WAL record durable, ack never sent
CRASH_MID_CHECKPOINT = "crash_mid_checkpoint"  # data written, manifest not
CRASH_MID_COMPACTION = "crash_mid_compaction"  # record logged, fold not done

#: The durability layer's whole-process kill points, in drawing order.
DURABLE_FAULT_KINDS = (
    CRASH_POST_APPEND,
    CRASH_MID_CHECKPOINT,
    CRASH_MID_COMPACTION,
)

#: The process exit code an injected crash dies with (distinguishable from
#: a genuine interpreter abort in the supervisor's logs).
CRASH_EXIT_CODE = 87


def batch_checksum(*arrays: np.ndarray) -> int:
    """CRC-32 over the raw bytes of ``arrays``, in order.

    Cheap (zlib's C loop), stable across processes and platforms for the
    little-endian dtypes the runtime ships, and strong enough to catch the
    bit flips / truncations the corruption faults model.
    """
    crc = 0
    for arr in arrays:
        crc = zlib.crc32(np.ascontiguousarray(arr).view(np.uint8), crc)
    return crc


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: *what* happens to *which* machine at *which*
    superstep.

    ``seconds`` only matters for :data:`DELAY` events.  ``sticky`` events
    survive recovery (they re-fire on every replay); normal events
    are one-shot.  ``event_id`` is unique within a plan so the coordinator
    can mark the events a dead worker must have consumed.
    """

    kind: str
    step: int
    machine: int
    seconds: float = 0.0
    sticky: bool = False
    event_id: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS + DURABLE_FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.step < 0:
            raise ValueError("fault step must be >= 0")
        if self.machine < 0:
            raise ValueError("fault machine must be >= 0")
        if self.seconds < 0:
            raise ValueError("delay seconds must be >= 0")


class FaultPlan:
    """A deterministic schedule of fault events against one pool/cluster.

    Build explicitly (the chainable ``crash_worker``/``delay_worker``/
    ``drop_outbox``/``corrupt_inbox`` methods) or draw a seeded random
    schedule with :meth:`FaultPlan.random`.  Plans are value objects: the
    pool copies the event list at spawn and tracks consumption itself.
    """

    def __init__(self, events: list[FaultEvent] | None = None):
        self.events: list[FaultEvent] = list(events or [])

    # -- builders ----------------------------------------------------------- #

    def _add(self, event: FaultEvent) -> "FaultPlan":
        self.events.append(replace(event, event_id=len(self.events)))
        return self

    def crash_worker(
        self, step: int, machine: int, sticky: bool = False
    ) -> "FaultPlan":
        """Kill ``machine``'s worker process at the start of ``step``."""
        return self._add(FaultEvent(CRASH, step, machine, sticky=sticky))

    def delay_worker(
        self, step: int, machine: int, seconds: float
    ) -> "FaultPlan":
        """Stall ``machine`` for ``seconds`` of wall time during ``step``.

        Below the supervisor's ``step_timeout`` this is a straggler (no
        recovery, just latency); at or above it the worker is declared hung,
        killed, and recovered exactly like a crash.
        """
        return self._add(FaultEvent(DELAY, step, machine, seconds=seconds))

    def drop_outbox(self, step: int, machine: int) -> "FaultPlan":
        """Discard ``machine``'s outbound batches for ``step`` after its
        send accounting ran — detected by the coordinator's refs-vs-stats
        invariant."""
        return self._add(FaultEvent(DROP_OUTBOX, step, machine))

    def corrupt_inbox(self, step: int, machine: int) -> "FaultPlan":
        """Flip one byte of the first inbound batch ``machine`` reads at
        ``step`` — detected by the per-batch message checksum."""
        return self._add(FaultEvent(CORRUPT_INBOX, step, machine))

    def crash_post_append(self, at: int) -> "FaultPlan":
        """Kill the whole process right after its ``at``-th WAL append is
        durable (fsynced) but before the mutation is acknowledged."""
        return self._add(FaultEvent(CRASH_POST_APPEND, at, 0))

    def crash_mid_checkpoint(self, at: int) -> "FaultPlan":
        """Kill the whole process in the middle of its ``at``-th periodic
        checkpoint: payload files written, manifest not yet published —
        the torn checkpoint must be invisible to recovery."""
        return self._add(FaultEvent(CRASH_MID_CHECKPOINT, at, 0))

    def crash_mid_compaction(self, at: int) -> "FaultPlan":
        """Kill the whole process mid-compaction: the compaction's WAL
        record is durable but the in-memory delta fold never ran —
        recovery must replay the compaction to the exact epoch."""
        return self._add(FaultEvent(CRASH_MID_COMPACTION, at, 0))

    @classmethod
    def random(
        cls,
        seed: int,
        num_workers: int,
        max_step: int = 3,
        num_events: int = 1,
        kinds: tuple[str, ...] = FAULT_KINDS,
        delay_seconds: float = 0.05,
    ) -> "FaultPlan":
        """A seeded random schedule: ``num_events`` faults drawn uniformly
        over ``kinds`` × workers × steps ``[0, max_step]``.

        Same seed, same plan — the chaos suite runs fixed seeds in CI.
        """
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        rng = np.random.default_rng(seed)
        plan = cls()
        for _ in range(num_events):
            kind = kinds[int(rng.integers(0, len(kinds)))]
            step = int(rng.integers(0, max_step + 1))
            machine = int(rng.integers(0, num_workers))
            if kind == DELAY:
                plan.delay_worker(step, machine, delay_seconds)
            else:
                plan._add(FaultEvent(kind, step, machine))
        return plan

    @classmethod
    def random_durable(
        cls,
        seed: int,
        max_append: int = 4,
        max_checkpoint: int = 2,
        max_compaction: int = 1,
        kinds: tuple[str, ...] = DURABLE_FAULT_KINDS,
    ) -> "FaultPlan":
        """One seeded whole-process crash point for the durable drill.

        Draws a kind uniformly from ``kinds`` and a 1-based ordinal within
        that kind's budget (how many appends / periodic checkpoints /
        compactions the drill's workload is known to perform).  Same seed,
        same kill point — the durable chaos suite runs fixed seeds in CI.
        """
        rng = np.random.default_rng(seed)
        kind = kinds[int(rng.integers(0, len(kinds)))]
        budget = {
            CRASH_POST_APPEND: max_append,
            CRASH_MID_CHECKPOINT: max_checkpoint,
            CRASH_MID_COMPACTION: max_compaction,
        }[kind]
        at = int(rng.integers(1, max(budget, 1) + 1))
        return cls()._add(FaultEvent(kind, at, 0))

    # -- views -------------------------------------------------------------- #

    def events_for(self, machine: int) -> list[FaultEvent]:
        """The slice of the schedule one worker enforces on itself."""
        return [e for e in self.events if e.machine == machine]

    @property
    def num_events(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(
            f"{e.kind}(step={e.step}, m={e.machine})" for e in self.events
        )
        return f"FaultPlan([{inner}])"


class FaultInjector:
    """One participant's live view of its fault events.

    ``take(kind, step)`` returns the first un-fired event matching
    ``(kind, step)`` and marks it fired; sticky events are never marked.
    Both the pool worker loop and the in-process engine's step drive
    their injections through this, so one-shot semantics (a replayed
    superstep does not re-fault) live in exactly one place.
    """

    def __init__(self, events: list[FaultEvent] | None = None):
        self.events = list(events or [])
        self._fired: set[int] = set()

    def take(
        self, kind: str, step: int, machine: int | None = None
    ) -> FaultEvent | None:
        """First un-fired event matching ``(kind, step)`` — and ``machine``
        when given.  Pool workers hold a pre-filtered slice and omit
        ``machine``; the in-process engine holds the whole plan and passes
        it."""
        for event in self.events:
            if (
                event.kind == kind
                and event.step == step
                and (machine is None or event.machine == machine)
                and event.event_id not in self._fired
            ):
                if not event.sticky:
                    self._fired.add(event.event_id)
                return event
        return None

    def reset(self, events: list[FaultEvent] | None = None) -> None:
        """Adopt a new schedule (and forget what fired)."""
        self.events = list(events or [])
        self._fired = set()


@dataclass(frozen=True)
class FaultTolerance:
    """The fault policy of one session, read on either executor.

    ``checkpoint_interval`` — snapshot resident task state every C
    supersteps (1 = every barrier, the right default for the small graphs
    of this reproduction; large graphs raise C to amortise the copy).
    ``step_timeout`` — wall seconds a worker may take to answer one
    superstep phase before it is declared hung (None = wait forever).
    ``max_recoveries`` — recoveries one ``run()`` may spend before the
    batch is abandoned with :class:`~repro.errors.WorkerLost`.
    ``degrade`` — a pool batch abandoned that way (or losing a worker
    outside a superstep) reruns in-process, and so do later batches;
    False raises the :class:`~repro.errors.WorkerLost` instead.
    """

    checkpoint_interval: int = 1
    step_timeout: float | None = None
    max_recoveries: int = 3
    degrade: bool = True

    def __post_init__(self) -> None:
        if self.checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        if self.step_timeout is not None and self.step_timeout <= 0:
            raise ValueError("step_timeout must be positive")
        if self.max_recoveries < 0:
            raise ValueError("max_recoveries must be >= 0")
