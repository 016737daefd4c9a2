"""The persistent shared-memory worker pool: real multicore supersteps.

The simulated cluster executes every machine serially in one process and
*charges* a cost model; this module is the execution backend that actually
uses the cores.  One long-lived OS process per simulated machine attaches
the shared graph image once (:mod:`repro.runtime.shm`), keeps its
:class:`~repro.runtime.engine.PartitionTask` state resident across batches,
and runs the identical superstep protocol:

1. the coordinator broadcasts ``compute``; every worker computes, flushes
   its outbox (:meth:`~repro.runtime.message.Outbox.flush`, the call
   :func:`~repro.runtime.comm.exchange_sync` makes) into its own
   shared-memory outbox segment, and replies with small
   :class:`~repro.runtime.shm.BatchRef` control records;
2. the coordinator routes the refs by destination and broadcasts ``apply``;
   every worker reads its inbound batches as zero-copy views (sender-
   ascending order — the same reduction order as the in-process inbox),
   verifies each batch's checksum, applies, finalizes, votes and — when
   the driver checkpoints after this step — snapshots its task.

That round is :meth:`WorkerPool.step`: the pool is the second *executor* of
:func:`~repro.runtime.engine.run_supersteps`, the one superstep loop, which
advances the same virtual clock from the per-worker :class:`StepStats` — so
virtual times are bit-identical to the in-process engine.  Only control
records, stats, probe results and pickle streams cross the pipes; payload
arrays and checkpoint buffers stay in shared memory.  One ``begin`` per
worker starts each batch (:meth:`WorkerPool.ensure_task`) and snapshots
the seeded task; every exchange is one barrier that reads every reply first.

Fault tolerance: the pool's part is *detecting* a failed step — pipe EOF
(crash), a reply missing past ``step_timeout`` (hang), outbound refs that
contradict the worker's own send accounting (dropped outbox), a batch
failing its checksum (corruption) — and *restoring* workers: its
:class:`Supervisor` respawns the dead ones onto the same shared segments,
then every worker rolls back to the driver's last checkpoint: one slot of
its two-slot checkpoint segment (snapshots go to the other; a replayed
``begin`` takes none).  Past ``max_recoveries`` the pool shuts down and
raises :class:`~repro.errors.WorkerLost`; the session degrades the batch.

Determinism: workers always ``spawn`` (no inherited state);
:meth:`WorkerPool.shutdown` (wired to ``GraphSession.close()`` and
``atexit``) terminates stragglers, so pytest never leaks processes.
"""

from __future__ import annotations

import atexit
import logging
import multiprocessing as mp
import os
import pickle
import secrets
import time
import traceback
from dataclasses import dataclass
from multiprocessing import shared_memory
from multiprocessing.reduction import ForkingPickler

import numpy as np

from repro.dynamic.delta import splice_record
from repro.errors import (
    CorruptMessage,
    PoolError,
    UnsupportedConfigError,
    WorkerLost,
    WorkerTaskError,
)
from repro.graph.partition import PartitionedGraph, owner_of_bounds
from repro.runtime.cluster import Machine
from repro.runtime.engine import (
    Checkpoint,
    EngineResult,
    WorkerFailure,
    _StepFailures,
    run_supersteps,
)
from repro.runtime.fault import (
    CORRUPT_INBOX,
    CRASH,
    CRASH_EXIT_CODE,
    DELAY,
    DROP_OUTBOX,
    FaultInjector,
    FaultPlan,
    FaultTolerance,
)
from repro.runtime.message import MessageBatch, combine_or
from repro.runtime.netmodel import NetworkModel, StepStats
from repro.runtime.shm import (
    OutboxReader,
    OutboxWriter,
    attach_graph,
    build_graph_image,
    create_segment,
)

__all__ = ["WorkerPool", "Supervisor", "PoolError", "WorkerLost"]

log = logging.getLogger("repro.runtime.pool")

#: Upper bound on per-entry vertex-id bytes in a combined batch (int64).
_VERTEX_BYTES = 8

#: Appended to crash diagnostics: the most common *non-fault* cause of a
#: worker dying at startup is spawn re-importing a guardless __main__.
MAIN_GUARD_HINT = (
    " If this happened right after pool startup, the spawned child may have "
    "failed to re-import __main__: pool-using code must live in a real "
    "module file with an `if __name__ == '__main__':` guard "
    "(not a stdin/-c script)."
)


@dataclass(frozen=True)
class _Snapshot:
    """One worker's task checkpoint, as it crosses the pipe: the protocol-5
    pickle stream, and where its out-of-band buffers are — ``spans``
    (``(start, end)``) of the worker's checkpoint segment, or ``inline``
    when they did not fit their slot."""

    data: bytes
    spans: tuple = ()
    inline: tuple = ()


class _WorkerCluster:
    """The slice of :class:`SimCluster` a task can see inside a worker.

    Tasks call ``cluster.owner_of`` and read the graph's shape — all of it
    the bounds array (a shared view).
    """

    def __init__(self, bounds: np.ndarray):
        self.bounds = bounds
        self.num_machines = len(bounds) - 1
        self.num_vertices = int(bounds[-1])

    def owner_of(self, vertices) -> np.ndarray | int:
        return owner_of_bounds(self.bounds, vertices)


def _worker_main(conn, manifest, worker_id: int, fault_events=None) -> None:
    """One pool worker: attach the image once, then serve ops until close.

    Every callable received over the pipe (task classes, probes, gathers,
    controls) must pickle by qualified name — a module-level class or
    function, see :mod:`repro.core.adapters`.  ``fault_events`` is this
    worker's slice of the pool's :class:`~repro.runtime.fault.FaultPlan`;
    the worker enforces its own crash/delay/drop/corrupt schedule so
    injected faults exercise the identical detection paths real ones would.
    """
    image = attach_graph(manifest)
    machine = Machine(worker_id, image.partitions[worker_id])
    cluster = _WorkerCluster(image.bounds)
    writer = OutboxWriter(worker_id)
    reader = OutboxReader()
    injector = FaultInjector(fault_events)
    tasks: dict = {}
    # ``begin`` sets the batch's task, combiner, probe, probe args, outbox
    # and checkpoint segment (``store``)
    current = None
    step_stats: StepStats | None = None
    store, slot_bytes = None, 0

    def snapshot(slot):
        """The task's checkpoint, its buffers written into ``slot``."""
        if slot is None:
            return None
        buffers = []
        data = pickle.dumps(
            current.checkpoint(), protocol=5, buffer_callback=buffers.append
        )
        raws = [b.raw() for b in buffers]
        if sum(r.nbytes for r in raws) > slot_bytes:
            return _Snapshot(data, inline=tuple(bytearray(r) for r in raws))
        spans, cursor = [], slot * slot_bytes
        for raw in raws:
            spans.append((cursor, cursor + raw.nbytes))
            store.buf[cursor : cursor + raw.nbytes] = raw
            cursor += raw.nbytes
        return _Snapshot(data, tuple(spans))

    try:
        while True:
            try:
                msg = conn.recv()
            except EOFError:  # pragma: no cover - parent died
                break
            op = msg[0]
            try:
                if op == "compute":
                    step = msg[1]
                    if injector.take(CRASH, step) is not None:
                        # Die the hard way: no cleanup, no goodbye — the
                        # parent must see raw pipe EOF, like a real crash.
                        os._exit(CRASH_EXIT_CODE)
                    delay = injector.take(DELAY, step)
                    if delay is not None:
                        time.sleep(delay.seconds)
                    stats = StepStats()
                    t0 = time.perf_counter()
                    current.compute(stats)
                    writer.begin(outbox)
                    wire = machine.outbox.flush(worker_id, stats, combiner)
                    refs = [writer.write(d, b.vertices, b.payload) for d, b in wire]
                    step_stats = stats
                    # The destinations the stats swear were sent to; the
                    # coordinator cross-checks them against the refs that
                    # actually arrived (dropped-outbox detection).
                    sent = sorted(stats.bytes_sent)
                    if injector.take(DROP_OUTBOX, step) is not None:
                        refs = []
                    conn.send(("out", refs, time.perf_counter() - t0, sent))
                elif op == "apply":
                    _, inbox, step, slot = msg
                    t0 = time.perf_counter()
                    stats = step_stats if step_stats is not None else StepStats()
                    step_stats = None
                    corrupt = (
                        injector.take(CORRUPT_INBOX, step) if inbox else None
                    )
                    for ref in inbox:
                        vertices, payload = reader.view(ref)
                        if corrupt is not None:
                            payload = payload.copy()
                            payload.view(np.uint8)[0] ^= 0xFF
                            corrupt = None
                        OutboxReader.verify(ref, vertices, payload)
                        machine.inbox.append(MessageBatch(vertices, payload))
                    current.apply_inbox(stats)
                    vote = current.finalize()
                    result = probe(current, *probe_args) if probe else None
                    state = snapshot(slot)
                    wall = time.perf_counter() - t0
                    conn.send(("step", vote, stats, result, wall, state))
                elif op == "begin":
                    # One message starts a batch: drop what an earlier
                    # (possibly aborted) batch left queued, splice the shard
                    # up to the batch's epoch (a new epoch drops every
                    # resident task), build the task or reset the resident
                    # one, seed it, arm the run, and reply with the batch's
                    # first checkpoint — unless this is a respawned worker's
                    # replay, whose snapshot would land on the live one.
                    (_, key, task_cls, kwargs, records, seeds, combiner,
                     probe, args, outbox, (segment, slot_bytes), slot) = msg
                    if store is None or store.name != segment:
                        if store is not None:
                            store.close()
                        store = shared_memory.SharedMemory(name=segment)
                    machine.reset_buffers()
                    step_stats = None
                    probe_args = tuple(args) if args else ()
                    part = machine.partition
                    fresh = [r for r in records if r.epoch > part.graph_epoch]
                    for rec in fresh:
                        splice_record(part, rec, cluster.num_vertices)
                    if fresh:
                        tasks.clear()
                    if task_cls is not None:
                        current = tasks[key] = task_cls(machine, cluster, **kwargs)
                    else:
                        current = tasks[key]
                        current.reset(**kwargs)
                    for local_vertex, query in seeds:
                        current.seed(local_vertex, query)
                    conn.send(("ok", snapshot(slot)))
                elif op == "call":
                    _, fn, args = msg
                    conn.send(("ok", fn(current, *args)))
                elif op == "checkpoint":
                    conn.send(("ok", snapshot(msg[1])))
                elif op == "restore":
                    # Roll back to a superstep barrier: task state from the
                    # snapshot, in-flight buffers dropped (they belong to
                    # the abandoned step).  The state is rebuilt over
                    # copies of its buffers.
                    snap = msg[1]
                    buffers = snap.inline or [
                        bytearray(store.buf[a:b]) for a, b in snap.spans
                    ]
                    current.restore(pickle.loads(snap.data, buffers=buffers))
                    machine.reset_buffers()
                    step_stats = None
                    conn.send(("ok", None))
                elif op == "set_fault_plan":
                    injector.reset(msg[1])
                    conn.send(("ok", None))
                elif op == "close":
                    conn.send(("ok", None))
                    break
                else:  # pragma: no cover - protocol misuse guard
                    raise RuntimeError(f"unknown op {op!r}")
            except CorruptMessage as exc:
                # Detected (or injected) corruption is an infrastructure
                # fault, not a task bug: report it as recoverable so the
                # coordinator replays from the checkpoint.
                conn.send(("fault", CORRUPT_INBOX, str(exc)))
            except Exception:
                conn.send(("err", traceback.format_exc()))
    finally:
        tasks.clear()
        current = None
        machine = None
        reader.close()
        writer.close()
        if store is not None:
            store.close()
        image.close()
        conn.close()


class Supervisor:
    """Owns the pool's worker processes and their pipes.

    The coordinator never touches ``multiprocessing`` directly: it sends and
    receives through this object, which converts transport-level failures
    into :class:`WorkerFailure` values (crash/hang) instead of exceptions,
    so a barrier can finish collecting from the healthy workers before the
    recovery decision is made.
    """

    def __init__(
        self,
        ctx,
        worker_main,
        manifest,
        token: str,
        num_workers: int,
    ):
        self.ctx = ctx
        self.worker_main = worker_main
        self.manifest = manifest
        self.token = token
        self.num_workers = num_workers
        self.conns: list = [None] * num_workers
        self.procs: list = [None] * num_workers
        self.respawns = 0

    # -- lifecycle ---------------------------------------------------------- #

    def spawn(self, worker_id: int, fault_events=None) -> None:
        """Start (or replace) worker ``worker_id``."""
        parent_conn, child_conn = self.ctx.Pipe()
        proc = self.ctx.Process(
            target=self.worker_main,
            args=(
                child_conn,
                self.manifest,
                worker_id,
                list(fault_events or []),
            ),
            name=f"repro-pool-{self.token}-{worker_id}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self.conns[worker_id] = parent_conn
        self.procs[worker_id] = proc

    def spawn_all(self, events_for) -> None:
        for i in range(self.num_workers):
            self.spawn(i, events_for(i))

    def respawn(self, worker_id: int, fault_events=None) -> None:
        """Reap a dead/hung worker and start its replacement."""
        self.reap(worker_id)
        self.spawn(worker_id, fault_events)
        self.respawns += 1

    def reap(self, worker_id: int) -> None:
        """Best-effort teardown of one worker's pipe and process."""
        conn = self.conns[worker_id]
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
            self.conns[worker_id] = None
        proc = self.procs[worker_id]
        if proc is not None:
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=5)
            self.procs[worker_id] = None

    def kill(self, worker_id: int) -> None:
        """Forcibly terminate a hung worker (its pipe is left for reap)."""
        proc = self.procs[worker_id]
        if proc is not None and proc.is_alive():
            proc.terminate()
            proc.join(timeout=5)

    def shutdown(self) -> None:
        """Gracefully stop every worker; escalate to terminate on timeout.

        Exception-safe by construction: every step is best-effort, so a
        pool with already-dead workers (or half-closed pipes) shuts down
        without raising — the contract ``GraphSession.close()`` relies on.
        """
        for conn in self.conns:
            if conn is None:
                continue
            try:
                conn.send(("close",))
            except (BrokenPipeError, OSError):
                pass
        for i, conn in enumerate(self.conns):
            if conn is None:
                continue
            try:
                if conn.poll(5):
                    conn.recv()
            except (EOFError, OSError):
                pass
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
            self.conns[i] = None
        for i, proc in enumerate(self.procs):
            if proc is None:
                continue
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - hung worker guard
                proc.terminate()
                proc.join(timeout=5)
            self.procs[i] = None

    # -- transport ----------------------------------------------------------- #

    def send(self, worker_id: int, frame) -> bool:
        """Send one pickled protocol message; False means the pipe is
        already dead."""
        conn = self.conns[worker_id]
        if conn is None:
            return False
        try:
            conn.send_bytes(frame)
            return True
        except (BrokenPipeError, OSError):
            return False

    def recv(self, worker_id: int, timeout: float | None = None):
        """One worker's reply, or the :class:`WorkerFailure` explaining why
        there is none.

        ``timeout`` (seconds) arms hang detection: a worker that does not
        answer in time is killed and reported as hung.  A worker-side task
        exception arrives as its ``("err", tb)`` reply; a ``("fault", kind,
        detail)`` reply is a worker-side detected fault (a failed checksum).
        """
        conn = self.conns[worker_id]
        if conn is None:
            return WorkerFailure(worker_id, "crash", "no live pipe")
        try:
            if timeout is not None and not conn.poll(timeout):
                self.kill(worker_id)
                return WorkerFailure(
                    worker_id, "hang", f"no reply within {timeout:g}s"
                )
            reply = conn.recv()
        except (EOFError, ConnectionResetError, OSError):
            return WorkerFailure(
                worker_id, "crash", "pipe closed before replying." + MAIN_GUARD_HINT
            )
        if reply[0] == "fault":
            return WorkerFailure(worker_id, reply[1], reply[2])
        return reply


class WorkerPool:
    """A persistent pool of one process per partition of one graph.

    Created lazily by ``GraphSession(backend="pool")`` and reused for every
    batch until :meth:`shutdown`.  The parent owns every shared-memory
    segment (graph image + per-worker outboxes) and unlinks them all on
    shutdown; workers only ever attach — which is also what makes respawn
    cheap: a replacement worker re-attaches the existing image and outbox
    and restores task state from the last checkpoint.
    """

    def __init__(
        self,
        pg: PartitionedGraph,
        netmodel: NetworkModel | None = None,
        instrumentation=None,
        fault_plan: FaultPlan | None = None,
        fault_tolerance: FaultTolerance | None = None,
        fault_consumed: set | None = None,
    ):
        from repro.telemetry.instrument import NULL_INSTRUMENTATION

        self.pg = pg
        self.netmodel = netmodel or NetworkModel()
        self.instr = instrumentation or NULL_INSTRUMENTATION
        self.num_workers = pg.num_partitions
        self.fault_tolerance = fault_tolerance or FaultTolerance()
        self._fault_plan = fault_plan
        # (worker, event id) of fired one-shots; a session's outlives the pool
        self._fault_consumed = set() if fault_consumed is None else fault_consumed
        self._token = secrets.token_hex(4)
        self._image, manifest = build_graph_image(pg, f"cgp{self._token}")
        #: the graph epoch the image holds: a dynamic session ships the
        #: mutation records newer than this with every ``begin``
        self.image_epoch = self._epoch = min(p.epoch for p in manifest.partitions)
        self._outboxes: list = [None] * self.num_workers
        self._outbox_width = 0
        self._outbox_gen = 0
        # per worker a two-slot checkpoint segment: the driver's checkpoint
        # is in ``_slot``, a snapshot goes to the other; ``_ready`` holds the
        # snapshots the next checkpoint hands out, ``_need`` the largest inline one
        self._ckpts: list = [None] * self.num_workers
        self._slot_bytes = self._need = self._slot = 0
        self._ready: list | None = None
        self._max_steps: int | None = None
        # per worker: the task keys resident at ``_epoch`` (the last batch's
        # graph epoch), and this batch's begin message without seeds or a
        # snapshot (what recovery rebuilds a replacement from)
        self._installed: list[set] = [set() for _ in range(self.num_workers)]
        self._begin: list = []
        self._closed = False
        self._sup = Supervisor(
            mp.get_context("spawn"), _worker_main, manifest, self._token,
            self.num_workers,
        )
        try:
            self._sup.spawn_all(self._events_for)
        except Exception:
            self.shutdown()
            raise
        atexit.register(self.shutdown)

    # -- lifecycle --------------------------------------------------------- #

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def recoveries(self) -> int:
        """Workers respawned over this pool's lifetime (supervision metric)."""
        return self._sup.respawns

    def _segments(self) -> list:
        return [self._image] + [
            s for s in self._outboxes + self._ckpts if s is not None
        ]

    def segment_names(self) -> list[str]:
        """Names of every live segment this pool owns (leak checks)."""
        return [s.name for s in self._segments()]

    def shutdown(self) -> None:
        """Stop every worker and unlink every owned segment.

        Idempotent and exception-safe: safe to call twice, safe to call
        with workers already dead, safe from ``GraphSession.close()`` in an
        ``except`` block mid-superstep — the parent owns the segments, so
        they are unlinked no matter how the workers went away.
        """
        if self._closed:
            return
        self._closed = True
        atexit.unregister(self.shutdown)
        self._sup.shutdown()
        for shm in self._segments():
            try:
                shm.close()
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            except OSError:  # pragma: no cover - defensive
                log.warning("failed to unlink segment %s", shm.name, exc_info=True)
        self._outboxes = [None] * self.num_workers
        self._ckpts = [None] * self.num_workers

    def _check_open(self) -> None:
        if self._closed:
            raise PoolError("worker pool is shut down")

    # -- the one exchange --------------------------------------------------- #

    def _barrier(self, messages, failures=None) -> dict[int, tuple]:
        """Send worker ``i`` ``messages[i]`` (None: nothing), then read
        every reply; returns each replying worker's reply fields.

        Every message is pickled before the first is sent, so one that does
        not pickle is refused with UnsupportedConfigError while no worker has
        changed.  Every reply is read before anything is raised, so the
        pipes end each exchange in step: a task error raises WorkerTaskError,
        then a lost worker WorkerLost — unless the caller is a superstep
        phase passing its ``failures`` list, which collects them for the
        driver to recover.  Only those phases arm ``step_timeout``.
        """
        frames = []
        for message in messages:
            try:
                frames.append(
                    None if message is None else ForkingPickler.dumps(message)
                )
            except (pickle.PicklingError, AttributeError, TypeError) as exc:
                raise UnsupportedConfigError(
                    f"{message[0]!r} cannot cross to the pool workers "
                    f"({exc}); use module-level classes and functions"
                ) from None
        sup = self._sup
        lost = [] if failures is None else failures
        timeout = None if failures is None else self.fault_tolerance.step_timeout
        pending = []
        for i, frame in enumerate(frames):
            if frame is None:
                continue
            if sup.send(i, frame):
                pending.append(i)
            else:
                lost.append(WorkerFailure(
                    i, CRASH, f"pipe closed on {messages[i][0]} send."
                    + MAIN_GUARD_HINT
                ))
        replies: dict[int, tuple] = {}
        errors = []
        for i in pending:
            reply = sup.recv(i, timeout)
            if isinstance(reply, WorkerFailure):
                lost.append(reply)
            elif reply[0] == "err":
                errors.append(f"pool worker {i} failed:\n{reply[1]}")
            else:
                replies[i] = reply[1:]
        if errors:
            raise WorkerTaskError("\n".join(errors))
        if lost and failures is None:
            raise WorkerLost("pool " + "; ".join(map(str, lost)))
        return replies

    # -- batch protocol ------------------------------------------------------ #

    def ensure_task(
        self,
        key: tuple,
        task_cls,
        kwargs: dict,
        payload_width: int,
        epoch: int,
        records=(),
        seeds=None,
        combiner=combine_or,
        probe=None,
        probe_args=None,
    ) -> None:
        """Start a batch at graph ``epoch``: one ``begin`` per worker, one
        barrier.

        ``records`` are the mutation records since the shm image (empty
        while the graph is at ``image_epoch``); a worker splices those newer
        than its shard with :func:`~repro.dynamic.delta.splice_record`, and
        one that spliced any drops every resident task — the in-process
        rule, where an epoch advance clears the session's task cache.  The
        coordinator forgets what it installed when ``epoch`` changes, so a
        worker lacking ``key`` builds ``task_cls(machine, cluster,
        **kwargs)`` and one holding it calls ``task.reset(**kwargs)``.
        ``begin`` also drops queued buffers, plants the worker's ``seeds``
        and arms ``combiner`` and ``probe(task, *probe_args[i])``.
        ``payload_width`` (bytes per entry) sizes the outboxes and the
        checkpoint slots.  Every worker replies with a snapshot of its
        seeded task: the batch's first checkpoint.
        """
        self._check_open()
        n = self.num_workers
        grow = self._outboxes[0] is None or payload_width > self._outbox_width
        gen = self._outbox_gen + grow
        names = [f"cgp{self._token}o{i}g{gen}" for i in range(n)]
        # no checkpoint is live between batches: the slots may move now
        rows = max(p.num_local for p in self.pg.partitions)
        slot_bytes = max(self._need, 3 * rows * payload_width)
        if self._ckpts[0] is None or slot_bytes > self._slot_bytes:
            self._grow_checkpoints(slot_bytes)
        ckpts = [(s.name, self._slot_bytes) for s in self._ckpts]
        seeds = seeds or [()] * n
        probe_args = probe_args or [()] * n
        if epoch != self._epoch:
            self._epoch = epoch
            for installed in self._installed:
                installed.clear()

        def begin(i, worker_seeds, resident, slot):
            return (
                "begin", key, None if resident else task_cls, kwargs, records,
                worker_seeds, combiner, probe, probe_args[i], names[i],
                ckpts[i], slot,
            )

        replies = self._barrier([
            begin(i, seeds[i], key in self._installed[i], 1 - self._slot)
            for i in range(n)
        ])
        self._ready = [state for (state,) in replies.values()]
        self._begin = [begin(i, (), False, None) for i in range(n)]
        for installed in self._installed:
            installed.add(key)
        # segments change only once every worker has accepted the batch
        # (workers attach them at their next compute)
        if grow:
            self._grow_outboxes(payload_width, names)

    def _grow_outboxes(self, payload_width: int, names: list[str]) -> None:
        """Replace every outbox segment with one that fits ``payload_width``.

        A combined per-destination batch holds distinct vertices only, so a
        worker's whole outbox never exceeds ``min(out_edges, n)`` entries —
        a static bound that makes mid-superstep growth unnecessary (what an
        uncombined program sends past it rides inline, through the pipe).
        Workers switch to the new segment at their next ``compute``.
        """
        self._outbox_width = max(payload_width, self._outbox_width)
        self._outbox_gen += 1
        for i, part in enumerate(self.pg.partitions):
            entries = min(part.num_out_edges, self.pg.num_vertices)
            capacity = (
                entries * (_VERTEX_BYTES + self._outbox_width)
                + 64 * self.num_workers
                + 1024
            )
            old = self._outboxes[i]
            self._outboxes[i] = create_segment(names[i], capacity)
            if old is not None:
                old.close()
                old.unlink()

    def _grow_checkpoints(self, slot_bytes: int) -> None:
        """Replace every checkpoint segment with one of two ``slot_bytes``
        slots: by rule, three ``(rows, payload_width)`` planes (a traversal's
        frontier, next and visited) or the largest inline snapshot, if more."""
        self._slot_bytes = slot_bytes
        for i, old in enumerate(self._ckpts):
            # named by size, which only grows
            name = f"cgp{self._token}c{i}s{slot_bytes}"
            self._ckpts[i] = create_segment(name, 2 * slot_bytes)
            if old is not None:
                old.close()
                old.unlink()

    def gather(self, fn, *args) -> list:
        """Run ``fn(task, *args)`` on every worker; results in machine order.
        A control this way changes the tasks after a step's snapshots were
        taken, so they are dropped."""
        self._check_open()
        self._ready = None
        replies = self._barrier([("call", fn, args)] * self.num_workers)
        return [value for (value,) in replies.values()]

    def _events_for(self, worker: int) -> list:
        """The plan's events for ``worker`` less the one-shots it fired."""
        plan = self._fault_plan.events_for(worker) if self._fault_plan else []
        return [e for e in plan if (worker, e.event_id) not in self._fault_consumed]

    def set_fault_plan(self, plan: FaultPlan | None) -> None:
        """Adopt a new injection schedule on every live worker (test hook)."""
        self._check_open()
        self._fault_plan = plan
        self._fault_consumed.clear()
        self._barrier(
            [
                ("set_fault_plan", plan.events_for(i) if plan is not None else [])
                for i in range(self.num_workers)
            ]
        )

    # -- the executor protocol (supervision) --------------------------------- #

    def checkpoint(self) -> list:
        """Snapshot every worker's task state (the driver pairs it with the
        coordinator's clock and history at the same barrier).  The snapshots
        ``begin`` or the step took are handed out when no control has
        dropped them; otherwise one ``checkpoint`` barrier takes them."""
        states, self._ready = self._ready, None
        if states is None:
            replies = self._barrier(
                [("checkpoint", 1 - self._slot)] * self.num_workers
            )
            states = [state for (state,) in replies.values()]
        self._slot = 1 - self._slot
        for state in states:
            self._need = max(self._need, sum(len(b) for b in state.inline))
        return states

    def recover(
        self, failures: list[WorkerFailure], failed_step: int, ckpt: Checkpoint
    ) -> None:
        """Respawn the dead, then roll *every* worker back to ``ckpt``.

        One-shot fault events a failed worker's injector had already
        consumed (a dead one's fired-set died with it) are marked consumed
        on the coordinator side, so neither the replacement worker nor a
        pool the session starts later replays them.  Sticky events are
        deliberately re-shipped — they model faults that survive any number of recoveries.  A replacement gets
        the batch's ``begin`` again, unseeded, before the restore.
        """
        respawned: list = [None] * self.num_workers
        for f in failures:
            log.warning(
                "recovering from pool %s at superstep %d", f, failed_step
            )
            if self._fault_plan is not None:
                for e in self._fault_plan.events_for(f.worker_id):
                    if not e.sticky and e.step <= failed_step:
                        self._fault_consumed.add((f.worker_id, e.event_id))
            if f.kind not in ("crash", "hang"):
                # Live worker (dropped outbox / corrupt inbox): it replied,
                # its own injector already marked the event fired; nothing
                # to do beyond the restore below.  Deliberately NOT an
                # is_alive() probe: a crashed worker's pipe EOF can be
                # observed before the kernel finishes tearing the process
                # down, so liveness polls race with detection.
                continue
            self._sup.respawn(f.worker_id, self._events_for(f.worker_id))
            respawned[f.worker_id] = self._begin[f.worker_id]
            # a replacement holds only the batch's task
            self._installed[f.worker_id] = {self._begin[f.worker_id][1]}
        self._barrier(respawned)
        self._barrier([("restore", state) for state in ckpt.task_states])

    def step(self, step: int):
        """One compute/route/apply round; raises _StepFailures on trouble.
        At a step the driver checkpoints after (every interval-th, short of
        the cap), the workers also snapshot into the free slot."""
        n = self.num_workers
        failures: list[WorkerFailure] = []
        due = (step + 1) % self.fault_tolerance.checkpoint_interval == 0 and (
            self._max_steps is None or step + 1 < self._max_steps
        )
        slot = 1 - self._slot if due else None
        outs = self._barrier([("compute", step)] * n, failures)
        for i, (refs, _wall, sent) in outs.items():
            dests = sorted({ref.dest for ref in refs})
            if dests != list(sent):
                failures.append(
                    WorkerFailure(
                        i,
                        DROP_OUTBOX,
                        f"send accounting names {list(sent)} but refs "
                        f"cover {dests}",
                    )
                )
        if failures:
            raise _StepFailures(failures)
        routed: list[list] = [[] for _ in range(n)]
        for sender in range(n):
            for ref in outs[sender][0]:
                routed[ref.dest].append(ref)
        done = self._barrier(
            [("apply", inbox, step, slot) for inbox in routed], failures
        )
        if failures:
            raise _StepFailures(failures)
        votes, stats, probes, apply_walls, states = zip(*map(done.get, range(n)))
        self._ready = list(states) if due else None
        walls = [outs[i][1] + apply_walls[i] for i in range(n)]
        return list(votes), list(stats), list(probes), walls

    # -- the engine entry point ---------------------------------------------- #

    def run(
        self,
        max_supersteps: int | None = None,
        on_step=None,
        max_virtual_seconds: float | None = None,
    ) -> EngineResult:
        """Drive seeded worker tasks to quiescence on the shared driver.

        Semantics are :func:`~repro.runtime.engine.run_supersteps`'s — same
        step cap, vote handling, virtual clock and deadline truncation as
        :meth:`SuperstepEngine.run`, ``on_step`` contract included: a
        returned ``(fn, args)`` control reaches every worker through
        :meth:`gather` before the next superstep.

        Worker failures inside the run are recovered transparently by
        checkpoint replay (see the module docstring); recovered runs return
        bit-identical results.  Past the recovery budget the pool shuts
        itself down (processes reaped, segments unlinked — nothing leaks)
        and raises :class:`~repro.errors.WorkerLost`.
        """
        self._check_open()
        self._max_steps = max_supersteps
        try:
            return run_supersteps(
                self, max_supersteps, on_step, max_virtual_seconds
            )
        except WorkerLost:
            # Past saving for this batch: release processes and segments now
            # so an abandoned pool cannot leak them; the session decides
            # whether the batch degrades or the loss is raised.
            self.shutdown()
            raise

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else "live"
        return f"WorkerPool(workers={self.num_workers}, {state})"
