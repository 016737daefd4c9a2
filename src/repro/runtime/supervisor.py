"""Worker supervision for the pool backend: spawn, watch, classify, respawn.

The :class:`~repro.runtime.pool.WorkerPool` coordinator speaks a superstep
protocol over pipes; this module owns the *processes* behind those pipes and
turns their misbehaviour into typed facts the coordinator can act on:

* a pipe that hits EOF (or breaks on send) means the worker **crashed** —
  the process died mid-protocol;
* a reply that does not arrive within the supervisor's ``step_timeout``
  means the worker is **hung** — it is killed and treated like a crash;
* a ``("fault", kind, detail)`` reply is a worker-side *detected* fault
  (a message batch failing its checksum) — the worker itself is fine;
* a ``("err", traceback)`` reply is the task itself raising — that is
  deterministic, so once every reply is read it escalates as
  :class:`~repro.errors.WorkerTaskError` instead of becoming a
  :class:`WorkerFailure`.

Each of the first three becomes a :class:`WorkerFailure`; the coordinator
collects them at the barrier, rolls every worker back to the last
:class:`Checkpoint`, respawns the dead ones (the shared graph image and
outbox segments survive — the parent owns them, a fresh worker just
re-attaches), and replays.  The supervision state machine is documented in
ARCHITECTURE.md §Fault tolerance.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

__all__ = ["WorkerFailure", "Checkpoint", "Supervisor", "MAIN_GUARD_HINT"]

log = logging.getLogger("repro.runtime.supervisor")

#: Appended to crash diagnostics: the most common *non-fault* cause of a
#: worker dying at startup is spawn re-importing a guardless __main__.
MAIN_GUARD_HINT = (
    " If this happened right after pool startup, the spawned child may have "
    "failed to re-import __main__: pool-using code must live in a real "
    "module file with an `if __name__ == '__main__':` guard "
    "(not a stdin/-c script)."
)


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
        base_seed: int,
        num_workers: int,
    ):
        self.ctx = ctx
        self.worker_main = worker_main
        self.manifest = manifest
        self.token = token
        self.base_seed = base_seed
        self.num_workers = num_workers
        self.conns: list = [None] * num_workers
        self.procs: list = [None] * num_workers
        self.respawns = 0

    # -- lifecycle ---------------------------------------------------------- #

    def spawn(self, worker_id: int, fault_events=None) -> None:
        """Start (or replace) worker ``worker_id``.

        The worker re-derives its deterministic RNG seed from the pool seed
        and its id, so a respawned worker is statistically identical to the
        one it replaces.
        """
        parent_conn, child_conn = self.ctx.Pipe()
        proc = self.ctx.Process(
            target=self.worker_main,
            args=(
                child_conn,
                self.manifest,
                worker_id,
                self.base_seed * 7919 + worker_id,
                list(fault_events or []),
            ),
            name=f"repro-pool-{self.token}-{worker_id}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self.conns[worker_id] = parent_conn
        self.procs[worker_id] = proc

    def spawn_all(self, events_for=None) -> None:
        for i in range(self.num_workers):
            self.spawn(i, events_for(i) if events_for is not None else None)

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
        exception arrives as its ``("err", tb)`` reply.
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
