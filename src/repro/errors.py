"""The typed exception hierarchy of the framework.

Every error the runtime raises deliberately derives from :class:`ReproError`,
so callers can catch "anything this framework decided to fail on" with one
clause while still discriminating the interesting cases (a worker crash is
retryable, a malformed query never is).  Each concrete class *also* inherits
the builtin its call site historically raised (``RuntimeError``,
``ValueError``, ``TimeoutError``), so pre-existing ``except RuntimeError:`` /
``except ValueError:`` clauses — and tests pinning them — keep working
unchanged.

The fault-tolerance layer (:mod:`repro.runtime.fault`) leans on the split
below :class:`PoolError`:

* :class:`WorkerLost` — an *infrastructure* failure (crashed or hung worker
  process, recovery budget exhausted).  Non-deterministic, hence retryable:
  :class:`~repro.runtime.session.GraphSession` reruns the batch on the
  in-process engine unless its ``FaultTolerance.degrade`` is off.
* :class:`WorkerTaskError` — the *task itself* raised inside a worker.
  Deterministic, hence never retried: any executor would fail identically,
  so the traceback propagates to the caller immediately.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "PoolError",
    "WorkerLost",
    "WorkerTaskError",
    "CheckpointError",
    "CorruptMessage",
    "Overloaded",
    "InvalidQueryError",
    "MutationError",
    "UnsupportedConfigError",
    "DurabilityError",
    "CorruptLog",
    "CorruptCheckpoint",
]


class ReproError(Exception):
    """Base class of every deliberate failure raised by this framework."""


class PoolError(ReproError, RuntimeError):
    """The worker-pool backend failed (base of both failure flavours)."""


class WorkerLost(PoolError):
    """A worker process crashed, hung past its step timeout, or the
    recovery budget ran out — an infrastructure failure, safe to retry."""


class WorkerTaskError(PoolError):
    """A task raised inside a worker; the embedded traceback is the
    worker's.  Deterministic — retrying would fail identically."""


class CheckpointError(ReproError, RuntimeError):
    """A superstep checkpoint could not be taken or restored."""


class CorruptMessage(ReproError, RuntimeError):
    """A message batch failed its checksum — payload bytes changed between
    the sender's write and the receiver's read."""


class Overloaded(ReproError, RuntimeError):
    """The service shed this query: the admission queue is at its bound."""


class InvalidQueryError(ReproError, ValueError):
    """A submitted query or batch failed validation (bad vertex ids,
    misaligned arrays, out-of-range parameters)."""


class MutationError(ReproError, ValueError):
    """An edge mutation (or the graph it targets) failed validation: ids
    out of range, a weighted or duplicated base graph, or a request the
    dynamic layer cannot represent (e.g. growing the vertex set)."""


class UnsupportedConfigError(ReproError, ValueError):
    """Two settings that cannot be combined were requested together (e.g.
    fault injection on the asynchronous engine).  Raised where the
    combination is first known — at construction, before any work runs."""


class DurabilityError(ReproError, RuntimeError):
    """The durability subsystem cannot make progress: no valid checkpoint
    survives on disk, the WAL directory is unusable, or recovery found a
    state it cannot reconcile.  Terminal — there is nothing left to fall
    back to (the deterministic flavour, like
    :class:`WorkerTaskError`)."""


class CorruptLog(DurabilityError):
    """A WAL record failed validation *before* the torn tail: an epoch out
    of sequence or a replay that contradicts the checkpointed state.
    Deterministic — rereading the same bytes fails identically.  (A torn
    tail itself is not an error: the log is silently truncated to the
    longest valid record prefix on open.)"""


class CorruptCheckpoint(DurabilityError):
    """A checkpoint's payload bytes no longer match its manifest CRCs.
    Retryable in the recovery sense (like :class:`WorkerLost`): the loader
    falls back to the next-older checkpoint and replays a longer WAL
    suffix; only when every checkpoint is exhausted does recovery raise
    the terminal :class:`DurabilityError`."""
