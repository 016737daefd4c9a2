"""Whole-process durability: checkpoints, WAL coupling, crash recovery.

PR 5 made *worker* failures invisible; this module survives losing the
coordinator itself.  The contract is exact-epoch recovery: a fresh process
pointed at the durable directory reconstructs the graph, the epoch
counters, the resident index and the mutation-batch accounting of the
dead one, then resumes — answers, verdicts and graph epochs bit-identical
to a run that never crashed (the drill at the bottom of this module is
that statement, executable).

The durable directory holds two things:

* ``wal/`` — the :class:`~repro.dynamic.wal.WriteAheadLog`.  Every applied
  mutation batch is appended (its *effective* subsets, so replay advances
  the epoch exactly +1 per record) after the in-memory apply and before
  the caller is acknowledged; compactions are logged *before* the
  in-memory fold (true write-ahead — a mid-compaction crash replays the
  fold from the record).
* ``checkpoints/ckpt-{epoch}/`` — periodic full snapshots: the
  materialised edge set + frozen bounds (``edges.npz``), the resident
  hub-label index when current (``index.npz``, via the atomic
  :func:`~repro.index.storage.save_labels`), and a ``manifest.json`` of
  CRCs and the settings the directory is written under, published
  atomically (tmp + fsync + ``os.replace``).  The manifest is the commit
  point: a directory without one is a torn checkpoint and invisible to
  recovery.

Recovery (:func:`recover_session`) takes only the path.  It loads the
newest checkpoint whose payload still matches its manifest CRCs — falling
back to older ones on :class:`~repro.errors.CorruptCheckpoint` — restores
the recorded settings, and replays the WAL suffix through the normal
:meth:`GraphSession.apply_mutations` / :meth:`GraphSession.compact` write
paths, so index maintenance and cache invalidation happen exactly as they
did live.

Crash points (:data:`~repro.runtime.fault.DURABLE_FAULT_KINDS`) are
injected at the three interesting instants — after a WAL append is
durable but before the ack, mid-checkpoint (payload written, manifest
not), and mid-compaction (record logged, fold not run) — and kill the
whole process with ``os._exit(CRASH_EXIT_CODE)``.  The drill
(:func:`run_durable_drill`) spawns a child, kills it at a seeded point,
recovers in the parent and proves parity against an uninterrupted twin.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.dynamic.delta import MutationRecord
from repro.dynamic.wal import WriteAheadLog, fsync_dir
from repro.errors import CorruptCheckpoint, CorruptLog, DurabilityError
from repro.runtime.fault import (
    CRASH_EXIT_CODE,
    CRASH_MID_CHECKPOINT,
    CRASH_MID_COMPACTION,
    CRASH_POST_APPEND,
    DURABLE_FAULT_KINDS,
    FaultInjector,
    FaultPlan,
)

__all__ = [
    "CHECKPOINT_FORMAT",
    "RETAIN",
    "DurabilityManager",
    "RecoveryReport",
    "DrillReport",
    "list_checkpoints",
    "load_checkpoint",
    "recover_session",
    "run_durable_drill",
]

#: Manifest schema version; bumped on incompatible layout changes
#: (2: the manifest records the session's and the manager's settings).
CHECKPOINT_FORMAT = 2

#: Committed checkpoints kept on disk; older ones (and the WAL segments
#: only they needed) are pruned after every checkpoint.
RETAIN = 2

_MANIFEST = "manifest.json"


# --------------------------------------------------------------------------- #
# checkpoint files
# --------------------------------------------------------------------------- #


def _crc_file(path: Path) -> int:
    return zlib.crc32(path.read_bytes())


def list_checkpoints(checkpoint_dir) -> list[Path]:
    """Committed checkpoint directories, oldest first (epoch order).

    Only directories with a published manifest count — a torn checkpoint
    (crash between payload and manifest) is invisible here by design."""
    checkpoint_dir = Path(checkpoint_dir)
    if not checkpoint_dir.is_dir():
        return []
    return sorted(
        d for d in checkpoint_dir.glob("ckpt-*")
        if d.is_dir() and (d / _MANIFEST).exists()
    )


def load_checkpoint(ckdir):
    """Load and CRC-validate one checkpoint directory.

    Returns ``(manifest, edges, bounds, labels_or_None)``.  Raises
    :class:`~repro.errors.CorruptCheckpoint` on any mismatch between the
    manifest and the payload bytes — the caller falls back to an older
    checkpoint."""
    from repro.graph.edgelist import EdgeList
    from repro.index.storage import load_labels

    ckdir = Path(ckdir)
    try:
        manifest = json.loads((ckdir / _MANIFEST).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CorruptCheckpoint(
            f"{ckdir.name}: unreadable manifest ({exc})"
        ) from exc
    if manifest.get("format") != CHECKPOINT_FORMAT:
        raise CorruptCheckpoint(
            f"{ckdir.name}: manifest format {manifest.get('format')!r}, "
            f"this build reads {CHECKPOINT_FORMAT}"
        )
    for name, crc in manifest["files"].items():
        path = ckdir / name
        if not path.exists():
            raise CorruptCheckpoint(f"{ckdir.name}: missing payload {name}")
        if _crc_file(path) != crc:
            raise CorruptCheckpoint(
                f"{ckdir.name}: {name} bytes no longer match manifest CRC"
            )
    try:
        with np.load(ckdir / "edges.npz") as data:
            edges = EdgeList(
                data["src"].astype(np.int64),
                data["dst"].astype(np.int64),
                int(data["num_vertices"]),
            )
            bounds = data["bounds"].astype(np.int64)
        labels = None
        if "index.npz" in manifest["files"]:
            labels = load_labels(ckdir / "index.npz")
    except CorruptCheckpoint:
        raise
    except Exception as exc:  # CRC passed but parse failed: still corrupt
        raise CorruptCheckpoint(f"{ckdir.name}: unreadable payload ({exc})") from exc
    return manifest, edges, bounds, labels


# --------------------------------------------------------------------------- #
# the manager
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class RecoveryReport:
    """What one :func:`recover_session` call did."""

    checkpoint_epoch: int
    epoch: int  # graph epoch after WAL replay (+ any compaction catch-up)
    replayed_records: int
    replayed_mutations: int
    replayed_compactions: int
    checkpoint_fallbacks: int  # corrupt checkpoints skipped over
    wal_truncated_bytes: int  # torn-tail bytes dropped on WAL open
    seconds: float
    cross_checked: bool


class DurabilityManager:
    """Couples one :class:`~repro.runtime.session.GraphSession` to disk.

    The session calls :meth:`on_mutation` after every effective mutation
    batch (WAL append → commit → optional crash point → periodic
    checkpoint) and :meth:`log_compaction` *before* every in-memory fold.
    :meth:`group` defers the fsync barrier across a batch of appends —
    group commit for the service's arrival-queued mutation lane.
    """

    def __init__(
        self,
        session,
        root,
        *,
        fsync: str = "batch",
        checkpoint_every: int | None = 8,
        fault_plan: FaultPlan | None = None,
    ):
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1 (or None)")
        self.session = session
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.checkpoint_dir = self.root / "checkpoints"
        self.checkpoint_dir.mkdir(exist_ok=True)
        self.instr = session.instr
        self.wal = WriteAheadLog(
            self.root / "wal", fsync=fsync, instrumentation=self.instr
        )
        self.checkpoint_every = checkpoint_every
        plan = fault_plan if fault_plan is not None else session.fault_plan
        events = (
            [e for e in plan.events if e.kind in DURABLE_FAULT_KINDS]
            if plan is not None
            else []
        )
        self._injector = FaultInjector(events) if events else None
        self._appends = 0  # WAL appends acknowledged (crash-point ordinal)
        self._checkpoints_taken = 0  # crashable (periodic) only
        self._compactions_logged = 0
        self._group_depth = 0
        self.checkpoints = 0  # total committed, baseline included
        self.last_recovery: RecoveryReport | None = None

    # -- lifecycle ------------------------------------------------------------ #

    def attach(self) -> "DurabilityManager":
        """Adopt the session: hook the write paths, take a baseline.

        The baseline checkpoint (only when no committed checkpoint exists
        yet) makes the *current* state recoverable before the first
        mutation — without it, a WAL with no checkpoint under it would be
        unreplayable.  It is not a crash point: the injected kill ordinals
        count periodic checkpoints only."""
        self.session.dynamic()  # durability presumes the mutation layer
        self.session._durability = self
        self._appends = int(self.session._mutation_batches)
        if not list_checkpoints(self.checkpoint_dir):
            self.checkpoint(crashable=False)
        return self

    def close(self) -> None:
        """Flush and close the WAL (the session stays usable, undurable)."""
        self.wal.close()
        if self.session._durability is self:
            self.session._durability = None

    # -- the write path ------------------------------------------------------- #

    def on_mutation(self, res) -> None:
        """One effective mutation batch: log it, commit it, maybe snapshot.

        Called by the session after the in-memory apply (the effective
        subsets are only known then) and before the caller is acknowledged
        — so an acked batch is always on disk, and a batch on disk that
        was never acked (post-append crash) is replayed to the same state
        the caller would have observed."""
        self.wal.append(MutationRecord(res.epoch, res.inserted, res.deleted))
        if self._group_depth == 0:
            self.wal.sync()
        self._appends += 1
        self._maybe_crash(CRASH_POST_APPEND, self._appends)
        if (
            self.checkpoint_every is not None
            and self._appends % self.checkpoint_every == 0
        ):
            self.checkpoint()

    def log_compaction(self, epoch: int) -> None:
        """Write-ahead a compaction: the record is durable before the fold
        runs, so a mid-compaction crash replays to the exact epoch."""
        empty = np.empty((0, 2), dtype=np.int64)
        self.wal.append(MutationRecord(int(epoch), empty, empty, compaction=True))
        if self._group_depth == 0:
            self.wal.sync()
        self._compactions_logged += 1
        self._maybe_crash(CRASH_MID_COMPACTION, self._compactions_logged)

    @contextmanager
    def group(self):
        """Group commit: defer the fsync barrier to the block's exit.

        The service's mutation lane wraps one drain's due batches in this,
        so N queued batches cost one fsync instead of N under the
        ``batch`` policy (appends still happen per batch — ordering and
        torn-tail semantics are unchanged)."""
        self._group_depth += 1
        try:
            yield self
        finally:
            self._group_depth -= 1
            if self._group_depth == 0:
                self.wal.sync()

    # -- checkpoints ---------------------------------------------------------- #

    def checkpoint(self, crashable: bool = True) -> Path:
        """Write one full checkpoint of the session's current epoch.

        Payload first (fsynced in place), manifest last (atomic publish);
        then the WAL rotates — records covered by this checkpoint live in
        closed segments — and retention prunes old checkpoints and their
        segments.  Idempotent per epoch."""
        sess = self.session
        dg = sess.dynamic()
        epoch = int(dg.epoch)
        ckdir = self.checkpoint_dir / f"ckpt-{epoch:012d}"
        if (ckdir / _MANIFEST).exists():
            return ckdir
        ckdir.mkdir(parents=True, exist_ok=True)
        edges = dg.materialize_edges()
        files: dict[str, int] = {}
        epath = ckdir / "edges.npz"
        with open(epath, "wb") as fh:
            np.savez_compressed(
                fh,
                src=edges.src.astype(np.int64),
                dst=edges.dst.astype(np.int64),
                num_vertices=np.int64(dg.num_vertices),
                bounds=dg.bounds.astype(np.int64),
            )
            fh.flush()
            os.fsync(fh.fileno())
        files["edges.npz"] = _crc_file(epath)
        index_epoch = None
        if sess.has_index and sess.index_is_current:
            from repro.index.storage import save_labels

            ipath = save_labels(sess.index(), ckdir / "index.npz")
            files["index.npz"] = _crc_file(ipath)
            index_epoch = epoch
        if crashable:
            self._checkpoints_taken += 1
            self._maybe_crash(CRASH_MID_CHECKPOINT, self._checkpoints_taken)
        manifest = {
            "format": CHECKPOINT_FORMAT,
            "epoch": epoch,
            "num_vertices": int(dg.num_vertices),
            "num_edges": int(edges.num_edges),
            "bounds": [int(b) for b in dg.bounds],
            "compactions": int(dg.compactions),
            "mutation_batches": int(sess._mutation_batches),
            "index_epoch": index_epoch,
            "config": {
                "fsync": self.wal.fsync_policy,
                "checkpoint_every": self.checkpoint_every,
                "index_maintenance": sess._index_maintenance,
                "compact_interval": sess._compact_interval,
                "churn_threshold": sess._index_churn_threshold,
            },
            "files": files,
        }
        tmp = ckdir / (_MANIFEST + ".tmp")
        with open(tmp, "w") as fh:
            json.dump(manifest, fh, indent=1)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, ckdir / _MANIFEST)
        fsync_dir(ckdir)
        self.checkpoints += 1
        if self.instr.enabled:
            self.instr.on_durable_checkpoint()
        self.wal.rotate()
        self._prune()
        return ckdir

    def _prune(self) -> None:
        """Retention: keep the newest :data:`RETAIN` committed checkpoints,
        drop torn directories, and release the WAL segments the oldest
        kept checkpoint makes redundant."""
        committed = []
        for d in sorted(self.checkpoint_dir.glob("ckpt-*")):
            if (d / _MANIFEST).exists():
                committed.append(d)
            else:
                shutil.rmtree(d, ignore_errors=True)
        for d in committed[:-RETAIN]:
            shutil.rmtree(d, ignore_errors=True)
        kept = committed[-RETAIN:]
        if kept:
            self.wal.prune(int(kept[0].name.split("-")[1]))

    # -- crash points --------------------------------------------------------- #

    def _maybe_crash(self, kind: str, ordinal: int) -> None:
        if self._injector is None:
            return
        if self._injector.take(kind, ordinal, 0) is not None:
            # The contract at every kill point is "what the log says,
            # happened": force the tail durable, then die without cleanup.
            self.wal.sync(force=True)
            os._exit(CRASH_EXIT_CODE)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DurabilityManager({str(self.root)!r}, "
            f"checkpoint_every={self.checkpoint_every}, "
            f"checkpoints={self.checkpoints}, appends={self._appends})"
        )


# --------------------------------------------------------------------------- #
# recovery
# --------------------------------------------------------------------------- #


def recover_session(root, *, cross_check: bool = False, **session_kwargs):
    """Rebuild a :class:`GraphSession` from the durable directory ``root``.

    Loads the newest checkpoint whose payload validates (older ones on
    :class:`~repro.errors.CorruptCheckpoint`), restores the settings its
    manifest records (index maintenance, compaction cadence, churn
    threshold, WAL fsync policy, checkpoint cadence), replays the WAL
    suffix through the session's normal write paths, restores the epoch /
    compaction / batch counters, completes any auto-compaction the crash
    interrupted, and re-attaches a :class:`DurabilityManager` over the
    same WAL so the recovered process keeps appending where the dead one
    stopped.  ``cross_check=True`` additionally asserts the recovered
    shards are byte-identical to a from-scratch partitioning of the
    replayed edge set.  ``session_kwargs`` (``backend``,
    ``instrumentation``, ...) go to the :class:`GraphSession`.

    Raises :class:`~repro.errors.DurabilityError` when nothing valid
    survives (a manifest of another format counts as invalid),
    :class:`~repro.errors.CorruptLog` when the WAL contradicts the
    checkpointed state.
    """
    from repro.graph.partition import partition_with_bounds
    from repro.runtime.session import GraphSession

    t0 = time.perf_counter()
    root = Path(root)
    ckdirs = list_checkpoints(root / "checkpoints")
    if not ckdirs:
        raise DurabilityError(
            f"no committed checkpoint under {root / 'checkpoints'}; "
            "nothing to recover from"
        )
    manifest = edges = bounds = labels = None
    fallbacks = 0
    failures: list[str] = []
    for ckdir in reversed(ckdirs):
        try:
            manifest, edges, bounds, labels = load_checkpoint(ckdir)
            break
        except CorruptCheckpoint as exc:
            fallbacks += 1
            failures.append(str(exc))
    if manifest is None:
        raise DurabilityError(
            "every checkpoint failed validation: " + "; ".join(failures)
        )
    ckpt_epoch = int(manifest["epoch"])
    config = manifest["config"]

    sess = GraphSession(partition_with_bounds(edges, bounds), **session_kwargs)
    # Replay must not auto-compact on its own cadence: compactions replay
    # from their WAL records (plus the catch-up below); the recorded
    # interval is restored once the session is current.
    dg = sess.dynamic(
        index_maintenance=config["index_maintenance"],
        compact_interval=None,
        churn_threshold=config["churn_threshold"],
    )
    dg.restore_epoch(ckpt_epoch, int(manifest["compactions"]))
    if labels is not None:
        sess.set_index(labels)

    # Opened now, attached after replay: the replayed batches are already
    # in this WAL and must not be appended again.
    mgr = DurabilityManager(
        sess,
        root,
        fsync=config["fsync"],
        checkpoint_every=config["checkpoint_every"],
    )
    replayed = replayed_mutations = replayed_compactions = 0
    last_was_compaction = False
    for rec in mgr.wal.records(after_epoch=ckpt_epoch):
        if rec.epoch != dg.epoch + 1:
            raise CorruptLog(
                f"WAL replay expected epoch {dg.epoch + 1}, found "
                f"{rec.epoch} — log and checkpoint disagree"
            )
        if rec.compaction:
            sess.compact()
            replayed_compactions += 1
            last_was_compaction = True
        else:
            res = sess.apply_mutations(rec.inserts, rec.deletes)
            if not res.changed or res.epoch != rec.epoch:
                raise CorruptLog(
                    f"WAL record for epoch {rec.epoch} replayed as a no-op "
                    "— log contradicts the checkpointed edge set"
                )
            replayed_mutations += 1
            last_was_compaction = False
        replayed += 1
    sess._mutation_batches = int(manifest["mutation_batches"]) + replayed_mutations
    compact_interval = sess._compact_interval = config["compact_interval"]

    if cross_check:
        _cross_check_shards(sess)

    mgr.attach()

    # Deterministic catch-up: an auto-compaction fires the moment the
    # batch counter hits the interval, so if the crash landed between that
    # batch's ack and its compaction's WAL record, the uninterrupted run
    # is one compaction ahead — run it now (logged through the fresh
    # manager, so the WAL stays the prefix of the resumed history).
    if (
        compact_interval is not None
        and sess._mutation_batches > 0
        and sess._mutation_batches % compact_interval == 0
        and not last_was_compaction
    ):
        sess.compact()

    seconds = time.perf_counter() - t0
    if sess.instr.enabled:
        sess.instr.on_recovery_done(seconds, replayed)
    mgr.last_recovery = RecoveryReport(
        checkpoint_epoch=ckpt_epoch,
        epoch=int(dg.epoch),
        replayed_records=replayed,
        replayed_mutations=replayed_mutations,
        replayed_compactions=replayed_compactions,
        checkpoint_fallbacks=fallbacks,
        wal_truncated_bytes=int(mgr.wal.truncated_bytes),
        seconds=seconds,
        cross_checked=bool(cross_check),
    )
    return sess


def _cross_check_shards(sess) -> None:
    """Assert the recovered effective shards are byte-identical to a
    from-scratch partitioning of the replayed edge set."""
    from repro.graph.partition import partition_with_bounds

    dg = sess.dynamic()
    oracle = partition_with_bounds(dg.materialize_edges(), dg.bounds)
    for live, fresh in zip(sess.pg.partitions, oracle.partitions):
        same = (
            np.array_equal(live.out_csr.indptr, fresh.out_csr.indptr)
            and np.array_equal(live.out_csr.indices, fresh.out_csr.indices)
            and np.array_equal(live.in_csc.indptr, fresh.in_csc.indptr)
            and np.array_equal(live.in_csc.indices, fresh.in_csc.indices)
        )
        if not same:
            raise DurabilityError(
                f"cross-check failed: partition {live.part_id} diverges "
                "from a from-scratch rebuild of the recovered edge set"
            )


# --------------------------------------------------------------------------- #
# the crash drill
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class DrillReport:
    """One kill-and-recover drill that proved parity."""

    seed: int
    crash_kind: str
    crash_at: int
    backend: str
    checkpoint_epoch: int
    recovered_epoch: int
    final_epoch: int
    replayed_records: int
    resumed_batches: int
    waves_compared: int
    recovery_seconds: float


def drill_config(seed: int, root, *, scale: float = 1.0, num_machines: int = 2) -> dict:
    """The drill's deterministic workload parameters (picklable).

    The *structure* (batch count, cadences) is fixed so the injected kill
    ordinals always land; ``scale`` only shrinks the graph."""
    vertex_scale = 8
    num_edges = 3_000
    s = float(scale)
    while s <= 0.5 and vertex_scale > 6:
        vertex_scale -= 1
        s *= 2.0
    return {
        "seed": int(seed),
        "root": str(root),
        "vertex_scale": vertex_scale,
        "num_edges": max(int(num_edges * scale), 600),
        "num_machines": int(num_machines),
        "num_batches": 12,
        "batch_ops": 10,
        "wave_every": 3,
        "wave_width": 8,
        "k": 3,
        "compact_interval": 5,
        "checkpoint_every": 4,
    }


def _drill_edges(cfg: dict):
    from repro.graph.generators import rmat_edges

    return (
        rmat_edges(cfg["vertex_scale"], cfg["num_edges"], seed=cfg["seed"])
        .remove_self_loops()
        .deduplicate()
    )


def _drill_session(cfg: dict, backend: str = "inproc"):
    """A fresh session on the drill graph: dynamic on the drill's
    compaction cadence, hub-label index resident."""
    from repro.runtime.session import GraphSession

    sess = GraphSession(
        _drill_edges(cfg), num_machines=cfg["num_machines"], backend=backend
    )
    sess.dynamic(compact_interval=cfg["compact_interval"], churn_threshold=10.0)
    sess.index()
    return sess


def _drill_stream(cfg: dict):
    """Every mutation batch and query wave, pre-generated deterministically.

    Batches are generated against the evolving live edge set so every
    insert and delete is effective — the invariant that makes WAL replay
    advance the epoch exactly like the original run."""
    edges = _drill_edges(cfg)
    rng = np.random.default_rng(cfg["seed"] + 1)
    n = edges.num_vertices
    current = set(
        (edges.src.astype(np.int64) * n + edges.dst.astype(np.int64)).tolist()
    )
    batches = []
    for _ in range(cfg["num_batches"]):
        ins_keys: list[int] = []
        seen = set()
        while len(ins_keys) < cfg["batch_ops"]:
            u = int(rng.integers(0, n))
            v = int(rng.integers(0, n))
            key = u * n + v
            if u == v or key in current or key in seen:
                continue
            seen.add(key)
            ins_keys.append(key)
        pool = np.fromiter(current, dtype=np.int64, count=len(current))
        pool.sort()
        del_key = int(pool[int(rng.integers(0, pool.size))])
        current.difference_update([del_key])
        current.update(ins_keys)
        ins = np.array([[k // n, k % n] for k in ins_keys], dtype=np.int64)
        dels = np.array([[del_key // n, del_key % n]], dtype=np.int64)
        batches.append((ins, dels))
    num_waves = cfg["num_batches"] // cfg["wave_every"]
    waves = []
    for _ in range(num_waves):
        sources = rng.integers(0, n, size=cfg["wave_width"]).astype(np.int64)
        targets = rng.integers(0, n, size=cfg["wave_width"]).astype(np.int64)
        waves.append((sources, targets))
    return batches, waves


def _run_drill_workload(sess, cfg, batches, waves, start_batch: int = 0):
    """Apply batches ``start_batch..`` and answer the interleaved waves.

    Returns one comparable dict per wave: the epoch it ran at, the k-hop
    reach counts and the point-reach verdicts — the exact observables the
    parity contract quantifies over."""
    from repro.core.khop import concurrent_khop
    from repro.core.reachability import reachability_queries

    results = []
    for i in range(start_batch, cfg["num_batches"]):
        ins, dels = batches[i]
        sess.apply_mutations(ins, dels)
        if (i + 1) % cfg["wave_every"] == 0:
            w = (i + 1) // cfg["wave_every"] - 1
            sources, targets = waves[w]
            kres = concurrent_khop(sess, sources, cfg["k"])
            rres = reachability_queries(sess, sources, targets, cfg["k"])
            results.append(
                {
                    "wave": w,
                    "epoch": int(sess.graph_epoch),
                    "reached": [int(x) for x in kres.reached],
                    "verdicts": [bool(b) for b in rres.reachable],
                    "hops": [int(h) for h in rres.hops],
                }
            )
    return results


_CRASH_BUILDERS = {
    CRASH_POST_APPEND: FaultPlan.crash_post_append,
    CRASH_MID_CHECKPOINT: FaultPlan.crash_mid_checkpoint,
    CRASH_MID_COMPACTION: FaultPlan.crash_mid_compaction,
}


def _crash_child(cfg: dict) -> None:
    """The doomed process: runs the drill workload durably until the
    injected kill point fires (spawn target — must be module-level).

    Always in-process: mutations, the WAL and checkpoints are coordinator
    -side state, identical across backends, and a killed child must not
    leave pool workers or shm segments behind."""
    sess = _drill_session(cfg)
    batches, waves = _drill_stream(cfg)
    plan = _CRASH_BUILDERS[cfg["crash_kind"]](FaultPlan(), cfg["crash_at"])
    sess.enable_durability(
        cfg["root"], checkpoint_every=cfg["checkpoint_every"], fault_plan=plan
    )
    _run_drill_workload(sess, cfg, batches, waves)
    os._exit(0)  # kill point never fired — the drill treats this as failure


def run_durable_drill(
    seed: int,
    root,
    *,
    crash_kind: str | None = None,
    crash_at: int | None = None,
    backend: str = "inproc",
    scale: float = 1.0,
    num_machines: int = 2,
    timeout: float = 300.0,
) -> DrillReport:
    """Kill a durable child at a seeded point, recover, prove parity.

    1. A spawned child runs the deterministic workload with durability on
       and dies at the injected kill point (``os._exit(87)``).
    2. The parent runs the *same* workload uninterrupted on a twin session
       with durability off — the reference history.
    3. The parent recovers from the child's directory (``cross_check``
       on), asserts the recovered edge set equals the reference snapshot
       at the recovered epoch, resumes the remaining batches, and demands
       the resumed waves' reach counts, verdicts, hop distances and
       epochs equal the reference run's — bit-identical, on the requested
       backend.

    Raises :class:`~repro.errors.DurabilityError` on any divergence;
    returns the :class:`DrillReport` on success.
    """
    cfg = drill_config(seed, root, scale=scale, num_machines=num_machines)
    if crash_kind is None:
        event = FaultPlan.random_durable(
            seed,
            max_append=cfg["num_batches"] - 2,
            max_checkpoint=cfg["num_batches"] // cfg["checkpoint_every"],
            max_compaction=cfg["num_batches"] // cfg["compact_interval"],
        ).events[0]
        crash_kind, crash_at = event.kind, event.step
    elif crash_kind not in DURABLE_FAULT_KINDS:
        raise ValueError(
            f"crash_kind must be one of {DURABLE_FAULT_KINDS}, got {crash_kind!r}"
        )
    cfg["crash_kind"] = crash_kind
    cfg["crash_at"] = int(crash_at if crash_at is not None else 1)

    ctx = multiprocessing.get_context("spawn")
    child = ctx.Process(target=_crash_child, args=(cfg,))
    child.start()
    child.join(timeout)
    if child.is_alive():  # pragma: no cover - hung child
        child.kill()
        child.join()
        raise DurabilityError("drill child hung; killed")
    if child.exitcode != CRASH_EXIT_CODE:
        raise DurabilityError(
            f"drill child exited {child.exitcode}, expected "
            f"{CRASH_EXIT_CODE} — kill point {crash_kind}@{cfg['crash_at']} "
            "never fired (workload budget too small?)"
        )

    batches, waves = _drill_stream(cfg)
    ref = _drill_session(cfg, backend)
    try:
        ref_results = _run_drill_workload(ref, cfg, batches, waves)
        ref_store = ref.snapshots()
        final_ref_epoch = int(ref.graph_epoch)

        sess = recover_session(root, cross_check=True, backend=backend)
        try:
            recovery = sess._durability.last_recovery
            recovered_epoch = int(sess.graph_epoch)
            rec_edges = sess.dynamic().materialize_edges()
            ref_edges = ref_store.edges_at(recovered_epoch)
            if not (
                np.array_equal(rec_edges.src, ref_edges.src)
                and np.array_equal(rec_edges.dst, ref_edges.dst)
            ):
                raise DurabilityError(
                    f"recovered edge set at epoch {recovered_epoch} diverges "
                    "from the uninterrupted run"
                )
            start_batch = int(sess._mutation_batches)
            rec_results = _run_drill_workload(
                sess, cfg, batches, waves, start_batch=start_batch
            )
            resumed_waves = {r["wave"] for r in rec_results}
            ref_tail = [r for r in ref_results if r["wave"] in resumed_waves]
            if rec_results != ref_tail:
                raise DurabilityError(
                    "resumed waves diverge from the uninterrupted run: "
                    f"recovered={rec_results!r} reference={ref_tail!r}"
                )
            if int(sess.graph_epoch) != final_ref_epoch:
                raise DurabilityError(
                    f"final epoch {sess.graph_epoch} != reference "
                    f"{final_ref_epoch}"
                )
        finally:
            sess._durability.close()
            sess.close()
    finally:
        ref.close()

    return DrillReport(
        seed=int(seed),
        crash_kind=crash_kind,
        crash_at=int(cfg["crash_at"]),
        backend=backend,
        checkpoint_epoch=recovery.checkpoint_epoch,
        recovered_epoch=recovered_epoch,
        final_epoch=final_ref_epoch,
        replayed_records=recovery.replayed_records,
        resumed_batches=cfg["num_batches"] - start_batch,
        waves_compared=len(rec_results),
        recovery_seconds=recovery.seconds,
    )
