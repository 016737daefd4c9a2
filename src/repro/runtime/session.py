"""Persistent per-graph runtime state: build once, serve many batches.

The paper's deployment model (§1, §4) is a *service*: one partitioned graph
stays resident on the cluster while concurrent query batches and iterative
jobs arrive against it.  Before this module existed, every entry point in
:mod:`repro.core` rebuilt the world per call — re-partition, fresh
:class:`~repro.runtime.cluster.SimCluster`, new task list, one-shot engine.
:class:`GraphSession` owns that world for the session's lifetime:

* the :class:`~repro.graph.partition.PartitionedGraph` (built once),
* the :class:`SimCluster` and its :class:`~repro.runtime.netmodel.NetworkModel`,
* the cached undirected view (k-core), and
* per-algorithm task lists, *reset* between batches instead of reallocated.

Every algorithm entry point follows the same ``prepare → run → gather``
path on a session: :meth:`run_batch` takes the batch's *description*,
calls :meth:`prepare` to drop any queued messages (stale inbox traffic
must never leak into the next batch) and drives it to quiescence, and
:meth:`gather_batch` collects per-partition results.

There is **one batch contract**, whichever executor runs it: a
resident-task cache key, a task class plus the kwargs that build it on
first use and ``reset`` it on reuse, the batch's source vertices, a
combiner, an optional per-step ``probe`` evaluated next to each task, and
an ``on_step(step, stats, now, probes)`` that may return a ``(fn, args)``
control for every task.  A session selects its **executor** with
``backend``: ``"inproc"`` (default) runs every machine serially in this
process (:class:`~repro.runtime.engine.SuperstepEngine`); ``"pool"`` runs
the same description on a persistent shared-memory worker pool
(:mod:`repro.runtime.pool`) — one OS process per machine.  Answers and
virtual times are bit-identical either way; only wall-clock changes.  Pool
sessions should be closed (:meth:`GraphSession.close` or ``with
GraphSession(...) as sess:``) to stop the workers.

Sessions are not thread-safe: one batch executes at a time (the admission
loop in :class:`~repro.runtime.scheduler.QueryService` serialises batches
onto the session and accounts response times on the virtual clock).
"""

from __future__ import annotations

import logging

import numpy as np

from repro.errors import (
    InvalidQueryError,
    UnsupportedConfigError,
    WorkerLost,
)
from repro.graph.edgelist import EdgeList
from repro.graph.partition import PartitionedGraph, range_partition
from repro.runtime.cluster import SimCluster
from repro.runtime.engine import EngineResult, PartitionTask, SuperstepEngine
from repro.runtime.fault import FaultPlan, FaultTolerance
from repro.runtime.message import combine_or
from repro.runtime.netmodel import NetworkModel

__all__ = ["GraphSession"]

log = logging.getLogger("repro.runtime.session")

#: A pool batch repacks the shm image once the graph is more than this many
#: mutation records past it (see :meth:`GraphSession.run_batch_pool`).  On
#: FR-1B with 2 workers (2-core host), a respawned worker splices a 4-insert
#: record in ~4.3 ms and a pool restart takes ~850 ms, so replaying the
#: bound costs ~8 % of a restart.
_REPLAY_BOUND = 16


class GraphSession:
    """The resident runtime for one graph: cluster, cost model, task state.

    Parameters
    ----------
    graph:
        An :class:`EdgeList` (partitioned here into ``num_machines`` ranges)
        or a pre-partitioned :class:`PartitionedGraph` (adopted as-is).
    num_machines:
        Partition count when ``graph`` is an edge list.
    netmodel:
        Virtual-time cost model shared by every batch (calibrated default
        if omitted).
    edge_sets, sets_per_partition, consolidate_min_edges:
        Lay each partition's exchange plan out as edge-sets (§3.2):
        ``sets_per_partition`` degree-balanced row and column stripes,
        blocks under ``consolidate_min_edges`` edges merged.  A layout, not
        a mode: every job, direction, backend and the dynamic graph run on
        it with the flat scan's answers, counted work and virtual time.  It
        is fixed here — a graph that already has a different one is refused
        (:class:`~repro.errors.UnsupportedConfigError`) — and survives
        mutations (the plan is spliced under its frozen bounds).  The two
        settings without ``edge_sets=True`` are refused
        (:class:`~repro.errors.UnsupportedConfigError`): nothing would read
        them.
    instrumentation:
        A :class:`~repro.telemetry.Instrumentation` shared by every batch,
        the cluster/engine, the query service and the index planner; the
        no-op :data:`~repro.telemetry.NULL_INSTRUMENTATION` by default, so
        telemetry is opt-in and near-free when off.
    backend:
        ``"inproc"`` (default) executes every machine serially inside this
        process on the :class:`SimCluster`; ``"pool"`` executes supersteps
        on a persistent :class:`~repro.runtime.pool.WorkerPool` — one OS
        process per machine, shards and message payloads in shared memory
        — started lazily on the first batch and stopped by :meth:`close`.
        Results are bit-identical between backends; the asynchronous and
        out-of-core modes are rejected there (:meth:`require_inproc`).
    fault_tolerance:
        The one fault policy (:class:`~repro.runtime.fault.FaultTolerance`):
        checkpoint interval, per-step hang timeout and recovery budget,
        read by the shared superstep driver on either backend, and whether
        a pool batch that loses its workers degrades to the in-process
        engine (the default; answers stay bit-identical) or raises.
    fault_plan:
        A deterministic :class:`~repro.runtime.fault.FaultPlan` injection
        schedule (tests/chaos only).  On a pool session it is threaded into
        the workers; on an in-process session it arms the cluster's
        injector.  The degraded fallback never re-injects.
    """

    def __init__(
        self,
        graph: EdgeList | PartitionedGraph,
        num_machines: int = 1,
        netmodel: NetworkModel | None = None,
        edge_sets: bool = False,
        sets_per_partition: int | None = None,
        consolidate_min_edges: int | None = None,
        instrumentation=None,
        backend: str = "inproc",
        fault_tolerance: FaultTolerance | None = None,
        fault_plan: FaultPlan | None = None,
    ):
        from repro.telemetry.instrument import NULL_INSTRUMENTATION

        if backend not in ("inproc", "pool"):
            raise ValueError(f"backend must be 'inproc' or 'pool', got {backend!r}")
        if not edge_sets and (
            sets_per_partition is not None or consolidate_min_edges is not None
        ):
            raise UnsupportedConfigError(
                "sets_per_partition and consolidate_min_edges lay out edge-sets;"
                " pass edge_sets=True with them"
            )
        self.instr = instrumentation or NULL_INSTRUMENTATION
        # dynamic-graph state (enabled lazily by dynamic())
        self._dynamic = None  # DynamicGraph
        self._inc_index = None  # IncrementalIndex twin of the labels
        self._compact_interval: int | None = None
        self._durability = None  # DurabilityManager, via enable_durability()
        if isinstance(graph, PartitionedGraph):
            self.pg = graph
        else:
            self.pg = range_partition(graph, num_machines)
        if edge_sets:
            self.pg.build_edge_sets(
                8 if sets_per_partition is None else sets_per_partition,
                consolidate_min_edges,
            )
        self.netmodel = netmodel or NetworkModel()
        self.fault_tolerance = fault_tolerance or FaultTolerance()
        self.fault_plan = fault_plan
        # (worker, event id) of fired one-shot pool faults, across repacks
        self._fault_consumed: set[tuple[int, int]] = set()
        self.cluster = SimCluster(
            self.pg,
            self.netmodel,
            self.instr,
            fault_plan=fault_plan if backend == "inproc" else None,
            fault_tolerance=self.fault_tolerance,
        )
        self.backend = backend
        self._pool = None  # WorkerPool, started lazily by pool()
        self._degraded = False
        self._executor = None  # whichever executor ran the last batch
        self.pool_failures = 0
        self.degraded_batches = 0
        self.batches_run = 0
        self._task_cache: dict[tuple, list[PartitionTask]] = {}
        self._undirected_pg: PartitionedGraph | None = None
        self._service_cache: dict[tuple, tuple[float, int]] = {}
        self._index_build = None  # IndexBuild, cached by index_build()

    # -- the parallel backend ----------------------------------------------- #

    @property
    def uses_pool(self) -> bool:
        """True when described batches run on worker processes."""
        return self.backend == "pool"

    def pool(self):
        """The session's :class:`~repro.runtime.pool.WorkerPool`, started
        lazily on first use (one spawn per machine, graph image shared)."""
        if not self.uses_pool:
            raise RuntimeError("session backend is 'inproc'; no pool to start")
        if self._pool is None:
            from repro.runtime.pool import WorkerPool

            with self.instr.span("pool start", cat="pool"):
                self._pool = WorkerPool(
                    self.pg,
                    netmodel=self.netmodel,
                    instrumentation=self.instr,
                    fault_plan=self.fault_plan,
                    fault_tolerance=self.fault_tolerance,
                    fault_consumed=self._fault_consumed,
                )
        return self._pool

    @property
    def degraded(self) -> bool:
        """True once pool batches fell back to the in-process engine."""
        return self._degraded

    def reset_degradation(self) -> None:
        """Forget a degradation: the next pool batch tries workers again."""
        self._degraded = False

    def set_fault_plan(self, plan: FaultPlan | None) -> None:
        """Adopt an injection schedule for subsequent batches (test hook).

        Pool sessions arm the live workers (and any pool started later);
        in-process sessions arm the cluster's injector.  Never both — the
        degraded fallback of a pool session must run fault-free, or a
        sticky fault would chase the batch down the degradation ladder.
        The one-shot faults a pool fired are forgotten with the old plan.
        """
        self.fault_plan = plan
        self._fault_consumed.clear()
        if self.uses_pool:
            if self._pool is not None and not self._pool.closed:
                self._pool.set_fault_plan(plan)
        else:
            self.cluster.set_fault_plan(plan)

    def close(self) -> None:
        """Stop the worker pool (processes + shared memory), if started.

        Idempotent and exception-safe: closing twice, closing a session
        whose workers already died, or closing mid-batch from an ``except``
        block never raises and never leaks a shared-memory segment (the
        parent owns them all and unlinks unconditionally).  The session
        remains usable — the next pool batch starts a fresh pool.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        try:
            pool.shutdown()
        except Exception:  # pragma: no cover - defensive
            log.warning("pool shutdown raised; segments may leak", exc_info=True)

    def __enter__(self) -> "GraphSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- structure --------------------------------------------------------- #

    @property
    def num_vertices(self) -> int:
        return self.pg.num_vertices

    @property
    def num_edges(self) -> int:
        return self.pg.num_edges

    @property
    def num_machines(self) -> int:
        return self.pg.num_partitions

    @property
    def has_edge_sets(self) -> bool:
        return all(p.edge_sets is not None for p in self.pg.partitions)

    # -- the dynamic graph (lazy import: dynamic depends on graph only) ----- #

    @property
    def is_dynamic(self) -> bool:
        """True once :meth:`dynamic` enabled streaming mutations."""
        return self._dynamic is not None

    @property
    def graph_epoch(self) -> int:
        """The resident graph's version counter (0 for a static session)."""
        return self._dynamic.epoch if self._dynamic is not None else 0

    def dynamic(
        self,
        index_maintenance: str = "incremental",
        compact_interval: int | None = None,
    ):
        """Enable streaming mutations; returns the resident
        :class:`~repro.dynamic.delta.DynamicGraph` (idempotent — the
        configuration arguments only apply on the first call).

        A resident hub-label index is patched in place on every mutated
        batch, back to the labels a build under its frozen hub order would
        give the new graph, so it is always current;
        ``index_maintenance`` names that one mode and is kept for callers
        that still pass it.  ``compact_interval`` compacts (a new epoch
        over the same edges) every that many mutated batches.
        """
        if index_maintenance != "incremental":
            raise ValueError("index_maintenance must be 'incremental'")
        if self._dynamic is None:
            if compact_interval is not None and compact_interval < 1:
                raise ValueError("compact_interval must be >= 1")
            from repro.dynamic.delta import DynamicGraph

            self._dynamic = DynamicGraph(self.pg)
            self._compact_interval = compact_interval
        return self._dynamic

    # -- durability (lazy import: durability depends on dynamic + index) ----- #

    @property
    def is_durable(self) -> bool:
        """True while a :class:`~repro.runtime.durability.DurabilityManager`
        is attached (mutations are WAL'd, checkpoints are periodic)."""
        return self._durability is not None

    def enable_durability(
        self,
        wal_dir,
        *,
        fsync: str = "batch",
        checkpoint_every: int | None = 8,
        fault_plan=None,
    ):
        """Make this session crash-recoverable: WAL every mutation batch
        under ``wal_dir`` and checkpoint every ``checkpoint_every`` batches.

        Enables the dynamic layer if needed (call :meth:`dynamic` first to
        pick non-default compaction settings), takes a baseline
        checkpoint when the directory holds none, and returns the attached
        :class:`~repro.runtime.durability.DurabilityManager` (idempotent).
        Every checkpoint records these and the dynamic settings, so
        :func:`~repro.runtime.durability.recover_session` needs only the
        directory after a crash.
        """
        if self._durability is not None:
            return self._durability
        from repro.runtime.durability import DurabilityManager

        self.dynamic()
        return DurabilityManager(
            self,
            wal_dir,
            fsync=fsync,
            checkpoint_every=checkpoint_every,
            fault_plan=fault_plan,
        ).attach()

    def apply_mutations(self, inserts=(), deletes=()):
        """Apply one edge-mutation batch to the resident graph.

        The one write path of the dynamic layer: splices the touched
        partitions' shards in place (advancing the graph epoch),
        invalidates every epoch-dependent cache, patches the resident index
        and triggers compaction on the configured interval (every that
        many mutated batches, i.e. when ``epoch − compactions`` is a
        multiple of it).  Returns the
        :class:`~repro.dynamic.delta.MutationResult` (``.changed`` is
        False — and nothing else happens — for an all-no-op batch).
        """
        dg = self.dynamic()
        with self.instr.span("apply mutations", cat="dynamic"):
            res = dg.apply(inserts, deletes)
        if not res.changed:
            return res
        self._invalidate_epoch_caches()
        if self.instr.enabled:
            if res.inserted.size:
                self.instr.on_mutation("insert", res.inserted.shape[0])
            if res.deleted.size:
                self.instr.on_mutation("delete", res.deleted.shape[0])
            self.instr.on_epoch(dg.epoch)
        if self.has_index:
            self._patch_index(res)
        # WAL-append before the caller is acknowledged (and before any
        # auto-compaction, which write-ahead-logs itself via compact()).
        if self._durability is not None:
            self._durability.on_mutation(res)
        if (
            self._compact_interval is not None
            and (dg.epoch - dg.compactions) % self._compact_interval == 0
        ):
            self.compact()
        return res

    def compact(self):
        """Compact the dynamic graph (see
        :meth:`~repro.dynamic.delta.DynamicGraph.compact`).

        Advances the epoch without changing the graph.  Like any epoch
        advance it drops the resident tasks, in process and on the pool's
        next ``begin``; the pool itself keeps running.
        """
        dg = self.dynamic()
        # True write-ahead: the compaction's record is durable before the
        # fold, so a crash in between replays to the exact epoch.
        if self._durability is not None:
            self._durability.log_compaction(dg.epoch + 1)
        with self.instr.span("compact", cat="dynamic"):
            res = dg.compact()
        self._invalidate_epoch_caches()
        if self.instr.enabled:
            self.instr.on_compaction()
            self.instr.on_epoch(dg.epoch)
        return res

    def _invalidate_epoch_caches(self) -> None:
        """Drop every cache keyed on (or derived from) the graph's edges."""
        self._task_cache.clear()
        self._service_cache.clear()
        self._undirected_pg = None

    def _patch_index(self, res) -> None:
        if self._inc_index is None:
            from repro.index.incremental import IncrementalIndex

            # the resident labels are still the pre-batch ones: the twin
            # patches them over the shards the batch just spliced
            self._inc_index = IncrementalIndex(self.index(), self.pg)
        # Packing the patched labels back into frozen arrays is deferred
        # to the first index read: a mutation burst with no interleaved
        # index reads pays one repack, not one per batch.
        self.instr.on_index_patch(self._inc_index.apply(res.inserted, res.deleted))

    # -- the reachability index (lazy import: index depends on graph only) -- #

    @property
    def has_index(self) -> bool:
        return self._index_build is not None

    def index_build(self):
        """Build (once) and return the index with its build accounting
        (a dynamic session patches the labels since: see :meth:`index`)."""
        from repro.index.build import build_hub_labels

        if self._index_build is None:
            with self.instr.span("index build", cat="index"):
                self._index_build = build_hub_labels(self.pg)
            self._inc_index = None
        return self._index_build

    def index(self):
        """The resident :class:`~repro.index.labels.HubLabels`, built once.

        The pruned distance-label index is the session's second query
        engine: point reachability answers in label-intersection time,
        amortising one build over every later query (the hybrid planner in
        :class:`~repro.runtime.scheduler.QueryService` routes to it).
        """
        if self._inc_index is not None:
            return self._inc_index.finalize()
        return self.index_build().labels

    def set_index(self, labels) -> None:
        """Adopt a prebuilt/loaded index (e.g. from ``.npz``) as resident;
        structurally invalid labels are refused (:func:`check_labels`)."""
        from repro.index.build import IndexBuild
        from repro.index.labels import check_labels

        if labels.num_vertices != self.num_vertices:
            raise ValueError(
                f"index covers {labels.num_vertices} vertices, "
                f"graph has {self.num_vertices}"
            )
        check_labels(labels)
        self._index_build = IndexBuild(
            labels=labels, build_seconds=0.0, labeled_visits=0, pruned_visits=0
        )
        self._inc_index = None

    def index_planner(self):
        """An :class:`~repro.index.planner.IndexPlanner` over the resident
        index, charged against this session's cost model."""
        from repro.index.planner import IndexPlanner

        return IndexPlanner(self.index(), self.netmodel, self.instr)

    def undirected_pg(self) -> PartitionedGraph:
        """The partitioned undirected simple view, built once (k-core)."""
        if self._undirected_pg is None:
            simple = (
                self.pg.edge_list().symmetrize().remove_self_loops().deduplicate()
            )
            self._undirected_pg = range_partition(simple, self.num_machines)
        return self._undirected_pg

    # -- the prepare → seed → run path -------------------------------------- #

    def prepare(self) -> None:
        """Reset shared cluster state before a batch (:meth:`run_batch`
        calls it; pool workers do the same on ``begin``).

        Drops any queued inbox/outbox messages so traffic from a previous
        (possibly aborted) batch can never leak into this one.
        """
        with self.instr.span("session prepare", cat="session"):
            self.cluster.reset_buffers()

    def _as_vertex_ids(self, ids, name: str) -> np.ndarray:
        """Coerce to int64 vertex ids; reject lossy or out-of-range input."""
        arr = np.asarray(ids)
        if arr.dtype == object or arr.dtype.kind not in "iuf":
            raise InvalidQueryError(f"{name} must be integer vertex ids")
        out = arr.astype(np.int64)
        if arr.dtype.kind == "f" and not np.array_equal(out, arr):
            raise InvalidQueryError(f"{name} must be integer vertex ids")
        if out.size and (out.min() < 0 or out.max() >= self.pg.num_vertices):
            raise InvalidQueryError(f"{name.rstrip('s')} vertex out of range")
        return out

    def check_sources(self, sources, max_width: int) -> np.ndarray:
        """Validate a batch's source vertices against the resident graph."""
        sources = self._as_vertex_ids(sources, "sources")
        num_queries = int(sources.size)
        if not 1 <= num_queries <= max_width:
            raise InvalidQueryError(
                f"need 1..{max_width} sources, got {num_queries}"
            )
        return sources

    def check_targets(self, targets, num_queries: int) -> np.ndarray:
        """Validate a batch's target vertices (same checks as sources).

        Targets must align one-to-one with the batch's sources; bad ids
        raise a clean :class:`ValueError` instead of silently misindexing
        (float truncation) or raising deep inside the engine.
        """
        targets = self._as_vertex_ids(targets, "targets")
        if int(targets.size) != num_queries:
            raise InvalidQueryError(
                f"need one target per source, got {targets.size} targets "
                f"for {num_queries} sources"
            )
        return targets

    def require_inproc(self, **modes: bool) -> None:
        """Reject execution modes this session cannot run.

        Entry points call this before any work with the modes they were
        asked for (``asynchronous=...``, ``out_of_core=...``); a requested
        one on a ``backend="pool"`` session is an unsupported combination.
        """
        if self.uses_pool:
            for name, requested in modes.items():
                if requested:
                    raise UnsupportedConfigError(
                        f"{name} requires backend='inproc'"
                    )

    def seed_owners(self, sources) -> np.ndarray:
        """Owning machine of each seed vertex (QoS affinity batching)."""
        return self.cluster.owner_of(np.asarray(sources, dtype=np.int64))

    def seeds_by_machine(self, sources: np.ndarray) -> list[list[tuple[int, int]]]:
        """Group a batch's sources as ``(local_vertex, query)`` per machine."""
        per_machine: list[list[tuple[int, int]]] = [
            [] for _ in range(self.num_machines)
        ]
        owners = self.cluster.owner_of(sources)
        bounds = self.pg.bounds[owners]
        for q, (s, o, lo) in enumerate(zip(sources, owners, bounds)):
            per_machine[int(o)].append((int(s) - int(lo), q))
        return per_machine

    def run_batch(
        self,
        task_cls,
        task_kwargs: dict,
        cache_key: tuple,
        *,
        sources: np.ndarray | None = None,
        combiner=combine_or,
        asynchronous: bool = False,
        payload_width: int = 8,
        max_supersteps: int | None = None,
        on_step=None,
        probe=None,
        probe_args=None,
        max_virtual_seconds: float | None = None,
    ) -> EngineResult:
        """Drive one batch to quiescence on whichever executor the session
        has.

        The batch is *described*: ``task_cls``/``task_kwargs`` build one task
        per machine on first use under ``cache_key`` and ``reset`` the
        resident ones after that; query ``q`` is seeded at ``sources[q]`` on
        its owning machine; ``probe(task, *probe_args[machine])`` runs next
        to every task after each finalize and its results are the fourth
        argument of ``on_step(step, stats, now, probes)``, which may return
        a ``(fn, args)`` control applied to every task before the next
        superstep.  On a pool session what crosses to the workers (class,
        kwargs, combiner, probe, control) must pickle by qualified name —
        see :mod:`repro.core.adapters` — or is refused with
        :class:`~repro.errors.UnsupportedConfigError`; ``payload_width``
        (bytes per message entry) sizes the pool's outboxes.  Results are
        bit-identical on both executors; collect per-partition state with
        :meth:`gather_batch`.
        """
        self.prepare()
        if self.uses_pool:
            if not self._degraded:
                result = self.run_batch_pool(
                    task_cls, task_kwargs, cache_key,
                    sources=sources,
                    combiner=combiner,
                    payload_width=payload_width,
                    max_supersteps=max_supersteps,
                    on_step=on_step,
                    probe=probe,
                    probe_args=probe_args,
                    max_virtual_seconds=max_virtual_seconds,
                )
                if result is not None:
                    return result
            # degraded: the same description, in-process
            self.degraded_batches += 1
            self.instr.on_degrade()
        tasks = self.resident_tasks(task_cls, task_kwargs, cache_key)
        if sources is not None:
            for task, seeds in zip(tasks, self.seeds_by_machine(sources)):
                for local_vertex, q in seeds:
                    task.seed(local_vertex, q)
        engine = SuperstepEngine(
            self.cluster, tasks, combiner=combiner, asynchronous=asynchronous,
            probe=probe, probe_args=probe_args,
        )
        return self._run_on(engine, max_supersteps, on_step, max_virtual_seconds)

    def resident_tasks(self, task_cls, task_kwargs: dict, cache_key: tuple) -> list:
        """The tasks under ``cache_key`` (keyed as the pool's), reset to the kwargs."""
        tasks = self._task_cache.get(cache_key)
        if tasks is None:
            tasks = self._task_cache[cache_key] = [
                task_cls(machine, self.cluster, **task_kwargs)
                for machine in self.cluster.machines
            ]
        else:
            for task in tasks:
                task.reset(**task_kwargs)
        return tasks

    def _run_on(
        self, executor, max_supersteps, on_step, max_virtual_seconds
    ) -> EngineResult:
        """One armed executor's run, booked as this session's next batch."""
        with self.instr.span(
            f"run batch {self.batches_run}", cat="batch",
            query_batch=self.batches_run,
        ):
            result = executor.run(
                max_supersteps=max_supersteps,
                on_step=on_step,
                max_virtual_seconds=max_virtual_seconds,
            )
        self.batches_run += 1
        self._executor = executor
        return result

    def run_batch_pool(
        self,
        task_cls,
        task_kwargs: dict,
        cache_key: tuple,
        *,
        payload_width: int,
        sources: np.ndarray | None = None,
        combiner=combine_or,
        max_supersteps: int | None = None,
        on_step=None,
        probe=None,
        probe_args=None,
        max_virtual_seconds: float | None = None,
    ) -> EngineResult | None:
        """One pool attempt at :meth:`run_batch`'s description.

        Worker failures inside the run are recovered by the superstep
        driver's checkpoint replay.  A :class:`~repro.errors.WorkerLost` —
        the recovery budget spent, or a worker lost outside a superstep —
        closes the pool and, unless ``fault_tolerance.degrade`` is off
        (then it is raised), degrades the session and returns None:
        :meth:`run_batch` runs the description in-process — bit-identical
        answers — for this and later batches.  A
        :class:`~repro.errors.WorkerTaskError` (the task itself raised) is
        deterministic and propagates at once, the pool intact.  So does a
        description that does not pickle
        (:class:`~repro.errors.UnsupportedConfigError`), before any worker
        has changed.

        While a dynamic session's graph is past the pool's shm image, each
        ``begin`` carries the history records since the image, and workers
        splice their shard up to the current epoch
        (:meth:`~repro.runtime.pool.WorkerPool.ensure_task`).  Once the
        graph is more than ``_REPLAY_BOUND`` records past the image, the
        pool is repacked: closed, and started again on the current shards,
        which bounds what every ``begin`` ships and what a respawned worker
        replays.
        """
        seeds = None if sources is None else self.seeds_by_machine(sources)
        try:
            pool = self.pool()
            behind = self.graph_epoch - pool.image_epoch
            if behind > _REPLAY_BOUND:
                self.close()
                pool, behind = self.pool(), 0
            # history holds one record per epoch advance, newest last
            records = self._dynamic.history[-behind:] if behind else []
            pool.ensure_task(
                cache_key, task_cls, task_kwargs, payload_width,
                self.graph_epoch, records,
                seeds=seeds, combiner=combiner, probe=probe,
                probe_args=probe_args,
            )
            return self._run_on(pool, max_supersteps, on_step, max_virtual_seconds)
        except WorkerLost as exc:
            self.pool_failures += 1
            # run() may already have shut the pool down; close() also drops
            # our handle and is the one place that guarantees no leak
            self.close()
            if not self.fault_tolerance.degrade:
                raise
            self._degraded = True
            log.warning("degrading to the in-process engine: %s", exc)
        # the in-process cluster carries no fault plan, so a sticky fault
        # cannot chase the batch there
        return None

    def gather_batch(self, fn, *args) -> list:
        """Collect ``fn(task, *args)`` per machine from the last batch, on
        whichever executor ran it."""
        return self._executor.gather(fn, *args)

    # -- the one algorithm method (lazy import: core depends on runtime) ---- #

    def khop(self, sources, k: int | None, **kwargs):
        """``concurrent_khop(self, sources, k, **kwargs)``.

        Every other job is spelled only as its :mod:`repro.core` function
        (``reachability_queries(sess, …)``, ``pagerank(sess, …)``, …).  This
        one alias stays because the wall-clock benchmark harness calls it
        and is versioned separately from the library.
        """
        from repro.core.khop import concurrent_khop

        return concurrent_khop(self, sources, k, **kwargs)

    def khop_service(self, source: int, k: int | None) -> tuple[float, int]:
        """``(virtual seconds, vertices reached)`` of one standalone k-hop
        query, memoised.

        Both are a deterministic function of ``(root, k)`` on the resident
        graph, so the response-time experiments re-cost repeated roots from
        this cache instead of re-traversing.
        """
        key = (int(source), k)
        cached = self._service_cache.get(key)
        if cached is None:
            from repro.core.khop import concurrent_khop

            res = concurrent_khop(self, [int(source)], k)
            cached = (float(res.virtual_seconds), int(res.reached[0]))
            self._service_cache[key] = cached
        return cached

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GraphSession(n={self.num_vertices}, m={self.num_edges}, "
            f"machines={self.num_machines}, batches_run={self.batches_run})"
        )
