"""Persistent per-graph runtime state: build once, serve many batches.

The paper's deployment model (§1, §4) is a *service*: one partitioned graph
stays resident on the cluster while concurrent query batches and iterative
jobs arrive against it.  Before this module existed, every entry point in
:mod:`repro.core` rebuilt the world per call — re-partition, fresh
:class:`~repro.runtime.cluster.SimCluster`, new task list, one-shot engine.
:class:`GraphSession` owns that world for the session's lifetime:

* the :class:`~repro.graph.partition.PartitionedGraph` (built once),
* the :class:`SimCluster` and its :class:`~repro.runtime.netmodel.NetworkModel`,
* optional edge-set state, the cached undirected view (k-core), and
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
    MutationError,
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


class _PatchedIndexBuild:
    """:class:`~repro.index.build.IndexBuild` facade over a freshly patched
    :class:`~repro.index.incremental.IncrementalIndex`.

    ``labels`` packs the twin's dicts back into frozen arrays on first
    access (and freezes the result: later patches go through a new facade,
    so a held reference keeps the labels it first observed).  This keeps
    ``apply_mutations`` free of per-batch repack cost when no query reads
    the index between batches.
    """

    pruned_visits = 0

    def __init__(self, inc, build_seconds: float, labeled_visits: int):
        self._inc = inc
        self.build_seconds = build_seconds
        self.labeled_visits = labeled_visits
        self._labels = None

    @property
    def labels(self):
        if self._labels is None:
            self._labels = self._inc.finalize()
        return self._labels


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
    edge_sets:
        Build the blocked edge-set representation eagerly (§3.2) so
        traversal batches can run with ``use_edge_sets=True``.
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
        Results are bit-identical between backends; the edge-set and
        asynchronous modes are rejected there (:meth:`require_inproc`).
    pool_seed:
        Base seed for the pool workers' per-process RNGs (determinism).
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
        sets_per_partition: int = 8,
        consolidate_min_edges: int | None = None,
        instrumentation=None,
        backend: str = "inproc",
        pool_seed: int = 0,
        fault_tolerance: FaultTolerance | None = None,
        fault_plan: FaultPlan | None = None,
    ):
        from repro.telemetry.instrument import NULL_INSTRUMENTATION

        if backend not in ("inproc", "pool"):
            raise ValueError(f"backend must be 'inproc' or 'pool', got {backend!r}")
        self.instr = instrumentation or NULL_INSTRUMENTATION
        # dynamic-graph state (enabled lazily by dynamic()); initialised
        # before build_edge_sets below, which consults it
        self._dynamic = None  # DynamicGraph
        self._index_epoch = 0  # graph epoch the resident index matches
        self._inc_index = None  # IncrementalIndex twin of the labels
        self._index_maintenance = "incremental"
        self._compact_interval: int | None = None
        self._index_churn_threshold = 0.02
        self._mutation_batches = 0
        self._durability = None  # DurabilityManager, via enable_durability()
        if isinstance(graph, PartitionedGraph):
            self.pg = graph
        else:
            self.pg = range_partition(graph, num_machines)
        if edge_sets:
            self.build_edge_sets(sets_per_partition, consolidate_min_edges)
        self.netmodel = netmodel or NetworkModel()
        self.fault_tolerance = fault_tolerance or FaultTolerance()
        self.fault_plan = fault_plan
        self.cluster = SimCluster(
            self.pg,
            self.netmodel,
            self.instr,
            fault_plan=fault_plan if backend == "inproc" else None,
            fault_tolerance=self.fault_tolerance,
        )
        self.backend = backend
        self.pool_seed = pool_seed
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
                    seed=self.pool_seed,
                    fault_plan=self.fault_plan,
                    fault_tolerance=self.fault_tolerance,
                    # Pool deltas are cumulative relative to the base image;
                    # a pool started after mutations must pack the pristine
                    # base shards, not the spliced arrays.
                    base_shards=(
                        self._dynamic._base_shards
                        if self._dynamic is not None
                        else None
                    ),
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
        """
        self.fault_plan = plan
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
        """Live edges: the dynamic graph's count once mutations are on."""
        if self._dynamic is not None:
            return self._dynamic.num_edges
        return self.pg.num_edges

    @property
    def num_machines(self) -> int:
        return self.pg.num_partitions

    @property
    def has_edge_sets(self) -> bool:
        return all(p.edge_sets is not None for p in self.pg.partitions)

    def build_edge_sets(
        self, sets_per_partition: int = 8, consolidate_min_edges: int | None = None
    ) -> None:
        """Tile partitions into LLC-sized edge-sets (§3.2), once."""
        if self._dynamic is not None:
            raise MutationError(
                "edge-set mode is a static representation; it cannot be "
                "combined with a dynamic (mutable) session"
            )
        if any(p.edge_sets is None for p in self.pg.partitions):
            self.pg.build_edge_sets(sets_per_partition, consolidate_min_edges)

    # -- the dynamic graph (lazy import: dynamic depends on graph only) ----- #

    @property
    def is_dynamic(self) -> bool:
        """True once :meth:`dynamic` enabled streaming mutations."""
        return self._dynamic is not None

    @property
    def graph_epoch(self) -> int:
        """The resident graph's version counter (0 for a static session)."""
        return self._dynamic.epoch if self._dynamic is not None else 0

    @property
    def index_is_current(self) -> bool:
        """Whether the resident index (if any) matches the graph epoch."""
        return self._index_epoch == self.graph_epoch

    def dynamic(
        self,
        index_maintenance: str = "incremental",
        compact_interval: int | None = None,
        churn_threshold: float = 0.02,
    ):
        """Enable streaming mutations; returns the resident
        :class:`~repro.dynamic.delta.DynamicGraph` (idempotent — the
        configuration arguments only apply on the first call).

        ``index_maintenance`` controls what happens to a resident hub-label
        index when mutations land: ``"incremental"`` (default) patches it
        in place via resumption/repair BFS and falls back to a full
        rebuild past ``churn_threshold`` cumulative churn; ``"none"`` lets
        it go stale (the hybrid planner then routes point queries back to
        traversal).
        ``compact_interval`` folds the pending delta into a new base every
        that many mutated batches.
        """
        if self._dynamic is None:
            if index_maintenance not in ("incremental", "none"):
                raise ValueError(
                    "index_maintenance must be 'incremental' or 'none'"
                )
            if compact_interval is not None and compact_interval < 1:
                raise ValueError("compact_interval must be >= 1")
            if any(p.edge_sets is not None for p in self.pg.partitions):
                raise MutationError(
                    "edge-set mode is a static representation; drop it "
                    "before enabling mutations"
                )
            from repro.dynamic.delta import DynamicGraph

            self._dynamic = DynamicGraph(self.pg)
            self._index_maintenance = index_maintenance
            self._compact_interval = compact_interval
            self._index_churn_threshold = float(churn_threshold)
        return self._dynamic

    def snapshots(self):
        """A :class:`~repro.dynamic.snapshot.SnapshotStore` replaying any
        past epoch of the (dynamic) resident graph."""
        from repro.dynamic.snapshot import SnapshotStore

        return SnapshotStore.of(self.dynamic())

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
        pick non-default maintenance/compaction settings), takes a baseline
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
        partitions' effective shards in place (advancing the graph epoch),
        invalidates every epoch-dependent cache, maintains the resident
        index per the session's maintenance mode, and triggers compaction
        on the configured interval.  Returns the
        :class:`~repro.dynamic.delta.MutationResult` (``.changed`` is
        False — and nothing else happens — for an all-no-op batch).
        """
        dg = self.dynamic()
        # An incremental patch needs the pre-mutation adjacency, so the
        # index twin must exist before the graph changes underneath it.
        maintain = (
            self._index_maintenance == "incremental"
            and self._index_build is not None
            and self.index_is_current
        )
        if maintain and self._inc_index is None:
            from repro.index.incremental import IncrementalIndex

            self._inc_index = IncrementalIndex.from_graph(
                self.index(), self.pg,
                churn_threshold=self._index_churn_threshold,
            )
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
        if maintain:
            self._patch_index(res)
        # otherwise ("none", or an already-stale index) leave it; consumers
        # must consult index_is_current before trusting it.
        self._mutation_batches += 1
        # WAL-append before the caller is acknowledged (and before any
        # auto-compaction, which write-ahead-logs itself via compact()).
        if self._durability is not None:
            self._durability.on_mutation(res)
        if (
            self._compact_interval is not None
            and self._mutation_batches % self._compact_interval == 0
        ):
            self.compact()
        return res

    def compact(self):
        """Fold pending deltas into a new base (see
        :meth:`~repro.dynamic.delta.DynamicGraph.compact`).

        Advances the epoch without changing the graph; the pool is closed
        because its shm image holds the old base arrays — the next pool
        batch packs a fresh image from the compacted graph.
        """
        dg = self.dynamic()
        # True write-ahead: the compaction's record is durable before the
        # fold, so a crash in between replays to the exact epoch.
        if self._durability is not None:
            self._durability.log_compaction(dg.epoch + 1)
        with self.instr.span("compact", cat="dynamic"):
            res = dg.compact()
        self._invalidate_epoch_caches()
        self.close()
        if self.instr.enabled:
            self.instr.on_compaction()
            self.instr.on_epoch(dg.epoch)
        # Compaction is representation-only: an index current for the
        # pre-compaction epoch is current for the post-compaction one.
        if self._index_epoch == res.epoch - 1:
            self._index_epoch = res.epoch
        return res

    def _invalidate_epoch_caches(self) -> None:
        """Drop every cache keyed on (or derived from) the graph's edges."""
        self._task_cache.clear()
        self._service_cache.clear()
        self._undirected_pg = None

    def _patch_index(self, res) -> None:
        patch = self._inc_index.apply(res.inserted, res.deleted)
        if patch.needs_rebuild:
            self.index_build(rebuild=True)
            return
        self.instr.on_index_patch(patch.entries_patched)
        # Packing the patched labels back into frozen arrays is deferred
        # to the first consumer (planner/dist query): a mutation burst
        # with no interleaved index reads pays one repack, not one per
        # batch.
        self._index_build = _PatchedIndexBuild(
            self._inc_index,
            build_seconds=patch.seconds,
            labeled_visits=patch.entries_patched,
        )
        self._index_epoch = self.graph_epoch

    # -- the reachability index (lazy import: index depends on graph only) -- #

    @property
    def has_index(self) -> bool:
        return self._index_build is not None

    def index_build(self, rebuild: bool = False):
        """Build (once) and return the index with its build accounting."""
        from repro.index.build import build_hub_labels

        if self._index_build is None or rebuild:
            with self.instr.span("index build", cat="index"):
                self._index_build = build_hub_labels(self.pg)
            self._index_epoch = self.graph_epoch
            self._inc_index = None
        return self._index_build

    def index(self, rebuild: bool = False):
        """The resident :class:`~repro.index.labels.HubLabels`, built once.

        The pruned distance-label index is the session's second query
        engine: point reachability answers in label-intersection time,
        amortising one build over every later query (the hybrid planner in
        :class:`~repro.runtime.scheduler.QueryService` routes to it).
        """
        return self.index_build(rebuild=rebuild).labels

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
        self._index_epoch = self.graph_epoch
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
                self.pg.edges.symmetrize().remove_self_loops().deduplicate()
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
        asked for (``use_edge_sets=...``, ``asynchronous=...``); a requested
        one on a ``backend="pool"`` session is an unsupported combination,
        and so is ``use_edge_sets`` before the edge sets are built.
        """
        if self.uses_pool:
            for name, requested in modes.items():
                if requested:
                    raise UnsupportedConfigError(
                        f"{name} requires backend='inproc'"
                    )
        if modes.get("use_edge_sets") and not self.has_edge_sets:
            raise UnsupportedConfigError(
                "use_edge_sets requires built edge sets "
                "(GraphSession(edge_sets=True) or build_edge_sets())"
            )

    def _resident_key(self, cache_key: tuple) -> tuple:
        """The resident-task cache key, on either executor.

        On a dynamic session the graph epoch is joined into the key, so
        resident task state never straddles two graph versions (the
        in-process cache is also dropped on every epoch advance).
        """
        if self._dynamic is not None:
            return cache_key + (self._dynamic.epoch,)
        return cache_key

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
        # resident tasks, keyed as the pool's WorkerPool.ensure_task keys them
        key = self._resident_key(cache_key)
        tasks = self._task_cache.get(key)
        if tasks is None:
            tasks = self._task_cache[key] = [
                task_cls(machine, self.cluster, **task_kwargs)
                for machine in self.cluster.machines
            ]
        else:
            for task in tasks:
                task.reset(**task_kwargs)
        if sources is not None:
            for task, seeds in zip(tasks, self.seeds_by_machine(sources)):
                for local_vertex, q in seeds:
                    task.seed(local_vertex, q)
        engine = SuperstepEngine(
            self.cluster, tasks, combiner=combiner, asynchronous=asynchronous,
            probe=probe, probe_args=probe_args,
        )
        return self._run_on(engine, max_supersteps, on_step, max_virtual_seconds)

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

        While a dynamic session has mutations pending against the base
        image, the worker-side build is wrapped in
        :func:`~repro.dynamic.delta.build_with_delta`, so workers splice
        their shard up to the current epoch; the image is repacked only on
        compaction, which closes the pool.
        """
        key = self._resident_key(cache_key)
        build, build_kwargs = task_cls, task_kwargs
        deltas = (
            self._dynamic.pool_deltas() if self._dynamic is not None else None
        )
        if deltas is not None:
            from repro.dynamic.delta import build_with_delta

            build = build_with_delta
            build_kwargs = {
                "_inner_build": task_cls, "_deltas": deltas, **task_kwargs
            }
        seeds = None if sources is None else self.seeds_by_machine(sources)
        try:
            pool = self.pool()
            pool.ensure_task(
                key, build, build_kwargs, task_kwargs, payload_width,
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

    def khop_service(
        self, source: int, k: int | None, use_edge_sets: bool = False
    ) -> tuple[float, int]:
        """``(virtual seconds, vertices reached)`` of one standalone k-hop
        query, memoised.

        Both are a deterministic function of ``(root, k)`` on the resident
        graph, so the response-time experiments re-cost repeated roots from
        this cache instead of re-traversing.
        """
        key = (int(source), k, use_edge_sets)
        cached = self._service_cache.get(key)
        if cached is None:
            from repro.core.khop import concurrent_khop

            res = concurrent_khop(self, [int(source)], k, use_edge_sets=use_edge_sets)
            cached = (float(res.virtual_seconds), int(res.reached[0]))
            self._service_cache[key] = cached
        return cached

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GraphSession(n={self.num_vertices}, m={self.num_edges}, "
            f"machines={self.num_machines}, batches_run={self.batches_run})"
        )
