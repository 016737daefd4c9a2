"""The instrumentation facade the runtime is threaded with.

Exactly one object travels through the stack: an :class:`Instrumentation`
bundling a :class:`~repro.telemetry.metrics.MetricsRegistry` and a
:class:`~repro.telemetry.trace.Tracer`, injected at session construction
(`GraphSession(..., instrumentation=...)`) and propagated from there into
the :class:`~repro.runtime.cluster.SimCluster`, the
:class:`~repro.runtime.engine.SuperstepEngine`, the
:class:`~repro.runtime.scheduler.QueryService` and the
:class:`~repro.index.planner.IndexPlanner`.

The default is :data:`NULL_INSTRUMENTATION` — a shared no-op whose
``enabled`` flag is False.  Hot paths guard every telemetry block with one
attribute check (``if instr.enabled:``), so an uninstrumented run pays a
single branch per superstep, nothing per edge or per message; the overhead
benchmark pins this at ≤5% of drain time.

The ``on_*`` hooks encode the span taxonomy and metric naming scheme in one
place (documented in ARCHITECTURE.md §Telemetry) so the runtime call sites
stay one-liners.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.trace import Tracer

__all__ = ["Instrumentation", "NullInstrumentation", "NULL_INSTRUMENTATION"]


def _groups(values):
    """``(value, mask)`` per distinct entry of ``values``, in order of first
    occurrence — the order one hook call per entry would create series in.
    One pass per distinct value: a drain carries a few routes and lanes."""
    values = np.asarray(values)
    left = np.ones(values.size, dtype=bool)
    while left.any():
        value = values[np.argmax(left)]
        mine = values == value
        left &= ~mine
        yield str(value), mine


class Instrumentation:
    """Live telemetry: a metrics registry plus a span tracer."""

    enabled = True

    def __init__(self):
        self.metrics = MetricsRegistry()
        self.tracer = Tracer()
        m = self.metrics
        self._messages = m.counter(
            "cgraph_messages_total",
            "combined message tasks sent over the wire",
            ("machine",),
        )
        self._bytes = m.counter(
            "cgraph_bytes_total", "bytes sent over the wire", ("machine",)
        )
        self._edges = m.counter(
            "cgraph_edges_scanned_total",
            "edges scanned during frontier expansion",
            ("machine",),
        )
        self._vertices = m.counter(
            "cgraph_vertices_updated_total",
            "vertex state updates applied",
            ("machine",),
        )
        self._supersteps = m.counter(
            "cgraph_supersteps_total", "supersteps executed"
        )
        self._direction = m.counter(
            "cgraph_direction_partitions_total",
            "partition-steps executed per traversal direction",
            ("mode", "machine"),
        )
        self._phase_seconds = m.counter(
            "cgraph_phase_seconds_total",
            "virtual seconds spent per phase per machine",
            ("phase", "machine"),
        )
        self._queries = m.counter(
            "cgraph_queries_total", "queries drained", ("route",)
        )
        self._batches = m.counter(
            "cgraph_batches_total", "batches dispatched", ("discipline",)
        )
        self._response = m.histogram(
            "cgraph_response_seconds",
            "per-query response time (virtual seconds)",
            ("discipline",),
        )
        self._clock = m.gauge(
            "cgraph_virtual_clock_seconds", "service virtual clock"
        )
        self._index_lookups = m.counter(
            "cgraph_index_lookups_total", "point queries answered by the index"
        )
        self._index_entries = m.counter(
            "cgraph_index_entries_scanned_total",
            "label entries scanned by index lookups",
        )
        self._faults = m.counter(
            "cgraph_faults_total", "worker faults detected", ("kind",)
        )
        self._recoveries = m.counter(
            "cgraph_recoveries_total", "checkpoint-replay recoveries performed"
        )
        self._checkpoints = m.counter(
            "cgraph_checkpoints_total", "superstep checkpoints taken"
        )
        self._degraded = m.counter(
            "cgraph_degraded_batches_total",
            "batches served by the in-process fallback after pool loss",
        )
        self._shed = m.counter(
            "cgraph_queries_shed_total",
            "query submissions rejected by admission control",
        )
        self._deadline_missed = m.counter(
            "cgraph_deadline_missed_total",
            "queries left unresolved at the batch deadline",
        )
        self._mutations = m.counter(
            "cgraph_mutations_total",
            "edge mutations applied to the resident graph",
            ("kind",),
        )
        self._compactions = m.counter(
            "cgraph_compactions_total",
            "delta-into-base compactions of the resident graph",
        )
        self._index_patches = m.counter(
            "cgraph_index_patches_total",
            "label entries patched by incremental index maintenance",
        )
        self._epoch = m.gauge(
            "cgraph_graph_epoch", "resident graph version counter"
        )
        self._lane_queries = m.counter(
            "cgraph_lane_queries_total", "queries drained per SLO lane",
            ("lane",),
        )
        self._lane_response = m.histogram(
            "cgraph_lane_response_seconds",
            "per-query response time per SLO lane (virtual seconds)",
            ("lane",),
        )
        self._throttled = m.counter(
            "cgraph_tenant_throttled_total",
            "queries delayed by their tenant's token-bucket quota",
            ("tenant",),
        )
        self._cache_hits = m.counter(
            "cgraph_cache_hits_total", "result-cache hits"
        )
        self._cache_misses = m.counter(
            "cgraph_cache_misses_total", "result-cache misses"
        )
        self._cache_entries = m.gauge(
            "cgraph_cache_entries", "resident result-cache entries"
        )
        self._wal_appends = m.counter(
            "cgraph_wal_appends_total", "mutation records appended to the WAL"
        )
        self._wal_fsyncs = m.counter(
            "cgraph_wal_fsyncs_total", "fsync barriers issued by the WAL"
        )
        self._wal_bytes = m.counter(
            "cgraph_wal_bytes_total", "framed bytes appended to the WAL"
        )
        self._recovery_seconds = m.gauge(
            "cgraph_recovery_seconds",
            "wall seconds of the last checkpoint-load + WAL-replay recovery",
        )
        self._replayed = m.counter(
            "cgraph_replayed_records_total",
            "WAL records replayed during recovery",
        )

    # -- spans --------------------------------------------------------------- #

    def span(self, name: str, cat: str = "", tid: int = 0, **args):
        """A nested wall+virtual span (context manager)."""
        return self.tracer.span(name, cat=cat, tid=tid, **args)

    # -- runtime hooks ------------------------------------------------------- #

    def on_superstep(
        self,
        step: int,
        per_machine,
        netmodel,
        virt_start: float,
        virt_end: float,
        wall_start: float,
        wall_end: float,
        wall_compute=None,
    ) -> None:
        """Record one superstep: its span, per-partition compute spans,
        comm-flush spans, and the work counters.

        Virtual placement follows the cost model: synchronous supersteps
        compute first then flush at the barrier (comm spans start after the
        slowest compute); asynchronous supersteps overlap both at the start.
        ``wall_compute`` (pool backend) is the measured per-machine wall
        seconds, recorded as ``wall_ms`` on each compute span so traces show
        real parallel time alongside the modelled virtual time.
        """
        tr = self.tracer
        computes = [
            netmodel.compute_seconds(s) + netmodel.disk_seconds(s)
            for s in per_machine
        ]
        comms = [netmodel.comm_seconds(s) for s in per_machine]
        parent = tr.record(
            f"superstep {step}",
            cat="superstep",
            virt_start=virt_start,
            virt_end=virt_end,
            wall_start=wall_start,
            wall_end=wall_end,
            edges_scanned=sum(s.edges_scanned for s in per_machine),
            messages=sum(s.total_messages for s in per_machine),
            bytes=sum(s.total_bytes for s in per_machine),
            push_partitions=sum(s.push_partitions for s in per_machine),
            pull_partitions=sum(s.pull_partitions for s in per_machine),
        ).span_id
        comm_base = virt_start if netmodel.async_overlap else (
            virt_start + max(computes, default=0.0)
        )
        for i, s in enumerate(per_machine):
            label = str(i)
            if computes[i] > 0.0 or (wall_compute and wall_compute[i] > 0.0):
                extra = {}
                if wall_compute is not None:
                    extra["wall_ms"] = round(wall_compute[i] * 1e3, 3)
                if s.pull_partitions:
                    extra["direction"] = "pull"
                elif s.push_partitions:
                    extra["direction"] = "push"
                tr.record(
                    f"compute p{i}",
                    cat="compute",
                    tid=i,
                    parent_id=parent,
                    virt_start=virt_start,
                    virt_end=virt_start + computes[i],
                    edges_scanned=s.edges_scanned,
                    vertices_updated=s.vertices_updated,
                    **extra,
                )
            if comms[i] > 0.0:
                tr.record(
                    f"comm flush p{i}",
                    cat="comm",
                    tid=i,
                    parent_id=parent,
                    virt_start=comm_base,
                    virt_end=comm_base + comms[i],
                    messages=s.total_messages,
                    bytes=s.total_bytes,
                )
            self._messages.inc(s.total_messages, machine=label)
            self._bytes.inc(s.total_bytes, machine=label)
            self._edges.inc(s.edges_scanned, machine=label)
            self._vertices.inc(s.vertices_updated, machine=label)
            if s.push_partitions:
                self._direction.inc(s.push_partitions, mode="push", machine=label)
            if s.pull_partitions:
                self._direction.inc(s.pull_partitions, mode="pull", machine=label)
            self._phase_seconds.inc(computes[i], phase="compute", machine=label)
            self._phase_seconds.inc(comms[i], phase="comm", machine=label)
        self._supersteps.inc()

    def on_dispatch(self, discipline: str) -> None:
        self._batches.inc(discipline=discipline)

    def on_queries_done(self, routes, discipline: str, response_seconds) -> None:
        """One drain's queries: per-query ``routes`` and response times,
        aligned, in submission order."""
        for route, mine in _groups(routes):
            self._queries.inc(int(mine.sum()), route=route)
        self._response.observe_many(response_seconds, discipline=discipline)

    def on_clock(self, virtual_seconds: float) -> None:
        self._clock.set(float(virtual_seconds))

    def on_index_lookup(self, num_queries: int, entries_scanned: int) -> None:
        self._index_lookups.inc(num_queries)
        self._index_entries.inc(entries_scanned)

    # -- fault-tolerance hooks ----------------------------------------------- #

    def on_fault(self, kind: str) -> None:
        self._faults.inc(kind=kind)

    def on_recovery(self) -> None:
        self._recoveries.inc()

    def on_checkpoint(self) -> None:
        self._checkpoints.inc()

    def on_degrade(self) -> None:
        self._degraded.inc()

    def on_shed(self, count: int = 1) -> None:
        self._shed.inc(count)

    def on_deadline_miss(self, count: int = 1) -> None:
        self._deadline_missed.inc(count)

    # -- dynamic-graph hooks -------------------------------------------------- #

    def on_mutation(self, kind: str, count: int = 1) -> None:
        self._mutations.inc(count, kind=kind)

    def on_compaction(self) -> None:
        self._compactions.inc()

    def on_index_patch(self, entries: int) -> None:
        self._index_patches.inc(entries)

    def on_epoch(self, epoch: int) -> None:
        self._epoch.set(float(epoch))

    # -- durability hooks ------------------------------------------------------ #

    def on_wal_append(self, nbytes: int) -> None:
        self._wal_appends.inc()
        self._wal_bytes.inc(int(nbytes))

    def on_wal_fsync(self) -> None:
        self._wal_fsyncs.inc()

    def on_durable_checkpoint(self) -> None:
        # Shares cgraph_checkpoints_total with the superstep layer: both
        # are "state made restorable" events, distinguished by context.
        self._checkpoints.inc()

    def on_recovery_done(self, seconds: float, replayed: int) -> None:
        self._recovery_seconds.set(float(seconds))
        self._replayed.inc(int(replayed))

    # -- QoS hooks ------------------------------------------------------------ #

    def on_lane_queries(self, lanes, response_seconds) -> None:
        """One drain's queries per SLO lane: per-query ``lanes`` and
        response times, aligned, in submission order."""
        response_seconds = np.asarray(response_seconds)
        for lane, mine in _groups(lanes):
            self._lane_queries.inc(int(mine.sum()), lane=lane)
            self._lane_response.observe_many(response_seconds[mine], lane=lane)

    def on_throttle(self, tenant: str) -> None:
        self._throttled.inc(tenant=tenant)

    def on_cache(self, hits: int, misses: int, entries: int) -> None:
        self._cache_hits.inc(hits)
        self._cache_misses.inc(misses)
        self._cache_entries.set(float(entries))


class NullInstrumentation(Instrumentation):
    """The default: every hook is a no-op and ``enabled`` is False.

    Allocates no registry and no tracer; constructing one is free enough to
    be the default argument everywhere.  The no-ops are generated from
    :class:`Instrumentation`'s own ``on_*`` attributes (below), so a hook
    added there is silenced here without being mirrored by hand.
    """

    enabled = False

    def __init__(self):
        self.metrics = None
        self.tracer = None

    def span(self, name: str, cat: str = "", tid: int = 0, **args):
        return nullcontext()


def _noop(self, *args, **kwargs) -> None:
    pass


for _hook in vars(Instrumentation):
    if _hook.startswith("on_"):
        setattr(NullInstrumentation, _hook, _noop)


#: The shared no-op facade used wherever no instrumentation is injected.
NULL_INSTRUMENTATION = NullInstrumentation()
