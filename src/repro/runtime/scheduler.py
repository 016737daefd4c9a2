"""Concurrent-query admission and response-time accounting.

The paper's headline metric is the *response time of each query in a
concurrent environment* (§4.1).  Three execution disciplines appear in the
evaluation:

* **pool** — C-Graph's default: queries run concurrently on the cluster's
  worker pool (one slot per hardware-thread group); a query's response time
  is queueing delay + its own service time.  Titan is modelled the same way
  (it also serves queries concurrently), just with far larger service times.
* **serialized** — the Gemini comparison (Figures 8b, 13): "concurrently
  issued queries are serialized and a query's response time will be
  determined by any backlogged queries".  Equivalent to a pool of width 1.
* **batch** — bit-parallel mode (§3.5, Figure 13): queries are packed into
  batches that traverse together; a query completes when its own frontier
  dies (possibly earlier than its batch finishes the full k hops).

:class:`QueryService` is the response-time accounting: an admission loop
over a persistent :class:`~repro.runtime.session.GraphSession`.  Queries are
submitted with arrival times and executed for real on the resident graph —
per-query response times fall out of the engine's virtual clock instead of a
post-hoc service-time model.

:func:`simulate_fifo_pool` is the one offline function beside it: a
deterministic multi-server FIFO queue simulation for service times that do
not come from a session (Titan's and Figure 7's wall-clock measurements,
Gemini's serialized stream at width 1).  On a session's own service times
it computes exactly the service's ``discipline="pool"`` recurrence.

The service has one drain loop and one selector.  Pending queries are a
struct of arrays (one chunk per submit call); a drain concatenates them into
one queue whose output columns — start, finish, verdict, route, … — the
lanes write by row, and those columns *are* the :class:`ServiceReport`.
``drain()`` asks the selector what runs next — a group of rows, the lane it
runs on (index/cache lookups, a worker slot, or a bit-parallel traversal
batch), and when — runs it, and asks again.  FIFO and weighted-fair
scheduling are two rules of that selector.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.core.frontier import MAX_WIDE_BATCH
from repro.errors import (
    InvalidQueryError,
    MutationError,
    Overloaded,
    UnsupportedConfigError,
)
from repro.graph.validation import check_hops
from repro.qos.lanes import (
    INTERACTIVE_LANE,
    QosConfig,
    TokenBucket,
    WeightedFairQueue,
)
from repro.qos.locality import affinity_select

__all__ = [
    "SLOTS_PER_MACHINE",
    "simulate_fifo_pool",
    "QueryService",
    "ServiceReport",
]

#: Usable query slots per machine.  The paper runs up to 350 concurrent
#: queries on 9 × 44-core machines, but traversal work is memory-bound, so a
#: slot count well below the core count is realistic.  16 per machine
#: reproduces the paper's knee: up to ~100 queries respond fast; at 350
#: queueing dominates (Figure 12).
SLOTS_PER_MACHINE = 16


def simulate_fifo_pool(
    service_times,
    concurrency: int,
    arrival_times=None,
) -> np.ndarray:
    """Response times of queries run FIFO on ``concurrency`` worker slots.

    Queries are admitted in index order (ties in arrival time keep index
    order).  Returns ``finish - arrival`` per query.  Service times and
    arrivals must be finite and non-negative, as the service requires.
    """
    service = np.asarray(service_times, dtype=np.float64)
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    if not np.all(np.isfinite(service) & (service >= 0)):
        raise ValueError("service times must be finite and non-negative")
    n = service.size
    arrivals = (
        np.zeros(n) if arrival_times is None else np.asarray(arrival_times, float)
    )
    if arrivals.shape != service.shape:
        raise ValueError("arrival_times must match service_times")
    if not np.all(np.isfinite(arrivals) & (arrivals >= 0)):
        raise ValueError("arrival times must be finite and non-negative")
    order = np.argsort(arrivals, kind="stable")
    free: list[float] = [0.0] * concurrency
    heapq.heapify(free)
    response = np.empty(n)
    for idx in order:
        slot = heapq.heappop(free)
        start = max(slot, arrivals[idx])
        finish = start + service[idx]
        heapq.heappush(free, finish)
        response[idx] = finish - arrivals[idx]
    return response


# --------------------------------------------------------------------------- #
# Online admission: the query service
# --------------------------------------------------------------------------- #


#: Route codes of a drain's ``route`` column, indexing :data:`_ROUTE_NAMES`.
_TRAVERSAL, _INDEX, _CACHE = 0, 1, 2
_ROUTE_NAMES = np.array(["traversal", "index", "cache"], dtype="<U9")


class _Queue:
    """One drain's queries as a struct of arrays, in submission order.

    The input columns are what was asked (``targets`` is -1 for enumeration
    queries; lanes and tenants are codes into the service's name tables).
    ``order`` is the queue order: rows sorted by arrival, ties by id.  The
    lanes write the output columns by row; ``finish`` stays NaN until a
    row has run.
    """

    #: The input columns and their dtypes: the columns of a pending chunk.
    INPUTS = (
        ("ids", np.int64), ("sources", np.int64), ("targets", np.int64),
        ("arrivals", np.float64), ("lanes", np.int64), ("tenants", np.int64),
    )
    __slots__ = (
        *(name for name, _ in INPUTS),
        "order", "start", "finish", "verdict", "reached", "route", "missed",
        "epoch", "eligible",
    )

    def __init__(self, ids, sources, targets, arrivals, lanes, tenants):
        n = ids.size
        self.ids, self.sources, self.targets = ids, sources, targets
        self.arrivals, self.lanes, self.tenants = arrivals, lanes, tenants
        self.order = np.lexsort((ids, arrivals))
        self.start = np.full(n, np.nan)
        self.finish = np.full(n, np.nan)
        self.verdict = np.full(n, -1, dtype=np.int8)
        self.reached = np.full(n, -1, dtype=np.int64)
        self.route = np.full(n, _TRAVERSAL, dtype=np.int8)
        self.missed = np.zeros(n, dtype=bool)
        self.epoch = np.full(n, -1, dtype=np.int64)
        #: earliest start each row's tenant quota allowed (QoS rule only)
        self.eligible: list[float] = []

    def inputs(self, rows) -> tuple:
        """The input columns of ``rows``, as a pending chunk."""
        return tuple(getattr(self, name)[rows] for name, _ in self.INPUTS)


#: A pending chunk of no queries.
_NO_QUERIES = tuple(np.empty(0, dtype=dtype) for _, dtype in _Queue.INPUTS)


def _checked_arrivals(arrivals) -> np.ndarray:
    """NaN/inf arrivals would silently corrupt the virtual timeline (they
    sort arbitrarily and poison every max/min the drain computes), so they
    are rejected at the door alongside negative ones."""
    arrivals = np.asarray(arrivals, dtype=np.float64)
    bad = ~(np.isfinite(arrivals) & (arrivals >= 0))
    if bad.any():
        arrival = float(arrivals[bad].flat[0])
        raise InvalidQueryError(
            f"arrival time must be finite and non-negative, got {arrival!r}"
        )
    return arrivals


def _name_array(names: list[str], codes: np.ndarray) -> np.ndarray:
    """``names[codes]`` as a numpy string array exactly as wide as the
    longest name it holds (``<U1`` when empty)."""
    used = np.flatnonzero(np.bincount(codes, minlength=len(names))).tolist()
    width = max([1] + [len(names[c]) for c in used])
    return np.array(names, dtype=f"<U{width}")[codes]


@dataclass
class ServiceReport:
    """Per-query accounting for one :meth:`QueryService.drain`.

    Arrays are aligned in submission order of the drained queries:
    ``response_seconds[i] = finish_seconds[i] - arrival_seconds[i]``.
    ``start_seconds[i]`` is when query ``i``'s batch (or pool slot) began
    executing, so ``start - arrival`` is its queueing delay.

    Point reachability queries additionally carry their ``targets`` (-1 for
    enumeration queries) and their verdicts in ``reachable`` (1/0; -1 for
    enumeration queries); enumeration queries carry their answer's size in
    ``reached`` (vertices within k hops, the partial count when a deadline
    cut them short; -1 for point queries).  ``routes`` is the execution
    strategy each query was routed to; ``edges_scanned`` and ``supersteps``
    sum the drain's traversal batches (index, cache and slot lanes add
    nothing).
    """

    query_ids: np.ndarray
    sources: np.ndarray
    arrival_seconds: np.ndarray
    start_seconds: np.ndarray
    finish_seconds: np.ndarray
    num_batches: int
    clock_seconds: float
    targets: np.ndarray | None = None  # int64, -1 = no target
    reachable: np.ndarray | None = None  # int8, -1 = not a point query
    reached: np.ndarray | None = None  # int64, -1 = point query
    routes: np.ndarray | None = None  # "index" | "traversal" per query
    busy_seconds: float = 0.0  # virtual execution time this drain dispatched
    edges_scanned: int = 0
    supersteps: int = 0
    #: Per-query flag: its batch hit the service deadline before the query
    #: settled (its answer is the partial/best-effort one).  None when the
    #: service runs without a deadline.
    deadline_missed: np.ndarray | None = None
    #: True when the session served batches on the in-process fallback
    #: after losing its worker pool (see GraphSession degradation ladder).
    degraded: bool = False
    #: Submissions rejected by admission control since the last drain.
    shed: int = 0
    #: Per-query graph epoch its batch ran against (dynamic sessions only;
    #: None on a static session).  Every query of one dispatch shares one
    #: epoch — a batch never straddles a mutation.
    epochs: np.ndarray | None = None
    #: Queued mutation batches this drain applied (interleaved with query
    #: batches in arrival order; charged zero virtual time).
    mutations_applied: int = 0
    #: Per-query SLO lane / tenant (submission metadata; FIFO services
    #: default every query to the interactive lane and "default" tenant).
    lanes: np.ndarray | None = None
    tenants: np.ndarray | None = None
    #: Result-cache traffic this drain (hybrid planner with a ResultCache).
    cache_hits: int = 0
    cache_misses: int = 0
    #: Queries whose start was delayed by their tenant's token bucket.
    throttled: int = 0

    @property
    def response_seconds(self) -> np.ndarray:
        return self.finish_seconds - self.arrival_seconds

    @property
    def queueing_seconds(self) -> np.ndarray:
        return self.start_seconds - self.arrival_seconds

    @property
    def num_queries(self) -> int:
        return int(self.query_ids.size)

    @property
    def makespan(self) -> float:
        """Virtual seconds of execution this drain dispatched.

        In batch/traversal disciplines this is the sum of every dispatched
        batch's engine time — exactly the sum of the drain's per-superstep
        virtual-clock durations in an exported trace.  Idle time waiting
        for arrivals is excluded; in pool mode memoised service times are
        charged even when the engine run was cached.
        """
        return float(self.busy_seconds)

    # Empty drains (zero queries) are a legal steady-state of a long-lived
    # service; summary accessors return 0.0 instead of tripping numpy's
    # empty-slice warnings or reduce errors.
    @property
    def mean_response(self) -> float:
        if self.num_queries == 0:
            return 0.0
        return float(self.response_seconds.mean())

    @property
    def max_response(self) -> float:
        if self.num_queries == 0:
            return 0.0
        return float(self.response_seconds.max())

    def _lane_responses(self, lane: str | None) -> np.ndarray:
        if lane is None:
            return self.response_seconds
        if self.lanes is None:
            return np.empty(0)
        return self.response_seconds[self.lanes == lane]

    def lane_queries(self, lane: str) -> int:
        """How many drained queries ran on ``lane`` (0 for unknown lanes)."""
        return int(self._lane_responses(lane).size)

    def percentile(self, q: float, lane: str | None = None) -> float:
        """The ``q``-th response-time percentile, optionally for one lane.

        A lane that drained zero queries (or an unknown lane name) reports
        0.0 — never NaN — matching the empty-drain accessors above.
        """
        responses = self._lane_responses(lane)
        if responses.size == 0:
            return 0.0
        return float(np.percentile(responses, q))

    def p50(self, lane: str | None = None) -> float:
        """Median response time (seconds), optionally per lane."""
        return self.percentile(50.0, lane)

    def p95(self, lane: str | None = None) -> float:
        """95th-percentile response time (seconds), optionally per lane."""
        return self.percentile(95.0, lane)

    def p99(self, lane: str | None = None) -> float:
        """99th-percentile response time (seconds) — the tail the paper's
        concurrency figures are about.  ``p99(lane="interactive")`` is the
        per-SLO-class tail the QoS layer protects."""
        return self.percentile(99.0, lane)

    def __repr__(self) -> str:
        base = (
            f"ServiceReport(queries={self.num_queries}, "
            f"batches={self.num_batches}, "
            f"mean={self.mean_response:.6f}s, p99={self.p99():.6f}s, "
            f"makespan={self.makespan:.6f}s, clock={self.clock_seconds:.6f}s"
        )
        if self.lanes is not None and self.num_queries:
            names = sorted(set(self.lanes.tolist()))
            if len(names) > 1:
                per = ", ".join(
                    f"{name}: n={self.lane_queries(name)} "
                    f"p99={self.p99(lane=name):.6f}s"
                    for name in names
                )
                base += f", lanes=[{per}]"
        if self.cache_hits or self.cache_misses:
            base += f", cache={self.cache_hits}h/{self.cache_misses}m"
        return base + ")"


class QueryService:
    """An online k-hop query service over one persistent session.

    Arriving queries (``submit`` / ``submit_many``) queue until
    :meth:`drain` runs the admission loop; enumeration queries (no target)
    run under the configured ``discipline``:

    * ``discipline="batch"`` — the paper's bit-parallel mode.  At virtual
      time ``now = max(clock, earliest pending arrival)``, up to
      ``batch_width`` already-arrived queries are packed FIFO into one
      bit-parallel batch and *executed for real* on the session; a query
      finishes at ``now`` plus its own in-batch completion offset (frontiers
      that die early respond early), and the clock advances by the batch's
      measured virtual seconds.
    * ``discipline="pool"`` — the multi-worker FIFO discipline.  Each query
      runs alone on the next free of ``concurrency`` slots, charged its
      standalone service time (memoised per root on the session).  This is
      by construction the same recurrence :func:`simulate_fifo_pool`
      computes, so the offline simulator cross-checks the service exactly.

    Queries submitted with a ``target`` are *point reachability* queries
    (is ``t`` within ``k`` hops of ``s``?).  The ``planner`` picks their
    execution strategy:

    * ``planner="traversal"`` (default) — point queries run on the
      bit-parallel reachability engine, packed FIFO into batches ahead of
      the enumeration queries;
    * ``planner="hybrid"`` — point queries route to the session's resident
      distance-label index (built on first use) on a dedicated lookup lane:
      no queueing behind traversal batches, each lookup charged its
      label-scan cost under the session's calibrated cost model.
      Enumeration queries (no target) always keep the traversal path —
      labels bound distances, they cannot enumerate reach sets.

    ``cross_check=True`` re-runs answers off the service's accounting
    books and raises on any mismatch — the bit-identical contract.  On a
    static session it requires the hybrid planner (index answers checked
    against the traversal engine); on a dynamic session (one whose
    :meth:`~repro.runtime.session.GraphSession.dynamic` layer is enabled)
    it additionally checks **every** dispatched batch against a
    rebuilt-from-scratch oracle graph at the batch's epoch — answers and
    virtual clocks both.

    **Mutation lane** — on a dynamic session, :meth:`apply_mutations`
    either applies an edge-mutation batch immediately or queues it with an
    arrival time; :meth:`drain` then interleaves due mutations with query
    batches: a mutation batch applies (advancing the graph epoch) before
    any query batch dispatched at or after its arrival, every query batch
    runs entirely against one epoch (recorded per query in
    ``ServiceReport.epochs``), and mutations are charged zero virtual time
    (ingestion is off the query clock).  The hybrid planner consults the
    index epoch before routing: point queries fall back to the traversal
    lane whenever the resident index is stale for the current epoch.

    **QoS** — the drain's selector orders batches FIFO by default (point
    queries first, then the head of the line plus whoever has arrived by
    the time it starts).  Passing a :class:`~repro.qos.lanes.QosConfig`
    switches its rule to deterministic weighted fair queueing over SLO
    lanes: every query carries a lane (``interactive`` / ``bulk`` / …) and a
    tenant, lanes are served in proportion to their weights, per-tenant
    token buckets pace heavy tenants on the virtual clock, and batches are
    packed with seed-partition affinity (queries whose seeds share a
    partition land in the same wide-BFS words).  Scheduling is policy only:
    per-query answers stay bit-identical to the FIFO order (verdicts depend
    on the graph epoch, never on batch composition) and the whole report is
    a deterministic function of the submitted trace, so QoS reports
    reproduce bit-identically across reruns and backends.

    **Result cache** — passing a :class:`~repro.qos.cache.ResultCache`
    (hybrid planner only) fronts the index lane: repeated point-reach
    queries keyed ``(source, target, k, graph_epoch)`` are answered from a
    bounded LRU at one vertex-update of virtual cost (route ``"cache"``),
    and the mutation lane's epoch advance invalidates older entries, so
    within one session a stale verdict is unreachable by construction.
    The key does not name the graph, so a cache serves one session: a
    service on another session refuses it.  ``cross_check=True`` re-answers
    cache hits on the traversal engine like every other index-lane verdict.

    The virtual clock persists across drains — the session stays resident
    between waves of arrivals, which is the deployment model the paper
    evaluates (§4).
    """

    def __init__(
        self,
        session,
        k: int | None,
        discipline: str = "batch",
        batch_width: int = 64,
        concurrency: int | None = None,
        planner: str = "traversal",
        cross_check: bool = False,
        deadline_seconds: float | None = None,
        max_pending: int | None = None,
        qos: QosConfig | None = None,
        cache=None,
    ):
        if discipline not in ("batch", "pool"):
            raise ValueError("discipline must be 'batch' or 'pool'")
        check_hops(k)
        if not 1 <= batch_width <= MAX_WIDE_BATCH:
            raise ValueError(f"batch_width must be in [1, {MAX_WIDE_BATCH}]")
        if planner not in ("traversal", "hybrid"):
            raise ValueError("planner must be 'traversal' or 'hybrid'")
        if qos is not None and not isinstance(qos, QosConfig):
            raise TypeError("qos must be a repro.qos.QosConfig")
        if qos is not None and discipline != "batch":
            raise UnsupportedConfigError(
                "QoS lanes require discipline='batch' (weighted fair "
                "queueing schedules bit-parallel batches, not pool slots)"
            )
        if cache is not None and planner != "hybrid":
            raise UnsupportedConfigError(
                "the result cache fronts the index lane; it requires "
                "planner='hybrid'"
            )
        if cache is not None and cache.session not in (None, session):
            raise UnsupportedConfigError(
                "the result cache already serves another session; its keys "
                "(source, target, k, epoch) do not name the graph"
            )
        if cross_check and planner != "hybrid" and not session.is_dynamic:
            raise UnsupportedConfigError(
                "cross_check needs the hybrid planner or a dynamic session"
            )
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be positive")
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.session = session
        # the session's facade: one Instrumentation covers engine, session
        # and service spans
        self.instr = session.instr
        self.k = k
        self.discipline = discipline
        self.planner = planner
        self.cross_check = bool(cross_check)
        self.batch_width = int(batch_width)
        if concurrency is None:
            concurrency = session.num_machines * SLOTS_PER_MACHINE
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        self.concurrency = int(concurrency)
        #: Virtual-seconds budget per dispatched batch: a batch stops at the
        #: first superstep barrier past it and unresolved queries are
        #: reported with ``deadline_missed`` (graceful degradation, not an
        #: error).  Applies to traversal dispatches (batch/reach); the
        #: pool discipline charges memoised full service times.
        self.deadline_seconds = deadline_seconds
        #: Admission bound: submissions past this many pending queries are
        #: rejected with :class:`~repro.errors.Overloaded` (load shedding).
        self.max_pending = max_pending
        self.shed = 0
        self.deadline_misses = 0
        self.clock = 0.0
        self.batches_dispatched = 0
        self.edges_scanned = 0  # engine work of traversal dispatches
        self.supersteps = 0
        self._dispatch_seq = 0  # span numbering (monotone across drains)
        self._next_id = 0
        # the pending queue: one tuple of input columns per submit call, in
        # id order (see _Queue), and the name tables behind the lane and
        # tenant codes
        self._pending: list[tuple] = []
        self._num_pending = 0
        self._names: dict[str, list[str]] = {"lane": [], "tenant": []}
        self._codes: dict[str, dict[str, int]] = {"lane": {}, "tenant": {}}
        self._queue: _Queue | None = None  # the draining queue
        # pool-mode worker slots: next-free virtual time per slot
        self._slots: list[float] = [0.0] * self.concurrency
        heapq.heapify(self._slots)
        # the mutation lane (dynamic sessions)
        self.mutations_applied = 0
        self._mut_seq = 0
        self._pending_mutations: list[tuple] = []  # (arrival, seq, ins, dels)
        # drain-local: due mutations by arrival, virtual execution seconds
        # dispatched, and the lifetime counters' values at drain start
        self._due_mutations: deque[tuple] = deque()
        self._busy = 0.0
        # mutations, throttled, edges, supersteps, cache hits/misses
        self._marks = (0, 0, 0, 0, 0, 0)
        self._oracle_sessions: dict[int, object] = {}  # epoch -> GraphSession
        # the QoS layer: WFQ lane state and per-tenant token buckets persist
        # across drains, like the virtual clock they run on
        self.qos = qos
        self._wfq = WeightedFairQueue(qos.lanes) if qos is not None else None
        self._buckets: dict[str, TokenBucket] = (
            {t: TokenBucket(spec) for t, spec in qos.quotas.items()}
            if qos is not None
            else {}
        )
        self.throttled = 0
        if cache is not None:
            cache.session = session
        self.cache = cache

    # -- submission --------------------------------------------------------- #

    def submit(
        self,
        source: int,
        arrival: float = 0.0,
        target: int | None = None,
        lane: str | None = None,
        tenant: str | None = None,
    ) -> int:
        """Queue one query; returns its id (submission order).

        With a ``target`` the query asks *is target within k hops of
        source* (a point reachability query, eligible for index routing);
        without one it asks for the full k-hop reach set.  ``lane`` picks
        the query's SLO class (defaults to the QoS config's default lane)
        and ``tenant`` its quota identity; both are recorded on the report
        even for FIFO services, where they are metadata only.

        Raises :class:`~repro.errors.Overloaded` when the service's
        ``max_pending`` admission bound is hit — shed load early rather
        than queueing without bound (callers can back off and resubmit).
        Vertex ids are validated as every traversal entry validates them
        (:class:`~repro.errors.InvalidQueryError` for non-integer or
        out-of-range ids).
        """
        vertex_ids = self.session._as_vertex_ids
        sources = vertex_ids([source], "source")
        targets = None if target is None else vertex_ids([target], "target")
        return self.submit_many(
            sources, [arrival], targets=targets, lane=lane, tenant=tenant
        )[0]

    def submit_many(
        self, sources, arrivals=None, targets=None, lane=None, tenant=None
    ) -> list[int]:
        """Queue a wave of queries (``arrivals`` defaults to all-zero;
        ``targets``, when given, makes the wave point reachability queries;
        ``lane``/``tenant`` may be a single value for the whole wave or a
        per-query sequence matching ``sources``).

        The whole wave is validated — ids, arrivals, lanes — before
        anything is queued.  Past ``max_pending``, the queries that fit are
        queued and the rest are shed: counted in ``shed`` and refused with
        :class:`~repro.errors.Overloaded`.
        """
        sources = self.session._as_vertex_ids(sources, "sources")
        if arrivals is None:
            arrivals = np.zeros(sources.size)
        arrivals = np.asarray(arrivals, dtype=np.float64)
        if arrivals.shape != sources.shape:
            raise ValueError("arrivals must match sources")
        arrivals = _checked_arrivals(arrivals.ravel())
        if targets is None:
            targets = np.full(sources.size, -1, dtype=np.int64)
        else:
            targets = self.session._as_vertex_ids(targets, "targets")
            if targets.shape != sources.shape:
                raise ValueError("targets must match sources")
        default_lane = (
            self.qos.default_lane if self.qos is not None else INTERACTIVE_LANE
        )
        lanes = self._encode("lane", lane, sources.size, default_lane)
        tenants = self._encode("tenant", tenant, sources.size, "default")
        size = int(sources.size)
        fits = size
        if self.max_pending is not None:
            fits = min(size, max(0, self.max_pending - self._num_pending))
        first = self._next_id
        if fits:
            self._next_id += fits
            self._num_pending += fits
            self._pending.append((
                np.arange(first, first + fits, dtype=np.int64),
                sources.ravel()[:fits],
                targets.ravel()[:fits],
                arrivals[:fits],
                lanes[:fits],
                tenants[:fits],
            ))
        if fits < size:
            refused = size - fits
            self.shed += refused
            self.instr.on_shed(refused)
            raise Overloaded(
                f"{refused} of {size} queries shed, {fits} queued: "
                f"{self._num_pending - fits} pending >= "
                f"max_pending={self.max_pending}"
            )
        return list(range(first, first + size))

    def _encode(self, name, value, size, default) -> np.ndarray:
        """Codes of a wave attribute that is either one value for every
        query or a per-query sequence (None means ``default``); unknown
        lanes of a QoS service are refused."""
        if value is None or isinstance(value, str):
            values = [default if value is None else value]
        else:
            values = [
                default if v is None else str(v)
                for v in np.asarray(value, dtype=object).ravel()
            ]
            if len(values) != size:
                raise ValueError(
                    f"{name} must be a single value or match sources "
                    f"(got {len(values)} for {size} queries)"
                )
        names, table = self._names[name], self._codes[name]
        distinct = dict.fromkeys(values)
        if name == "lane" and self.qos is not None:
            for lane in distinct:
                if lane not in self.qos.lanes:
                    raise InvalidQueryError(
                        f"unknown lane {lane!r}; configured lanes: "
                        f"{sorted(self.qos.lanes)}"
                    )
        for v in distinct:
            if v not in table:
                table[v] = len(names)
                names.append(v)
        if len(values) == 1:
            return np.full(size, table[values[0]], dtype=np.int64)
        return np.array([table[v] for v in values], dtype=np.int64)

    @property
    def num_pending(self) -> int:
        return self._num_pending

    # -- the mutation lane --------------------------------------------------- #

    def apply_mutations(self, inserts=(), deletes=(), arrival: float | None = None):
        """Apply (or queue) one edge-mutation batch on the dynamic session.

        Without ``arrival`` the batch applies immediately (between drains)
        and its :class:`~repro.dynamic.delta.MutationResult` is returned.
        With an ``arrival`` the batch queues and the next :meth:`drain`
        applies it — in arrival order, ties broken by submission order —
        before any query batch dispatched at or after that virtual time;
        ``None`` is returned.  Mutations are charged zero virtual time:
        ingestion runs off the query clock.  Either way a malformed batch
        (not integer pairs, endpoint out of range) raises
        :class:`~repro.errors.MutationError` here and nothing is queued.
        """
        if not self.session.is_dynamic:
            raise MutationError(
                "the service's session is static; enable session.dynamic() "
                "before applying mutations"
            )
        if arrival is None:
            res = self.session.apply_mutations(inserts, deletes)
            self.mutations_applied += 1
            return res
        if np.ndim(arrival) != 0:
            raise InvalidQueryError(
                f"a mutation batch has one arrival time, got {arrival!r}"
            )
        arrival = float(_checked_arrivals(arrival))
        graph = self.session.dynamic()
        inserts = graph.as_pairs(inserts, "inserts")
        deletes = graph.as_pairs(deletes, "deletes")
        seq = self._mut_seq
        self._mut_seq += 1
        self._pending_mutations.append((arrival, seq, inserts, deletes))
        return None

    @property
    def num_pending_mutations(self) -> int:
        return len(self._pending_mutations)

    def _apply_due_mutations(self, now: float) -> None:
        """Apply every queued mutation batch with ``arrival <= now``.

        On a durable session the whole due group commits under one fsync
        barrier (group commit): each batch still WAL-appends individually
        — ordering and torn-tail semantics are untouched — but the
        arrival-queued lane pays one sync per drain step, not per batch.
        """
        if not self._due_mutations or self._due_mutations[0][0] > now:
            return
        durability = self.session._durability
        barrier = durability.group() if durability is not None else nullcontext()
        with barrier:
            while self._due_mutations and self._due_mutations[0][0] <= now:
                _, _, inserts, deletes = self._due_mutations.popleft()
                self.session.apply_mutations(inserts, deletes)
                self.mutations_applied += 1

    def _epoch(self) -> int:
        return int(self.session.graph_epoch)

    # -- the admission loop ------------------------------------------------- #

    def drain(self) -> ServiceReport:
        """Run every pending query to completion; returns per-query times.

        One loop: the selector (:meth:`_select`) names the next group of
        queries, its lane and its start; the loop runs it and asks again.
        On a dynamic session queued mutation batches interleave: each
        applies before the first query batch dispatched at or after its
        arrival, and any left over apply at the end of the drain.

        If anything raises mid-drain, the queries that had not run and the
        mutation batches that had not applied are queued again — same ids,
        arrivals and order — before the exception propagates.
        """
        chunks, self._pending, self._num_pending = self._pending, [], 0
        queue = self._queue = _Queue(
            *(np.concatenate(col) for col in zip(_NO_QUERIES, *chunks))
        )
        # arrays in the mutation tuples never get compared: seq is unique
        self._due_mutations = deque(
            sorted(self._pending_mutations, key=lambda m: (m[0], m[1]))
        )
        self._pending_mutations = []
        self._busy = 0.0
        self._marks = (
            self.mutations_applied, self.throttled, self.edges_scanned,
            self.supersteps, *self._cache_traffic(),
        )
        size = int(queue.ids.size)
        dispatches = 0
        span = (
            self.instr.span(
                "service drain", cat="service",
                queries=size, discipline=self.discipline,
            )
            if size
            else nullcontext()
        )
        try:
            with span:
                for lane, rows, now, wfq_lane in self._select():
                    if lane == "index":
                        self._serve_index(rows)
                        dispatches += len(rows)
                    elif lane == "slot":
                        self._serve_slot(int(rows[0]))
                        dispatches += 1
                    else:
                        self._run_batch(lane, rows, now, wfq_lane)
                        dispatches += 1
                self._apply_due_mutations(float("inf"))  # arrivals past the end
        except BaseException:
            unfinished = np.isnan(queue.finish)
            if unfinished.any():
                self._pending.insert(0, queue.inputs(unfinished))
                self._num_pending += int(unfinished.sum())
            self._pending_mutations = sorted(
                self._due_mutations, key=lambda m: m[1]
            )
            self._due_mutations.clear()
            raise
        finally:
            self._queue = None
        report = self._report(queue, dispatches)
        if not size:
            return report
        self.batches_dispatched += dispatches
        missed = int(queue.missed.sum())
        if missed:
            self.deadline_misses += missed
            self.instr.on_deadline_miss(missed)
        if self.instr.enabled:
            responses = report.response_seconds
            self.instr.on_queries_done(report.routes, self.discipline, responses)
            self.instr.on_lane_queries(report.lanes, responses)
            if self.cache is not None:
                self.instr.on_cache(
                    report.cache_hits, report.cache_misses, len(self.cache)
                )
            self.instr.on_clock(self.clock)
        return report

    # -- the selector: what runs next ---------------------------------------- #

    def _select(self):
        """Yield ``(lane, rows, now, wfq_lane)`` picks until the draining
        queue is served; each pick is chosen after the previous one has run.

        ``rows`` index the queue's columns, in queue order.  ``lane`` says
        where the group runs: ``"index"`` (the lookup lane), ``"slot"`` (one
        query on the next free worker slot), or one ``"reach"`` / ``"khop"``
        traversal batch starting at ``now``.  Point queries go first — the
        latency-sensitive class — on the index lane (hybrid planner) or in
        FIFO reach batches; the rest follows the FIFO rule, or with ``qos``
        set the weighted-fair rule, which then also schedules
        traversal-planned point queries.
        """
        order = self._queue.order
        is_point = self._queue.targets[order] >= 0
        rest = order
        if is_point.any() and (self.planner == "hybrid" or self.qos is None):
            rest = order[~is_point]
            point = order[is_point]
            if self.planner == "hybrid":
                yield from self._subtotal(self._index_picks(point))
            else:
                yield from self._subtotal(self._fifo_picks(point, "reach"))
        if self.qos is not None:
            yield from self._fair_picks(rest)
        elif self.discipline == "pool":
            yield from self._subtotal(
                ("slot", rest[i:i + 1], None, None) for i in range(rest.size)
            )
        else:
            yield from self._subtotal(self._fifo_picks(rest, "khop"))

    def _subtotal(self, picks):
        """Book ``picks`` on their own busy-time subtotal, folded into the
        drain's when they are done: float sums are order-sensitive, and
        reports are pinned to this per-lane order."""
        outer, self._busy = self._busy, 0.0
        yield from picks
        self._busy = outer + self._busy

    def _fifo_picks(self, rows, kind: str):
        """The FIFO rule: the head of the line starts as soon as the clock
        and its arrival allow, joined by up to ``batch_width - 1`` queries
        behind it that have arrived by then."""
        arrivals = self._queue.arrivals[rows]  # ascending: rows are in order
        head = 0
        while head < rows.size:
            now = max(self.clock, float(arrivals[head]))
            end = min(
                head + self.batch_width,
                int(np.searchsorted(arrivals, now, side="right")),
            )
            yield kind, rows[head:end], now, None
            head = end

    def _index_picks(self, rows):
        """Hybrid-planned point queries, split at pending-mutation arrivals:
        each group applies its due mutations first (which patch the
        resident index), then runs on the index lane."""
        arrivals = self._queue.arrivals[rows]
        head = 0
        while head < rows.size:
            first = float(arrivals[head])
            self._apply_due_mutations(first)
            horizon = (
                self._due_mutations[0][0] if self._due_mutations else math.inf
            )
            end = max(
                head + 1, int(np.searchsorted(arrivals, horizon, side="left"))
            )
            yield "index", rows[head:end], first, None
            head = end

    def _eligible_start(self, row: int) -> float:
        """Earliest virtual time ``row`` may start under its tenant's quota
        (refills the tenant's bucket up to the row's arrival)."""
        queue = self._queue
        arrival = float(queue.arrivals[row])
        tenant = self._names["tenant"][queue.tenants[row]]
        bucket = self._buckets.get(tenant)
        if bucket is None:
            return arrival
        return max(arrival, bucket.ready_time(arrival))

    def _take_token(self, row: int, now: float, eligible: float) -> None:
        """Consume ``row``'s quota token at dispatch; count a throttle when
        the quota (not the queue) delayed it past its arrival."""
        queue = self._queue
        tenant = self._names["tenant"][queue.tenants[row]]
        bucket = self._buckets.get(tenant)
        if bucket is None:
            return
        bucket.take(now)
        if eligible > queue.arrivals[row]:
            self.throttled += 1
            self.instr.on_throttle(tenant)

    def _fair_picks(self, rest):
        """The weighted-fair rule: at each pick the earliest quota-eligible
        virtual instant defines the ready set, the WFQ picks which
        backlogged lane to serve, and a batch of that lane's queries —
        capped by per-tenant token budgets, packed by seed-partition
        affinity — is yielded.  Deterministic: every input is part of the
        submitted trace.

        ``rest`` stays arrival-sorted and is scanned only as far as the
        candidate instant reaches.  The first pick evaluates quota
        eligibility per query, in arrival order — which also refills each
        bucket up to its tenant's latest queued arrival; from then on a
        query's eligibility is its arrival plus its tenant's current wait,
        one evaluation per tenant per pick.  The ready set is walked row by
        row: a QoS wave is a few hundred queries.
        """
        qos = self.qos
        buckets = self._buckets
        queue = self._queue
        arrival = queue.arrivals.tolist()
        tenant = [self._names["tenant"][c] for c in queue.tenants.tolist()]
        lane_of = [self._names["lane"][c] for c in queue.lanes.tolist()]
        is_point = (queue.targets >= 0).tolist()
        eligible = queue.eligible = [0.0] * len(arrival)
        rest = rest.tolist()
        for r in rest:
            eligible[r] = self._eligible_start(r)
        waits: dict[str, float] = {}  # first pick: the values above stand

        def eligible_now(r):
            wait = waits.get(tenant[r])
            if wait is None:
                return eligible[r]
            return arrival[r] + wait if wait else arrival[r]

        while rest:
            first = math.inf
            for r in rest:
                if arrival[r] >= first:
                    break
                first = min(first, eligible_now(r))
            now = max(self.clock, first)
            ready = []
            end = 0  # how far into ``rest`` the candidate instant reaches
            for r in rest:
                if arrival[r] > now:
                    break
                end += 1
                eligible[r] = eligible_now(r)
                if eligible[r] <= now:
                    ready.append(r)
            lane = self._wfq.pick(sorted({lane_of[r] for r in ready}))
            lane_ready = [r for r in ready if lane_of[r] == lane]
            point = is_point[lane_ready[0]]
            kind_ready = [r for r in lane_ready if is_point[r] == point]
            # per-batch quota budget: a tenant contributes at most its
            # current token balance to one batch (floor 1, so every tenant
            # keeps making progress — overdraft pushes its next eligibility
            # out instead of deadlocking the lane)
            if buckets:
                budgets: dict[str, int] = {}
                admitted = []
                for r in kind_ready:
                    bucket = buckets.get(tenant[r])
                    if bucket is not None:
                        if tenant[r] not in budgets:
                            budgets[tenant[r]] = max(1, bucket.available(now))
                        if budgets[tenant[r]] <= 0:
                            continue
                        budgets[tenant[r]] -= 1
                    admitted.append(r)
                kind_ready = admitted
            width = min(
                self.batch_width, qos.lanes[lane].batch_width or self.batch_width
            )
            batch = np.array(kind_ready, dtype=np.int64)
            if batch.size > width:
                owners = self.session.seed_owners(queue.sources[batch])
                batch = batch[affinity_select(owners, width)]
            yield ("reach" if point else "khop"), batch, now, lane
            served = set(batch.tolist())
            rest[:end] = [r for r in rest[:end] if r not in served]
            waits = {name: b.wait() for name, b in buckets.items()}

    # -- the lanes: how a pick runs ------------------------------------------ #

    def _run_batch(self, kind: str, rows, now: float, wfq_lane=None) -> None:
        """Run one traversal batch at virtual time ``now`` and book it —
        the one place a query batch executes.

        Due mutations apply first, so the whole batch sees one graph epoch.
        Each query finishes at ``now`` plus its own in-batch completion
        offset, or at the batch's end, flagged ``missed``, when the deadline
        cut the batch short before the query settled.  ``wfq_lane`` is the
        lane a weighted-fair pick is charged to, normalised by its weight
        (its queries then pay their quota tokens); FIFO picks pass None.

        In dynamic cross-check mode the same batch re-runs, off the books,
        on a session rebuilt from scratch at the batch's epoch and must
        match bit for bit: answers, per-query completions and the batch's
        virtual clock.
        """
        from repro.core.khop import concurrent_khop
        from repro.core.reachability import reachability_queries

        self._apply_due_mutations(now)
        epoch = self._epoch()
        queue = self._queue
        sources = queue.sources[rows]

        def run(session):
            if kind == "reach":
                return reachability_queries(
                    session,
                    sources,
                    queue.targets[rows],
                    self.k,
                    max_virtual_seconds=self.deadline_seconds,
                )
            return concurrent_khop(
                session,
                sources,
                self.k,
                max_virtual_seconds=self.deadline_seconds,
            )

        def answers(res):
            if kind == "reach":
                return res.reachable, res.resolution_seconds
            return res.reached, res.completion_seconds

        res = self._dispatch(kind, now, len(rows), lambda: run(self.session))
        answer, per_query = answers(res)
        virtual = float(res.virtual_seconds)
        finish = now + np.asarray(per_query, dtype=np.float64)
        if res.resolved is not None:
            missed = ~np.asarray(res.resolved, dtype=bool)
            finish[missed] = now + virtual
            queue.missed[rows] = missed
        queue.start[rows] = now
        queue.epoch[rows] = epoch
        if kind == "reach":
            queue.verdict[rows] = answer
        else:
            queue.reached[rows] = answer
        queue.finish[rows] = finish
        if wfq_lane is not None:
            for row in rows.tolist():
                self._take_token(row, now, queue.eligible[row])
        self.clock = now + virtual
        self._busy += virtual
        self.edges_scanned += res.total_edges_scanned
        self.supersteps += res.supersteps
        if wfq_lane is not None:
            self._wfq.charge(wfq_lane, virtual)
        if self.cross_check and self.session.is_dynamic:
            ref = run(self._oracle_session(epoch))
            ref_answer, ref_per_query = answers(ref)
            if (
                not np.array_equal(answer, ref_answer)
                or not np.array_equal(per_query, ref_per_query)
                or res.virtual_seconds != ref.virtual_seconds
            ):
                raise AssertionError(
                    f"dynamic cross-check failed for {kind} batch at epoch "
                    f"{epoch}: live (answers={answer}, "
                    f"virt={res.virtual_seconds!r}) != oracle "
                    f"(answers={ref_answer}, virt={ref.virtual_seconds!r})"
                )

    def _dispatch(self, kind: str, now: float, width: int, run):
        """Execute one batch dispatch, placing it on the virtual timeline.

        With instrumentation on, the tracer's virtual cursor jumps to the
        dispatch's admission time first (covering idle gaps between
        arrivals), so engine superstep spans land where the service clock
        says the batch ran.
        """
        instr = self.instr
        if not instr.enabled:
            return run()
        instr.tracer.virtual_now = now
        instr.on_dispatch(self.discipline)
        seq = self._dispatch_seq
        self._dispatch_seq += 1
        with instr.span(
            f"dispatch {kind} b{seq}",
            cat="dispatch", width=width, discipline=self.discipline,
        ):
            return run()

    def _serve_slot(self, row: int) -> None:
        """One query alone on the next free worker slot, charged its
        standalone service time (memoised per root on the session) — the
        recurrence :func:`simulate_fifo_pool` computes."""
        queue = self._queue
        source = int(queue.sources[row])
        start = max(self._slots[0], float(queue.arrivals[row]))
        self._apply_due_mutations(start)
        epoch = queue.epoch[row] = self._epoch()
        live = self.session.khop_service(source, self.k)
        service, queue.reached[row] = live
        finish = start + service
        queue.start[row] = start
        queue.finish[row] = finish
        heapq.heapreplace(self._slots, finish)
        self.clock = max(self.clock, finish)
        self._busy += service
        if self.cross_check and self.session.is_dynamic:
            ref = self._oracle_session(epoch).khop_service(source, self.k)
            if ref != live:
                raise AssertionError(
                    f"dynamic cross-check failed for pool query "
                    f"(source {source}, k={self.k}, epoch {epoch}): "
                    f"live (service time, reached) {live!r} != oracle {ref!r}"
                )

    def _serve_index(self, rows) -> None:
        """Serve one index-lane group, fronted by the result cache.

        A query starts the moment it arrives (or, under QoS, the moment its
        tenant's quota allows — the lane is paced by the buckets but exempt
        from WFQ) and pays its label-scan cost; the service clock is only
        raised to cover the latest lookup, never rewound.  With a result
        cache, each query first probes it at the group's graph epoch: hits
        are charged the hit cost and routed ``"cache"``, misses go to the
        resident index and populate the cache on the way out.
        """
        planner = self.session.index_planner()  # builds the index once
        epoch = self._epoch()
        cache = self.cache
        queue = self._queue
        sources = queue.sources[rows]
        targets = queue.targets[rows]
        if cache is not None:
            verdicts, service, hit_mask = planner.answer_cached(
                sources, targets, self.k, epoch, cache
            )
        else:
            answer = planner.answer(sources, targets, self.k)
            verdicts = answer.reachable
            service = answer.service_seconds
            hit_mask = np.zeros(rows.size, dtype=bool)
        start = queue.arrivals[rows]
        if self.qos is not None:
            for j, row in enumerate(rows.tolist()):
                start[j] = eligible = self._eligible_start(row)
                self._take_token(row, eligible, eligible)
        finish = start + service
        queue.start[rows] = start
        queue.finish[rows] = finish
        queue.verdict[rows] = verdicts
        queue.route[rows] = np.where(hit_mask, _CACHE, _INDEX)
        queue.epoch[rows] = epoch
        self._busy += float(service.sum())
        last = float(finish.max())
        self.clock = max(self.clock, last)
        if self.instr.enabled:
            self.instr.tracer.record(
                "index lane",
                cat="index",
                virt_start=float(start.min()),
                virt_end=last,
                queries=int(rows.size),
            )
            self.instr.on_dispatch("index")
        if self.cross_check:
            self._check_index_verdicts(sources, targets, verdicts, epoch)

    # -- off-the-books cross-checks ------------------------------------------ #

    _ORACLE_CACHE_CAP = 4

    def _oracle_session(self, epoch: int):
        """An in-process session over the dynamic graph's from-scratch
        partitioning of ``epoch``, sharing the live session's cost model.
        Small LRU-ish cache: drains revisit at most a few recent epochs."""
        sess = self._oracle_sessions.get(epoch)
        if sess is None:
            from repro.runtime.session import GraphSession

            graph = self.session.dynamic().graph_at(epoch)
            sess = GraphSession(graph, netmodel=self.session.netmodel)
            while len(self._oracle_sessions) >= self._ORACLE_CACHE_CAP:
                self._oracle_sessions.pop(next(iter(self._oracle_sessions)))
            self._oracle_sessions[epoch] = sess
        return sess

    def _check_index_verdicts(self, sources, targets, verdicts, epoch: int):
        """Cross-check mode: index-lane verdicts must be bit-identical to
        the traversal engine's — on the live session when it is static, on
        the from-scratch oracle graph at the same epoch when it is dynamic.
        Runs off the service's accounting books."""
        from repro.core.reachability import reachability_queries

        dynamic = self.session.is_dynamic
        reference = self._oracle_session(epoch) if dynamic else self.session
        for i in range(0, sources.size, MAX_WIDE_BATCH):
            chunk = slice(i, i + MAX_WIDE_BATCH)
            ref = reachability_queries(
                reference, sources[chunk], targets[chunk], self.k
            )
            if not np.array_equal(ref.reachable, verdicts[chunk]):
                bad = np.nonzero(ref.reachable != verdicts[chunk])[0][0]
                s, t = int(sources[chunk][bad]), int(targets[chunk][bad])
                raise AssertionError(
                    f"index cross-check failed for ({s} -> {t}, "
                    f"k={self.k}, epoch {epoch}): index says "
                    f"{bool(verdicts[chunk][bad])}, "
                    f"{'oracle ' if dynamic else ''}traversal says "
                    f"{bool(ref.reachable[bad])}"
                )

    def _cache_traffic(self) -> tuple[int, int]:
        cache = self.cache
        return (cache.hits, cache.misses) if cache is not None else (0, 0)

    def _report(self, queue: _Queue, num_batches: int) -> ServiceReport:
        """Build the drain's :class:`ServiceReport` from its queue's columns
        (already in submission order); per-drain counts are the lifetime
        counters' growth since the drain started."""
        shed, self.shed = self.shed, 0
        mutations, throttled, edges, supersteps, hits, misses = self._marks
        cache_hits, cache_misses = self._cache_traffic()
        return ServiceReport(
            query_ids=queue.ids,
            sources=queue.sources,
            arrival_seconds=queue.arrivals,
            start_seconds=queue.start,
            finish_seconds=queue.finish,
            num_batches=num_batches,
            clock_seconds=self.clock,
            targets=queue.targets,
            reachable=queue.verdict,
            reached=queue.reached,
            routes=_ROUTE_NAMES[queue.route],
            busy_seconds=float(self._busy),
            edges_scanned=self.edges_scanned - edges,
            supersteps=self.supersteps - supersteps,
            deadline_missed=(
                None if self.deadline_seconds is None else queue.missed
            ),
            degraded=self.session.degraded,
            shed=shed,
            epochs=queue.epoch if self.session.is_dynamic else None,
            mutations_applied=self.mutations_applied - mutations,
            lanes=_name_array(self._names["lane"], queue.lanes),
            tenants=_name_array(self._names["tenant"], queue.tenants),
            cache_hits=cache_hits - hits,
            cache_misses=cache_misses - misses,
            throttled=self.throttled - throttled,
        )
