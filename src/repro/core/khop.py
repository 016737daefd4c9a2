"""The concurrent k-hop reachability query engine (the paper's core operator).

A batch of queries traverses the partitioned graph together, level by level.
Each superstep every machine expands its local frontier over its out-edge
shard, OR-ing query bit-masks into local ``next`` planes and shipping
boundary-vertex updates as combined message batches (Figure 5).  A query
finishes when its frontier dies everywhere or after ``k`` hops.

Every expansion writes two places laid out by the partition's
:class:`~repro.graph.partition.ExchangePlan`: the ``next`` plane (local
targets) and the task's **slot plane**, one row per boundary vertex this
partition can reach.  A destination's slice of the slot plane is what the
outbox carries; its non-zero rows, in slot order, are the combined wire batch
(:class:`~repro.runtime.message.PlaneSlice`).  No superstep masks edges by
locality, looks up an owner or sorts.

Expansion is *direction-optimizing* (GPOP-style), chosen per partition per
superstep:

* **push** (sparse): gather the active frontier's edges from the plan's
  ``local_csr`` and ``slot_csr`` and scatter-OR them into ``next`` and the
  slot plane (on a session with an edge-set layout the plan stores them
  block-major, so the same gather scans them edge-set by edge-set, §3.2);
* **pull** (dense): one segmented OR over the plan's target-major sweep of
  *all* out-edges — a gather of frontier words grouped by target, local rows
  OR-ed into ``next``, slot rows assigned to the slot plane.

The heuristic (:func:`repro.runtime.netmodel.choose_direction`) compares the
frontier's out-edge mass against the edges one sweep reads using the cost
model's per-mode coefficients.  Both modes charge the *same* canonical
(push-equivalent) work to :class:`~repro.runtime.netmodel.StepStats` and
leave the same two planes, so answers, messages and virtual clocks are
bit-identical across ``push``, ``pull`` and ``auto`` — the direction changes
wall-clock only.

One kernel, two ways to run it.  :class:`KHopPartitionTask`'s ``compute``,
``apply_inbox`` and ``finalize`` run machine by machine on the pool workers,
the asynchronous engine and the out-of-core task.  A synchronous in-process
batch runs :class:`_FusedStep`: under range partitioning (§3.1) every
partition's planes are row slices of session-wide ones, so each partition's
expansion writes them in place, and one count of the lit slot rows by
(sender, destination), one gather of them into ``next`` and one promote
finish the superstep for every machine.

The public entry point is :func:`concurrent_khop`, for any batch width up to
one cache line of query bits (:data:`~repro.core.frontier.MAX_WIDE_BATCH`);
:func:`~repro.core.reachability.reachability_queries` is the same batch with
targets.  Both go through :func:`_run_traversal`, which *describes* the
batch — :class:`KHopPartitionTask` plus kwargs, the
:func:`~repro.core.adapters.traversal_probe`, one ``on_step`` — and
:meth:`~repro.runtime.session.GraphSession.run_batch` runs that description
on whichever executor the session has, or replays it from a drain's run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import adapters
from repro.core.frontier import MAX_WIDE_BATCH, BitFrontier, per_query_counts, words_for
from repro.graph.partition import ExchangePlan
from repro.graph.validation import check_hops
from repro.runtime.cluster import SimCluster
from repro.runtime.engine import PartitionTask, run_supersteps
from repro.runtime.message import PlaneSlice, combine_or
from repro.runtime.netmodel import (
    PULL_SECONDS_PER_EDGE,
    PUSH_SECONDS_PER_EDGE,
    StepStats,
    choose_direction,
)
from repro.runtime.session import GraphSession

__all__ = ["KHopResult", "KHopPartitionTask", "concurrent_khop", "DIRECTIONS"]

#: Valid traversal-direction settings for the k-hop/reachability engines.
DIRECTIONS = ("auto", "push", "pull")


def _check_direction(direction: str) -> str:
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    return direction


def _check_traversal(
    sess: GraphSession, k, direction: str, asynchronous: bool = False
) -> None:
    """The traversal door: every mode check, before any work runs."""
    check_hops(k)
    _check_direction(direction)
    sess.require_inproc(asynchronous=asynchronous)


@dataclass
class KHopResult:
    """Outcome of one bit-parallel k-hop batch.

    ``reached[q]`` counts vertices visited by query ``q`` (including its
    source); ``completion_level[q]`` is the hop at which its frontier died
    (== ``k`` when it used the full budget); ``completion_seconds[q]`` is the
    virtual time at which the query's last level finished —
    the per-query response time within the batch.
    """

    sources: np.ndarray
    k: int | None
    reached: np.ndarray
    completion_level: np.ndarray
    completion_seconds: np.ndarray
    virtual_seconds: float
    supersteps: int
    per_step_seconds: list[float]
    total_edges_scanned: int
    total_messages: int
    total_bytes: int
    depths: np.ndarray | None = field(default=None, repr=False)
    #: Per-query completion flags: all True unless the run was truncated by
    #: a ``max_virtual_seconds`` deadline, in which case unresolved queries
    #: carry partial ``reached`` counts (graceful degradation).
    resolved: np.ndarray | None = field(default=None, repr=False)
    truncated: bool = False
    #: Partition-steps executed in each traversal direction (summed over
    #: machines and supersteps) — how often the direction optimizer pushed
    #: vs. pulled.
    push_partition_steps: int = 0
    pull_partition_steps: int = 0

    @property
    def num_queries(self) -> int:
        return int(self.sources.size)


class KHopPartitionTask(PartitionTask):
    """One machine's share of a concurrent k-hop batch."""

    def __init__(self, machine, cluster: SimCluster, *args, **kwargs):
        super().__init__(machine)
        self.cluster = cluster
        self.state = None
        self.depths = None
        # Slot plane: scratch between one compute's scatter and the flush
        # that follows it, (re)built by _arm_plane — never checkpointed.
        self._plane = None
        self.reset(*args, **kwargs)  # a subclass's reset names its own args

    def seed(self, local_vertex: int, query_index: int) -> None:
        """Place query ``query_index``'s source at ``local_vertex``."""
        self.state.seed(local_vertex, query_index)

    def reset(
        self,
        num_queries: int,
        k: int | None,
        record_depths: bool = False,
        direction: str = "auto",
        push_coeff: float = PUSH_SECONDS_PER_EDGE,
        pull_coeff: float = PULL_SECONDS_PER_EDGE,
    ) -> None:
        """Arm this task for a batch — the constructor's kwargs, so a
        resident task is re-armed with exactly what would have built it.

        Frontier/next/visited (and the depth matrix, when recorded) are
        zeroed in place when the batch width matches the previous one;
        otherwise the state is re-sized.
        """
        self.k = k
        self.level = 0
        self.direction = _check_direction(direction)
        # Coefficients travel with the task (not read off a cluster-side
        # model) so pool workers — which hold no NetworkModel — make the
        # exact same per-superstep choice as the in-process engine.
        self.push_coeff = float(push_coeff)
        self.pull_coeff = float(pull_coeff)
        if self.state is not None and self.state.num_queries == num_queries:
            self.state.clear()
        else:
            self.state = BitFrontier(self.machine.num_local, num_queries)
        if not record_depths:
            self.depths = None
        elif self.depths is not None and self.depths.shape[1] == num_queries:
            self.depths.fill(-1)
        else:
            self.depths = np.full(
                (self.machine.num_local, num_queries), -1, dtype=np.int16
            )

    def checkpoint(self) -> dict:
        """Snapshot per-run state at a barrier (batch shape is fixed, so
        only the planes, the level counter and any depth matrix move)."""
        return {
            "level": self.level,
            "planes": self.state.snapshot(),
            "depths": None if self.depths is None else self.depths.copy(),
        }

    def restore(self, state: dict) -> None:
        self.level = state["level"]
        self.state.load(state["planes"])
        if state["depths"] is not None:
            self.depths[...] = state["depths"]

    # -- PartitionTask interface ---------------------------------------- #

    @classmethod
    def fused(cls, tasks, probe, args):
        """A :class:`_FusedStep`; not for a subclass, which may read edges off disk."""
        return _FusedStep(tasks, probe, args) if cls is KHopPartitionTask else None

    def compute(self, stats: StepStats) -> None:
        if self.k is not None and self.level >= self.k:
            return
        active = self.state.active_vertices()
        if active.size == 0:
            return
        plan, cuts = self._arm_plane()
        self._expand(plan, active, stats)
        for dest, lo, hi in cuts:
            rows = self._plane[lo:hi]
            if rows.any():
                self.machine.outbox.append(
                    dest, PlaneSlice(plan.boundary[lo:hi], rows)
                )

    def _expand(self, plan: ExchangePlan, active: np.ndarray, stats) -> None:
        """One superstep's expansion of the ``active`` local rows into
        ``next`` and the slot plane, in the direction this partition picks."""
        if self._choose_mode(plan, active) == "pull":
            stats.pull_partitions += 1
            self._expand_pull(plan, active, stats)
        else:
            stats.push_partitions += 1
            # Cleared here, not after the flush: whatever became of the last
            # superstep's rows (sent, dropped, abandoned by a raise or a
            # rewind), this scatter starts from zero.  Pull assigns every row.
            self._plane.fill(0)
            self._expand_push(plan, active, stats)

    def _arm_plane(self) -> tuple[ExchangePlan, list]:
        """The partition's plan and cuts, with a slot plane that matches —
        allocated once per (slot count, batch width), not per superstep."""
        plan, cuts = self.exchange_plan()
        shape = (plan.num_slots, self.state.words)
        if self._plane is None or self._plane.shape != shape:
            self._plane = np.zeros(shape, dtype=np.uint64)
        return plan, cuts

    def _choose_mode(self, plan: ExchangePlan, active: np.ndarray) -> str:
        """Per-superstep direction decision for this partition.

        Deterministic in (frontier state, coefficients): replaying from a
        checkpoint reproduces the same frontier, hence the same choices.
        """
        if self.direction == "push":
            return "push"
        if self.direction == "pull":
            return "pull"
        frontier_edges = int(plan.out_degree[active].sum())
        return choose_direction(
            frontier_edges, plan.num_edges, self.push_coeff, self.pull_coeff
        )

    def apply_inbox(self, stats: StepStats) -> None:
        nxt = self.state.next
        for batch in self.machine.inbox.drain():
            # a combined batch names each vertex once: plain indexed OR
            nxt[batch.vertices - self.machine.lo] |= batch.payload
            stats.vertices_updated += batch.num_tasks

    def finalize(self) -> bool:
        newly = self.state.promote()
        self.level += 1
        if self.depths is not None:
            _record_depths(self.depths, newly, self.level, self.state.num_queries)
        budget_left = self.k is None or self.level < self.k
        return bool(budget_left and self.state.frontier.any())

    # -- expansion kernels ------------------------------------------------ #

    def _expand_push(self, plan: ExchangePlan, active: np.ndarray, stats) -> None:
        """Scatter the active frontier's edges into ``next`` and the slot
        plane, in the plan's storage order (edge-set by edge-set when it has
        a layout)."""
        rows, sources = plan.gather_rows(active)
        bits = self.state.frontier.take(sources, axis=0)
        pos, counts = plan.local_csr.gather_edges(rows)
        spos, scounts = plan.slot_csr.gather_edges(rows)
        targets, slots = self._read_edges(plan, pos, spos, active, stats)
        self.state.or_into_next(targets, np.repeat(bits, counts, axis=0))
        np.bitwise_or.at(self._plane, slots, np.repeat(bits, scounts, axis=0))
        stats.edges_scanned += int(pos.size + spos.size)
        stats.vertices_updated += int(pos.size)

    def _read_edges(self, plan: ExchangePlan, pos, spos, active, stats):
        """The targets at the (ascending) positions ``pos`` of ``local_csr``
        and ``spos`` of ``slot_csr``: local rows and slots.  In memory here;
        the out-of-core task reads them off disk."""
        return plan.local_csr.indices[pos], plan.slot_csr.indices[spos]

    def _expand_pull(self, plan: ExchangePlan, active: np.ndarray, stats) -> None:
        """Dense sweep: one segmented OR over every out-edge, by target.

        Inactive sources hold zero frontier words and OR-ing zeros is a
        no-op, so ``next`` and the slot plane end up exactly as push leaves
        them.  Stats are charged push-equivalently, keeping virtual clocks
        direction-independent.
        """
        if plan.num_edges:
            ored = np.bitwise_or.reduceat(
                self.state.frontier.take(plan.sweep_sources, axis=0),
                plan.sweep_starts,
                axis=0,
            )
            num_local = plan.sweep_rows.size
            self.state.next[plan.sweep_rows] |= ored[:num_local]
            self._plane[...] = ored[num_local:]
        stats.edges_scanned += int(plan.out_degree[active].sum())
        stats.vertices_updated += int(plan.local_out_degree[active].sum())


def _record_depths(depths, newly, level: int, num_queries: int) -> None:
    """``depths[v, q] = level`` where ``newly`` has bit ``q`` (one unpack)."""
    rows = np.flatnonzero(newly.any(axis=1))
    # explicit little-endian view keeps byte order platform-stable
    bytes_ = newly[rows].astype("<u8", copy=False).view(np.uint8)
    r, q = np.nonzero(np.unpackbits(bytes_, axis=1, bitorder="little")[:, :num_queries])
    depths[rows[r], q] = level


class _FusedStep:
    """Every machine's superstep of a synchronous in-process batch at once.

    The tasks' planes are row slices of session-wide ``frontier``,
    ``visited`` and ``targets`` planes (``targets`` is ``next``, then every
    partition's slot plane), so probes, gathers, controls and checkpoints
    read them unchanged.  Each partition expands with its own kernel
    (:meth:`KHopPartitionTask._expand`), straight into those planes; the
    exchange, the delivery and the promote run once for all of them.
    """

    def __init__(self, tasks: list[KHopPartitionTask], probe, probe_args: list):
        """Arm for one batch over the reset, seeded task planes."""
        self.tasks, self.probe, self.probe_args, t0 = tasks, probe, probe_args, tasks[0]
        self.view = view = t0.cluster.pg.exchange_view()
        self.plans = [t.exchange_plan()[0] for t in tasks]
        n, words = int(view.bounds[-1]), t0.state.words
        states = [t.state for t in tasks]
        self.frontier = _whole(states, "frontier", (n, words), view.bounds)
        self.visited = _whole(states, "visited", (n, words), view.bounds)
        shape = (view.slot_bounds[-1], words)  # next, then every slot plane
        self.targets = _whole(states, "next", shape, view.bounds)
        self.depths = None
        if t0.depths is not None:
            shape = (n, t0.state.num_queries)
            self.depths = _whole(tasks, "depths", shape, view.bounds)
        for t, lo, hi in zip(tasks, view.slot_bounds[:-1], view.slot_bounds[1:]):
            t._plane = self.targets[lo:hi]
        self.record = None  # a SharedKHop's frontiers and lit slot rows

    def step(self) -> tuple[list, list[StepStats], list | None]:
        tasks, view, t0 = self.tasks, self.view, self.tasks[0]
        frontier, visited, targets = self.frontier, self.visited, self.targets
        num, n = len(tasks), visited.shape[0]
        nxt, slots = targets[:n], targets[n:]
        stats = [StepStats() for _ in tasks]
        sent = np.zeros((num, num), np.int64)  # messages, sender by destination
        active = _lit(frontier).nonzero()[0]
        if active.size and (t0.k is None or t0.level < t0.k):
            slots.fill(0)  # an idle partition's slot rows send nothing
            cut = np.searchsorted(active, view.bounds).tolist()
            for i, lo in enumerate(view.bounds[:-1].tolist()):
                if cut[i] < cut[i + 1]:
                    rows = active[cut[i] : cut[i + 1]] - lo
                    tasks[i]._expand(self.plans[i], rows, stats[i])
            if view.num_slots:  # the exchange: one message per lit slot row
                sent = np.bincount(
                    view.slot_pair[_lit(slots)], minlength=num * num
                ).reshape(num, num)
                np.bitwise_or.reduceat(
                    targets.take(view.inbox_order, axis=0),
                    view.inbox_starts, axis=0, out=nxt,
                )
        _book_wire(stats, sent, view.id_bytes, frontier.shape[1])
        # BitFrontier.promote on every partition, then the votes
        np.bitwise_and(nxt, ~visited, out=nxt)
        nxt &= t0.state.query_mask
        visited |= nxt
        frontier[...] = nxt
        nxt.fill(0)
        level = t0.level + 1
        for t in tasks:
            t.level = level
        if self.depths is not None:
            _record_depths(self.depths, frontier, level, t0.state.num_queries)
        rows = _lit(frontier).nonzero()[0]  # the next step's frontier
        if self.record is not None:  # a shared run: every recorded step expanded
            lit = _lit(slots)
            self.record[0].append((rows, frontier[rows]))
            self.record[1].append((view.slot_pair[lit], slots[lit]))
        alive = np.diff(np.searchsorted(rows, view.bounds))
        votes = ((alive > 0) & (t0.k is None or level < t0.k)).tolist()
        return votes, stats, None if self.probe is None else [
            self.probe(t, *a) for t, a in zip(tasks, self.probe_args)]


def _lit(plane: np.ndarray) -> np.ndarray:
    """Rows with a set bit: an OR over word columns (a row-wise ``any`` is slow)."""
    rows = plane[:, 0]
    for w in range(1, plane.shape[1]):
        rows = rows | plane[:, w]
    return rows != 0


def _book_wire(stats: list[StepStats], sent, id_bytes, words: int) -> None:
    """Book ``sent[i, j]`` messages of ``id_bytes[i] + 8 * words`` bytes, i to j."""
    nbytes = sent * (id_bytes[:, None] + 8 * words)
    for sender, dest in zip(*(a.tolist() for a in sent.nonzero())):
        stats[sender].messages_sent[dest] = int(sent[sender, dest])
        stats[sender].bytes_sent[dest] = int(nbytes[sender, dest])
    for mine, delivered in zip(stats, sent.sum(axis=0).tolist()):
        mine.vertices_updated += delivered


def _whole(owners: list, name: str, shape: tuple, bounds: np.ndarray) -> np.ndarray:
    """The session-wide plane whose row slices are the owners' ``name``
    planes.  ``reset`` cleared and seeding wrote the last batch's through
    those slices, so one of the same shape is kept; otherwise a new one
    takes a copy of each owner's plane and becomes what it slices."""
    whole = getattr(owners[0], name).base
    if (
        whole is None or whole.shape != shape
        or any(getattr(o, name).base is not whole for o in owners)
    ):
        whole = np.zeros(shape, getattr(owners[0], name).dtype)
        for o, lo, hi in zip(owners, bounds[:-1], bounds[1:]):
            whole[lo:hi] = getattr(o, name)
            setattr(o, name, whole[lo:hi])
    return whole


def concurrent_khop(
    sess: GraphSession,
    sources,
    k: int | None,
    asynchronous: bool = False,
    record_depths: bool = False,
    max_virtual_seconds: float | None = None,
    direction: str = "auto",
    _shared: SharedKHop | None = None,
) -> KHopResult:
    """Run up to 512 k-hop queries concurrently with bit-parallel sharing.

    Parameters
    ----------
    sess:
        The :class:`~repro.runtime.session.GraphSession` to run the batch
        on; its resident tasks are reset in place.  A ``backend="pool"``
        session runs the batch on its worker pool (bit-identical answers);
        ``asynchronous`` requires the in-process backend and raises
        :class:`~repro.errors.UnsupportedConfigError` there.  A session
        built with ``edge_sets=True`` scans its edge-set layout; answers,
        counted work and virtual time are the flat scan's.  ``_shared``, a
        drain's :class:`SharedKHop`, replays a synchronous batch it holds.
    sources:
        Global source vertex per query.  The batch width is
        ``len(sources)``, up to one 64-byte cache line of query bits
        (:data:`~repro.core.frontier.MAX_WIDE_BATCH` = 512, §3.5) — the
        planes simply grow a word per 64 queries; longer streams go through
        :class:`~repro.runtime.scheduler.QueryService`.
    k:
        Hop budget; ``None`` means full BFS (traverse to exhaustion).
    record_depths:
        Also return a dense ``(n, num_queries)`` hop-depth matrix (-1 =
        unreached).  Costs O(n·Q) memory — the paper's §3.3 level-limited
        mode is the default (depths off).
    max_virtual_seconds:
        Deadline on the batch's *virtual* clock: the run stops at the first
        superstep barrier past it, marking the result ``truncated`` and
        flagging unfinished queries False in ``resolved`` (their ``reached``
        counts are the partial answer so far).  Identical truncation point
        on both backends.
    direction:
        Traversal direction: ``"auto"`` (default) lets each partition pick
        push or pull per superstep via the cost model's per-mode
        coefficients; ``"push"``/``"pull"`` force a mode.  All three produce
        bit-identical answers and virtual clocks — the setting changes
        wall-clock and the ``push/pull_partition_steps`` counters only.

    Returns a :class:`KHopResult`; virtual time comes from the session's
    network model and counted work.
    """
    _check_traversal(sess, k, direction, asynchronous)
    pg = sess.pg
    sources = sess.check_sources(sources, MAX_WIDE_BATCH)
    num_queries = int(sources.size)
    shared = _shared is not None and not (asynchronous or record_depths)
    bits = _shared.bits(sess, sources, k) if shared else None
    completion_level, completion_seconds, resolved, _, result = _run_traversal(
        sess, sources, k,
        asynchronous=asynchronous,
        record_depths=record_depths,
        max_virtual_seconds=max_virtual_seconds,
        direction=direction,
        replay=None if bits is None else _Replay(_shared, bits, direction),
    )
    reached = np.zeros(num_queries, dtype=np.int64)
    for counts in sess.gather_batch(adapters.khop_visited_counts):
        reached += counts

    depths = None
    if record_depths:
        depths = np.full((pg.num_vertices, num_queries), -1, dtype=np.int16)
        for part, d in zip(
            pg.partitions, sess.gather_batch(adapters.task_attribute, "depths")
        ):
            depths[part.lo : part.hi] = d
        for q, s in enumerate(sources):
            depths[int(s), q] = 0

    total = result.total_stats()
    return KHopResult(
        sources=sources,
        k=k,
        reached=reached,
        completion_level=completion_level,
        completion_seconds=completion_seconds,
        virtual_seconds=result.virtual_seconds,
        supersteps=result.supersteps,
        per_step_seconds=result.per_step_seconds,
        total_edges_scanned=total.edges_scanned,
        total_messages=total.total_messages,
        total_bytes=total.total_bytes,
        depths=depths,
        resolved=resolved,
        truncated=result.truncated,
        push_partition_steps=total.push_partitions,
        pull_partition_steps=total.pull_partitions,
    )


def _flags(bits: int, num_queries: int) -> np.ndarray:
    """Query bits (bit ``q`` ⇔ query ``q``) as a bool array."""
    raw = bits.to_bytes(8 * words_for(num_queries), "little")
    return np.unpackbits(
        np.frombuffer(raw, dtype=np.uint8), bitorder="little"
    )[:num_queries].astype(bool)


def _run_traversal(
    sess: GraphSession,
    sources: np.ndarray,
    k: int | None,
    targets: np.ndarray | None = None,
    *,
    asynchronous: bool = False,
    record_depths: bool = False,
    max_virtual_seconds: float | None = None,
    direction: str = "auto",
    replay: _Replay | None = None,
):
    """Run one traversal batch on a validated session: k-hop, or pairwise
    reachability when ``targets`` is given, or a k-hop pick's ``replay``.

    A query finishes at the level its target is first visited, its frontier
    dies everywhere, or its hop budget runs out, and records that level and
    virtual time once.  Once any target is hit, every step returns the
    early-termination mask built from *that step's* probe (``visited`` is
    monotone, so hits are cumulative) — never from what ``on_step``
    remembers, which a rewound or retried run would replay too early.

    Returns ``(finish_level, finish_seconds, resolved, hit, result)``:
    ``resolved`` is all True unless a deadline truncated the run; ``hit``
    flags the queries whose target was visited.
    """
    num_queries = int(sources.size)
    finish_level = np.zeros(num_queries, dtype=np.int64)
    finish_seconds = np.zeros(num_queries, dtype=np.float64)
    all_queries = (1 << num_queries) - 1
    done = hit = 0

    probe_args = None
    if targets is not None:
        owner = sess.pg.owner_of(targets)
        local = targets - sess.pg.bounds[owner]
        queries = np.arange(num_queries)
        probe_args = [
            (queries[owner == m], local[owner == m])
            for m in range(sess.num_machines)
        ]

    def on_step(step_index: int, stats, now: float, probes):
        nonlocal done, hit
        level = step_index + 1
        alive = hits = 0
        for partition_alive, partition_hits in probes:
            alive |= partition_alive
            hits |= partition_hits
        exhausted = k is not None and level >= k
        finished = hits | (all_queries if exhausted else all_queries & ~alive)
        newly = finished & ~done
        done |= newly
        while newly:
            q = (newly & -newly).bit_length() - 1
            finish_level[q] = level
            finish_seconds[q] = now
            newly &= newly - 1
        hit = hits
        if hits:
            return adapters.mask_frontier, (all_queries & ~hits,)
        return None

    if replay is not None:
        result = sess._run_on(replay, k, on_step, max_virtual_seconds)
    else:
        result = sess.run_batch(
            KHopPartitionTask,
            dict(
                num_queries=num_queries,
                k=k,
                record_depths=record_depths,
                direction=direction,
                push_coeff=sess.netmodel.seconds_per_edge_push,
                pull_coeff=sess.netmodel.seconds_per_edge_pull,
            ),
            ("khop",),
            sources=sources,
            combiner=combine_or,
            asynchronous=asynchronous,
            payload_width=adapters.WORD_PAYLOAD_WIDTH * words_for(num_queries),
            max_supersteps=k,
            on_step=on_step,
            probe=adapters.traversal_probe,
            probe_args=probe_args,
            max_virtual_seconds=max_virtual_seconds,
        )
    if result.truncated:
        resolved = _flags(done, num_queries)
    else:
        resolved = np.ones(num_queries, dtype=bool)
    return finish_level, finish_seconds, resolved, _flags(hit, num_queries), result


class SharedKHop:
    """One traversal over distinct sources (bit ``i`` is the sorted
    ``sources[i]``) that a batch of them, duplicates too, replays exactly.
    It runs at the first :class:`_Replay`, booking a ``core.khop.share`` span
    and keeping per superstep only the next frontier and the lit slot rows.
    """

    def __init__(self, sess: GraphSession, sources, k: int | None):
        sess.require_inproc(shared_run=True)
        self.sources = np.unique(sess.check_sources(sources, MAX_WIDE_BATCH))
        self.sess, self.k, self.epoch, self.lit = sess, k, sess.graph_epoch, None

    def bits(self, sess: GraphSession, sources, k) -> np.ndarray | None:
        """Each source's bit, or None where a batch of them cannot replay."""
        bits = np.searchsorted(self.sources, sources)
        held = self.sources[np.minimum(bits, self.sources.size - 1)] == sources
        mine = sess is self.sess and sess.graph_epoch == self.epoch and k == self.k
        return bits if mine and held.all() else None

    def _traverse(self) -> None:
        sess, q = self.sess, np.arange(self.sources.size)
        width = 64 * words_for(q.size)  # a 64-wide pick's planes serve as they are
        with sess.instr.span("core.khop.share", cat="khop", width=q.size):
            kwargs = dict(num_queries=width, k=self.k,
                          push_coeff=sess.netmodel.seconds_per_edge_push,
                          pull_coeff=sess.netmodel.seconds_per_edge_pull)
            tasks = sess.resident_tasks(KHopPartitionTask, kwargs, ("khop",))
            fused = _FusedStep(tasks, None, [()] * len(tasks))
            bits = np.left_shift(np.uint64(1), (q & 63).astype(np.uint64))
            fused.visited[self.sources, q >> 6] = bits
            fused.frontier[self.sources, q >> 6] = bits
            self.frontiers = [(self.sources, fused.frontier[self.sources])]
            self.lit, self.view, self.plans = [], fused.view, fused.plans
            fused.record, votes = (self.frontiers, self.lit), [self.k != 0]
            while any(votes):  # to the hop budget or the last frontier
                votes = fused.step()[0]
        #: per step and bit: the rows visited by then, on every partition
        counts = [per_query_counts(words, width) for _, words in self.frontiers]
        self.counts = np.cumsum(counts, axis=0)


class _Replay:
    """One pick's executor over a :class:`SharedKHop`: step ``s`` books what
    :class:`_FusedStep` would of step ``s``'s rows masked to the pick's bits."""

    def __init__(self, share: SharedKHop, bits, direction):
        if share.lit is None:
            share._traverse()
        sess, self.share, self.index, self.steps = share.sess, share, bits, 0
        self.instr, self.netmodel = sess.instr, sess.netmodel
        self.fault_tolerance, self.words = sess.fault_tolerance, words_for(bits.size)
        self.direction = direction  # and the coefficients: what _choose_mode reads
        self.push_coeff = float(sess.netmodel.seconds_per_edge_push)
        self.pull_coeff = float(sess.netmodel.seconds_per_edge_pull)
        self.word, self.shift = bits >> 6, (bits & 63).astype(np.uint64)
        self.mask = np.zeros(share.frontiers[0][1].shape[1], np.uint64)
        np.bitwise_or.at(self.mask, self.word, np.left_shift(np.uint64(1), self.shift))

    def run(self, max_supersteps=None, on_step=None, max_virtual_seconds=None):
        return run_supersteps(self, max_supersteps, on_step, max_virtual_seconds)

    def checkpoint(self) -> None:
        return None  # nothing runs, so nothing can fail

    def step(self, step: int):
        share, mask, bounds = self.share, self.mask, self.share.view.bounds
        rows, words = share.frontiers[step]
        active = rows[_lit(words & mask)]
        cut = np.searchsorted(active, bounds).tolist()
        stats = [StepStats() for _ in share.plans]
        for i, (mine, plan) in enumerate(zip(stats, share.plans)):
            local = active[cut[i] : cut[i + 1]] - bounds[i]
            if local.size:  # _expand's booking, the same in both kernels
                pull = KHopPartitionTask._choose_mode(self, plan, local) == "pull"
                mine.pull_partitions += pull
                mine.push_partitions += not pull
                mine.edges_scanned += int(plan.out_degree[local].sum())
                mine.vertices_updated += int(plan.local_out_degree[local].sum())
        (pairs, lit), num = share.lit[step], len(stats)
        sent = np.bincount(pairs[_lit(lit & mask)], minlength=num * num)
        _book_wire(stats, sent.reshape(num, num), share.view.id_bytes, self.words)
        # the pick's alive bits: the OR of every partition's probe is enough
        ored = np.bitwise_or.reduce(share.frontiers[step + 1][1] & mask, axis=0)
        hit = ((ored[self.word] >> self.shift) & np.uint64(1)).astype(bool)
        alive = int.from_bytes(np.packbits(hit, bitorder="little"), "little")
        self.steps = step + 1
        vote = bool(alive) and (share.k is None or self.steps < share.k)
        return [vote], stats, [(alive, 0)], None

    def gather(self, fn, *args) -> list:
        """The pick's visited counts, every partition's in one: ``fn`` can
        only be the :func:`concurrent_khop` gather, which sums them."""
        return [self.share.counts[self.steps][self.index]]
