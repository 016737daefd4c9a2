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
  slot plane (with ``use_edge_sets``, edge-set by edge-set for cache
  locality, landing in the same two planes);
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

The public entry point is :func:`concurrent_khop`, for any batch width up to
one cache line of query bits (:data:`~repro.core.frontier.MAX_WIDE_BATCH`);
:func:`~repro.core.reachability.reachability_queries` is the same batch with
targets.  Both go through :func:`_run_traversal`, which *describes* the
batch — :class:`KHopPartitionTask` plus kwargs, the
:func:`~repro.core.adapters.traversal_probe`, one ``on_step`` — and
:meth:`~repro.runtime.session.GraphSession.run_batch` runs that description
on whichever executor the session has.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import adapters
from repro.core.frontier import MAX_WIDE_BATCH, BitFrontier, words_for
from repro.errors import UnsupportedConfigError
from repro.graph.partition import ExchangePlan
from repro.graph.validation import check_hops
from repro.runtime.cluster import SimCluster
from repro.runtime.engine import PartitionTask
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


def _check_direction(direction: str, use_edge_sets: bool) -> str:
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    if use_edge_sets and direction == "pull":
        raise UnsupportedConfigError(
            "use_edge_sets uses the push kernel; direction='pull' conflicts"
        )
    return direction


def _check_traversal(
    sess: GraphSession, k, direction: str, use_edge_sets: bool,
    asynchronous: bool = False,
) -> None:
    """The traversal door: every mode check, before any work runs."""
    check_hops(k)
    _check_direction(direction, use_edge_sets)
    sess.require_inproc(use_edge_sets=use_edge_sets, asynchronous=asynchronous)


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
        use_edge_sets: bool = False,
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
        self.use_edge_sets = use_edge_sets
        self.k = k
        self.level = 0
        self.direction = _check_direction(direction, use_edge_sets)
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

    def compute(self, stats: StepStats) -> None:
        if self.k is not None and self.level >= self.k:
            return
        active = self.state.active_vertices()
        if active.size == 0:
            return
        plan, cuts = self._arm_plane()
        if self._choose_mode(plan, active) == "pull":
            stats.pull_partitions += 1
            self._expand_pull(plan, active, stats)
        else:
            stats.push_partitions += 1
            # Cleared here, not after the flush: whatever became of the last
            # superstep's rows (sent, dropped, abandoned by a raise or a
            # rewind), this scatter starts from zero.  Pull assigns every row.
            self._plane.fill(0)
            if self.use_edge_sets:
                blocks = self.machine.partition.edge_sets.row_major_blocks()
                in_memory = ((b.row_lo, b.row_hi, lambda b=b: b) for b in blocks)
                self._scan_blocks(in_memory, active, stats)
            else:
                self._expand_push(plan, active, stats)
        for dest, lo, hi in cuts:
            rows = self._plane[lo:hi]
            if rows.any():
                self.machine.outbox.append(
                    dest, PlaneSlice(plan.boundary[lo:hi], rows)
                )

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
        if self.use_edge_sets or self.direction == "push":
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
        if self.depths is not None and newly.any():
            rows = np.nonzero(newly.any(axis=1))[0]
            # one vectorised unpack of all query bits per touched vertex
            # (explicit little-endian view keeps byte order platform-stable)
            words = self.state.words
            bits = np.unpackbits(
                newly[rows]
                .astype("<u8", copy=False)
                .view(np.uint8)
                .reshape(rows.size, 8 * words),
                axis=1,
                bitorder="little",
            )[:, : self.state.num_queries]
            r, q = np.nonzero(bits)
            self.depths[rows[r], q] = self.level + 1
        self.level += 1
        budget_left = self.k is None or self.level < self.k
        return bool(budget_left and self.state.frontier.any())

    # -- expansion kernels ------------------------------------------------ #

    def _expand_push(self, plan: ExchangePlan, active: np.ndarray, stats) -> None:
        """Scatter the active frontier's edges into ``next`` and the slot plane."""
        bits = self.state.frontier.take(active, axis=0)
        local, slot = plan.local_csr, plan.slot_csr
        pos, counts = local.gather_edges(active)
        self.state.or_into_next(local.indices[pos], np.repeat(bits, counts, axis=0))
        spos, scounts = slot.gather_edges(active)
        np.bitwise_or.at(
            self._plane, slot.indices[spos], np.repeat(bits, scounts, axis=0)
        )
        stats.edges_scanned += int(pos.size + spos.size)
        stats.vertices_updated += int(pos.size)

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

    def _scan_blocks(self, blocks, active: np.ndarray, stats) -> None:
        """Left-to-right scan over edge-set blocks (§3.2), each given as
        ``(row_lo, row_hi, fetch)``.

        Only blocks whose row range intersects the active frontier are
        fetched (the out-of-core store's ``fetch`` pays the disk tier) — the
        shared-subgraph benefit: frontier vertices of *all* queries in one
        block are expanded in a single pass.
        """
        frontier = self.state.frontier
        for row_lo, row_hi, fetch in blocks:
            rows = active[(active >= row_lo) & (active < row_hi)]
            if rows.size == 0:
                continue
            csr = fetch().csr
            pos, counts = csr.gather_edges(rows - row_lo)
            if pos.size == 0:
                continue
            ebits = np.repeat(frontier[rows], counts, axis=0)
            self._route(csr.indices[pos], ebits, stats)

    def _route(self, targets: np.ndarray, ebits: np.ndarray, stats) -> None:
        """Land a block scan's expanded edges (global targets, mixed
        locality) in ``next`` and the slot plane."""
        stats.edges_scanned += int(targets.size)
        lo, hi = self.machine.lo, self.machine.hi
        local = (targets >= lo) & (targets < hi)
        self.state.or_into_next(targets[local] - lo, ebits[local])
        stats.vertices_updated += int(np.count_nonzero(local))
        remote = ~local
        slots = np.searchsorted(self._plan.boundary, targets[remote])
        np.bitwise_or.at(self._plane, slots, ebits[remote])


def concurrent_khop(
    sess: GraphSession,
    sources,
    k: int | None,
    use_edge_sets: bool = False,
    asynchronous: bool = False,
    record_depths: bool = False,
    max_supersteps: int | None = None,
    max_virtual_seconds: float | None = None,
    direction: str = "auto",
) -> KHopResult:
    """Run up to 512 k-hop queries concurrently with bit-parallel sharing.

    Parameters
    ----------
    sess:
        The :class:`~repro.runtime.session.GraphSession` to run the batch
        on; its resident tasks are reset in place.  A ``backend="pool"``
        session runs the batch on its worker pool (bit-identical answers);
        ``use_edge_sets`` and ``asynchronous`` require the in-process
        backend and raise :class:`~repro.errors.UnsupportedConfigError`
        there.
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
        ``use_edge_sets`` implies the push kernel.

    Returns a :class:`KHopResult`; virtual time comes from the session's
    network model and counted work.
    """
    _check_traversal(sess, k, direction, use_edge_sets, asynchronous)
    pg = sess.pg
    sources = sess.check_sources(sources, MAX_WIDE_BATCH)
    num_queries = int(sources.size)
    completion_level, completion_seconds, resolved, _, result = _run_traversal(
        sess, sources, k,
        use_edge_sets=use_edge_sets,
        asynchronous=asynchronous,
        record_depths=record_depths,
        max_supersteps=max_supersteps,
        max_virtual_seconds=max_virtual_seconds,
        direction=direction,
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
    use_edge_sets: bool = False,
    asynchronous: bool = False,
    record_depths: bool = False,
    max_supersteps: int | None = None,
    max_virtual_seconds: float | None = None,
    direction: str = "auto",
):
    """Run one traversal batch on a validated session: k-hop, or pairwise
    reachability when ``targets`` is given.

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

    cap = max_supersteps
    if k is not None:
        cap = k if cap is None else min(cap, k)

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

    result = sess.run_batch(
        KHopPartitionTask,
        dict(
            num_queries=num_queries,
            k=k,
            use_edge_sets=use_edge_sets,
            record_depths=record_depths,
            direction=direction,
            push_coeff=sess.netmodel.seconds_per_edge_push,
            pull_coeff=sess.netmodel.seconds_per_edge_pull,
        ),
        ("khop", use_edge_sets),
        sources=sources,
        combiner=combine_or,
        asynchronous=asynchronous,
        payload_width=adapters.WORD_PAYLOAD_WIDTH * words_for(num_queries),
        max_supersteps=cap,
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
