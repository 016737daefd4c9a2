"""The concurrent k-hop reachability query engine (the paper's core operator).

A batch of queries traverses the partitioned graph together, level by level.
Each superstep every machine expands its local frontier over its out-edge
shard, OR-ing query bit-masks into local ``next`` planes and shipping
boundary-vertex updates as combined message batches (Figure 5).  A query
finishes when its frontier dies everywhere or after ``k`` hops.

Expansion is *direction-optimizing* (GPOP-style), chosen per partition per
superstep:

* **push** (sparse): gather the active frontier's out-edges from CSR
  (optionally edge-set by edge-set for cache locality) and scatter-OR into
  the ``next`` plane;
* **pull** (dense): sweep the partition's local in-edges in source-range
  tiles — a sequential gather of frontier words plus one segmented OR per
  tile (:class:`~repro.graph.partition.PullIndex`) — while remote-bound
  edges are routed push-style over a remote-only CSR so outgoing messages
  are byte-identical to push mode.

The heuristic (:func:`repro.runtime.netmodel.choose_direction`) compares the
frontier's out-edge mass against the partition's local edge count using the
cost model's per-mode coefficients.  Both modes charge the *same* canonical
(push-equivalent) work to :class:`~repro.runtime.netmodel.StepStats`, so
answers, messages and virtual clocks are bit-identical across ``push``,
``pull`` and ``auto`` — the direction changes wall-clock only.

The public entry point is :func:`concurrent_khop`, for any batch width up to
one cache line of query bits (:data:`~repro.core.frontier.MAX_WIDE_BATCH`).
It *describes* its batch — :class:`KHopPartitionTask` plus kwargs, the
:func:`~repro.core.adapters.khop_alive` probe, one ``on_step`` — and
:meth:`~repro.runtime.session.GraphSession.run_batch` runs that description
on whichever executor the session has.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import adapters
from repro.core.frontier import MAX_WIDE_BATCH, BitFrontier, words_for
from repro.errors import UnsupportedConfigError
from repro.graph.edgelist import EdgeList
from repro.graph.partition import PartitionedGraph
from repro.runtime.cluster import SimCluster
from repro.runtime.engine import PartitionTask
from repro.runtime.message import combine_or
from repro.runtime.netmodel import (
    PULL_SECONDS_PER_EDGE,
    PUSH_SECONDS_PER_EDGE,
    NetworkModel,
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

    def __init__(
        self,
        machine,
        cluster: SimCluster,
        num_queries: int,
        k: int | None,
        use_edge_sets: bool = False,
        record_depths: bool = False,
        direction: str = "auto",
        push_coeff: float = PUSH_SECONDS_PER_EDGE,
        pull_coeff: float = PULL_SECONDS_PER_EDGE,
    ):
        super().__init__(machine)
        self.cluster = cluster
        self.state = None
        self.depths = None
        self.reset(
            num_queries, k, use_edge_sets, record_depths, direction,
            push_coeff, pull_coeff,
        )

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
        if use_edge_sets and self.machine.partition.edge_sets is None:
            raise ValueError(
                "use_edge_sets requires PartitionedGraph.build_edge_sets() first"
            )
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
        if self._choose_mode(active) == "pull":
            stats.pull_partitions += 1
            self._expand_pull(active, stats)
            return
        stats.push_partitions += 1
        bits = self.state.frontier[active]
        if self.use_edge_sets:
            self._expand_edge_sets(active, bits, stats)
        else:
            self._expand_csr(active, bits, stats)

    def _choose_mode(self, active: np.ndarray) -> str:
        """Per-superstep direction decision for this partition.

        Deterministic in (frontier state, coefficients): replaying from a
        checkpoint reproduces the same frontier, hence the same choices.
        """
        if self.use_edge_sets or self.direction == "push":
            return "push"
        pidx = self.machine.partition.pull_index()
        if self.direction == "pull":
            return "pull"
        frontier_edges = int(pidx.out_degree[active].sum())
        return choose_direction(
            frontier_edges, pidx.num_local_edges, self.push_coeff, self.pull_coeff
        )

    def apply_inbox(self, stats: StepStats) -> None:
        for batch in self.machine.inbox.drain():
            local = batch.vertices - self.machine.lo
            self.state.or_into_next(local, batch.payload)
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

    def _expand_csr(self, active: np.ndarray, bits: np.ndarray, stats) -> None:
        csr = self.machine.partition.out_csr
        pos, counts = csr.gather_edges(active)
        targets = csr.indices[pos]
        self._route(targets, np.repeat(bits, counts, axis=0), stats)

    def _expand_pull(self, active: np.ndarray, stats) -> None:
        """Dense sweep: tiled gather over local in-edges + remote push pass.

        The local pass reads *every* local in-edge — inactive sources hold
        zero frontier words, and OR-ing zeros is a no-op, so the resulting
        ``next`` plane equals push's exactly.  The remote pass routes the
        active frontier's remote-destination edges over a CSR whose per-row
        order matches ``out_csr``, emitting byte-identical message batches.
        Stats are charged push-equivalently, keeping virtual clocks
        direction-independent.
        """
        pidx = self.machine.partition.pull_index()
        frontier = self.state.frontier
        nxt = self.state.next
        for block in pidx.blocks:
            ored = np.bitwise_or.reduceat(
                frontier[block.sources], block.starts, axis=0
            )
            nxt[block.rows] |= ored
        remote = pidx.remote_csr
        pos, counts = remote.gather_edges(active)
        if pos.size:
            targets = remote.indices[pos]
            bits = frontier[active]
            self._send_remote(targets, np.repeat(bits, counts, axis=0))
        # canonical (push-equivalent) accounting -> identical virtual clock
        stats.edges_scanned += int(pidx.out_degree[active].sum())
        stats.vertices_updated += int(pidx.local_out_degree[active].sum())

    def _expand_edge_sets(self, active: np.ndarray, bits: np.ndarray, stats) -> None:
        """Left-to-right scan over edge-set blocks (§3.2).

        Only blocks whose row range intersects the active frontier are
        touched — the shared-subgraph benefit: frontier vertices of *all*
        queries in one block are expanded in a single pass.
        """
        esm = self.machine.partition.edge_sets
        frontier = self.state.frontier
        for block in esm.row_major_blocks():
            rows = active[(active >= block.row_lo) & (active < block.row_hi)]
            if rows.size == 0:
                continue
            local_rows = rows - block.row_lo
            pos, counts = block.csr.gather_edges(local_rows)
            if pos.size == 0:
                continue
            targets = block.csr.indices[pos]
            self._route(targets, np.repeat(frontier[rows], counts, axis=0), stats)

    def _route(self, targets: np.ndarray, ebits: np.ndarray, stats) -> None:
        """Split expanded edges into local OR-updates and remote batches."""
        stats.edges_scanned += int(targets.size)
        lo, hi = self.machine.lo, self.machine.hi
        local_mask = (targets >= lo) & (targets < hi)
        if local_mask.any():
            tl = targets[local_mask] - lo
            self.state.or_into_next(tl, ebits[local_mask])
            stats.vertices_updated += int(tl.size)
        remote_mask = ~local_mask
        if remote_mask.any():
            self._send_remote(targets[remote_mask], ebits[remote_mask])

    def _send_remote(self, rt: np.ndarray, rb: np.ndarray) -> None:
        """Queue remote-destination edges under their owning partitions."""
        self.machine.outbox.route(self.cluster.owner_of(rt), rt, rb)


def concurrent_khop(
    graph: EdgeList | PartitionedGraph,
    sources,
    k: int | None,
    num_machines: int = 1,
    netmodel: NetworkModel | None = None,
    use_edge_sets: bool = False,
    asynchronous: bool = False,
    record_depths: bool = False,
    max_supersteps: int | None = None,
    session: GraphSession | None = None,
    max_virtual_seconds: float | None = None,
    direction: str = "auto",
) -> KHopResult:
    """Run up to 512 k-hop queries concurrently with bit-parallel sharing.

    Parameters
    ----------
    graph:
        An :class:`EdgeList` (partitioned here into ``num_machines`` ranges)
        or a pre-partitioned :class:`PartitionedGraph`.
    sources:
        Global source vertex per query.  The batch width is
        ``len(sources)``, up to one 64-byte cache line of query bits
        (:data:`~repro.core.frontier.MAX_WIDE_BATCH` = 512, §3.5) — the
        planes simply grow a word per 64 queries; longer streams go through
        :func:`repro.core.batch.run_query_stream`.
    k:
        Hop budget; ``None`` means full BFS (traverse to exhaustion).
    record_depths:
        Also return a dense ``(n, num_queries)`` hop-depth matrix (-1 =
        unreached).  Costs O(n·Q) memory — the paper's §3.3 level-limited
        mode is the default (depths off).
    session:
        A persistent :class:`~repro.runtime.session.GraphSession` to run the
        batch on; its graph/cluster are reused and its resident tasks are
        reset in place.  Omitted, a transient session is built per call.
        A ``backend="pool"`` session runs the batch on its worker pool
        (bit-identical answers, real multicore wall-clock); ``use_edge_sets``
        and ``asynchronous`` require the in-process backend and raise
        :class:`~repro.errors.UnsupportedConfigError` there.
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

    Returns a :class:`KHopResult`; virtual time comes from the cluster's
    network model and counted work.
    """
    _check_direction(direction, use_edge_sets)
    sess = GraphSession.for_run(graph, num_machines, netmodel, session)
    sess.require_inproc(use_edge_sets=use_edge_sets, asynchronous=asynchronous)
    pg = sess.pg
    sources = sess.check_sources(sources, MAX_WIDE_BATCH)
    num_queries = int(sources.size)

    completion_level = np.full(num_queries, 0, dtype=np.int64)
    completion_seconds = np.zeros(num_queries, dtype=np.float64)
    all_queries = (1 << num_queries) - 1
    done_mask = 0

    cap = max_supersteps
    if k is not None:
        cap = k if cap is None else min(cap, k)

    def on_step(step_index: int, stats, now: float, probes) -> None:
        """A query finishes the level its frontier dies everywhere, or the
        level that uses up the hop budget."""
        nonlocal done_mask
        level = step_index + 1
        finished = all_queries
        if k is None or level < k:
            for alive in probes:
                finished &= ~alive
        newly = finished & ~done_mask
        done_mask |= newly
        while newly:
            q = (newly & -newly).bit_length() - 1
            completion_level[q] = level
            completion_seconds[q] = now
            newly &= newly - 1

    sess.prepare()
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
        probe=adapters.khop_alive,
        max_virtual_seconds=max_virtual_seconds,
    )
    reached = np.zeros(num_queries, dtype=np.int64)
    for counts in sess.gather_batch(adapters.khop_visited_counts):
        reached += counts

    # queries that never produced a superstep (e.g. k == 0) complete at t=0
    completion_seconds[completion_level == 0] = 0.0

    depths = None
    if record_depths:
        depths = np.full((pg.num_vertices, num_queries), -1, dtype=np.int16)
        for part, d in zip(
            pg.partitions, sess.gather_batch(adapters.khop_depths)
        ):
            depths[part.lo : part.hi] = d
        for q, s in enumerate(sources):
            depths[int(s), q] = 0

    if result.truncated:
        resolved = np.array(
            [bool(done_mask >> q & 1) for q in range(num_queries)]
        )
    else:
        resolved = np.ones(num_queries, dtype=bool)

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
