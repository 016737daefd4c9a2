"""Range-based, edge-balanced graph partitioning (§3.1).

Vertices are assigned to ``p`` machines by contiguous id range; ranges are
chosen so each partition holds a similar number of edges ("to balance the
workload, we optimize each partition to contain a similar number of edges").
Each partition stores, for its local vertices:

* all **out-going** edges in CSR — "assigning all out-going edges of a
  vertex to the same partition is a way of improving the efficiency of
  local graph traversals" — optionally tiled into edge-sets by an
  :class:`~repro.graph.edgeset.EdgeSetMatrix` layout;
* all **incoming** edges in CSC — needed by gather-style algorithms
  (PageRank);
* the partition's slice of vertex properties.

*Local vertices* are those inside the range; *boundary vertices* (w.r.t. a
partition) are remote vertices adjacent to its local ones.

Range partitioning also fixes, at partition time, every remote vertex a
partition can ever write to.  :class:`ExchangePlan` lays that set out once as
a dense *slot space* — sorted, so each destination partition owns one
contiguous slice of it — and splits the out-edges by it, so a traversal
superstep scatters into per-destination boundary planes with no locality
mask, owner lookup or sort of its own (the GPOP idea: bins laid out once).
With an edge-set layout the plan stores those edges block-major, so the same
scan walks them edge-set by edge-set.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import UnsupportedConfigError
from repro.graph.csr import CSR, build_csr, splice_csr
from repro.graph.edgelist import EdgeList
from repro.graph.edgeset import EdgeSetMatrix, degree_balanced_ranges

__all__ = [
    "Partition",
    "PartitionedGraph",
    "ExchangePlan",
    "ExchangeView",
    "range_partition",
    "partition_with_bounds",
    "owner_of_bounds",
    "splice_plan",
]


def owner_of_bounds(bounds: np.ndarray, v) -> np.ndarray | int:
    """Vectorised owner lookup against partition bounds alone.

    The pool workers route messages with only the bounds array (a shared
    view) in hand — no :class:`PartitionedGraph` exists worker-side.
    """
    return np.searchsorted(bounds, np.asarray(v), side="right") - 1


@dataclass
class ExchangePlan:
    """A partition's out-edges laid out for traversal and exchange, once.

    Built from ``out_csr``/``in_csc`` and cached on the partition.  The build
    is a pure function of the partition's edges, so every process (in-process
    engine, pool workers, a worker restarted after a fault) derives an
    identical plan, and a mutation batch splices it with the shard
    (:func:`splice_plan`) into the plan a rebuild would give.

    * ``boundary`` — the sorted, unique remote out-neighbours (global ids).
      Position in it is a **slot**; a sender keeps one plane row per slot.
      Sorted ids under range partitioning mean each destination partition
      owns a contiguous slice (:meth:`cuts`), and a slice's non-zero rows in
      slot order are that destination's combined wire batch.
    * ``local_csr`` / ``slot_csr`` — ``out_csr`` split by locality, per-row
      column order and edge weights kept: columns are local rows and slots.
      A push kernel gathers the active rows' edges from each
      (:meth:`gather_rows`) and scatters into local state and into the slot
      space.  Without an edge-set ``layout`` (or with one column stripe)
      their rows are the local rows, in ``out_csr``'s order.  With one,
      their rows are *plan rows* — (local row, column stripe) pairs — stored
      block-major (:class:`~repro.graph.edgeset.EdgeSetMatrix`):
      ``block_rows[v, c]`` is the plan row of local row ``v`` in column
      stripe ``c`` and ``block_src`` maps a plan row back to its local row.
      A target's edges keep their source order, so an order-sensitive fold
      per target (GAS's ``bincount``) is unchanged by the layout.
    * ``sweep_sources`` / ``sweep_starts`` / ``sweep_rows`` — every out-edge
      grouped by target over the unified target space ``[local rows | slots]``
      for one segmented reduce (k-hop's pull, GAS's remote gather): run ``i``
      is ``sweep_sources[sweep_starts[i]:sweep_starts[i+1]]`` (local source
      rows, ascending — a stable sort by target; ``intp``, so a pull's
      ``take`` indexes with it unconverted).  The first
      ``len(sweep_rows)`` runs are the local target rows with a local
      in-edge; the remaining ``num_slots`` runs are the slots in order (a
      slot always has an edge).
    * ``out_degree`` / ``local_out_degree`` — per-local-row totals for the
      canonical (push-equivalent) cost accounting and the direction
      heuristic's frontier-edge mass, both in k-hop's
      :func:`~repro.core.khop._book`.
    """

    boundary: np.ndarray = field(repr=False)
    local_csr: CSR = field(repr=False)
    slot_csr: CSR = field(repr=False)
    sweep_sources: np.ndarray = field(repr=False)
    sweep_starts: np.ndarray = field(repr=False)
    sweep_rows: np.ndarray = field(repr=False)
    out_degree: np.ndarray = field(repr=False)
    local_out_degree: np.ndarray = field(repr=False)
    layout: EdgeSetMatrix | None = field(default=None, repr=False)
    block_rows: np.ndarray | None = field(default=None, repr=False)
    block_src: np.ndarray | None = field(default=None, repr=False)
    # :meth:`cuts` under the graph's bounds, kept by the first task to read
    # the plan (a plan is only ever read under its graph's one set of bounds)
    slot_cuts = None

    @property
    def num_slots(self) -> int:
        return int(self.boundary.size)

    def gather_rows(self, active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, sources)``: the ``local_csr``/``slot_csr`` rows that
        hold the out-edges of the ``active`` local rows, in storage order,
        and the local row each one belongs to."""
        if self.block_rows is None:
            return active, active
        rows = np.sort(self.block_rows[active], axis=None)
        return rows, self.block_src[rows]

    def spread_local(self, values: np.ndarray) -> np.ndarray:
        """Per-local-row ``values`` repeated once per ``local_csr`` edge,
        in storage order."""
        if self.block_src is None:
            return np.repeat(values, self.local_out_degree)
        return np.repeat(values[self.block_src], np.diff(self.local_csr.indptr))

    def blocks(self) -> list[tuple[int, int, int, int, int, int]]:
        """The non-empty edge-sets in scan order, each ``(row_lo, row_hi,
        local_lo, local_hi, slot_lo, slot_hi)``: its local-row range and its
        slices of ``local_csr`` and ``slot_csr``.  Without a layout the
        whole partition is one block."""
        row_bounds = offsets = np.array([0, self.out_degree.size])
        stripes = 1
        if self.layout is not None:
            row_bounds, offsets = self.layout.row_bounds, self.layout.block_offsets()
            stripes = self.layout.num_col_stripes
        local = self.local_csr.indptr[offsets]
        slot = self.slot_csr.indptr[offsets]
        return [
            (int(row_bounds[b // stripes]), int(row_bounds[b // stripes + 1]),
             int(local[b]), int(local[b + 1]), int(slot[b]), int(slot[b + 1]))
            for b in np.flatnonzero(np.diff(local) + np.diff(slot))
        ]

    @property
    def num_edges(self) -> int:
        """Out-edges of the partition — what one pull sweep reads."""
        return int(self.sweep_sources.size)

    def cuts(self, owners: np.ndarray) -> list[tuple[int, int, int]]:
        """``(dest, lo, hi)`` per destination: its slice of the slot space.

        ``owners`` is the owning partition of every ``boundary`` vertex —
        non-decreasing, since ``boundary`` is sorted and partitions are
        ranges.  Looked up once per plan by whoever holds the bounds.
        """
        dests, starts = np.unique(owners, return_index=True)
        ends = np.append(starts[1:], owners.size)
        return [(int(d), int(a), int(b)) for d, a, b in zip(dests, starts, ends)]

    def nbytes(self) -> int:
        arrays = (
            self.boundary, self.sweep_sources, self.sweep_starts,
            self.sweep_rows, self.out_degree, self.local_out_degree,
            self.block_rows, self.block_src,
        )
        total = self.local_csr.nbytes() + self.slot_csr.nbytes()
        return int(total + sum(a.nbytes for a in arrays if a is not None))


class ExchangeView:
    """What a superstep over every partition at once (the in-process k-hop)
    needs beside each partition's own :class:`ExchangePlan`: no edge-sized
    array, so a plan a batch splices costs the view one pass over the
    vertices and slots.

    Targets live in one space: vertex ``v`` is row ``v``, then each
    partition's slots from ``slot_bounds[i]``.  ``slot_pair`` is each slot's
    (sender, destination); ``inbox_order`` runs each vertex's row with the
    slots that target it, one run per vertex (the delivery).  The view
    holds its plans weakly: a replaced plan is freed, not kept for the
    comparison that finds it stale.
    """

    def __init__(self, pg: PartitionedGraph, plans: list[ExchangePlan]):
        n = pg.num_vertices
        self._plans = [weakref.ref(p) for p in plans]
        self.bounds = pg.bounds
        self.slot_bounds = n + np.cumsum([0] + [p.num_slots for p in plans])
        self.num_slots = int(self.slot_bounds[-1]) - n
        pairs = [np.zeros(0, np.int64)]  # per slot: sender * partitions + destination
        for i, p in enumerate(plans):
            if p.slot_cuts is None:  # kept with the plan: a spliced one derives them
                p.slot_cuts = p.cuts(pg.owner_of(p.boundary))
            pairs += [np.full(b - a, i * len(plans) + d) for d, a, b in p.slot_cuts]
        self.slot_pair = np.concatenate(pairs)
        self.id_bytes = np.array([p.boundary.itemsize for p in plans])
        keys = np.concatenate([np.arange(n)] + [p.boundary for p in plans])
        self.inbox_order = np.argsort(keys, kind="stable")
        self.inbox_starts = np.flatnonzero(np.diff(keys[self.inbox_order], prepend=-1))

    def reads(self, plans: list[ExchangePlan]) -> bool:
        """Whether the view was built from exactly these plan objects."""
        return all(ref() is p for ref, p in zip(self._plans, plans))


@dataclass
class Partition:
    """One machine's subgraph shard.

    Attributes
    ----------
    part_id:
        Machine index in ``[0, p)``.
    lo, hi:
        The local vertex range ``[lo, hi)`` in global ids.
    out_csr:
        CSR over local rows (``hi - lo`` rows), columns are global ids.
    in_csc:
        CSC over local rows: row ``v - lo`` lists global in-neighbours of
        ``v``.
    edge_sets:
        The edge-set layout the exchange plan orders ``out_csr`` by (set by
        :meth:`PartitionedGraph.build_edge_sets`; ``None`` is one block).
        Only bounds: it outlives edge changes, which splice the plan under it.
    plan_cache:
        Lazily built :class:`ExchangePlan` (see :meth:`exchange_plan`).
    graph_epoch:
        The dynamic graph's epoch the shards hold (0 for a static graph);
        :func:`~repro.dynamic.delta.splice_record` advances it.
    """

    part_id: int
    lo: int
    hi: int
    out_csr: CSR = field(repr=False)
    in_csc: CSR = field(repr=False)
    edge_sets: EdgeSetMatrix | None = field(default=None, repr=False)
    plan_cache: ExchangePlan | None = field(default=None, repr=False)
    graph_epoch: int = 0

    @property
    def num_local(self) -> int:
        """Number of local vertices."""
        return self.hi - self.lo

    @property
    def num_out_edges(self) -> int:
        return self.out_csr.nnz

    def is_local(self, v) -> np.ndarray | bool:
        """Vectorised membership test for global vertex id(s)."""
        return (np.asarray(v) >= self.lo) & (np.asarray(v) < self.hi)

    def to_local(self, v):
        """Global id(s) -> local row offset(s). Caller ensures locality."""
        return np.asarray(v) - self.lo

    def boundary_vertices(self) -> np.ndarray:
        """Sorted global ids of remote vertices adjacent to this partition.

        These are the vertices whose values must cross the network — the
        quantity Figure 11's discussion says grows with machine count.
        """
        cols = self.out_csr.indices
        rows_in = self.in_csc.indices
        remote_out = cols[(cols < self.lo) | (cols >= self.hi)]
        remote_in = rows_in[(rows_in < self.lo) | (rows_in >= self.hi)]
        return np.unique(np.concatenate([remote_out, remote_in]))

    def exchange_plan(self) -> ExchangePlan:
        """The partition's :class:`ExchangePlan`, built on first use."""
        if self.plan_cache is None:
            self.plan_cache = _build_exchange_plan(self)
        return self.plan_cache

    def nbytes(self) -> int:
        total = self.out_csr.nbytes() + self.in_csc.nbytes()
        if self.edge_sets is not None:
            total += self.edge_sets.nbytes()
        if self.plan_cache is not None:
            total += self.plan_cache.nbytes()
        return total


class PartitionedGraph:
    """A graph split into ``p`` contiguous, edge-balanced partitions.

    The object is the hand-off point between the graph substrate and the
    runtime: the runtime assigns one :class:`Partition` per simulated machine.
    The shards are the graph: no edge list is kept beside them, and
    :meth:`edge_list` rebuilds one when a caller needs it.
    """

    def __init__(self, bounds: np.ndarray, partitions: list[Partition]):
        self.bounds = np.asarray(bounds, dtype=np.int64)
        self.partitions = partitions
        #: ``(sets_per_partition, consolidate_min_edges)`` of the edge-set
        #: layout, once built
        self.edge_set_settings: tuple[int, int | None] | None = None
        self._exchange_view: ExchangeView | None = None

    # -- global structure ------------------------------------------------ #

    @property
    def num_vertices(self) -> int:
        return int(self.bounds[-1])

    @property
    def num_edges(self) -> int:
        return sum(p.out_csr.nnz for p in self.partitions)

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    def exchange_view(self) -> ExchangeView:
        """The :class:`ExchangeView` of the current plans, rebuilt when one
        was replaced."""
        plans = [part.exchange_plan() for part in self.partitions]
        view = self._exchange_view
        if view is None or not view.reads(plans):
            view = self._exchange_view = ExchangeView(self, plans)
        return view

    def owner_of(self, v) -> np.ndarray | int:
        """Vectorised owner lookup: global id(s) -> partition id(s)."""
        return owner_of_bounds(self.bounds, v)

    def partition_of(self, v: int) -> Partition:
        """The :class:`Partition` owning global vertex ``v``."""
        return self.partitions[int(self.owner_of(v))]

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex, from the out-CSR rows."""
        return np.concatenate([p.out_csr.degrees() for p in self.partitions])

    def in_degrees(self) -> np.ndarray:
        """In-degree of every vertex, from the in-CSC rows."""
        return np.concatenate([p.in_csc.degrees() for p in self.partitions])

    def edge_list(self) -> EdgeList:
        """The graph's edges rebuilt from the out-CSR rows, key-sorted
        (``(src, dst)``-lexicographic, whatever the input order was)."""
        parts = self.partitions
        src = np.concatenate(
            [np.repeat(np.arange(p.lo, p.hi), p.out_csr.degrees()) for p in parts]
        )
        dst = np.concatenate([p.out_csr.indices for p in parts])
        weights = [p.out_csr.weights for p in parts]
        weight = None if any(w is None for w in weights) else np.concatenate(weights)
        return EdgeList(src, dst, self.num_vertices, weight=weight)

    # -- the edge-set layout ---------------------------------------------- #

    def build_edge_sets(
        self, sets_per_partition: int = 8, consolidate_min_edges: int | None = None
    ) -> None:
        """Lay every partition's out-edges out as edge-sets (§3.2).

        ``sets_per_partition`` controls the number of row/column stripes per
        partition (the paper's Figure 3 uses 8 per partition); with
        ``consolidate_min_edges`` set, tiny blocks are merged.  A graph holds
        one layout: asking again with the same settings is a no-op, and
        different ones raise :class:`~repro.errors.UnsupportedConfigError`.
        """
        settings = (sets_per_partition, consolidate_min_edges)
        if self.edge_set_settings is not None:
            if self.edge_set_settings != settings:
                raise UnsupportedConfigError(
                    "the graph already has a different edge-set layout; it "
                    "is fixed when the session is built "
                    "(GraphSession(edge_sets=True, sets_per_partition=..., "
                    "consolidate_min_edges=...))"
                )
            return
        self.edge_set_settings = settings
        for part, layout in zip(self.partitions, self.tile_edge_sets(*settings)):
            part.edge_sets = layout
            part.plan_cache = None

    def tile_edge_sets(
        self, sets_per_partition: int = 8, consolidate_min_edges: int | None = None
    ) -> list[EdgeSetMatrix]:
        """Each partition's edge-set tiling of its current out-edges, per
        :meth:`build_edge_sets`'s settings, without installing it."""
        col_bounds = degree_balanced_ranges(self.in_degrees(), sets_per_partition)
        return [
            EdgeSetMatrix.tile(
                part.out_csr, col_bounds, sets_per_partition, consolidate_min_edges
            )
            for part in self.partitions
        ]

    # -- stats ------------------------------------------------------------ #

    def edge_balance(self) -> float:
        """max/mean ratio of per-partition out-edge counts (1.0 = perfect)."""
        counts = np.array([p.num_out_edges for p in self.partitions], dtype=np.float64)
        mean = counts.mean() if counts.size else 0.0
        return float(counts.max() / mean) if mean > 0 else 1.0

    def total_boundary_vertices(self) -> int:
        """Sum over partitions of distinct boundary vertices (comm volume proxy)."""
        return int(sum(p.boundary_vertices().size for p in self.partitions))

    def nbytes(self) -> int:
        return int(sum(p.nbytes() for p in self.partitions))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PartitionedGraph(n={self.num_vertices}, m={self.num_edges}, "
            f"p={self.num_partitions})"
        )


def range_partition(edges: EdgeList, num_partitions: int) -> PartitionedGraph:
    """Partition ``edges`` into ``num_partitions`` contiguous vertex ranges.

    Ranges balance **out-edge count** (the dominant per-superstep work in
    traversals).  Every partition receives all out-edges of its local
    vertices (CSR) and all in-edges of its local vertices (CSC); an edge with
    both endpoints remote to a partition is stored elsewhere.
    """
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")
    n = edges.num_vertices
    bounds = degree_balanced_ranges(edges.out_degrees(), num_partitions)
    if bounds.size < num_partitions + 1:
        # More partitions than vertices: trailing partitions own empty ranges.
        pad = np.full(num_partitions + 1 - bounds.size, n, dtype=np.int64)
        bounds = np.concatenate([bounds, pad])
    return partition_with_bounds(edges, bounds)


def partition_with_bounds(edges: EdgeList, bounds: np.ndarray) -> PartitionedGraph:
    """Partition ``edges`` against a *fixed* set of range bounds.

    The dynamic-graph layer pins the bounds chosen for the initial graph
    and rebuilds oracle/compacted partitions against them, so shard
    contents stay comparable byte-for-byte across mutations (each CSR is a
    pure function of the per-row edge sets, independent of input order).
    """
    bounds = np.asarray(bounds, dtype=np.int64)
    num_partitions = bounds.size - 1
    if num_partitions <= 0:
        raise ValueError("bounds must contain at least two entries")

    src, dst = edges.src, edges.dst
    w = edges.weight
    src_owner = np.searchsorted(bounds, src, side="right") - 1
    dst_owner = np.searchsorted(bounds, dst, side="right") - 1

    partitions: list[Partition] = []
    for pid in range(num_partitions):
        lo, hi = int(bounds[pid]), int(bounds[pid + 1])
        out_mask = src_owner == pid
        in_mask = dst_owner == pid
        out_csr = build_csr(
            src[out_mask] - lo,
            dst[out_mask],
            hi - lo,
            weights=None if w is None else w[out_mask],
        )
        # in_csc rows are local destinations; stored values are global sources.
        in_csc = build_csr(
            dst[in_mask] - lo,
            src[in_mask],
            hi - lo,
            weights=None if w is None else w[in_mask],
        )
        partitions.append(Partition(pid, lo, hi, out_csr, in_csc))
    return PartitionedGraph(bounds, partitions)


def _masked_prefix(mask: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """``indptr`` of the CSR that keeps only the ``mask``-ed edges."""
    before = np.zeros(mask.size + 1, dtype=np.int64)
    np.cumsum(mask, out=before[1:])
    return before[indptr]


def _build_exchange_plan(part: Partition) -> ExchangePlan:
    n, lo, hi = part.num_local, part.lo, part.hi
    out = part.out_csr
    cols = out.indices
    shift = cols.dtype.type(lo)

    # out_csr split by locality: both halves are masked copies, so rows stay
    # row-major and columns stay sorted inside a row.
    is_local = (cols >= lo) & (cols < hi)
    local_indptr = _masked_prefix(is_local, out.indptr)
    slot_indptr = out.indptr - local_indptr
    is_remote = ~is_local
    remote_cols = cols[is_remote]
    w = out.weights

    # The one sort: remote edges by target.  It yields the slot space, every
    # remote edge's slot, and the slot half of the target-major sweep.
    order = np.argsort(remote_cols, kind="stable")
    sorted_cols = remote_cols[order]
    first = np.ones(sorted_cols.size, dtype=bool)
    np.not_equal(sorted_cols[1:], sorted_cols[:-1], out=first[1:])
    slot_starts = np.flatnonzero(first)
    slots = np.empty(remote_cols.size, dtype=cols.dtype)
    slots[order] = np.cumsum(first, dtype=cols.dtype) - cols.dtype.type(1)
    remote_rows = np.repeat(np.arange(n, dtype=cols.dtype), np.diff(slot_indptr))

    # Local half of the sweep: in_csc is already target-major; keep its
    # local sources and the rows that still have one.
    srcs = part.in_csc.indices
    src_local = (srcs >= lo) & (srcs < hi)
    row_ptr = _masked_prefix(src_local, part.in_csc.indptr)
    sweep_rows = np.flatnonzero(np.diff(row_ptr))
    local_sources = srcs[src_local] - shift

    out_degree = np.diff(out.indptr)
    local_csr = CSR(
        local_indptr, cols[is_local] - shift, None if w is None else w[is_local]
    )
    slot_csr = CSR(slot_indptr, slots, None if w is None else w[is_remote])
    layout, block_rows, block_src = part.edge_sets, None, None
    if layout is not None and layout.num_col_stripes > 1:
        # Block-major: one stable sort per half by block.  With a single
        # column stripe, plan rows are local rows and row-major already is.
        local_rows = np.repeat(np.arange(n), np.diff(local_indptr))
        local_csr = _block_major(layout, local_csr, local_rows, cols[is_local])
        slot_csr = _block_major(layout, slot_csr, remote_rows, remote_cols)
        block_rows = layout.plan_row_table()
        block_src = np.empty(block_rows.size, dtype=np.int64)
        block_src[block_rows] = np.arange(n)[:, None]
    return ExchangePlan(
        boundary=sorted_cols[slot_starts],
        local_csr=local_csr,
        slot_csr=slot_csr,
        sweep_sources=np.concatenate(
            [local_sources, remote_rows[order]], dtype=np.intp
        ),
        sweep_starts=np.concatenate(
            [row_ptr[sweep_rows], local_sources.size + slot_starts]
        ),
        sweep_rows=sweep_rows,
        out_degree=out_degree,
        local_out_degree=np.diff(local_indptr),
        layout=layout,
        block_rows=block_rows,
        block_src=block_src,
    )


def splice_plan(
    plan: ExchangePlan, part: Partition, ins: np.ndarray, dels: np.ndarray
) -> ExchangePlan | None:
    """``plan`` moved forward by one batch: a new plan equal to
    :func:`_build_exchange_plan` of the spliced ``part``.

    ``ins``/``dels`` are the batch's ``(k, 2)`` global out-edge pairs whose
    source ``part`` owns, effective against ``plan`` (each delete names one
    of its edges, no insert does).  Every part of a plan is sorted by key, so
    each is spliced by :func:`~repro.graph.csr.splice_csr` — the batch plus
    one copy, never a sort: ``local_csr`` and ``slot_csr`` over plan rows (a
    column stripe keeps a row's columns ascending, so an edge-set layout
    splices alike) and the sweep as a CSR over the target space ``[local
    rows | slots]``.  A remote target the batch reaches first takes a slot
    at its ``searchsorted`` position, a target whose last edge goes gives
    its slot up, and the later slot ids move with them.  ``plan`` is never
    written: tasks and queued batches may still hold it.  A weighted plan
    gives ``None`` (rebuilt on next use): dynamic shards are unweighted.
    """
    if plan.local_csr.weights is not None:
        return None
    n, lo, hi = part.num_local, part.lo, part.hi
    ins_u, ins_v = ins[:, 0] - lo, ins[:, 1]
    del_u, del_v = dels[:, 0] - lo, dels[:, 1]
    ins_local = (ins_v >= lo) & (ins_v < hi)
    del_local = (del_v >= lo) & (del_v < hi)

    def plan_rows(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        if plan.block_rows is None:
            return u
        return plan.block_rows[u, plan.layout.col_stripe(v)]

    def relabel(csr: CSR, new_ids: np.ndarray) -> CSR:
        return CSR(csr.indptr, new_ids.astype(csr.indices.dtype).take(csr.indices))

    # The slots: the old boundary's, and the remote targets the batch
    # reaches first, each at its place among them (an old slot moves up by
    # the fresh targets below it).  Slots whose runs empty (``live`` below)
    # are dropped at the end.
    old = plan.boundary
    runs = np.diff(np.append(plan.sweep_starts, plan.sweep_sources.size))
    local_runs = plan.sweep_rows.size
    slots, slot_runs, slot_csr = old, runs[local_runs:], plan.slot_csr
    reached = np.unique(ins_v[~ins_local])
    at = np.searchsorted(old, reached)
    known = at < old.size
    known[known] = old[at[known]] == reached[known]
    if not known.all():
        at, fresh = at[~known], reached[~known]
        slots = np.insert(old, at, fresh)
        slot_runs = np.insert(slot_runs, at, 0)
        slot_csr = relabel(slot_csr, np.arange(old.size) + np.searchsorted(fresh, old))

    # The sweep as a CSR over [local rows | slots], source rows as columns.
    counts = np.zeros(n, dtype=np.int64)
    counts[plan.sweep_rows] = runs[:local_runs]
    counts = np.concatenate([counts, slot_runs])
    sweep = CSR(np.concatenate([[0], np.cumsum(counts)]), plan.sweep_sources)

    def target(v: np.ndarray, local: np.ndarray) -> np.ndarray:
        return np.where(local, v - lo, n + np.searchsorted(slots, v))

    sweep = splice_csr(
        sweep, n,
        target(ins_v, ins_local), ins_u, target(del_v, del_local), del_u,
    )
    counts = sweep.degrees()
    sweep_rows = np.flatnonzero(counts[:n])
    live = counts[n:] > 0  # a slot always has an edge

    ins_t, del_t = ins_v[~ins_local], del_v[~del_local]
    slot_csr = splice_csr(
        slot_csr, slots.size,
        plan_rows(ins_u[~ins_local], ins_t), np.searchsorted(slots, ins_t),
        plan_rows(del_u[~del_local], del_t), np.searchsorted(slots, del_t),
    )
    boundary = slots
    if not live.all():  # drop the slots whose last edge went, close the gaps
        boundary = slots[live]
        slot_csr = relabel(slot_csr, np.cumsum(live) - 1)

    local_csr = splice_csr(
        plan.local_csr, n,
        plan_rows(ins_u[ins_local], ins_v[ins_local]), ins_v[ins_local] - lo,
        plan_rows(del_u[del_local], del_v[del_local]), del_v[del_local] - lo,
    )

    def moved(degree: np.ndarray, plus: np.ndarray, minus: np.ndarray) -> np.ndarray:
        grown = degree + np.bincount(plus, minlength=n)
        return grown - np.bincount(minus, minlength=n)

    return replace(
        plan,
        boundary=boundary,
        local_csr=local_csr,
        slot_csr=slot_csr,
        sweep_sources=sweep.indices,
        sweep_starts=np.concatenate(
            [sweep.indptr[sweep_rows], sweep.indptr[n:-1][live]]
        ),
        sweep_rows=sweep_rows,
        out_degree=moved(plan.out_degree, ins_u, del_u),
        local_out_degree=moved(
            plan.local_out_degree, ins_u[ins_local], del_u[del_local]
        ),
    )


def _block_major(
    layout: EdgeSetMatrix, csr: CSR, rows: np.ndarray, cols: np.ndarray
) -> CSR:
    """``csr`` (row-major; ``rows``/``cols`` its edges' local rows and
    global columns) re-laid block-major over plan rows."""
    order, indptr = layout.block_major(rows, cols)
    weights = None if csr.weights is None else csr.weights[order]
    return CSR(indptr, csr.indices[order], weights)
