"""Direction optimization must be invisible in every answer.

Push scatters the frontier's edges over the exchange plan's split CSRs;
pull drains the dense supersteps with one segmented OR over the plan's
target-major sweep; auto switches per partition per superstep on the
density heuristic.  All three are
required to be *bit-identical* — reach counts, per-vertex depths,
completion levels, per-step virtual times and the total virtual clock —
on the in-process engine and on the worker pool, with and without an
injected mid-drain crash.  Wall-clock is the only thing a direction
choice may change.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.frontier import make_query_mask
from repro.core.gas import GASPartitionTask, run_gas
from repro.core.khop import DIRECTIONS, KHopPartitionTask, concurrent_khop
from repro.core.multi_sssp import _MultiSSSPTask, concurrent_sssp
from repro.core.pagerank import PageRankProgram
from repro.core.reachability import reachability_queries
from repro.dynamic import DynamicGraph
from repro.graph import EdgeList, range_partition, rmat_edges
from repro.runtime.cluster import SimCluster
from repro.runtime.fault import FaultPlan, FaultTolerance
from repro.runtime.message import (
    Outbox,
    combine_min,
    combine_or,
    combine_sum,
    no_combine,
    reduce_by_key,
)
from repro.runtime.netmodel import StepStats
from repro.runtime.session import GraphSession
from tests.core.test_gas_pagerank import MinLabelProgram


def _assert_same(res, ref):
    assert np.array_equal(res.reached, ref.reached)
    assert np.array_equal(res.completion_level, ref.completion_level)
    assert np.array_equal(res.completion_seconds, ref.completion_seconds)
    assert res.virtual_seconds == ref.virtual_seconds
    assert res.per_step_seconds == ref.per_step_seconds
    if ref.depths is not None:
        assert np.array_equal(res.depths, ref.depths)


class TestInProcessParity:
    def test_directions_bit_identical(self, small_rmat):
        sources = list(range(0, 80, 2))
        runs = {
            d: concurrent_khop(
                GraphSession(small_rmat, num_machines=3), sources, 3,
                record_depths=True, direction=d,
            )
            for d in DIRECTIONS
        }
        ref = runs["push"]
        for res in runs.values():
            _assert_same(res, ref)
        assert runs["push"].pull_partition_steps == 0
        assert runs["pull"].push_partition_steps == 0
        assert runs["pull"].pull_partition_steps > 0

    def test_full_bfs_auto_switches(self, medium_rmat):
        sources = list(range(64))
        auto = concurrent_khop(
            GraphSession(medium_rmat, num_machines=2), sources, None, direction="auto"
        )
        push = concurrent_khop(
            GraphSession(medium_rmat, num_machines=2), sources, None, direction="push"
        )
        _assert_same(auto, push)
        # a 64-query full BFS on an R-MAT graph goes dense mid-traversal
        assert auto.pull_partition_steps > 0
        assert auto.push_partition_steps > 0

    def test_reachability_directions_agree(self, medium_rmat):
        sources = list(range(0, 32))
        targets = list(range(500, 532))
        runs = {
            d: reachability_queries(
                GraphSession(medium_rmat, num_machines=2), sources, targets, 6,
                direction=d,
            )
            for d in DIRECTIONS
        }
        ref = runs["push"]
        for res in runs.values():
            assert np.array_equal(res.reachable, ref.reachable)
            assert res.virtual_seconds == ref.virtual_seconds

    def test_invalid_direction_rejected(self, small_rmat):
        with pytest.raises(ValueError):
            concurrent_khop(GraphSession(small_rmat), [0], 2, direction="sideways")

    def test_edge_sets_conflict_with_pull(self, small_rmat):
        """Edge-sets once ran push only (pull was refused, auto stayed
        push).  They are a layout of the exchange plan now, and the pull
        sweep is the same target-major one: every direction runs on an
        edge-set session, bit-identical to each other and to flat."""
        pg = range_partition(small_rmat, 2)
        pg.build_edge_sets()
        sources = list(range(0, 120, 3))
        flat = concurrent_khop(GraphSession(small_rmat, num_machines=2), sources, 3)
        runs = {
            d: concurrent_khop(GraphSession(pg), sources, 3, direction=d)
            for d in DIRECTIONS
        }
        for res in runs.values():
            _assert_same(res, flat)
            assert res.total_edges_scanned == flat.total_edges_scanned
        assert runs["pull"].push_partition_steps == 0
        assert runs["push"].pull_partition_steps == 0
        assert runs["auto"].pull_partition_steps > 0

    @settings(max_examples=20, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 15), st.integers(0, 15)),
            min_size=1, max_size=60,
        ),
        num_sources=st.integers(1, 16),
        k=st.integers(1, 4),
        machines=st.integers(1, 3),
    )
    def test_property_parity(self, pairs, num_sources, k, machines):
        el = EdgeList.from_pairs(pairs, num_vertices=16)
        sources = [i % 16 for i in range(num_sources)]
        runs = [
            concurrent_khop(
                GraphSession(el, num_machines=machines), sources, k,
                record_depths=True, direction=d,
            )
            for d in DIRECTIONS
        ]
        for res in runs[1:]:
            _assert_same(res, runs[0])


def _check_plan(pg, part):
    """Structural invariants of one partition's exchange plan."""
    plan = part.exchange_plan()
    out, lo = part.out_csr, part.lo
    boundary = plan.boundary
    assert boundary.dtype == out.indices.dtype
    assert np.all(np.diff(boundary) > 0)  # sorted and unique
    assert not part.is_local(boundary).any()
    remote_cols = out.indices[~part.is_local(out.indices)]
    assert np.array_equal(boundary, np.unique(remote_cols))
    # the per-destination cuts tile the slot space and agree with owner_of
    owners = pg.owner_of(boundary)
    cuts = plan.cuts(owners)
    assert [d for d, _, _ in cuts] == sorted({int(o) for o in owners})
    ends = [0] + [b for _, _, b in cuts]
    assert [a for _, a, _ in cuts] == ends[:-1] and ends[-1] == plan.num_slots
    for dest, a, b in cuts:
        assert dest != part.part_id and a < b
        assert (owners[a:b] == dest).all()
    # local_csr and slot_csr are out_csr's rows, split, in out_csr's order
    for row in range(part.num_local):
        cols = out.neighbors(row)
        local = part.is_local(cols)
        assert np.array_equal(plan.local_csr.neighbors(row) + lo, cols[local])
        assert np.array_equal(boundary[plan.slot_csr.neighbors(row)], cols[~local])
    assert np.array_equal(plan.out_degree, out.degrees())
    assert np.array_equal(plan.local_out_degree, plan.local_csr.degrees())
    # the target-major sweep holds every out-edge exactly once
    targets = np.concatenate([plan.sweep_rows + lo, boundary])
    assert plan.sweep_starts.size == targets.size
    run_lengths = np.diff(np.append(plan.sweep_starts, plan.num_edges))
    assert (run_lengths > 0).all()
    swept = np.stack([plan.sweep_sources + lo, np.repeat(targets, run_lengths)])
    stored = np.stack([np.repeat(np.arange(part.num_local) + lo, out.degrees()),
                       out.indices])
    assert plan.num_edges == out.nnz
    assert np.array_equal(swept[:, np.lexsort(swept)], stored[:, np.lexsort(stored)])
    # edge weights follow the split edge for edge
    if out.weights is None:
        assert plan.local_csr.weights is None and plan.slot_csr.weights is None
    else:
        is_local = part.is_local(out.indices)
        assert np.array_equal(plan.local_csr.weights, out.weights[is_local])
        assert np.array_equal(plan.slot_csr.weights, out.weights[~is_local])


def _generic_superstep(pg, part, frontier):
    """One k-hop superstep by the generic path: expand to
    ``(global target, bits)`` pairs, mask by locality, ``Outbox.route`` by
    owner, ``combine_or`` per destination."""
    active = np.nonzero(frontier.any(axis=1))[0]
    pos, counts = part.out_csr.gather_edges(active)
    targets = part.out_csr.indices[pos]
    ebits = np.repeat(frontier[active], counts, axis=0)
    local = part.is_local(targets)
    nxt = np.zeros_like(frontier)
    np.bitwise_or.at(nxt, targets[local] - part.lo, ebits[local])
    stats = StepStats()
    stats.edges_scanned += int(targets.size)
    stats.vertices_updated += int(local.sum())
    outbox = Outbox()
    outbox.route(pg.owner_of(targets[~local]), targets[~local], ebits[~local])
    return nxt, outbox.flush(part.part_id, stats, combine_or), stats


def _assert_same_wire(wire, ref_wire):
    assert [d for d, _ in wire] == [d for d, _ in ref_wire]
    for (_, got), (_, want) in zip(wire, ref_wire):
        assert got.vertices.dtype == want.vertices.dtype
        assert got.payload.dtype == want.payload.dtype
        assert np.array_equal(got.vertices, want.vertices)
        assert np.array_equal(got.payload, want.payload)
        assert got.nbytes() == want.nbytes()


class _RoutedGASTask(GASPartitionTask):
    """GAS by the generic path: every remote edge's raw value through
    ``Outbox.route``, reduced by the flush's combiner, ``op.at`` on receipt."""

    def compute(self, stats):
        part, op = self.machine.partition, self.program.combiner
        out = part.out_csr
        per_edge = np.repeat(self.program.scatter(self.values, part), out.degrees())
        dst = out.indices.astype(np.int64)
        stats.edges_scanned += int(per_edge.size)
        local = part.is_local(dst)
        if local.any():
            if op is np.add:
                self.gathered = self.gathered + np.bincount(
                    dst[local] - part.lo, weights=per_edge[local],
                    minlength=part.num_local,
                )
            else:
                op.at(self.gathered, dst[local] - part.lo, per_edge[local])
        self.machine.outbox.route(
            self.cluster.owner_of(dst[~local]), dst[~local], per_edge[~local]
        )

    def apply_inbox(self, stats):
        for batch in self.machine.inbox.drain():
            self.program.combiner.at(
                self.gathered, batch.vertices - self.machine.lo, batch.payload
            )
            stats.vertices_updated += batch.num_tasks


class _RoutedSSSPTask(_MultiSSSPTask):
    """Multi-SSSP by the generic path: locality mask, ``Outbox.route``,
    ``combine_min`` at the flush, a sort-and-reduce again on receipt."""

    def compute(self, stats):
        if self.max_hops is not None and self.hop >= self.max_hops:
            self.active[:] = False
            return
        rows = np.nonzero(self.active)[0]
        self.active[:] = False
        part = self.machine.partition
        pos, counts = part.out_csr.gather_edges(rows)
        if pos.size == 0:
            return
        targets = part.out_csr.indices[pos]
        cand = (np.repeat(self.dist[rows], counts, axis=0)
                + part.out_csr.weights[pos][:, None])
        stats.edges_scanned += int(targets.size)
        local = part.is_local(targets)
        if local.any():
            self._improve(
                *reduce_by_key(targets[local] - part.lo, cand[local], np.minimum),
                stats,
            )
        self.machine.outbox.route(
            self.cluster.owner_of(targets[~local]), targets[~local], cand[~local]
        )

    def apply_inbox(self, stats):
        for batch in self.machine.inbox.drain():
            self._improve(
                *reduce_by_key(
                    batch.vertices - self.machine.lo, batch.payload, np.minimum
                ),
                stats,
            )


def _lockstep(cluster, tasks, combiner, max_steps):
    """Supersteps by hand, keeping what the engine consumes: every machine's
    flushed wire and ``StepStats``, per superstep."""
    cluster.reset_buffers()
    trace = []
    for _ in range(max_steps):
        stats = [StepStats() for _ in tasks]
        for task, mine in zip(tasks, stats):
            task.compute(mine)
        wires = []
        for task, mine in zip(tasks, stats):
            machine = task.machine
            wires.append(machine.outbox.flush(machine.machine_id, mine, combiner))
            for dest, batch in wires[-1]:
                cluster.machines[dest].inbox.append(batch)
        for task, mine in zip(tasks, stats):
            task.apply_inbox(mine)
        trace.append((wires, stats))
        if not any([task.finalize() for task in tasks]):
            break
    return trace


def _assert_same_trace(trace, ref_trace):
    assert len(trace) == len(ref_trace)
    for (wires, stats), (ref_wires, ref_stats) in zip(trace, ref_trace):
        for wire, ref_wire in zip(wires, ref_wires):
            _assert_same_wire(wire, ref_wire)
        assert stats == ref_stats


_random_digraph = dict(
    pairs=st.lists(
        st.tuples(st.integers(0, 11), st.integers(0, 11)),
        min_size=0, max_size=70,
    ),
    # ids 0..11 on 12..14 vertices: isolated tail vertices, and with five
    # machines trailing partitions that own no vertex at all
    num_vertices=st.integers(12, 14),
    machines=st.integers(1, 5),
    seed=st.integers(0, 2**16),
)


class TestPlanPathEqualsGenericPath:
    """The plan-driven kernels against the generic path they replaced:
    ``Outbox.route`` by owner, one ``combine_*`` per destination."""

    @settings(max_examples=60, deadline=None)
    @given(
        width=st.sampled_from([1, 64, 65, 130]),
        density=st.sampled_from([0.1, 0.5, 1.0]),
        **_random_digraph,
    )
    def test_one_superstep(self, pairs, num_vertices, machines, width, density, seed):
        el = EdgeList.from_pairs(pairs, num_vertices=num_vertices).deduplicate()
        pg = range_partition(el, machines)
        cluster = SimCluster(pg)
        rng = np.random.default_rng(seed)
        mask = make_query_mask(width)
        for machine in cluster.machines:
            part = machine.partition
            _check_plan(pg, part)
            frontier = rng.integers(
                0, 2**64, size=(part.num_local, mask.size), dtype=np.uint64
            ) & mask
            frontier[rng.random(part.num_local) >= density] = 0
            ref_next, ref_wire, ref_stats = _generic_superstep(pg, part, frontier)
            for direction in ("push", "pull"):
                task = KHopPartitionTask(
                    machine, cluster, width, None, direction=direction
                )
                task.state.frontier[...] = frontier
                # scatter must not depend on what an earlier step left behind
                for _ in range(2):
                    task.state.next.fill(0)
                    stats = StepStats()
                    task.compute(stats)
                    wire = machine.outbox.flush(part.part_id, stats, combine_or)
                assert np.array_equal(task.state.next, ref_next)
                _assert_same_wire(wire, ref_wire)
                assert stats.edges_scanned == ref_stats.edges_scanned
                assert stats.vertices_updated == ref_stats.vertices_updated
                assert stats.bytes_sent == ref_stats.bytes_sent
                assert stats.total_messages == ref_stats.total_messages

    @settings(max_examples=40, deadline=None)
    @given(
        program=st.sampled_from(
            [(PageRankProgram(), combine_sum), (MinLabelProgram(), combine_min)]
        ),
        **_random_digraph,
    )
    def test_gas_supersteps(self, pairs, num_vertices, machines, seed, program):
        """GAS (``np.add`` and ``np.minimum``) reduces over the sweep's slot
        runs: float for float what route + combine_sum / combine_min ships."""
        program, combiner = program
        el = EdgeList.from_pairs(pairs, num_vertices=num_vertices).deduplicate()
        cluster = SimCluster(range_partition(el, machines))
        initial = np.random.default_rng(seed).uniform(0.0, 9.0, num_vertices)
        plan_tasks, routed_tasks = (
            [cls(m, cluster, program, initial) for m in cluster.machines]
            for cls in (GASPartitionTask, _RoutedGASTask)
        )
        _assert_same_trace(
            _lockstep(cluster, plan_tasks, no_combine, 4),
            _lockstep(cluster, routed_tasks, combiner, 4),
        )
        for got, want in zip(plan_tasks, routed_tasks):
            assert np.array_equal(got.values, want.values)

    @settings(max_examples=40, deadline=None)
    @given(
        width=st.sampled_from([1, 7]),
        max_hops=st.sampled_from([None, 1, 3]),
        **_random_digraph,
    )
    def test_sssp_supersteps(self, pairs, num_vertices, machines, seed, width, max_hops):
        """Multi-SSSP mins over the gathered edges' slot ids: the batches
        route + combine_min ships, already unique on receipt."""
        el = EdgeList.from_pairs(pairs, num_vertices=num_vertices).deduplicate()
        rng = np.random.default_rng(seed)
        el = EdgeList(el.src, el.dst, num_vertices, rng.uniform(0.1, 4.0, el.num_edges))
        pg = range_partition(el, machines)
        cluster = SimCluster(pg)
        for part in pg.partitions:
            _check_plan(pg, part)
        sources = rng.integers(0, num_vertices, size=width)
        traces = []
        for cls, combiner in ((_MultiSSSPTask, no_combine), (_RoutedSSSPTask, combine_min)):
            tasks = [cls(m, cluster, width, max_hops) for m in cluster.machines]
            for q, s in enumerate(sources):
                task = tasks[int(pg.owner_of(s))]
                task.seed(int(s) - task.machine.lo, q)
            traces.append((_lockstep(cluster, tasks, combiner, 20), tasks))
        (trace, tasks), (ref_trace, ref_tasks) = traces
        _assert_same_trace(trace, ref_trace)
        for got, want in zip(tasks, ref_tasks):
            assert np.array_equal(got.dist, want.dist)

    def test_edge_set_scan_lands_in_the_same_planes(self, small_rmat):
        """The block-major scan of an edge-set plan writes the same ``next``
        and slot planes as the flat scan: same wire, same clock."""
        pg = range_partition(small_rmat, 3)
        pg.build_edge_sets()
        sources = list(range(0, 130, 2))
        plain = concurrent_khop(
            GraphSession(small_rmat, num_machines=3), sources, 3, direction="push"
        )
        blocked = concurrent_khop(GraphSession(pg), sources, 3, direction="push")
        _assert_same(blocked, plain)
        assert blocked.total_messages == plain.total_messages
        assert blocked.total_bytes == plain.total_bytes
        assert blocked.total_edges_scanned == plain.total_edges_scanned

    @settings(max_examples=40, deadline=None)
    @given(
        sets=st.integers(1, 5),
        min_edges=st.sampled_from([None, 1, 8]),
        weighted=st.booleans(),
        **_random_digraph,
    )
    def test_block_major_plan_is_a_per_row_permutation(
        self, pairs, num_vertices, machines, seed, sets, min_edges, weighted
    ):
        """Each block-major CSR holds, per local row, exactly the flat CSR's
        edges (weights alongside), column stripe by column stripe; the flat
        plan is, array for array, the plan built before layouts existed."""
        el = EdgeList.from_pairs(pairs, num_vertices=num_vertices)
        if weighted:
            rng = np.random.default_rng(seed)
            el = EdgeList(el.src, el.dst, num_vertices, weight=rng.random(el.num_edges))
        flat_pg = range_partition(el, machines)
        pg = range_partition(el, machines)
        pg.build_edge_sets(sets, min_edges)
        for flat_part, part in zip(flat_pg.partitions, pg.partitions):
            flat, plan = flat_part.exchange_plan(), part.exchange_plan()
            _assert_plan_equal(flat, _reference_flat_plan(flat_part))
            _assert_block_permutation(plan, flat, part.edge_sets, part.lo)
            assert np.array_equal(plan.boundary, flat.boundary)
            for name in ("sweep_sources", "sweep_starts", "sweep_rows",
                         "out_degree", "local_out_degree"):
                assert np.array_equal(getattr(plan, name), getattr(flat, name))


    @pytest.mark.parametrize("sets", [None, 3])
    def test_a_spliced_plan_keeps_an_intp_sweep(self, small_rmat, sets):
        """The pull's ``take`` indexes with ``sweep_sources`` as stored:
        a batch's splice keeps it ``intp``, as the build makes it."""
        pg = range_partition(small_rmat, 2)
        if sets is not None:
            pg.build_edge_sets(sets)
        part = pg.partitions[0]
        built = part.exchange_plan()
        assert built.sweep_sources.dtype == np.intp
        # a remote and a local edge of the shard go
        DynamicGraph(pg).apply([], [(1, part.hi + 3), (2, 5)])
        assert part.plan_cache is not built
        assert part.plan_cache.sweep_sources.dtype == np.intp

    def test_gas_and_sssp_scan_the_layout_bit_identically(self, small_rmat):
        """GAS spreads its per-edge values, and multi-SSSP gathers, through
        the block-major plan rows: the answers, per-step stats and clocks are
        the flat plan's (a target's edges keep their source order, so even
        PageRank's floating-point fold is unchanged)."""
        w = 1.0 + (small_rmat.src * 31 + small_rmat.dst * 17) % 7
        el = EdgeList(small_rmat.src, small_rmat.dst, small_rmat.num_vertices,
                      weight=w)
        flat = GraphSession(el, num_machines=3)
        blocked = GraphSession(el, num_machines=3, edge_sets=True,
                               sets_per_partition=4)
        runs = [
            (lambda s: run_gas(s, PageRankProgram(), 5), "values"),
            (lambda s: run_gas(s, MinLabelProgram(), 5), "values"),
            (lambda s: concurrent_sssp(s, list(range(0, 64, 2)), 4), "distances"),
        ]
        for run, answer in runs:
            got, want = run(blocked), run(flat)
            assert np.array_equal(getattr(got, answer), getattr(want, answer))
            got, want = got.engine_result, want.engine_result
            assert got.per_step_stats == want.per_step_stats
            assert got.virtual_seconds == want.virtual_seconds


def _assert_plan_equal(plan, ref):
    for name in ("boundary", "sweep_sources", "sweep_starts", "sweep_rows",
                 "out_degree", "local_out_degree"):
        got, want = getattr(plan, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    for name in ("local_csr", "slot_csr"):
        got, want = getattr(plan, name), getattr(ref, name)
        for field in ("indptr", "indices", "weights"):
            a, b = getattr(got, field), getattr(want, field)
            assert (a is None) == (b is None)
            if a is not None:
                assert a.dtype == b.dtype and np.array_equal(a, b)
    assert plan.block_rows is None and plan.block_src is None


def _assert_block_permutation(plan, flat, layout, lo):
    n = flat.out_degree.size
    rows, sources = plan.gather_rows(np.arange(n))
    assert np.all(np.diff(rows) > 0)  # storage (block-major) order
    table = layout.plan_row_table()
    stripe = np.empty(table.size, dtype=np.int64)
    stripe[table] = np.arange(layout.num_col_stripes)
    for name in ("local_csr", "slot_csr"):
        got, want = getattr(plan, name), getattr(flat, name)
        for v in range(n):
            mine = rows[sources == v]
            merged = np.concatenate([got.neighbors(r) for r in mine])
            assert np.array_equal(merged, want.neighbors(v))
            if want.weights is not None:
                ws = np.concatenate([got.neighbor_weights(r) for r in mine])
                assert np.array_equal(ws, want.neighbor_weights(v))
        # every plan row's edges lie in that row's column stripe
        if name == "local_csr":
            cols = got.indices.astype(np.int64) + lo
        else:
            cols = plan.boundary[got.indices]
        owner = np.repeat(np.arange(got.num_rows), got.degrees())
        assert np.array_equal(stripe[owner], layout.col_stripe(cols))


def _reference_flat_plan(part):
    """The exchange-plan build as it stood before edge-set layouts."""
    from repro.graph.csr import CSR
    from repro.graph.partition import ExchangePlan, _masked_prefix

    n, lo, hi = part.num_local, part.lo, part.hi
    out = part.out_csr
    cols = out.indices
    shift = cols.dtype.type(lo)
    is_local = (cols >= lo) & (cols < hi)
    local_indptr = _masked_prefix(is_local, out.indptr)
    slot_indptr = out.indptr - local_indptr
    is_remote = ~is_local
    remote_cols = cols[is_remote]
    w = out.weights
    order = np.argsort(remote_cols, kind="stable")
    sorted_cols = remote_cols[order]
    first = np.ones(sorted_cols.size, dtype=bool)
    np.not_equal(sorted_cols[1:], sorted_cols[:-1], out=first[1:])
    slot_starts = np.flatnonzero(first)
    slots = np.empty(remote_cols.size, dtype=cols.dtype)
    slots[order] = np.cumsum(first, dtype=cols.dtype) - cols.dtype.type(1)
    remote_rows = np.repeat(np.arange(n, dtype=cols.dtype), np.diff(slot_indptr))
    srcs = part.in_csc.indices
    src_local = (srcs >= lo) & (srcs < hi)
    row_ptr = _masked_prefix(src_local, part.in_csc.indptr)
    sweep_rows = np.flatnonzero(np.diff(row_ptr))
    local_sources = srcs[src_local] - shift
    return ExchangePlan(
        boundary=sorted_cols[slot_starts],
        local_csr=CSR(
            local_indptr, cols[is_local] - shift, None if w is None else w[is_local]
        ),
        slot_csr=CSR(slot_indptr, slots, None if w is None else w[is_remote]),
        sweep_sources=np.concatenate(
            [local_sources, remote_rows[order]], dtype=np.intp
        ),
        sweep_starts=np.concatenate(
            [row_ptr[sweep_rows], local_sources.size + slot_starts]
        ),
        sweep_rows=sweep_rows,
        out_degree=np.diff(out.indptr),
        local_out_degree=np.diff(local_indptr),
    )


@pytest.fixture(scope="module")
def dir_graph():
    return rmat_edges(10, 12000, seed=23).remove_self_loops().deduplicate()


@pytest.fixture(scope="module")
def dir_inproc(dir_graph):
    return GraphSession(dir_graph, num_machines=2)


@pytest.fixture(scope="module")
def dir_pool(dir_graph):
    ft = FaultTolerance(max_recoveries=16, step_timeout=30.0)
    with GraphSession(
        dir_graph, num_machines=2, backend="pool", fault_tolerance=ft
    ) as sess:
        yield sess


@pytest.fixture(autouse=True)
def _disarm(request):
    yield
    if "dir_pool" in request.fixturenames:
        request.getfixturevalue("dir_pool").set_fault_plan(None)


class TestPoolParity:
    def test_pool_matches_inproc_all_directions(
        self, dir_graph, dir_inproc, dir_pool
    ):
        sources = list(range(48))
        ref = concurrent_khop(
            dir_inproc, sources, 4, direction="push"
        )
        for d in DIRECTIONS:
            res = concurrent_khop(
                dir_pool, sources, 4, direction=d
            )
            _assert_same(res, ref)

    def test_pull_survives_mid_drain_crash(self, dir_graph, dir_inproc, dir_pool):
        """Rewind-replay must reproduce the same per-superstep direction
        choices: a recovered drain stays bit-identical to the fault-free
        reference in every mode."""
        sources = list(range(48))
        for d in ("pull", "auto"):
            ref = concurrent_khop(
                dir_inproc, sources, 4, direction=d
            )
            before = dir_pool.pool().recoveries
            dir_pool.set_fault_plan(FaultPlan().crash_worker(1, 1))
            res = concurrent_khop(
                dir_pool, sources, 4, direction=d
            )
            _assert_same(res, ref)
            assert dir_pool.pool().recoveries == before + 1
            assert not dir_pool.degraded
