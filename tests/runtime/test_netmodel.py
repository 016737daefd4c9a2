"""Unit tests for the network cost model and virtual clock."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.netmodel import (
    NetworkModel,
    StepStats,
    VirtualClock,
    choose_direction,
)


class TestStepStats:
    def test_record_send_accumulates(self):
        s = StepStats()
        s.record_send(1, 100, 10)
        s.record_send(1, 50, 5)
        s.record_send(2, 7, 1)
        assert s.bytes_sent == {1: 150, 2: 7}
        assert s.messages_sent == {1: 15, 2: 1}
        assert s.total_bytes == 157
        assert s.total_messages == 16

    def test_merge(self):
        a = StepStats(edges_scanned=10, vertices_updated=3)
        a.record_send(0, 8, 1)
        b = StepStats(edges_scanned=5)
        b.record_send(0, 8, 1)
        b.record_send(1, 4, 2)
        a.merge(b)
        assert a.edges_scanned == 15
        assert a.vertices_updated == 3
        assert a.bytes_sent == {0: 16, 1: 4}

    def test_merge_folds_direction_counters(self):
        a = StepStats(push_partitions=2, pull_partitions=1)
        b = StepStats(push_partitions=1, pull_partitions=4)
        a.merge(b)
        assert a.push_partitions == 3
        assert a.pull_partitions == 5
        assert a.partition_steps == 8


def _stats(edges, vertices, bytes_sent, messages_sent, disk_bytes, disk_reads,
           push_partitions=0, pull_partitions=0):
    s = StepStats(edges_scanned=edges, vertices_updated=vertices)
    s.bytes_sent = dict(bytes_sent)
    s.messages_sent = dict(messages_sent)
    s.disk_bytes_read = disk_bytes
    s.disk_reads = disk_reads
    s.push_partitions = push_partitions
    s.pull_partitions = pull_partitions
    return s


def _clone(s: StepStats) -> StepStats:
    return _stats(s.edges_scanned, s.vertices_updated, s.bytes_sent,
                  s.messages_sent, s.disk_bytes_read, s.disk_reads,
                  s.push_partitions, s.pull_partitions)


def _snapshot(s: StepStats) -> tuple:
    return (s.edges_scanned, s.vertices_updated, dict(s.bytes_sent),
            dict(s.messages_sent), s.disk_bytes_read, s.disk_reads,
            s.push_partitions, s.pull_partitions)


stats_strategy = st.builds(
    _stats,
    st.integers(0, 10**7),
    st.integers(0, 10**7),
    st.dictionaries(st.integers(0, 7), st.integers(0, 10**6), max_size=5),
    st.dictionaries(st.integers(0, 7), st.integers(0, 10**5), max_size=5),
    st.integers(0, 10**8),
    st.integers(0, 1000),
    st.integers(0, 64),
    st.integers(0, 64),
)


class TestMergeAlgebra:
    """merge must be a commutative monoid fold — telemetry aggregation
    (per-machine counters folded across supersteps, machines, drains)
    silently miscounts if any of these laws break."""

    @settings(max_examples=60, deadline=None)
    @given(a=stats_strategy, b=stats_strategy, c=stats_strategy)
    def test_merge_associative(self, a, b, c):
        left = _clone(a)
        ab = _clone(a)
        ab.merge(b)
        left = ab  # (a ⊕ b) ⊕ c
        left.merge(c)
        bc = _clone(b)
        bc.merge(c)
        right = _clone(a)  # a ⊕ (b ⊕ c)
        right.merge(bc)
        assert _snapshot(left) == _snapshot(right)

    @settings(max_examples=60, deadline=None)
    @given(a=stats_strategy, b=stats_strategy)
    def test_merge_totals_commutative(self, a, b):
        ab = _clone(a)
        ab.merge(b)
        ba = _clone(b)
        ba.merge(a)
        assert ab.total_bytes == ba.total_bytes
        assert ab.total_messages == ba.total_messages
        assert _snapshot(ab) == _snapshot(ba)  # fully commutative, in fact

    @settings(max_examples=60, deadline=None)
    @given(a=stats_strategy)
    def test_fresh_stats_is_identity(self, a):
        left = _clone(a)
        left.merge(StepStats())  # a ⊕ 0 = a
        assert _snapshot(left) == _snapshot(a)
        right = StepStats()  # 0 ⊕ a = a
        right.merge(a)
        assert _snapshot(right) == _snapshot(a)

    @settings(max_examples=40, deadline=None)
    @given(a=stats_strategy, b=stats_strategy)
    def test_merge_does_not_mutate_other(self, a, b):
        before = _snapshot(b)
        merged = _clone(a)
        merged.merge(b)
        assert _snapshot(b) == before


class TestNetworkModel:
    def test_compute_scales_with_edges(self):
        nm = NetworkModel()
        t1 = nm.compute_seconds(StepStats(edges_scanned=1000))
        t2 = nm.compute_seconds(StepStats(edges_scanned=2000))
        assert t2 == pytest.approx(2 * t1)

    def test_vertex_cost_counts(self):
        nm = NetworkModel()
        base = nm.compute_seconds(StepStats())
        with_v = nm.compute_seconds(StepStats(vertices_updated=100))
        assert with_v > base == 0.0

    def test_comm_includes_latency_per_destination(self):
        nm = NetworkModel(latency_seconds=1.0, bandwidth_bytes_per_second=1e12)
        s = StepStats()
        s.record_send(1, 8, 1)
        s.record_send(2, 8, 1)
        assert nm.comm_seconds(s) == pytest.approx(2.0, rel=1e-6)

    def test_comm_includes_bytes_over_bandwidth(self):
        nm = NetworkModel(latency_seconds=0.0, bandwidth_bytes_per_second=100.0)
        s = StepStats()
        s.record_send(1, 250, 1)
        assert nm.comm_seconds(s) == pytest.approx(2.5)

    def test_sync_superstep_is_max_plus_max_plus_barrier(self):
        nm = NetworkModel(
            seconds_per_edge=1.0,
            seconds_per_vertex=0.0,
            latency_seconds=1.0,
            bandwidth_bytes_per_second=1e18,
            barrier_seconds=0.5,
            cores_per_machine=1,
            parallel_efficiency=1.0,
        )
        fast = StepStats(edges_scanned=1)
        slow = StepStats(edges_scanned=10)
        slow.record_send(0, 1, 1)
        total = nm.superstep_seconds([fast, slow])
        assert total == pytest.approx(10 + 1 + 0.5)

    def test_single_machine_pays_no_barrier(self):
        nm = NetworkModel(barrier_seconds=123.0, cores_per_machine=1,
                          parallel_efficiency=1.0, seconds_per_edge=1.0)
        t = nm.superstep_seconds([StepStats(edges_scanned=1)])
        assert t == pytest.approx(1.0)

    def test_async_overlaps_compute_and_comm(self):
        nm = NetworkModel(
            seconds_per_edge=1.0,
            latency_seconds=4.0,
            bandwidth_bytes_per_second=1e18,
            barrier_seconds=10.0,
            cores_per_machine=1,
            parallel_efficiency=1.0,
            async_overlap=True,
        )
        s = StepStats(edges_scanned=3)
        s.record_send(1, 1, 1)
        # async: max(compute=3, comm=4) = 4; no barrier
        assert nm.superstep_seconds([s]) == pytest.approx(4.0)

    def test_with_async_returns_copy(self):
        nm = NetworkModel()
        a = nm.with_async()
        assert a.async_overlap and not nm.async_overlap

    def test_empty_cluster(self):
        assert NetworkModel().superstep_seconds([]) == 0.0

    def test_more_machines_never_slower_on_compute_only(self):
        """With zero comm, splitting work across machines can't hurt."""
        nm = NetworkModel(barrier_seconds=0.0)
        whole = nm.superstep_seconds([StepStats(edges_scanned=1000)])
        halves = nm.superstep_seconds(
            [StepStats(edges_scanned=500), StepStats(edges_scanned=500)]
        )
        assert halves <= whole

    @settings(max_examples=40, deadline=None)
    @given(
        edges=st.lists(st.integers(0, 10**7), min_size=1, max_size=9),
    )
    def test_superstep_time_nonnegative_and_monotone(self, edges):
        nm = NetworkModel()
        stats = [StepStats(edges_scanned=e) for e in edges]
        t = nm.superstep_seconds(stats)
        assert t >= 0
        stats[0].edges_scanned += 1_000_000
        assert nm.superstep_seconds(stats) >= t


class TestChooseDirection:
    """The push/pull decision rule (pure, replay-deterministic)."""

    def test_empty_frontier_pushes(self):
        assert choose_direction(0, 10**6) == "push"
        assert choose_direction(-5, 10**6) == "push"

    def test_sparse_frontier_pushes(self):
        # 100 frontier edges vs 1M local edges: pushing is far cheaper
        assert choose_direction(100, 10**6) == "push"

    def test_dense_frontier_pulls(self):
        # frontier covers nearly the whole edge set: pull the local tiles
        assert choose_direction(10**6, 10**6) == "pull"

    def test_crossover_at_coefficient_ratio(self):
        # pull wins iff pull_coeff*local < push_coeff*frontier;
        # with the defaults (1e-8 push, 2.5e-9 pull) that is local < 4*frontier
        assert choose_direction(1000, 3999) == "pull"
        assert choose_direction(1000, 4000) == "push"  # tie goes to push

    def test_custom_coefficients(self):
        assert choose_direction(1000, 4000, push_coeff=1.0, pull_coeff=0.1) \
            == "pull"
        assert choose_direction(
            1000, 4000, push_coeff=1.0e-9, pull_coeff=2.5e-9
        ) == "push"

    def test_model_method_uses_model_coefficients(self):
        """``direction="auto"`` decides with the session model's
        per-direction coefficients: a free pull sweep always pulls, a free
        push always pushes."""
        from repro.core.khop import concurrent_khop
        from repro.graph.generators import rmat_edges
        from repro.runtime.session import GraphSession

        el = rmat_edges(8, 2000, seed=1)
        steps = {}
        for push, pull in ((1.0, 0.0), (0.0, 1.0)):
            nm = NetworkModel(
                seconds_per_edge_push=push, seconds_per_edge_pull=pull
            )
            sess = GraphSession(el, num_machines=2, netmodel=nm)
            res = concurrent_khop(sess, [0, 1, 2], 3)
            steps[push] = (res.push_partition_steps, res.pull_partition_steps)
        assert steps[1.0][0] == 0 and steps[1.0][1] > 0
        assert steps[0.0][1] == 0 and steps[0.0][0] > 0

    @settings(max_examples=60, deadline=None)
    @given(
        frontier=st.integers(0, 10**9),
        local=st.integers(0, 10**9),
    )
    def test_total_and_deterministic(self, frontier, local):
        d = choose_direction(frontier, local)
        assert d in ("push", "pull")
        assert choose_direction(frontier, local) == d
        if frontier <= 0:
            assert d == "push"


class TestVirtualClock:
    def test_advance_accumulates(self):
        c = VirtualClock()
        c.advance(1.5)
        c.advance(0.5)
        assert c.now == pytest.approx(2.0)
        assert c.per_step == [1.5, 0.5]
        assert c.num_steps == 2

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1.0)
