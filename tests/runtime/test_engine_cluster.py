"""Tests for the cluster, the exchange step and the superstep engine."""

import numpy as np
import pytest

from repro.graph import range_partition
from repro.runtime.cluster import SimCluster
from repro.runtime.comm import deliver_async, exchange_sync
from repro.runtime.engine import PartitionTask, SuperstepEngine
from repro.runtime.message import MessageBatch
from repro.runtime.netmodel import StepStats
from repro.runtime.session import GraphSession


def _cluster(tiny_graph, p=2):
    return SimCluster(range_partition(tiny_graph, p))


class TestSimCluster:
    def test_one_machine_per_partition(self, tiny_graph):
        c = _cluster(tiny_graph, 3)
        assert c.num_machines == 3
        for i, m in enumerate(c.machines):
            assert m.machine_id == i
            assert m.partition.part_id == i

    def test_machine_of(self, tiny_graph):
        c = _cluster(tiny_graph, 2)
        for v in range(10):
            m = c.machine_of(v)
            assert m.lo <= v < m.hi

    def test_reset_buffers(self, tiny_graph):
        c = _cluster(tiny_graph)
        c.machines[0].outbox.append(
            1, MessageBatch(np.array([9]), np.array([1], np.uint64))
        )
        c.reset_buffers()
        assert c.machines[0].outbox.is_empty


class TestExchange:
    def test_sync_delivery_and_stats(self, tiny_graph):
        c = _cluster(tiny_graph, 2)
        stats = [StepStats() for _ in range(2)]
        hi_vertex = c.machines[1].lo  # a vertex owned by machine 1
        c.machines[0].outbox.append(
            1, MessageBatch(np.array([hi_vertex]), np.array([1], np.uint64))
        )
        delivered = exchange_sync(c, stats)
        assert delivered == 1
        assert stats[0].total_messages == 1
        assert stats[0].total_bytes > 0
        assert not c.machines[1].inbox.is_empty
        assert c.machines[0].outbox.is_empty

    def test_sync_combines_before_wire(self, tiny_graph):
        c = _cluster(tiny_graph, 2)
        stats = [StepStats() for _ in range(2)]
        v = c.machines[1].lo
        for bits in (1, 2, 4):
            c.machines[0].outbox.append(
                1, MessageBatch(np.array([v]), np.array([bits], np.uint64))
            )
        delivered = exchange_sync(c, stats)
        assert delivered == 1  # three tasks combined into one
        (merged,) = c.machines[1].inbox.drain()
        assert merged.payload[0] == 7

    def test_local_loopback_is_an_error(self, tiny_graph):
        """A self-addressed batch is refused by the flush both exchanges
        share (``deliver_async`` used to let it through)."""
        for exchange in (exchange_sync, lambda c, s: deliver_async(c, 0, s)):
            c = _cluster(tiny_graph, 2)
            stats = [StepStats() for _ in range(2)]
            c.machines[0].outbox.append(
                0, MessageBatch(np.array([0]), np.array([1], np.uint64))
            )
            with pytest.raises(AssertionError):
                exchange(c, stats)
            assert c.machines[0].inbox.is_empty

    def test_async_delivers_one_machine(self, tiny_graph):
        c = _cluster(tiny_graph, 2)
        stats = [StepStats() for _ in range(2)]
        v = c.machines[1].lo
        c.machines[0].outbox.append(
            1, MessageBatch(np.array([v]), np.array([1], np.uint64))
        )
        delivered = deliver_async(c, 0, stats)
        assert delivered == 1
        assert not c.machines[1].inbox.is_empty


class _PingPongTask(PartitionTask):
    """Test task: sends a counter back and forth between two machines."""

    def __init__(self, machine, cluster, rounds):
        super().__init__(machine)
        self.cluster = cluster
        self.rounds = rounds
        self.received = 0
        self.has_ball = machine.machine_id == 0

    def compute(self, stats):
        if self.has_ball and self.received < self.rounds:
            other = 1 - self.machine.machine_id
            target = self.cluster.machines[other].lo
            self.machine.outbox.append(
                other, MessageBatch(np.array([target]), np.array([1], np.uint64))
            )
            self.has_ball = False
            stats.edges_scanned += 1

    def apply_inbox(self, stats):
        for b in self.machine.inbox.drain():
            self.received += b.num_tasks
            self.has_ball = True

    def finalize(self):
        return self.has_ball and self.received < self.rounds


class TestSuperstepEngine:
    def test_ping_pong_runs_to_quiescence(self, tiny_graph):
        c = _cluster(tiny_graph, 2)
        tasks = [_PingPongTask(m, c, rounds=3) for m in c.machines]
        engine = SuperstepEngine(c, tasks)
        result = engine.run()
        total = tasks[0].received + tasks[1].received
        # the ball bounces until one side has received `rounds` times:
        # rounds + (rounds - 1) deliveries in total
        assert total == 5
        assert result.supersteps >= 5
        assert result.virtual_seconds > 0

    def test_max_supersteps_caps_run(self, tiny_graph):
        c = _cluster(tiny_graph, 2)
        tasks = [_PingPongTask(m, c, rounds=1000) for m in c.machines]
        result = SuperstepEngine(c, tasks).run(max_supersteps=5)
        assert result.supersteps == 5

    def test_task_machine_mismatch_rejected(self, tiny_graph):
        c = _cluster(tiny_graph, 2)
        tasks = [_PingPongTask(c.machines[0], c, 1)]
        with pytest.raises(ValueError):
            SuperstepEngine(c, tasks)

    def test_on_step_called_per_superstep(self, tiny_graph):
        c = _cluster(tiny_graph, 2)
        tasks = [_PingPongTask(m, c, rounds=2) for m in c.machines]
        seen = []
        SuperstepEngine(c, tasks).run(
            on_step=lambda i, stats, now, probes: seen.append((i, now))
        )
        assert [i for i, _ in seen] == list(range(len(seen)))
        times = [t for _, t in seen]
        assert times == sorted(times)

    def test_async_mode_uses_overlap_model(self, tiny_graph):
        c = _cluster(tiny_graph, 2)
        tasks = [_PingPongTask(m, c, rounds=2) for m in c.machines]
        engine = SuperstepEngine(c, tasks, asynchronous=True)
        assert engine.netmodel.async_overlap
        result = engine.run(max_supersteps=10)
        assert tasks[0].received + tasks[1].received >= 1

    def test_per_step_stats_recorded(self, tiny_graph):
        c = _cluster(tiny_graph, 2)
        tasks = [_PingPongTask(m, c, rounds=2) for m in c.machines]
        result = SuperstepEngine(c, tasks).run()
        assert len(result.per_step_stats) == result.supersteps
        # one send per delivery: 2 * rounds - 1 with rounds=2
        assert result.total_stats().edges_scanned == 3


class TestStepTable:
    def test_rows_align_with_supersteps(self, small_rmat):
        from repro.core.khop import KHopPartitionTask
        from repro.runtime.netmodel import NetworkModel

        pg = range_partition(small_rmat, 3)
        cluster = SimCluster(pg)
        tasks = [KHopPartitionTask(m, cluster, 1, 3) for m in cluster.machines]
        home = cluster.machine_of(0)
        tasks[home.machine_id].state.seed(0 - home.lo, 0)
        result = SuperstepEngine(cluster, tasks).run(max_supersteps=3)
        rows = result.step_table(NetworkModel())
        assert len(rows) == result.supersteps
        assert all(r["seconds"] >= 0 for r in rows)
        assert "max_compute_s" in rows[0]
        total_edges = sum(r["edges_scanned"] for r in rows)
        assert total_edges == result.total_stats().edges_scanned
        # direction accounting: every active partition-step ran some mode
        total_modes = sum(r["push_partitions"] + r["pull_partitions"] for r in rows)
        assert total_modes > 0

    def test_without_netmodel(self, small_rmat):
        from repro.core.pagerank import pagerank

        run = pagerank(GraphSession(small_rmat, num_machines=2), iterations=3)
        rows = run.engine_result.step_table()
        assert len(rows) == 3
        assert "max_compute_s" not in rows[0]
