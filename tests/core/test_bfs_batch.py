"""Tests for concurrent BFS and query-stream batching."""

import numpy as np
import pytest

from repro.baselines.oracle import oracle_bfs_levels, oracle_khop_reach
from repro.core.frontier import MAX_WIDE_BATCH
from repro.core.khop import concurrent_khop
from repro.core.traversal import traverse
from repro.graph import path_graph, range_partition
from repro.runtime.scheduler import QueryService
from repro.runtime.session import GraphSession


class TestConcurrentBFS:
    def test_reaches_everything_reachable(self, small_rmat):
        sess = GraphSession(small_rmat, num_machines=2)
        res = concurrent_khop(sess, [0, 9, 33], None)
        for q, s in enumerate([0, 9, 33]):
            assert res.reached[q] == len(oracle_khop_reach(small_rmat, s, None))

    def test_k_is_none(self, small_rmat):
        res = concurrent_khop(GraphSession(small_rmat), [0], None)
        assert res.k is None

    def test_traverse_depths_levels(self, small_rmat):
        sess = GraphSession(small_rmat, num_machines=3)
        ours = traverse(sess, 7, None).depths[:, 0]
        theirs = oracle_bfs_levels(small_rmat, 7)
        assert (ours == theirs).all()

    def test_traverse_depths_on_path(self):
        el = path_graph(6, directed=True)
        depths = traverse(GraphSession(el), 2, None).depths[:, 0]
        assert depths.tolist() == [-1, -1, 0, 1, 2, 3]


def _stream(graph, sources, k, batch_width=64, num_machines=1):
    """Drain ``sources`` as one zero-arrival wave of a fresh service."""
    svc = QueryService(
        GraphSession(graph, num_machines=num_machines), k, batch_width=batch_width
    )
    svc.submit_many(sources)
    return svc.drain()


def _batch_of_query(report):
    """Each query's batch index: batches start at distinct clock times."""
    return np.unique(report.start_seconds, return_inverse=True)[1]


class TestQueryStream:
    def test_single_batch(self, small_rmat):
        res = _stream(small_rmat, [0, 5, 9], k=3)
        assert res.num_batches == 1
        assert res.num_queries == 3
        assert (_batch_of_query(res) == 0).all()

    def test_multiple_batches(self, small_rmat):
        sources = list(range(10))
        res = _stream(small_rmat, sources, k=2, batch_width=4)
        assert res.num_batches == 3
        assert _batch_of_query(res).tolist() == [0] * 4 + [1] * 4 + [2] * 2

    def test_reached_matches_unbatched(self, small_rmat):
        sources = list(range(12))
        stream = _stream(small_rmat, sources, k=3, batch_width=5)
        direct = concurrent_khop(GraphSession(small_rmat), sources, k=3)
        assert (stream.reached == direct.reached).all()

    def test_later_batches_respond_later(self, small_rmat):
        sources = [3] * 8  # identical queries isolate batch-position effects
        res = _stream(small_rmat, sources, k=3, batch_width=2)
        batch_of_query = _batch_of_query(res)
        by_batch = [
            res.response_seconds[batch_of_query == b].mean()
            for b in range(res.num_batches)
        ]
        assert by_batch == sorted(by_batch)

    def test_total_time_is_last_batch_end(self, small_rmat):
        res = _stream(small_rmat, list(range(9)), k=2, batch_width=3)
        assert res.clock_seconds == pytest.approx(res.makespan)
        assert (res.response_seconds <= res.clock_seconds + 1e-12).all()

    def test_wider_batches_cost_less_total_time(self, medium_rmat):
        """The bit-parallel sharing claim: W=16 beats W=1 end-to-end."""
        pg = range_partition(medium_rmat, 2)
        sources = list(range(0, 32))
        narrow = _stream(pg, sources, k=3, batch_width=1)
        wide = _stream(pg, sources, k=3, batch_width=16)
        assert wide.clock_seconds < narrow.clock_seconds
        assert wide.edges_scanned < narrow.edges_scanned
        assert (wide.reached == narrow.reached).all()

    def test_invalid_width(self, small_rmat):
        with pytest.raises(ValueError):
            _stream(small_rmat, [0], k=1, batch_width=0)
        with pytest.raises(ValueError):
            _stream(small_rmat, [0], k=1, batch_width=MAX_WIDE_BATCH + 1)

    def test_prepartitioned_graph_reused(self, small_rmat):
        pg = range_partition(small_rmat, 3)
        res = _stream(pg, [0, 1], k=2)
        assert res.num_queries == 2
