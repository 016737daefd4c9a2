"""Tests for concurrent BFS and query-stream batching."""

import pytest

from repro.baselines.oracle import oracle_bfs_levels, oracle_khop_reach
from repro.core.batch import run_query_stream
from repro.core.bfs import concurrent_bfs, single_source_bfs
from repro.core.frontier import MAX_WIDE_BATCH
from repro.graph import path_graph, range_partition


class TestConcurrentBFS:
    def test_reaches_everything_reachable(self, small_rmat):
        res = concurrent_bfs(small_rmat, [0, 9, 33], num_machines=2)
        for q, s in enumerate([0, 9, 33]):
            assert res.reached[q] == len(oracle_khop_reach(small_rmat, s, None))

    def test_k_is_none(self, small_rmat):
        res = concurrent_bfs(small_rmat, [0])
        assert res.k is None

    def test_single_source_bfs_levels(self, small_rmat):
        ours = single_source_bfs(small_rmat, 7, num_machines=3)
        theirs = oracle_bfs_levels(small_rmat, 7)
        assert (ours == theirs).all()

    def test_single_source_bfs_on_path(self):
        el = path_graph(6, directed=True)
        assert single_source_bfs(el, 2).tolist() == [-1, -1, 0, 1, 2, 3]


class TestQueryStream:
    def test_single_batch(self, small_rmat):
        res = run_query_stream(small_rmat, [0, 5, 9], k=3)
        assert res.num_batches == 1
        assert res.num_queries == 3
        assert (res.batch_of_query == 0).all()

    def test_multiple_batches(self, small_rmat):
        sources = list(range(10))
        res = run_query_stream(small_rmat, sources, k=2, batch_width=4)
        assert res.num_batches == 3
        assert res.batch_of_query.tolist() == [0] * 4 + [1] * 4 + [2] * 2

    def test_reached_matches_unbatched(self, small_rmat):
        sources = list(range(12))
        stream = run_query_stream(small_rmat, sources, k=3, batch_width=5)
        from repro.core.khop import concurrent_khop

        direct = concurrent_khop(small_rmat, sources, k=3)
        assert (stream.reached == direct.reached).all()

    def test_later_batches_respond_later(self, small_rmat):
        sources = [3] * 8  # identical queries isolate batch-position effects
        res = run_query_stream(small_rmat, sources, k=3, batch_width=2)
        by_batch = [
            res.response_seconds[res.batch_of_query == b].mean()
            for b in range(res.num_batches)
        ]
        assert by_batch == sorted(by_batch)

    def test_total_time_is_last_batch_end(self, small_rmat):
        res = run_query_stream(small_rmat, list(range(9)), k=2, batch_width=3)
        assert res.total_seconds == pytest.approx(
            sum(b.virtual_seconds for b in res.batch_results)
        )
        assert (res.response_seconds <= res.total_seconds + 1e-12).all()

    def test_wider_batches_cost_less_total_time(self, medium_rmat):
        """The bit-parallel sharing claim: W=16 beats W=1 end-to-end."""
        pg = range_partition(medium_rmat, 2)
        sources = list(range(0, 32))
        narrow = run_query_stream(pg, sources, k=3, batch_width=1)
        wide = run_query_stream(pg, sources, k=3, batch_width=16)
        assert wide.total_seconds < narrow.total_seconds
        assert wide.total_edges_scanned < narrow.total_edges_scanned
        assert (wide.reached == narrow.reached).all()

    def test_invalid_width(self, small_rmat):
        with pytest.raises(ValueError):
            run_query_stream(small_rmat, [0], k=1, batch_width=0)
        with pytest.raises(ValueError):
            run_query_stream(small_rmat, [0], k=1, batch_width=MAX_WIDE_BATCH + 1)

    def test_empty_stream_rejected(self, small_rmat):
        with pytest.raises(ValueError):
            run_query_stream(small_rmat, [], k=1)

    def test_prepartitioned_graph_reused(self, small_rmat):
        pg = range_partition(small_rmat, 3)
        res = run_query_stream(pg, [0, 1], k=2)
        assert res.num_queries == 2

    def test_edge_sets_built_on_demand(self, small_rmat):
        res = run_query_stream(
            small_rmat, [0, 1], k=2, num_machines=2, use_edge_sets=True
        )
        assert res.num_queries == 2
