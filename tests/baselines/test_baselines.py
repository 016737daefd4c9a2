"""Tests for the Titan-like DB, Gemini-like engine and naive traversals."""

import numpy as np
import pytest

from repro.baselines.graphdb import TitanLikeDB
from repro.baselines.naive import naive_distributed_khop, naive_khop
from repro.baselines.oracle import oracle_khop_reach, oracle_pagerank
from repro.baselines.serial import GeminiLikeEngine
from repro.graph import EdgeList, range_partition
from repro.runtime.session import GraphSession


class TestTitanLikeDB:
    def test_construction_counts(self, tiny_graph):
        db = TitanLikeDB(tiny_graph)
        assert db.num_vertices == 10
        assert db.num_edges == tiny_graph.num_edges

    def test_khop_matches_oracle(self, small_rmat):
        db = TitanLikeDB(small_rmat)
        for s in (0, 9, 33):
            for k in (1, 2, 3):
                assert db.khop_query(s, k) == oracle_khop_reach(small_rmat, s, k)

    def test_khop_includes_source(self, tiny_graph):
        db = TitanLikeDB(tiny_graph)
        assert 0 in db.khop_query(0, 1)

    def test_timed_query_returns_wall_and_reach(self, small_rmat):
        db = TitanLikeDB(small_rmat)
        seconds, reached = db.timed_khop_query(0, 2)
        assert seconds > 0
        assert reached == len(oracle_khop_reach(small_rmat, 0, 2))

    def test_transaction_tracks_read_set(self, tiny_graph):
        db = TitanLikeDB(tiny_graph)
        txn = db.begin()
        txn.out_neighbors(0)
        size = txn.commit()
        assert size >= 3  # vertex 0 + its two out-edges

    def test_closed_transaction_rejects_reads(self, tiny_graph):
        db = TitanLikeDB(tiny_graph)
        txn = db.begin()
        txn.commit()
        with pytest.raises(RuntimeError):
            txn.vertex(0)

    def test_missing_vertex(self, tiny_graph):
        db = TitanLikeDB(tiny_graph)
        with pytest.raises(KeyError):
            db.begin().vertex(99)

    def test_pagerank_matches_oracle_ranking(self, small_rmat):
        db = TitanLikeDB(small_rmat)
        ours = db.pagerank(iterations=30)
        theirs = oracle_pagerank(small_rmat)
        assert np.corrcoef(ours / ours.sum(), theirs)[0, 1] > 0.999

    def test_edge_weights_stored_as_properties(self):
        el = EdgeList.from_pairs([(0, 1)], weights=[2.5])
        db = TitanLikeDB(el)
        assert db.begin().edge(0).properties["weight"] == 2.5

    def test_titan_like_is_much_slower_than_engine(self, medium_rmat):
        """The Figure 7 premise: object-per-edge storage loses badly to the
        vectorised engine on the same query."""
        import time

        from repro.core.khop import concurrent_khop

        db = TitanLikeDB(medium_rmat)
        pg = range_partition(medium_rmat, 1)
        t0 = time.perf_counter()
        db.khop_query(0, 3)
        titan = time.perf_counter() - t0
        # warm first: a cold call pays imports and lazy per-partition
        # structures, which is not the cost Figure 7 compares
        sess = GraphSession(pg)
        concurrent_khop(sess, [0], 3)
        t0 = time.perf_counter()
        concurrent_khop(sess, [0], 3)
        ours = time.perf_counter() - t0
        assert titan > ours  # direction only; magnitude asserted in benches


class TestGeminiLikeEngine:
    def test_single_query_seconds_positive(self, small_rmat):
        e = GeminiLikeEngine(GraphSession(small_rmat, num_machines=2))
        assert e.single_query_seconds(0, 3) > 0

    def test_serialization_stacks_up(self, small_rmat):
        e = GeminiLikeEngine(GraphSession(small_rmat, num_machines=2))
        r = e.serialized_response_times([0, 0, 0], 3)
        assert r[1] == pytest.approx(2 * r[0], rel=1e-6)
        assert r[2] == pytest.approx(3 * r[0], rel=1e-6)

    def test_total_time_linear_in_queries(self, small_rmat):
        e = GeminiLikeEngine(GraphSession(small_rmat, num_machines=2))
        one = e.total_execution_seconds([0], 3)
        four = e.total_execution_seconds([0, 0, 0, 0], 3)
        assert four == pytest.approx(4 * one, rel=1e-6)

    def test_speedup_factor_applied(self, small_rmat):
        slow = GeminiLikeEngine(GraphSession(small_rmat), single_query_speedup=1.0)
        fast = GeminiLikeEngine(GraphSession(small_rmat), single_query_speedup=2.0)
        assert fast.single_query_seconds(0, 3) == pytest.approx(
            slow.single_query_seconds(0, 3) / 2
        )

    def test_invalid_speedup(self, small_rmat):
        with pytest.raises(ValueError):
            GeminiLikeEngine(GraphSession(small_rmat), single_query_speedup=0)

    def test_accepts_prepartitioned_graph(self, small_rmat):
        pg = range_partition(small_rmat, 3)
        e = GeminiLikeEngine(GraphSession(pg))
        assert e.sess.pg is pg


class TestNaive:
    def test_naive_khop_matches_oracle(self, small_rmat):
        for s in (0, 50):
            for k in (1, 3):
                assert naive_khop(small_rmat, s, k) == oracle_khop_reach(
                    small_rmat, s, k
                )

    def test_naive_khop_k_zero(self, small_rmat):
        assert naive_khop(small_rmat, 5, 0) == {5}

    def test_naive_distributed_matches_naive(self, small_rmat):
        for p in (1, 2, 4):
            assert naive_distributed_khop(small_rmat, 3, 2, p) == naive_khop(
                small_rmat, 3, 2
            )

    def test_naive_distributed_accepts_partitioned(self, small_rmat):
        pg = range_partition(small_rmat, 3)
        assert naive_distributed_khop(pg, 0, 2) == naive_khop(small_rmat, 0, 2)
