"""Tests for the Traverse operator and for queries on a re-indexed graph."""

import numpy as np

from repro.baselines.oracle import oracle_khop_reach
from repro.core.khop import concurrent_khop
from repro.core.traversal import traverse
from repro.graph import range_partition
from repro.runtime.session import GraphSession


class TestTraverse:
    def test_visit_called_per_level(self, line10):
        levels = {}
        traverse(
            GraphSession(line10), 0, hops=3,
            visit=lambda lv, vs: levels.update({lv: vs.tolist()}),
        )
        assert levels == {1: [1], 2: [2], 3: [3]}

    def test_visit_skips_source_level(self, star20):
        seen = []
        traverse(GraphSession(star20), 0, hops=2, visit=lambda lv, vs: seen.append(lv))
        assert 0 not in seen

    def test_returns_khop_result(self, small_rmat):
        res = traverse(GraphSession(small_rmat), 0, hops=2)
        assert res.reached[0] == len(oracle_khop_reach(small_rmat, 0, 2))

    def test_unbounded_traverse(self, small_rmat):
        res = traverse(GraphSession(small_rmat), 0, hops=None)
        assert res.reached[0] == len(oracle_khop_reach(small_rmat, 0, None))

    def test_depths_are_bfs_levels(self, line10):
        res = traverse(GraphSession(line10, num_machines=2), 0, hops=None)
        assert res.depths[:, 0].tolist() == list(range(10))


class TestKHopQueryHelpers:
    def test_service_time_positive(self, small_rmat):
        pg = range_partition(small_rmat, 2)
        seconds, reached = GraphSession(pg).khop_service(0, 3)
        assert seconds > 0
        assert reached == len(oracle_khop_reach(small_rmat, 0, 3))


class TestSessionSurface:
    def test_basic_properties(self, small_rmat):
        sess = GraphSession(small_rmat, num_machines=3)
        assert sess.num_vertices == small_rmat.num_vertices
        assert sess.num_edges == small_rmat.num_edges
        assert sess.num_machines == 3
        assert not sess.has_edge_sets
        assert GraphSession(small_rmat, edge_sets=True).has_edge_sets

    def test_degree_reindex_is_the_callers_job(self, small_rmat):
        """Re-indexing happens on the edge list, before the session: the
        caller maps ids in, and maps every per-vertex answer back out."""
        relabelled, mapping = small_rmat.reindex("degree")
        assert not np.array_equal(mapping, np.arange(small_rmat.num_vertices))
        plain = GraphSession(small_rmat, num_machines=2)
        hubs_first = GraphSession(relabelled, num_machines=2)
        sources = np.array([0, 9, 33])
        want = concurrent_khop(plain, sources, 3, record_depths=True)
        got = concurrent_khop(
            hubs_first, mapping[sources], 3, record_depths=True
        )
        # row v of the answer is internal vertex v: caller vertex u is row
        # mapping[u]
        np.testing.assert_array_equal(got.depths[mapping], want.depths)
        np.testing.assert_array_equal(got.reached, want.reached)
