"""Tests for the CGraph facade and the Traverse operator."""


from repro.baselines.oracle import oracle_khop_reach
from repro.core.cgraph import CGraph
from repro.core.traversal import khop_query, traverse
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


class TestKHopQueryHelpers:
    def test_khop_query_returns_vertex_ids(self, small_rmat):
        got = set(khop_query(GraphSession(small_rmat), 7, 2).tolist())
        assert got == oracle_khop_reach(small_rmat, 7, 2)

    def test_service_time_positive(self, small_rmat):
        pg = range_partition(small_rmat, 2)
        seconds, reached = GraphSession(pg).khop_service(0, 3)
        assert seconds > 0
        assert reached == len(oracle_khop_reach(small_rmat, 0, 3))


class TestCGraphFacade:
    def test_basic_properties(self, small_rmat):
        g = CGraph(small_rmat, num_machines=3)
        assert g.num_vertices == small_rmat.num_vertices
        assert g.num_edges == small_rmat.num_edges
        assert g.num_machines == 3
        assert not g.has_edge_sets

    def test_khop_matches_oracle(self, small_rmat):
        g = CGraph(small_rmat, num_machines=2)
        res = g.khop([0, 9], 3)
        assert res.reached[0] == len(oracle_khop_reach(small_rmat, 0, 3))
        assert res.reached[1] == len(oracle_khop_reach(small_rmat, 9, 3))

    def test_khop_batch_stream(self, small_rmat):
        g = CGraph(small_rmat, num_machines=2)
        stream = g.khop_batch(list(range(10)), 2, batch_width=4)
        assert stream.num_batches == 3

    def test_reachable_within(self, small_rmat):
        g = CGraph(small_rmat)
        got = set(g.reachable_within(7, 2).tolist())
        assert got == oracle_khop_reach(small_rmat, 7, 2)

    def test_bfs_levels(self, line10):
        g = CGraph(line10, num_machines=2)
        assert g.bfs_levels(0).tolist() == list(range(10))

    def test_degree_reindex_preserves_query_semantics(self, small_rmat):
        plain = CGraph(small_rmat)
        re = CGraph(small_rmat, reindex="degree")
        assert re.id_map is not None
        # reachability counts are invariant under relabelling
        for s in (0, 9, 33):
            assert (
                re.khop([s], 3).reached[0] == plain.khop([s], 3).reached[0]
            )

    def test_edge_sets_flag(self, small_rmat):
        g = CGraph(small_rmat, num_machines=2, edge_sets=True)
        assert g.has_edge_sets
        res = g.khop([0], 3)  # uses edge sets by default
        assert res.reached[0] == len(oracle_khop_reach(small_rmat, 0, 3))

    def test_pagerank_through_facade(self, small_rmat):
        g = CGraph(small_rmat, num_machines=2)
        run = g.pagerank(iterations=5)
        assert run.iterations == 5
        assert run.values.shape == (small_rmat.num_vertices,)

    def test_sssp_through_facade(self, small_rmat):
        g = CGraph(small_rmat.with_unit_weights(), num_machines=2)
        res = g.sssp(0, max_hops=2)
        assert res.distances[0] == 0.0

    def test_triangles_consistent(self, small_rmat):
        g = CGraph(small_rmat)
        assert g.triangles() == g.triangles_via_khop()

    def test_standalone_query_cost(self, small_rmat):
        g = CGraph(small_rmat, num_machines=3)
        seconds, reached = g.session.khop_service(0, 3)
        assert seconds > 0 and reached > 0

    def test_custom_vertex_program(self, small_rmat):
        from tests.core.test_gas_pagerank import MinLabelProgram

        g = CGraph(small_rmat.symmetrize(), num_machines=2)
        run = g.run_vertex_program(MinLabelProgram(), iterations=50)
        assert run.values.min() == 0.0

    def test_traverse_through_facade(self, line10):
        g = CGraph(line10)
        levels = []
        g.traverse(0, 2, visit=lambda lv, vs: levels.append(lv))
        assert levels == [1, 2]
