"""Tests for SSSP (hop-constrained) and triangle counting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.oracle import oracle_sssp
from repro.core.sssp import sssp
from repro.core.triangles import khop_triangle_count, local_triangles, triangle_count
from repro.graph import EdgeList, complete_graph, grid_graph, path_graph, star_graph
from repro.runtime.session import GraphSession


class TestSSSP:
    def test_matches_dijkstra(self, small_rmat, rng):
        w = EdgeList(
            small_rmat.src,
            small_rmat.dst,
            small_rmat.num_vertices,
            rng.uniform(0.1, 5.0, small_rmat.num_edges),
        )
        for machines in (1, 3):
            res = sssp(GraphSession(w, num_machines=machines), 0)
            theirs = oracle_sssp(w, 0)
            np.testing.assert_allclose(res.distances, theirs)

    def test_unit_weights_equal_bfs_depths(self, small_rmat):
        w = small_rmat.with_unit_weights()
        res = sssp(GraphSession(w, num_machines=2), 7)
        from repro.baselines.oracle import oracle_bfs_levels

        levels = oracle_bfs_levels(small_rmat, 7)
        reachable = levels >= 0
        np.testing.assert_allclose(res.distances[reachable], levels[reachable])
        assert np.isinf(res.distances[~reachable]).all()

    def test_hop_budget_limits_paths(self):
        # path 0->1->2->3 with cheap edges, plus expensive shortcut 0->3
        el = EdgeList.from_pairs(
            [(0, 1), (1, 2), (2, 3), (0, 3)], weights=[1, 1, 1, 10]
        )
        unlimited = sssp(GraphSession(el), 0)
        assert unlimited.distances[3] == 3  # 3 hops, cost 3
        capped = sssp(GraphSession(el), 0, max_hops=1)
        assert capped.distances[3] == 10  # must use the 1-hop shortcut

    def test_hop_budget_zero(self):
        el = EdgeList.from_pairs([(0, 1)], weights=[1.0])
        res = sssp(GraphSession(el), 0, max_hops=0)
        assert res.distances[0] == 0
        assert np.isinf(res.distances[1])

    def test_source_distance_zero(self, small_rmat):
        res = sssp(GraphSession(small_rmat.with_unit_weights()), 5)
        assert res.distances[5] == 0.0

    def test_unweighted_graph_rejected(self, small_rmat):
        with pytest.raises(ValueError):
            sssp(GraphSession(small_rmat), 0)

    def test_source_out_of_range(self, small_rmat):
        with pytest.raises(ValueError):
            sssp(GraphSession(small_rmat.with_unit_weights()), -1)

    def test_negative_free_relaxation_terminates(self):
        # a cycle with positive weights must terminate
        el = EdgeList.from_pairs([(0, 1), (1, 2), (2, 0)], weights=[1, 1, 1])
        res = sssp(GraphSession(el), 0)
        assert res.distances.tolist() == [0, 1, 2]

    @settings(max_examples=20, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 12), st.integers(0, 12)),
            min_size=1,
            max_size=40,
        ),
        machines=st.integers(1, 3),
        seed=st.integers(0, 100),
    )
    def test_property_matches_dijkstra(self, pairs, machines, seed):
        rng = np.random.default_rng(seed)
        el = EdgeList.from_pairs(pairs, num_vertices=13,
                                 weights=rng.uniform(0.5, 3.0, len(pairs)))
        el = el.deduplicate()
        res = sssp(GraphSession(el, num_machines=machines), 0)
        np.testing.assert_allclose(res.distances, oracle_sssp(el, 0))


class TestTriangles:
    def test_complete_graph(self):
        # K5 has C(5,3) = 10 triangles
        assert triangle_count(complete_graph(5)) == 10

    def test_path_has_none(self):
        assert triangle_count(path_graph(10)) == 0

    def test_star_has_none(self):
        assert triangle_count(star_graph(10)) == 0

    def test_grid_has_none(self):
        assert triangle_count(grid_graph(4, 4)) == 0

    def test_single_triangle(self):
        el = EdgeList.from_pairs([(0, 1), (1, 2), (2, 0)])
        assert triangle_count(el) == 1

    def test_empty_graph(self):
        assert triangle_count(EdgeList.empty(5)) == 0

    def test_matches_networkx(self, small_rmat):
        import networkx as nx

        g = nx.Graph(small_rmat.symmetrize().remove_self_loops().to_networkx())
        expected = sum(nx.triangles(g).values()) // 3
        assert triangle_count(small_rmat) == expected

    def test_khop_formulation_matches(self, small_rmat):
        assert khop_triangle_count(small_rmat) == triangle_count(small_rmat)

    def test_khop_rooted_subset(self):
        el = EdgeList.from_pairs([(0, 1), (1, 2), (2, 0), (3, 4)])
        # root 0 participates in exactly one triangle
        assert khop_triangle_count(el, roots=[0]) == 1
        assert khop_triangle_count(el, roots=[3]) == 0

    def test_local_triangles_sum(self, small_rmat):
        per_vertex = local_triangles(small_rmat)
        assert per_vertex.sum() == 3 * triangle_count(small_rmat)

    def test_local_triangles_matches_networkx(self, small_rmat):
        import networkx as nx

        g = nx.Graph(small_rmat.symmetrize().remove_self_loops().to_networkx())
        theirs = nx.triangles(g)
        ours = local_triangles(small_rmat)
        for v in range(small_rmat.num_vertices):
            assert ours[v] == theirs[v]
