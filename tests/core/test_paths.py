"""Tests for shortest-hop path extraction ("found paths", §4.2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.traversal import shortest_hop_path
from repro.errors import InvalidQueryError
from repro.graph import EdgeList, path_graph, range_partition, star_graph
from repro.runtime.session import GraphSession


class TestShortestHopPath:
    def test_trivial_self_path(self, small_rmat):
        assert shortest_hop_path(GraphSession(small_rmat), 5, 5) == [5]

    def test_direct_edge(self, tiny_graph):
        assert shortest_hop_path(GraphSession(tiny_graph), 0, 1) == [0, 1]

    def test_line(self):
        el = path_graph(6, directed=True)
        assert shortest_hop_path(GraphSession(el), 0, 5) == [0, 1, 2, 3, 4, 5]

    def test_budget_blocks_path(self):
        el = path_graph(6, directed=True)
        assert shortest_hop_path(GraphSession(el), 0, 5, k=4) is None
        assert shortest_hop_path(GraphSession(el), 0, 5, k=5) is not None

    def test_unreachable(self):
        el = EdgeList.from_pairs([(0, 1)], num_vertices=3)
        assert shortest_hop_path(GraphSession(el), 0, 2) is None

    @pytest.mark.parametrize("target", [5.9, "5", -1, 10_000])
    def test_bad_target_refused(self, small_rmat, target):
        with pytest.raises(InvalidQueryError, match="target"):
            shortest_hop_path(GraphSession(small_rmat), 0, target)

    def test_star_through_hub(self):
        el = star_graph(10)
        p = shortest_hop_path(GraphSession(el), 3, 7)
        assert p == [3, 0, 7]

    def test_path_edges_exist_and_length_minimal(self, small_rmat):
        import networkx as nx

        g = small_rmat.to_networkx()
        for s, t in [(0, 77), (9, 200), (33, 5)]:
            p = shortest_hop_path(GraphSession(small_rmat, num_machines=3), s, t)
            try:
                ref = nx.shortest_path_length(g, s, t)
            except nx.NetworkXNoPath:
                assert p is None
                continue
            assert p is not None
            assert len(p) - 1 == ref
            assert p[0] == s and p[-1] == t
            for a, b in zip(p, p[1:]):
                assert g.has_edge(a, b)

    def test_prepartitioned_graph(self, small_rmat):
        pg = range_partition(small_rmat, 4)
        p = shortest_hop_path(GraphSession(pg), 0, 77)
        q = shortest_hop_path(GraphSession(small_rmat), 0, 77)
        # paths may differ (ties), lengths may not
        if p is None:
            assert q is None
        else:
            assert len(p) == len(q)

    @settings(max_examples=25, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 12), st.integers(0, 12)),
            min_size=1, max_size=40,
        ),
        s=st.integers(0, 12),
        t=st.integers(0, 12),
    )
    def test_property_valid_minimal_paths(self, pairs, s, t):
        import networkx as nx

        el = EdgeList.from_pairs(pairs, num_vertices=13)
        p = shortest_hop_path(GraphSession(el, num_machines=2), s, t)
        g = el.to_networkx()
        try:
            ref = nx.shortest_path_length(g, s, t)
        except nx.NetworkXNoPath:
            assert p is None
            return
        assert p is not None and len(p) - 1 == ref
        for a, b in zip(p, p[1:]):
            assert g.has_edge(a, b)
