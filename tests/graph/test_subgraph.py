"""Tests for induced/k-hop subgraph extraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.oracle import oracle_khop_reach
from repro.graph import EdgeList, path_graph
from repro.graph.subgraph import induced_subgraph, khop_subgraph
from repro.runtime.session import GraphSession


class TestInducedSubgraph:
    def test_keeps_internal_edges_only(self, tiny_graph):
        sub = induced_subgraph(tiny_graph, [0, 1, 2, 3])
        pairs = {
            (int(sub.vertices[a]), int(sub.vertices[b]))
            for a, b in zip(sub.edges.src, sub.edges.dst)
        }
        assert pairs == {(0, 1), (0, 2), (1, 3), (2, 3)}

    def test_relabels_densely_sorted(self, tiny_graph):
        sub = induced_subgraph(tiny_graph, [7, 2, 9])
        assert sub.vertices.tolist() == [2, 7, 9]
        assert sub.num_vertices == 3

    def test_duplicates_collapsed(self, tiny_graph):
        sub = induced_subgraph(tiny_graph, [1, 1, 1, 4])
        assert sub.num_vertices == 2

    def test_mapping_roundtrip(self, small_rmat):
        members = [3, 9, 17, 120]
        sub = induced_subgraph(small_rmat, members)
        local = sub.from_parent(members)
        assert (sub.to_parent(local) == np.array(members)).all()

    def test_from_parent_missing_is_minus_one(self, tiny_graph):
        sub = induced_subgraph(tiny_graph, [0, 1])
        assert sub.from_parent([5])[0] == -1

    def test_weights_carried(self):
        el = EdgeList.from_pairs([(0, 1), (1, 2)], weights=[5.0, 7.0])
        sub = induced_subgraph(el, [0, 1])
        assert sub.edges.weight.tolist() == [5.0]

    def test_out_of_range_rejected(self, tiny_graph):
        with pytest.raises(ValueError):
            induced_subgraph(tiny_graph, [99])

    def test_empty_selection(self, tiny_graph):
        sub = induced_subgraph(tiny_graph, [])
        assert sub.num_vertices == 0
        assert sub.num_edges == 0

    @settings(max_examples=30, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 12), st.integers(0, 12)),
            min_size=0, max_size=40,
        ),
        members=st.lists(st.integers(0, 12), min_size=0, max_size=8),
    )
    def test_property_matches_networkx(self, pairs, members):
        # dedup first: EdgeList is a multigraph, networkx.DiGraph is not
        el = EdgeList.from_pairs(pairs, num_vertices=13).deduplicate()
        sub = induced_subgraph(el, members)
        g = el.to_networkx().subgraph(set(members))
        assert sub.num_edges == g.number_of_edges()


class TestKHopSubgraph:
    def test_members_match_oracle(self, small_rmat):
        sub = khop_subgraph(GraphSession(small_rmat, num_machines=2), 7, 2)
        assert set(sub.vertices.tolist()) == oracle_khop_reach(small_rmat, 7, 2)

    def test_path_graph(self):
        el = path_graph(8, directed=True)
        sub = khop_subgraph(GraphSession(el), 0, 3)
        assert sub.vertices.tolist() == [0, 1, 2, 3]
        assert sub.num_edges == 3

    def test_subgraph_is_traversable(self, small_rmat):
        """The extracted neighbourhood supports further local queries."""
        from repro.core.khop import concurrent_khop

        sub = khop_subgraph(GraphSession(small_rmat, num_machines=2), 7, 3)
        local_source = int(sub.from_parent([7])[0])
        res = concurrent_khop(GraphSession(sub.edges), [local_source], k=3)
        assert res.reached[0] == sub.num_vertices  # whole ball reachable

    def test_dynamic_session_uses_live_edges(self):
        sess = GraphSession(path_graph(8, directed=True), num_machines=2)
        sess.apply_mutations(inserts=[(0, 5)], deletes=[(1, 2)])
        sub = khop_subgraph(sess, 0, 2)
        assert sub.vertices.tolist() == [0, 1, 5, 6]
        assert sub.num_edges == 3  # 0->1, 0->5, 5->6; never the deleted 1->2
