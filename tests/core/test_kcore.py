"""Tests for k-core decomposition and the vectorised H-index kernel."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kcore import core_numbers, h_index_per_row
from repro.graph import (
    EdgeList,
    complete_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.graph.csr import build_csr
from repro.runtime.session import GraphSession


def _naive_h_index(values: list[int]) -> int:
    values = sorted(values, reverse=True)
    h = 0
    for i, v in enumerate(values, start=1):
        if v >= i:
            h = i
    return h


class TestHIndexKernel:
    def test_single_row(self):
        csr = build_csr(np.zeros(5, int), np.arange(1, 6), 6)
        values = np.array([0, 3, 1, 4, 1, 5], dtype=np.int64)
        got = h_index_per_row(csr, values)
        assert got[0] == _naive_h_index([3, 1, 4, 1, 5])
        assert (got[1:] == 0).all()

    def test_empty_rows(self):
        csr = build_csr(np.array([2]), np.array([0]), 3)
        values = np.array([7, 7, 7], dtype=np.int64)
        got = h_index_per_row(csr, values)
        assert got.tolist() == [0, 0, 1]

    def test_no_edges(self):
        csr = build_csr(np.empty(0, int), np.empty(0, int), 4)
        assert h_index_per_row(csr, np.ones(4, dtype=np.int64)).tolist() == [0] * 4

    @settings(max_examples=50, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 8)),
            min_size=0, max_size=40,
        ),
        values=st.lists(st.integers(0, 10), min_size=9, max_size=9),
    )
    def test_property_matches_naive(self, pairs, values):
        src = np.array([a for a, _ in pairs], dtype=np.int64)
        dst = np.array([b for _, b in pairs], dtype=np.int64)
        csr = build_csr(src, dst, 9)
        vals = np.array(values, dtype=np.int64)
        got = h_index_per_row(csr, vals)
        for v in range(9):
            nbrs = csr.neighbors(v)
            assert got[v] == _naive_h_index([int(vals[t]) for t in nbrs])


class TestCoreNumbers:
    def test_complete_graph(self):
        res = core_numbers(GraphSession(complete_graph(6)))
        assert (res.core == 5).all()

    def test_path_graph(self):
        res = core_numbers(GraphSession(path_graph(10)))
        assert (res.core == 1).all()

    def test_star_graph(self):
        res = core_numbers(GraphSession(star_graph(8)))
        assert (res.core == 1).all()

    def test_grid_graph(self):
        res = core_numbers(GraphSession(grid_graph(4, 4)))
        assert res.core.max() == 2  # interior of a grid is 2-core

    def test_triangle_plus_tail(self):
        el = EdgeList.from_pairs([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
        res = core_numbers(GraphSession(el))
        assert res.core[:3].tolist() == [2, 2, 2]
        assert res.core[3] == 1 and res.core[4] == 1

    def test_matches_networkx(self, small_rmat):
        import networkx as nx

        res = core_numbers(GraphSession(small_rmat, num_machines=3))
        g = nx.Graph(small_rmat.symmetrize().remove_self_loops().to_networkx())
        ref = nx.core_number(g)
        for v in range(small_rmat.num_vertices):
            assert res.core[v] == ref.get(v, 0)

    def test_machine_invariance(self, small_er):
        a = core_numbers(GraphSession(small_er, num_machines=1)).core
        b = core_numbers(GraphSession(small_er, num_machines=5)).core
        assert (a == b).all()

    def test_max_rounds_caps(self, small_rmat):
        res = core_numbers(GraphSession(small_rmat), max_rounds=1)
        assert res.rounds == 1

    def test_virtual_time_positive_multi_machine(self, small_rmat):
        res = core_numbers(GraphSession(small_rmat, num_machines=3))
        assert res.virtual_seconds > 0

    def test_isolated_vertices(self):
        el = EdgeList.from_pairs([(0, 1)], num_vertices=5)
        res = core_numbers(GraphSession(el))
        assert res.core[2:].tolist() == [0, 0, 0]

    def test_empty_graph(self):
        res = core_numbers(GraphSession(EdgeList.empty(4)))
        assert res.core.tolist() == [0, 0, 0, 0]
