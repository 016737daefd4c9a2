"""Tests for the Graph500-style traversal validator — and, through it,
another independent check of every traversal engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.khop import concurrent_khop
from repro.graph import EdgeList, path_graph
from repro.graph.validation import assert_valid_khop, validate_khop_depths
from repro.runtime.session import GraphSession


class TestValidatorAcceptsCorrectOutputs:
    def test_engine_bfs_depths_validate(self, small_rmat):
        res = concurrent_khop(GraphSession(small_rmat), [0], k=None, record_depths=True)
        assert_valid_khop(small_rmat, 0, res.depths[:, 0], k=None)

    def test_engine_khop_depths_validate(self, small_rmat):
        for k in (1, 2, 3):
            res = concurrent_khop(
                GraphSession(small_rmat), [7], k=k, record_depths=True
            )
            assert_valid_khop(small_rmat, 7, res.depths[:, 0], k=k)

    def test_distributed_depths_validate(self, medium_rmat):
        res = concurrent_khop(GraphSession(medium_rmat, num_machines=4), [3], k=3,
                              record_depths=True)
        assert_valid_khop(medium_rmat, 3, res.depths[:, 0], k=3)

    def test_path_graph(self):
        el = path_graph(6, directed=True)
        depths = np.array([0, 1, 2, 3, 4, 5])
        assert validate_khop_depths(el, 0, depths, k=None) == []

    def test_khop_truncation_is_valid(self):
        el = path_graph(6, directed=True)
        depths = np.array([0, 1, 2, -1, -1, -1])
        assert validate_khop_depths(el, 0, depths, k=2) == []


class TestValidatorCatchesCorruption:
    def test_wrong_source_depth(self, tiny_graph):
        depths = np.full(10, -1)
        depths[0] = 1
        assert validate_khop_depths(tiny_graph, 0, depths) != []

    def test_two_roots(self):
        el = path_graph(4, directed=True)
        depths = np.array([0, 0, 1, 2])
        problems = validate_khop_depths(el, 0, depths)
        assert any("depth 0" in p for p in problems)

    def test_level_skip_detected(self):
        el = path_graph(4, directed=True)
        depths = np.array([0, 1, 3, -1])  # vertex 2 skips level 2
        problems = validate_khop_depths(el, 0, depths, k=None)
        assert problems

    def test_orphan_vertex_detected(self):
        el = EdgeList.from_pairs([(0, 1)], num_vertices=3)
        depths = np.array([0, 1, 1])  # vertex 2 visited with no parent
        problems = validate_khop_depths(el, 0, depths, k=None)
        assert any("no parent" in p for p in problems)

    def test_early_stop_detected(self):
        el = path_graph(4, directed=True)
        depths = np.array([0, 1, -1, -1])  # stopped despite budget left
        problems = validate_khop_depths(el, 0, depths, k=None)
        assert any("unvisited" in p for p in problems)

    def test_budget_overrun_detected(self):
        el = path_graph(5, directed=True)
        depths = np.array([0, 1, 2, 3, 4])
        problems = validate_khop_depths(el, 0, depths, k=2)
        assert any("exceeds budget" in p for p in problems)

    def test_shape_mismatch(self, tiny_graph):
        problems = validate_khop_depths(tiny_graph, 0, np.zeros(3))
        assert "shape" in problems[0]

    def test_assert_helper_raises(self):
        el = path_graph(3, directed=True)
        with pytest.raises(AssertionError):
            assert_valid_khop(el, 0, np.array([0, 2, -1]), k=None)


@settings(max_examples=30, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 12)),
        min_size=1, max_size=50,
    ),
    source=st.integers(0, 12),
    k=st.integers(1, 4),
    machines=st.integers(1, 3),
)
def test_engine_outputs_always_validate(pairs, source, k, machines):
    """Whatever the graph, budget and partitioning, the engine's depth
    vector satisfies every structural invariant of a correct k-hop BFS."""
    el = EdgeList.from_pairs(pairs, num_vertices=13)
    res = concurrent_khop(GraphSession(el, num_machines=machines), [source], k=k,
                          record_depths=True)
    assert validate_khop_depths(el, source, res.depths[:, 0], k=k) == []
