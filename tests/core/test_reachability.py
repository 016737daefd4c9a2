"""Tests for pairwise s->t reachability queries (the title query)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.oracle import oracle_bfs_levels
from repro.core.frontier import MAX_WIDE_BATCH
from repro.core.khop import concurrent_khop
from repro.core.reachability import reachability_queries
from repro.graph import EdgeList, path_graph, range_partition
from repro.runtime.session import GraphSession


class TestBasics:
    def test_source_equals_target(self, small_rmat):
        res = reachability_queries(GraphSession(small_rmat), [5], [5], k=3)
        assert res.reachable[0]
        assert res.hops[0] == 0
        assert res.resolution_seconds[0] == 0.0

    def test_direct_edge(self, tiny_graph):
        res = reachability_queries(GraphSession(tiny_graph), [0], [1], k=1)
        assert res.reachable[0] and res.hops[0] == 1

    def test_beyond_budget(self):
        p = path_graph(6, directed=True)
        res = reachability_queries(GraphSession(p), [0], [5], k=3)
        assert not res.reachable[0]
        assert res.hops[0] == -1

    def test_exactly_at_budget(self):
        p = path_graph(6, directed=True)
        res = reachability_queries(GraphSession(p), [0], [5], k=5)
        assert res.reachable[0] and res.hops[0] == 5

    def test_unreachable_unbounded(self):
        el = EdgeList.from_pairs([(0, 1)], num_vertices=4)
        res = reachability_queries(GraphSession(el), [0], [3], k=None)
        assert not res.reachable[0]

    def test_mismatched_pairs_rejected(self, small_rmat):
        with pytest.raises(ValueError):
            reachability_queries(GraphSession(small_rmat), [0, 1], [2], k=2)

    def test_out_of_range_rejected(self, small_rmat):
        with pytest.raises(ValueError):
            reachability_queries(GraphSession(small_rmat), [0], [10_000], k=2)

    def test_too_many_pairs_rejected(self, small_rmat):
        pairs = [i % small_rmat.num_vertices for i in range(MAX_WIDE_BATCH + 1)]
        with pytest.raises(ValueError):
            reachability_queries(GraphSession(small_rmat), pairs, pairs, 2)


class TestCorrectness:
    def test_hops_equal_bfs_distance(self, small_rmat):
        levels = oracle_bfs_levels(small_rmat, 0)
        targets = [1, 7, 50, 200]
        res = reachability_queries(
            GraphSession(small_rmat, num_machines=3), [0] * 4, targets, k=None
        )
        for q, t in enumerate(targets):
            if levels[t] >= 0:
                assert res.reachable[q]
                assert res.hops[q] == levels[t]
            else:
                assert not res.reachable[q]

    def test_machine_count_invariant(self, small_rmat):
        pairs_s = [0, 9, 33, 7]
        pairs_t = [100, 3, 9, 250]
        base = reachability_queries(GraphSession(small_rmat), pairs_s, pairs_t, k=3)
        multi = reachability_queries(
            GraphSession(small_rmat, num_machines=4), pairs_s, pairs_t, k=3
        )
        assert (base.reachable == multi.reachable).all()
        assert (base.hops == multi.hops).all()

    def test_batch_matches_individual(self, small_rmat):
        rng = np.random.default_rng(1)
        S = rng.integers(0, 256, 10)
        T = rng.integers(0, 256, 10)
        batch = reachability_queries(
            GraphSession(small_rmat, num_machines=2), S, T, k=3
        )
        for q in range(10):
            solo = reachability_queries(GraphSession(small_rmat), [S[q]], [T[q]], k=3)
            assert batch.reachable[q] == solo.reachable[0]
            assert batch.hops[q] == solo.hops[0]

    @settings(max_examples=25, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 15), st.integers(0, 15)),
            min_size=1, max_size=50,
        ),
        s=st.integers(0, 15),
        t=st.integers(0, 15),
        k=st.integers(0, 5),
    )
    def test_property_matches_bfs(self, pairs, s, t, k):
        el = EdgeList.from_pairs(pairs, num_vertices=16)
        levels = oracle_bfs_levels(el, s)
        res = reachability_queries(GraphSession(el, num_machines=2), [s], [t], k=k)
        expected = 0 <= levels[t] <= k
        assert bool(res.reachable[0]) == expected

    @settings(max_examples=20, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 23), st.integers(0, 23)),
            min_size=1, max_size=80,
        ),
        width=st.integers(1, MAX_WIDE_BATCH),
        k=st.one_of(st.none(), st.integers(0, 5)),
        machines=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    def test_property_any_width_matches_khop_depths(
        self, pairs, width, k, machines, seed
    ):
        """Verdicts and hops of a batch of any width up to one cache line
        equal the k-hop batch's recorded depths at each target."""
        el = EdgeList.from_pairs(pairs, num_vertices=24)
        rng = np.random.default_rng(seed)
        sources, targets = rng.integers(0, 24, (2, width))
        res = reachability_queries(
            GraphSession(el, num_machines=machines), sources, targets, k
        )
        depths = concurrent_khop(
            GraphSession(el, num_machines=machines), sources, k, record_depths=True
        ).depths[targets, np.arange(width)]
        np.testing.assert_array_equal(res.reachable, depths >= 0)
        np.testing.assert_array_equal(res.hops, depths)


class TestEarlyTermination:
    def test_resolved_queries_stop_consuming_work(self, medium_rmat):
        """A batch where every target sits one hop away must scan far fewer
        edges than the equivalent open-ended k-hop batch."""
        pg = range_partition(medium_rmat, 2)
        sources, targets = [], []
        for s in range(medium_rmat.num_vertices):
            nbrs = pg.partition_of(s).out_csr
            local = s - pg.partition_of(s).lo
            out = nbrs.neighbors(local)
            if out.size:
                sources.append(s)
                targets.append(int(out[0]))
            if len(sources) == 16:
                break
        reach = reachability_queries(GraphSession(pg), sources, targets, k=4)
        khop = concurrent_khop(GraphSession(pg), sources, k=4)
        assert reach.reachable.all()
        assert (reach.hops == 1).all()
        assert reach.total_edges_scanned < khop.total_edges_scanned / 2

    def test_resolution_times_ordered_by_distance(self):
        p = path_graph(20, directed=True)
        res = reachability_queries(
            GraphSession(p, num_machines=2), [0, 0], [2, 15], k=None
        )
        assert res.resolution_seconds[0] < res.resolution_seconds[1]


class TestFacade:
    def test_cgraph_reach(self, small_rmat):
        from repro.core.cgraph import CGraph

        g = CGraph(small_rmat, num_machines=2)
        res = g.reach([0], [7], k=3)
        levels = oracle_bfs_levels(small_rmat, 0)
        assert bool(res.reachable[0]) == (0 <= levels[7] <= 3)

    def test_cgraph_core_numbers(self, small_rmat):
        import networkx as nx

        from repro.core.cgraph import CGraph

        g = CGraph(small_rmat, num_machines=3)
        res = g.core_numbers()
        ref = nx.core_number(
            nx.Graph(small_rmat.symmetrize().remove_self_loops().to_networkx())
        )
        for v, c in ref.items():
            assert res.core[v] == c
