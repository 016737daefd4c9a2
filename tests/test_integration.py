"""Cross-module integration tests and failure-injection scenarios.

These exercise complete user workflows (ingest → partition → query → report)
and adversarial graph shapes end to end, spanning graph/runtime/core/bench.
"""

import numpy as np

from repro.baselines.oracle import oracle_khop_reach
from repro.bench.timing import ResponseTimes
from repro.bench.workload import QueryWorkload
from repro.core.kcore import core_numbers
from repro.core.khop import concurrent_khop
from repro.core.pagerank import pagerank
from repro.graph import (
    EdgeList,
    complete_graph,
    graph500_kronecker,
    path_graph,
    range_partition,
    star_graph,
)
from repro.graph.io import read_edge_list, write_edge_list
from repro.runtime.scheduler import (
    SLOTS_PER_MACHINE,
    QueryService,
    simulate_fifo_pool,
)
from repro.runtime.session import GraphSession


class TestEndToEndWorkflows:
    def test_ingest_partition_query_report(self, tmp_path, medium_rmat):
        """The full pipeline a user runs: file -> session -> workload -> stats."""
        path = tmp_path / "edges.txt"
        write_edge_list(medium_rmat, path)
        edges = read_edge_list(path)
        relabelled, mapping = edges.reindex("degree")
        sess = GraphSession(relabelled, num_machines=4, edge_sets=True)
        workload = QueryWorkload.generate(edges, 20, k=3, roots_per_query=1, seed=0)
        svc = QueryService(sess, 3)
        svc.submit_many(mapping[workload.all_roots()])
        stream = svc.drain()
        pooled = simulate_fifo_pool(
            stream.response_seconds, 4 * SLOTS_PER_MACHINE
        )
        rt = ResponseTimes("svc", pooled)
        assert rt.count == 20
        assert rt.max >= rt.percentile(50) >= rt.min >= 0

    def test_all_engines_agree_on_one_graph(self, small_rmat):
        """Optimised, naive, Titan-like and oracle answers coincide."""
        from repro.baselines.graphdb import TitanLikeDB
        from repro.baselines.naive import naive_distributed_khop

        source, k = 9, 3
        expected = oracle_khop_reach(small_rmat, source, k)
        engine = concurrent_khop(GraphSession(small_rmat, num_machines=3), [source], k,
                                 record_depths=True)
        engine_set = set(np.nonzero(engine.depths[:, 0] >= 0)[0].tolist())
        assert engine_set == expected
        assert TitanLikeDB(small_rmat).khop_query(source, k) == expected
        assert naive_distributed_khop(small_rmat, source, k, 3) == expected

    def test_pagerank_invariant_to_representation(self, small_rmat):
        """Partitions, edge-sets and reindexing never change PageRank mass."""
        base = pagerank(GraphSession(small_rmat), iterations=10).values
        re, mapping = small_rmat.reindex("degree")
        re_run = pagerank(GraphSession(re, num_machines=3), iterations=10).values
        np.testing.assert_allclose(np.sort(base), np.sort(re_run), rtol=1e-9)
        np.testing.assert_allclose(base, re_run[mapping], rtol=1e-9)
        # the edge-set layout keeps each target's fold order: bit-identical
        blocked = GraphSession(small_rmat, num_machines=3, edge_sets=True)
        flat = GraphSession(small_rmat, num_machines=3)
        assert np.array_equal(
            pagerank(blocked, iterations=10).values,
            pagerank(flat, iterations=10).values,
        )

    def test_query_then_iterate_same_handle(self, small_rmat):
        """The paper's deployment story: one build serves both app classes."""
        sess = GraphSession(small_rmat, num_machines=3, edge_sets=True)
        khop = concurrent_khop(sess, [0, 5], 2)
        ranks = pagerank(sess, iterations=5)
        cores = core_numbers(sess)
        assert khop.reached.min() >= 1
        assert ranks.values.size == sess.num_vertices
        assert cores.core.size == sess.num_vertices


class TestAdversarialGraphs:
    def test_empty_graph_everywhere(self):
        el = EdgeList.empty(6)
        sess = GraphSession(el, num_machines=3)
        res = concurrent_khop(sess, [2], 3)
        assert res.reached[0] == 1
        ranks = pagerank(sess, iterations=3)
        np.testing.assert_allclose(ranks.values, 0.15)

    def test_single_vertex_graph(self):
        el = EdgeList.empty(1)
        res = concurrent_khop(GraphSession(el), [0], k=5)
        assert res.reached[0] == 1

    def test_self_loops_only(self):
        el = EdgeList.from_pairs([(0, 0), (1, 1)], num_vertices=2)
        res = concurrent_khop(GraphSession(el), [0], k=3)
        assert res.reached[0] == 1  # a self loop adds nothing new

    def test_disconnected_components(self):
        el = EdgeList.from_pairs([(0, 1), (2, 3)], num_vertices=4)
        res = concurrent_khop(GraphSession(el), [0, 2], k=5)
        assert res.reached.tolist() == [2, 2]

    def test_star_hub_query_floods_one_level(self):
        el = star_graph(1000)
        res = concurrent_khop(GraphSession(el, num_machines=5), [0], k=1)
        assert res.reached[0] == 1001
        assert res.completion_level[0] == 1

    def test_long_path_many_supersteps(self):
        el = path_graph(200, directed=True)
        res = concurrent_khop(GraphSession(el, num_machines=4), [0], k=None)
        assert res.supersteps == 200  # one hop per superstep + final check
        assert res.reached[0] == 200

    def test_dense_graph_one_superstep_covers_all(self):
        el = complete_graph(40)
        res = concurrent_khop(GraphSession(el, num_machines=3), [0], k=1)
        assert res.reached[0] == 40

    def test_extreme_skew_partitioning(self):
        """One vertex owning half of all edges still balances by edges."""
        hub_edges = [(0, i) for i in range(1, 500)]
        tail_edges = [(i, i + 1) for i in range(1, 499)]
        el = EdgeList.from_pairs(hub_edges + tail_edges)
        pg = range_partition(el, 4)
        assert pg.edge_balance() < 2.5
        res = concurrent_khop(GraphSession(pg), [0], 2)
        assert res.reached[0] == len(oracle_khop_reach(el, 0, 2))

    def test_all_sources_identical_full_width(self, small_rmat):
        res = concurrent_khop(GraphSession(small_rmat), [7] * 64, k=2)
        assert (res.reached == res.reached[0]).all()

    def test_graph_with_sink_heavy_structure(self):
        """All edges point into one sink: traversals die immediately."""
        el = EdgeList.from_pairs([(i, 99) for i in range(99)])
        res = concurrent_khop(GraphSession(el), [0, 99], k=3)
        assert res.reached[0] == 2  # 0 -> sink
        assert res.reached[1] == 1  # sink has no out-edges

    def test_weighted_zero_weights_sssp(self):
        from repro.core.sssp import sssp

        el = EdgeList.from_pairs([(0, 1), (1, 2)], weights=[0.0, 0.0])
        res = sssp(GraphSession(el), 0)
        assert res.distances.tolist() == [0.0, 0.0, 0.0]


class TestScaleStress:
    def test_wide_batch_on_generated_graph(self):
        el = graph500_kronecker(11, edgefactor=8, seed=5).remove_self_loops()
        res = concurrent_khop(GraphSession(el, num_machines=6), list(range(64)), k=3)
        assert res.num_queries == 64
        # spot-check a few against the oracle
        for q in (0, 31, 63):
            assert res.reached[q] == len(oracle_khop_reach(el, q, 3))

    def test_many_machines_relative_to_graph(self, small_rmat):
        res = concurrent_khop(GraphSession(small_rmat, num_machines=32), [0], k=3)
        base = concurrent_khop(GraphSession(small_rmat, num_machines=1), [0], k=3)
        assert res.reached[0] == base.reached[0]

    def test_pagerank_matches_independent_dense_reference(self):
        """Cross-check the distributed GAS PageRank against a 10-line dense
        reimplementation of the exact Listing 3 recurrence (the networkx
        oracle treats dangling mass differently, so the strongest check is
        an independent implementation of the *same* formulation)."""
        el = graph500_kronecker(10, edgefactor=8, seed=9).remove_self_loops()
        run = pagerank(GraphSession(el, num_machines=4), iterations=20)
        n = el.num_vertices
        outdeg = el.out_degrees().astype(float)
        ref = np.full(n, 0.15)
        for _ in range(20):
            contrib = np.where(outdeg > 0, ref / np.maximum(outdeg, 1), 0.0)
            gathered = np.bincount(el.dst, weights=contrib[el.src], minlength=n)
            ref = 0.15 + 0.85 * gathered
        np.testing.assert_allclose(run.values, ref, rtol=1e-9)
