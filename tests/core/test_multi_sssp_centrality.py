"""Tests for concurrent multi-query SSSP and BFS-batch centrality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.oracle import oracle_sssp
from repro.core.centrality import closeness_centrality, harmonic_centrality
from repro.core.khop import concurrent_khop
from repro.core.multi_sssp import concurrent_sssp
from repro.core.sssp import sssp
from repro.errors import InvalidQueryError
from repro.graph import EdgeList, path_graph, range_partition, star_graph
from repro.runtime.session import GraphSession


def _weighted(el, seed=0, lo=0.1, hi=4.0):
    rng = np.random.default_rng(seed)
    return EdgeList(el.src, el.dst, el.num_vertices,
                    rng.uniform(lo, hi, el.num_edges))


class TestConcurrentSSSP:
    def test_each_column_matches_dijkstra(self, small_rmat):
        w = _weighted(small_rmat)
        sources = [0, 9, 33, 100]
        res = concurrent_sssp(GraphSession(w, num_machines=3), sources)
        for q, s in enumerate(sources):
            np.testing.assert_allclose(res.distances[:, q], oracle_sssp(w, s))

    def test_matches_single_query_engine(self, small_rmat):
        w = _weighted(small_rmat, seed=1)
        res = concurrent_sssp(GraphSession(w, num_machines=2), [7])
        single = sssp(GraphSession(w, num_machines=2), 7)
        np.testing.assert_allclose(res.distances[:, 0], single.distances)

    def test_hop_budget(self):
        el = EdgeList.from_pairs(
            [(0, 1), (1, 2), (2, 3), (0, 3)], weights=[1, 1, 1, 10]
        )
        res = concurrent_sssp(GraphSession(el), [0, 1], max_hops=1)
        assert res.distances[3, 0] == 10  # forced onto the shortcut
        assert np.isinf(res.distances[3, 1])

    def test_shared_sweep_cheaper_than_serial(self, medium_rmat):
        """Overlapping queries share edge relaxations (the weighted analog
        of bit-parallel sharing)."""
        w = _weighted(medium_rmat, seed=2)
        pg = range_partition(w, 2)
        sources = list(range(16))
        batch = concurrent_sssp(GraphSession(pg), sources)
        serial_edges = sum(
            sssp(GraphSession(pg), s).engine_result.total_stats().edges_scanned
            for s in sources
        )
        assert batch.total_edges_scanned < serial_edges

    def test_machine_invariance(self, small_rmat):
        w = _weighted(small_rmat, seed=3)
        a = concurrent_sssp(GraphSession(w, num_machines=1), [0, 5]).distances
        b = concurrent_sssp(GraphSession(w, num_machines=4), [0, 5]).distances
        np.testing.assert_allclose(a, b)

    def test_unweighted_rejected(self, small_rmat):
        with pytest.raises(ValueError):
            concurrent_sssp(GraphSession(small_rmat), [0])

    def test_unweighted_refused_at_the_door(self, small_rmat):
        """Typed, and before ``prepare()`` or any seeding: the session has
        run nothing and serves the next batch."""
        with GraphSession(small_rmat, num_machines=3) as sess:
            for run in (lambda: concurrent_sssp(sess, [0, 9]), lambda: sssp(sess, 9)):
                with pytest.raises(InvalidQueryError, match="weighted graph"):
                    run()
            assert sess.batches_run == 0
            got = sess.khop([0, 9], 2)
        want = concurrent_khop(GraphSession(small_rmat, num_machines=3), [0, 9], 2)
        np.testing.assert_array_equal(got.reached, want.reached)

    def test_batch_limits(self, small_rmat):
        w = _weighted(small_rmat)
        with pytest.raises(ValueError):
            concurrent_sssp(GraphSession(w), [])
        with pytest.raises(ValueError):
            concurrent_sssp(GraphSession(w), list(range(65)))

    @settings(max_examples=15, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 10), st.integers(0, 10)),
            min_size=1, max_size=30,
        ),
        seed=st.integers(0, 50),
    )
    def test_property_matches_dijkstra(self, pairs, seed):
        el = EdgeList.from_pairs(pairs, num_vertices=11).deduplicate()
        w = _weighted(el, seed=seed)
        res = concurrent_sssp(GraphSession(w, num_machines=2), [0, 5])
        np.testing.assert_allclose(res.distances[:, 0], oracle_sssp(w, 0))
        np.testing.assert_allclose(res.distances[:, 1], oracle_sssp(w, 5))


class TestCentrality:
    def test_closeness_matches_networkx(self, small_er):
        import networkx as nx

        sym = small_er.symmetrize()
        res = closeness_centrality(GraphSession(sym, num_machines=2))
        ref = nx.closeness_centrality(sym.to_networkx(), wf_improved=True)
        theirs = np.array([ref[v] for v in range(sym.num_vertices)])
        np.testing.assert_allclose(res.scores, theirs, atol=1e-12)

    def test_harmonic_matches_networkx(self, small_er):
        import networkx as nx

        sym = small_er.symmetrize()
        roots = [0, 3, 7, 11]
        res = harmonic_centrality(GraphSession(sym, num_machines=2), roots=roots)
        # our scores use outgoing distances; reverse the graph for networkx
        ref = nx.harmonic_centrality(sym.to_networkx().reverse(), nbunch=roots)
        np.testing.assert_allclose(
            res.scores, [ref[v] for v in roots], atol=1e-9
        )

    def test_star_center_most_central(self):
        el = star_graph(12)
        res = closeness_centrality(GraphSession(el))
        assert res.scores.argmax() == 0
        assert res.top(1)[0][0] == 0

    def test_path_ends_least_central(self):
        el = path_graph(9)
        res = closeness_centrality(GraphSession(el))
        assert res.scores.argmax() == 4  # the middle
        assert res.scores[0] == res.scores[8] == res.scores.min()

    def test_sampled_roots(self, small_rmat):
        res = closeness_centrality(GraphSession(small_rmat), roots=[0, 1, 2])
        assert res.scores.shape == (3,)
        assert res.virtual_seconds > 0

    def test_isolated_root_scores_zero(self):
        el = EdgeList.from_pairs([(0, 1)], num_vertices=3)
        res = closeness_centrality(GraphSession(el), roots=[2])
        assert res.scores[0] == 0.0

    def test_more_than_64_roots_batch(self, small_rmat):
        roots = list(range(100))
        res = harmonic_centrality(GraphSession(small_rmat, num_machines=2), roots=roots)
        assert res.scores.shape == (100,)
        # spot check one against a direct single run
        solo = harmonic_centrality(GraphSession(small_rmat), roots=[roots[77]])
        assert res.scores[77] == pytest.approx(solo.scores[0])

    @pytest.mark.parametrize("fn", [closeness_centrality, harmonic_centrality])
    @pytest.mark.parametrize("roots", [[1.7], ["3"], [-1], [10_000]])
    def test_bad_roots_refused(self, small_rmat, fn, roots):
        with pytest.raises(InvalidQueryError, match="roots|root vertex"):
            fn(GraphSession(small_rmat), roots=roots)


class TestNewGeneratorsAnalysis:
    def test_barabasi_albert_sizes(self):
        from repro.graph import barabasi_albert

        el = barabasi_albert(200, 3, seed=1)
        assert el.num_vertices == 200
        # symmetrised: at least 2 * m * (n - m) directed edges minus dedups
        assert el.num_edges > 2 * 3 * 150

    def test_barabasi_albert_power_tail(self):
        from repro.graph import barabasi_albert

        el = barabasi_albert(800, 2, seed=2)
        deg = el.out_degrees()
        assert deg.max() > 8 * deg.mean()

    def test_barabasi_albert_validation(self):
        from repro.graph import barabasi_albert

        with pytest.raises(ValueError):
            barabasi_albert(5, 0)
        with pytest.raises(ValueError):
            barabasi_albert(5, 5)

    def test_average_clustering_matches_networkx(self, small_er):
        import networkx as nx

        from repro.graph.analysis import average_clustering

        sym = small_er.symmetrize().remove_self_loops()
        ours = average_clustering(sym)
        theirs = nx.average_clustering(nx.Graph(sym.to_networkx()))
        assert ours == pytest.approx(theirs, abs=1e-12)

    def test_smallworld_clusters_more_than_random(self):
        from repro.graph import erdos_renyi, watts_strogatz
        from repro.graph.analysis import average_clustering

        ws = watts_strogatz(300, 6, 0.05, seed=1)
        er = erdos_renyi(300, ws.num_edges, seed=1)
        assert average_clustering(ws) > 3 * average_clustering(er)

    def test_degree_histogram_total(self, small_rmat):
        from repro.graph.analysis import degree_histogram

        edges_arr, counts = degree_histogram(small_rmat)
        assert counts.sum() == small_rmat.num_vertices

    def test_degree_histogram_empty_graph(self):
        from repro.graph.analysis import degree_histogram

        edges_arr, counts = degree_histogram(EdgeList.empty(4))
        assert counts.sum() == 4
