"""Tests for the GAS abstraction and PageRank (Listing 3)."""

import numpy as np
import pytest

from repro.baselines.oracle import oracle_pagerank
from repro.core.gas import VertexProgram, run_gas
from repro.core.pagerank import PageRankProgram, pagerank
from repro.graph import EdgeList, complete_graph, star_graph
from repro.runtime.session import GraphSession


class MinLabelProgram(VertexProgram):
    """Connected-components by min-label propagation — a second GAS program
    exercising a non-additive combiner."""

    combiner = np.minimum
    identity = np.inf

    def initial_values(self, num_vertices: int) -> np.ndarray:
        return np.arange(num_vertices, dtype=np.float64)

    def scatter(self, values, part):
        return values

    def apply(self, values, gathered, part):
        return np.minimum(values, gathered)

    def has_converged(self, old, new):
        return bool(np.array_equal(old, new))


class TestPageRank:
    def test_matches_networkx_ranking(self, small_rmat):
        run = pagerank(GraphSession(small_rmat), iterations=50)
        ours = run.values / run.values.sum()
        theirs = oracle_pagerank(small_rmat)
        assert np.corrcoef(ours, theirs)[0, 1] > 0.999

    def test_distribution_invariant_under_machines(self, small_rmat):
        a = pagerank(GraphSession(small_rmat, num_machines=1), iterations=10).values
        b = pagerank(GraphSession(small_rmat, num_machines=4), iterations=10).values
        np.testing.assert_allclose(a, b, rtol=1e-10)

    def test_uniform_on_regular_graph(self):
        el = complete_graph(8)
        run = pagerank(GraphSession(el), iterations=20)
        np.testing.assert_allclose(run.values, run.values[0])

    def test_hub_ranks_highest_on_star(self):
        el = star_graph(10)
        run = pagerank(GraphSession(el), iterations=30)
        assert run.values.argmax() == 0

    def test_dangling_vertices_keep_base_rank(self):
        el = EdgeList.from_pairs([(0, 1)], num_vertices=3)
        run = pagerank(GraphSession(el), iterations=10, damping=0.85)
        # vertex 2 receives nothing and sends nothing
        assert run.values[2] == pytest.approx(0.15)

    def test_damping_validation(self):
        with pytest.raises(ValueError):
            PageRankProgram(damping=1.5)

    def test_tolerance_stops_early(self, small_rmat):
        run = pagerank(GraphSession(small_rmat), iterations=500, tolerance=1e-8)
        assert run.iterations < 500

    def test_ten_iterations_default(self, small_rmat):
        run = pagerank(GraphSession(small_rmat))
        assert run.iterations == 10

    def test_virtual_time_accounted(self, small_rmat):
        run = pagerank(GraphSession(small_rmat, num_machines=3), iterations=5)
        assert run.virtual_seconds > 0
        total = run.engine_result.total_stats()
        # every iteration scans all local out-edges on some machine
        assert total.edges_scanned == 5 * small_rmat.num_edges

    def test_async_mode_same_values(self, small_rmat):
        """Gathered sums are order-independent, so async delivery changes the
        cost model, never the answer."""
        run = pagerank(GraphSession(small_rmat, num_machines=3), iterations=10,
                       asynchronous=True)
        sync = pagerank(GraphSession(small_rmat, num_machines=3), iterations=10)
        np.testing.assert_allclose(run.values, sync.values, rtol=1e-12)

    def test_async_costs_less_virtual_time_per_iteration(self, small_rmat):
        a = pagerank(GraphSession(small_rmat, num_machines=3), iterations=10,
                     asynchronous=True)
        s = pagerank(GraphSession(small_rmat, num_machines=3), iterations=10)
        assert a.virtual_seconds < s.virtual_seconds


class TestGASGeneric:
    def test_min_label_components(self):
        # two components: {0,1,2} and {3,4}
        el = EdgeList.from_pairs(
            [(0, 1), (1, 0), (1, 2), (2, 1), (3, 4), (4, 3)], num_vertices=5
        )
        run = run_gas(
            GraphSession(el, num_machines=2), MinLabelProgram(), iterations=20
        )
        assert run.values.tolist() == [0, 0, 0, 3, 3]

    def test_min_label_converges_early(self, small_rmat):
        run = run_gas(
            GraphSession(small_rmat.symmetrize()), MinLabelProgram(), iterations=100
        )
        assert run.iterations < 100

    def test_min_label_matches_networkx_components(self, small_er):
        import networkx as nx

        sym = small_er.symmetrize()
        run = run_gas(
            GraphSession(sym, num_machines=3), MinLabelProgram(), iterations=100
        )
        g = nx.Graph(sym.to_networkx())
        for comp in nx.connected_components(g):
            labels = {run.values[v] for v in comp}
            assert len(labels) == 1

    def test_machine_split_does_not_change_gas_result(self, small_er):
        sym = small_er.symmetrize()
        a = run_gas(GraphSession(sym, num_machines=1), MinLabelProgram(), 50).values
        b = run_gas(GraphSession(sym, num_machines=5), MinLabelProgram(), 50).values
        assert (a == b).all()
