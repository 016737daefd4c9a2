"""IndexPlanner: routing, verdict fidelity and virtual-time accounting.

The planner's contract is that an index answer is indistinguishable from a
traversal answer (bit-identical verdicts) while being charged to the same
calibrated cost model — so hybrid service reports stay comparable with
pure-traversal ones.
"""

import numpy as np
import pytest

from repro.core.reachability import reachability_queries
from repro.graph.generators import rmat_edges
from repro.runtime.netmodel import StepStats
from repro.runtime.session import GraphSession


@pytest.fixture(scope="module")
def session():
    return GraphSession(rmat_edges(7, 900, seed=8), num_machines=3)


@pytest.fixture(scope="module")
def planner(session):
    return session.index_planner()


def random_pairs(session, n, seed):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, session.num_vertices, n),
        rng.integers(0, session.num_vertices, n),
    )


class TestVerdictFidelity:
    @pytest.mark.parametrize("k", [0, 1, 3, None])
    def test_bit_identical_to_traversal(self, session, planner, k):
        sources, targets = random_pairs(session, 64, seed=k or 99)
        answer = planner.answer(sources, targets, k)
        res = reachability_queries(session, sources, targets, k)
        np.testing.assert_array_equal(answer.reachable, res.reachable)

    def test_session_index_is_cached(self, session):
        assert session.has_index
        assert session.index() is session.index()
        build = session.index_build()
        assert build.build_seconds > 0.0


class TestAccounting:
    def test_service_seconds_follow_cost_model(self, session, planner):
        sources, targets = random_pairs(session, 16, seed=0)
        answer = planner.answer(sources, targets, 3)
        entries = planner.labels.entries_scanned(sources, targets)
        np.testing.assert_array_equal(answer.entries_scanned, entries)
        want = [
            session.netmodel.compute_seconds(
                StepStats(edges_scanned=int(e), vertices_updated=1)
            )
            for e in entries
        ]
        np.testing.assert_allclose(answer.service_seconds, want)
        assert answer.total_seconds == pytest.approx(sum(want))
        assert answer.num_queries == 16

    def test_lookup_is_cheaper_than_traversal(self, session, planner):
        sources, targets = random_pairs(session, 32, seed=5)
        answer = planner.answer(sources, targets, 3)
        res = reachability_queries(session, sources, targets, 3)
        assert answer.total_seconds < res.virtual_seconds
