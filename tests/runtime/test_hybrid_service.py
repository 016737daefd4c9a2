"""Hybrid planner: index-routed point queries inside the QueryService.

The hybrid mode's whole contract is "same answers, different cost": point
reachability queries route to the resident label index and must return
verdicts bit-identical to the traversal engine's, while enumeration
queries keep the traversal path untouched.
"""

import numpy as np
import pytest

from repro.core.reachability import reachability_queries
from repro.graph.generators import rmat_edges
from repro.runtime.scheduler import QueryService
from repro.runtime.session import GraphSession


@pytest.fixture(scope="module")
def session():
    return GraphSession(rmat_edges(8, 2000, seed=17), num_machines=3)


def point_wave(session, n, seed):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, session.num_vertices, n),
        rng.integers(0, session.num_vertices, n),
    )


class TestHybridRouting:
    def test_verdicts_bit_identical_to_traversal_planner(self, session):
        sources, targets = point_wave(session, 40, seed=0)
        reports = {}
        for planner in ("traversal", "hybrid"):
            svc = QueryService(session, k=3, planner=planner)
            svc.submit_many(sources, targets=targets)
            reports[planner] = svc.drain()
        np.testing.assert_array_equal(
            reports["hybrid"].reachable, reports["traversal"].reachable
        )
        assert (reports["hybrid"].routes == "index").all()
        assert (reports["traversal"].routes == "traversal").all()

    def test_mixed_wave_routes_by_query_shape(self, session):
        sources, targets = point_wave(session, 10, seed=1)
        svc = QueryService(session, k=2, planner="hybrid")
        svc.submit_many(sources, targets=targets)
        svc.submit_many(sources[:4])  # enumeration: no targets
        rep = svc.drain()
        assert rep.num_queries == 14
        point = rep.targets >= 0
        assert (rep.routes[point] == "index").all()
        assert (rep.routes[~point] == "traversal").all()
        # enumeration queries carry no verdict bit
        assert (rep.reachable[~point] == -1).all()
        assert set(np.unique(rep.reachable[point])) <= {0, 1}

    def test_cross_check_passes_on_exact_index(self, session):
        sources, targets = point_wave(session, 30, seed=2)
        svc = QueryService(
            session, k=3, planner="hybrid", cross_check=True
        )
        svc.submit_many(sources, targets=targets)
        rep = svc.drain()  # raises AssertionError on any mismatch
        assert rep.num_queries == 30

    def test_index_lane_skips_the_traversal_queue(self, session):
        """Index lookups start at arrival — no queueing behind each other."""
        sources, targets = point_wave(session, 20, seed=3)
        svc = QueryService(session, k=3, planner="hybrid")
        arrivals = np.linspace(0.0, 1.0, sources.size)
        svc.submit_many(sources, arrivals, targets=targets)
        rep = svc.drain()
        np.testing.assert_allclose(rep.queueing_seconds, 0.0, atol=1e-15)
        assert (rep.response_seconds > 0).all()

    def test_clock_persists_across_drains(self, session):
        sources, targets = point_wave(session, 8, seed=4)
        svc = QueryService(session, k=2, planner="hybrid")
        svc.submit_many(sources, targets=targets)
        clock_after_first = svc.drain().clock_seconds
        svc.submit_many(sources[:2])  # enumeration wave
        rep = svc.drain()
        assert (rep.start_seconds >= clock_after_first - 1e-12).all()


class TestValidation:
    def test_unknown_planner_rejected(self, session):
        with pytest.raises(ValueError, match="planner"):
            QueryService(session, k=2, planner="oracle")

    def test_cross_check_requires_hybrid(self, session):
        with pytest.raises(ValueError, match="cross_check"):
            QueryService(session, k=2, cross_check=True)

    def test_submit_target_out_of_range(self, session):
        svc = QueryService(session, k=2)
        with pytest.raises(ValueError, match="target vertex out of range"):
            svc.submit(0, target=session.num_vertices)

    def test_submit_many_targets_must_align(self, session):
        svc = QueryService(session, k=2)
        with pytest.raises(ValueError, match="targets must match sources"):
            svc.submit_many([0, 1, 2], targets=[0])


class TestReportPercentiles:
    def test_percentiles_match_numpy(self, session):
        sources, targets = point_wave(session, 25, seed=6)
        svc = QueryService(session, k=3, planner="hybrid")
        svc.submit_many(sources, targets=targets)
        rep = svc.drain()
        for value, q in ((rep.p50(), 50), (rep.p95(), 95), (rep.p99(), 99)):
            assert value == pytest.approx(
                float(np.percentile(rep.response_seconds, q))
            )
        assert rep.p50() <= rep.p95() <= rep.p99()

    def test_empty_drain_is_nan_free_and_warning_free(self, session):
        """Zero queries is a legal steady state: every summary accessor
        answers 0.0 and nothing trips numpy's empty-slice machinery."""
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = QueryService(session, k=2).drain()
            assert rep.num_queries == 0
            assert rep.mean_response == 0.0
            assert rep.max_response == 0.0
            assert rep.p50() == rep.p95() == rep.p99() == 0.0
            assert rep.p99(lane="interactive") == 0.0
            assert rep.makespan == 0.0
            text = repr(rep)
        assert "nan" not in text.lower()
        assert "queries=0" in text


class TestTargetValidation:
    """check_targets: the reach() entry points validate like check_sources."""

    def test_count_mismatch(self, session):
        with pytest.raises(ValueError, match="need one target per source"):
            reachability_queries(session, [0, 1], [2], 2)

    def test_bounds(self, session):
        with pytest.raises(ValueError, match="target vertex out of range"):
            reachability_queries(session, [0], [session.num_vertices], 2)

    def test_non_integer_targets(self, session):
        with pytest.raises(ValueError, match="targets must be integer"):
            reachability_queries(session, [0], [1.5], 2)
        with pytest.raises(ValueError, match="targets must be integer"):
            reachability_queries(session, [0], ["a"], 2)

    def test_integral_floats_accepted(self, session):
        res = reachability_queries(session, [0], [np.float64(1.0)], 2)
        assert res.targets[0] == 1
