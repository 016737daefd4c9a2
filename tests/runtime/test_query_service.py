"""QueryService: the online admission loop over a resident GraphSession.

The service must (a) produce the same FIFO-pool recurrence the offline
``simulate_fifo_pool`` simulator computes, (b) run the batch discipline on
*real* engine executions whose completion offsets order responses within a
batch, and (c) keep its virtual clock across drains — one session, many
waves.
"""

import numpy as np
import pytest

from repro.baselines.oracle import oracle_bfs_levels
from repro.core.frontier import MAX_WIDE_BATCH
from repro.graph.generators import rmat_edges
from repro.qos import LaneSpec, QosConfig
from repro.runtime.scheduler import (
    SLOTS_PER_MACHINE,
    QueryService,
    simulate_fifo_pool,
)
from repro.runtime.session import GraphSession


@pytest.fixture(scope="module")
def session():
    edges = rmat_edges(9, 4000, seed=13)
    return GraphSession(edges, num_machines=3)


def _sources(session, n, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, session.num_vertices, n)


class TestPoolDiscipline:
    def test_agrees_with_offline_simulator(self, session):
        """The online pool is the exact recurrence simulate_fifo_pool runs —
        bit for bit, on spread arrivals and on the all-at-zero burst the
        paper-figure drivers submit.  The only pin of online == offline."""
        sources = _sources(session, 50, 0)
        rng = np.random.default_rng(1)
        service_times = np.array(
            [session.khop_service(int(s), 3)[0] for s in sources]
        )
        for arrivals in (np.sort(rng.uniform(0.0, 2.0, sources.size)), None):
            svc = QueryService(session, k=3, discipline="pool", concurrency=4)
            svc.submit_many(sources, arrivals)
            report = svc.drain()
            offline = simulate_fifo_pool(service_times, 4, arrivals)
            np.testing.assert_array_equal(report.response_seconds, offline)

    def test_serialized_is_width_one_pool(self, session):
        sources = _sources(session, 10, 2)
        svc = QueryService(session, k=2, discipline="pool", concurrency=1)
        svc.submit_many(sources)
        report = svc.drain()
        service_times = np.array(
            [session.khop_service(int(s), 2)[0] for s in sources]
        )
        np.testing.assert_allclose(
            report.finish_seconds, np.cumsum(service_times), atol=1e-12
        )

    def test_default_concurrency_matches_scheduler(self, session):
        svc = QueryService(session, k=2, discipline="pool")
        assert svc.concurrency == session.num_machines * SLOTS_PER_MACHINE

    def test_service_times_match_standalone_queries(self, session):
        """The memoised per-root cost is a real one-query engine run."""
        for s in _sources(session, 5, 3):
            run = session.khop([int(s)], 3)
            expected = (float(run.virtual_seconds), int(run.reached[0]))
            assert session.khop_service(int(s), 3) == expected


class TestBatchDiscipline:
    def test_burst_packs_into_one_batch(self, session):
        sources = _sources(session, 40, 4)
        svc = QueryService(session, k=3, discipline="batch")
        svc.submit_many(sources)
        report = svc.drain()
        assert report.num_batches == 1
        # everyone starts together; finishes are staggered by frontier death
        assert np.all(report.start_seconds == 0.0)
        assert report.max_response <= svc.clock + 1e-12

    def test_batch_width_splits_burst(self, session):
        sources = _sources(session, 40, 5)
        svc = QueryService(session, k=3, discipline="batch", batch_width=16)
        svc.submit_many(sources)
        report = svc.drain()
        assert report.num_batches == 3  # ceil(40 / 16)
        # later batches wait for the clock: queueing grows monotonically
        # across batch boundaries (FIFO admission)
        q = report.queueing_seconds
        assert q[0] == 0.0
        assert q[-1] > 0.0

    def test_late_arrival_waits_for_its_arrival(self, session):
        svc = QueryService(session, k=2, discipline="batch")
        src = int(_sources(session, 1, 6)[0])
        svc.submit(src, arrival=0.0)
        svc.submit(src, arrival=1e6)  # far after the first batch finishes
        report = svc.drain()
        assert report.num_batches == 2
        assert report.start_seconds[1] == 1e6
        # an idle service responds identically whenever the query arrives
        np.testing.assert_allclose(
            report.response_seconds[0], report.response_seconds[1], atol=1e-12
        )

    def test_matches_one_shot_completion_offsets(self, session):
        """A single drained batch is literally one concurrent_khop run."""
        from repro.core.khop import concurrent_khop

        sources = _sources(session, 20, 7)
        one_shot = concurrent_khop(session, sources, 3)
        svc = QueryService(session, k=3, discipline="batch")
        svc.submit_many(sources)
        report = svc.drain()
        np.testing.assert_array_equal(
            report.response_seconds, one_shot.completion_seconds
        )
        assert svc.clock == one_shot.virtual_seconds

    @pytest.mark.parametrize("k", [3, None], ids=["k3", "bfs"])
    @pytest.mark.parametrize("width", [1, 7, 64])
    def test_wave_is_a_loop_of_width_chunks(self, session, width, k):
        """A zero-arrival wave is back-to-back ``concurrent_khop`` batches
        of ``batch_width`` queries: a query responds after the earlier
        batches' engine time plus its own in-batch completion offset."""
        from repro.core.khop import concurrent_khop

        sources = _sources(session, 150, 8)
        clock, edges, supersteps = 0.0, 0, 0
        response, reached = [], []
        for i in range(0, sources.size, width):
            res = concurrent_khop(
                session, sources[i:i + width], k
            )
            response.extend(clock + res.completion_seconds)
            reached.extend(res.reached)
            clock += res.virtual_seconds
            edges += res.total_edges_scanned
            supersteps += res.supersteps
        svc = QueryService(session, k, batch_width=width)
        svc.submit_many(sources)
        report = svc.drain()
        np.testing.assert_array_equal(report.response_seconds, response)
        np.testing.assert_array_equal(report.reached, reached)
        assert report.clock_seconds == clock
        assert report.edges_scanned == edges
        assert report.supersteps == supersteps
        assert report.num_batches == -(-sources.size // width)

    @pytest.mark.parametrize(
        "qos",
        [
            None,
            QosConfig(lanes={
                "interactive": LaneSpec(weight=4, batch_width=200),
                "bulk": LaneSpec(weight=1),
            }),
        ],
        ids=["fifo", "qos"],
    )
    def test_batches_wider_than_one_word(self, session, qos):
        """Point and enumeration batches past 64 queries: verdicts equal an
        independent BFS."""
        rng = np.random.default_rng(21)
        n = session.num_vertices
        points, targets = rng.integers(0, n, 400), rng.integers(0, n, 400)
        svc = QueryService(session, k=3, batch_width=300, qos=qos)
        svc.submit_many(points, targets=targets)
        svc.submit_many(rng.integers(0, n, 300), lane="bulk")
        report = svc.drain()
        assert report.num_batches == 3
        edges = session.pg.edge_list()
        levels = {s: oracle_bfs_levels(edges, s) for s in set(points.tolist())}
        expected = [0 <= levels[s][t] <= 3 for s, t in zip(points.tolist(), targets)]
        np.testing.assert_array_equal(report.reachable[:400], expected)
        assert (report.reachable[400:] == -1).all()


class TestServiceLifecycle:
    def test_clock_persists_across_drains(self, session):
        svc = QueryService(session, k=2, discipline="batch")
        svc.submit_many(_sources(session, 8, 8))
        first = svc.drain()
        clock_after_first = svc.clock
        assert clock_after_first > 0.0
        # wave 2 arrives "now" (at the current clock) — no artificial idle gap
        svc.submit_many(_sources(session, 8, 9),
                        np.full(8, clock_after_first))
        second = svc.drain()
        assert np.all(second.start_seconds >= clock_after_first)
        assert svc.clock > clock_after_first
        assert first.num_queries == second.num_queries == 8

    def test_query_ids_are_global(self, session):
        svc = QueryService(session, k=2, discipline="pool")
        ids1 = svc.submit_many(_sources(session, 3, 10))
        svc.drain()
        ids2 = svc.submit_many(_sources(session, 3, 11))
        assert ids1 == [0, 1, 2]
        assert ids2 == [3, 4, 5]

    def test_empty_drain(self, session):
        svc = QueryService(session, k=2)
        report = svc.drain()
        assert report.num_queries == 0
        assert report.num_batches == 0
        assert svc.clock == 0.0

    def test_report_accounting_identities(self, session):
        sources = _sources(session, 12, 12)
        svc = QueryService(session, k=3, discipline="pool", concurrency=2)
        svc.submit_many(sources)
        r = svc.drain()
        np.testing.assert_allclose(
            r.response_seconds, r.finish_seconds - r.arrival_seconds
        )
        np.testing.assert_allclose(
            r.queueing_seconds, r.start_seconds - r.arrival_seconds
        )
        assert r.mean_response == pytest.approx(r.response_seconds.mean())
        assert r.max_response == pytest.approx(r.response_seconds.max())
        assert r.clock_seconds == svc.clock


class TestValidation:
    def test_bad_discipline(self, session):
        with pytest.raises(ValueError, match="discipline"):
            QueryService(session, k=2, discipline="lifo")

    def test_bad_batch_width(self, session):
        with pytest.raises(ValueError, match="batch_width"):
            QueryService(session, k=2, batch_width=MAX_WIDE_BATCH + 1)
        with pytest.raises(ValueError, match="batch_width"):
            QueryService(session, k=2, batch_width=0)

    def test_bad_concurrency(self, session):
        with pytest.raises(ValueError, match="concurrency"):
            QueryService(session, k=2, discipline="pool", concurrency=0)

    def test_bad_source(self, session):
        svc = QueryService(session, k=2)
        with pytest.raises(ValueError, match="out of range"):
            svc.submit(session.num_vertices)

    def test_non_integer_and_out_of_range_ids_refused(self, session):
        """Both doors validate ids as the traversal entries do: a float id is
        refused, never truncated, and a refused wave queues nothing."""
        from repro.errors import InvalidQueryError

        n = session.num_vertices
        svc = QueryService(session, k=2)
        calls = [
            lambda: svc.submit(3.7),
            lambda: svc.submit(1, target=4.5),
            lambda: svc.submit(n),
            lambda: svc.submit(1, target=-1),
            lambda: svc.submit_many([5.9, 2.2]),
            lambda: svc.submit_many([1, 2], targets=[3, 4.5]),
            lambda: svc.submit_many([0, n]),
            lambda: svc.submit_many([0, 1], targets=[-1, 2]),
        ]
        for call in calls:
            with pytest.raises(InvalidQueryError):
                call()
        assert svc.num_pending == 0
        # integral floats are exact ids and stay accepted
        assert svc.submit_many([5.0, 2.0], targets=[1.0, 3.0]) == [0, 1]

    def test_bad_arrival(self, session):
        svc = QueryService(session, k=2)
        with pytest.raises(ValueError, match="arrival"):
            svc.submit(0, arrival=-1.0)

    def test_non_finite_arrival_rejected(self, session):
        """NaN/inf arrivals would sort arbitrarily and poison the drain's
        virtual timeline, so submit rejects them with the typed error —
        and rejects them atomically (nothing is queued)."""
        from repro.errors import InvalidQueryError, ReproError

        svc = QueryService(session, k=2)
        for bad in (float("nan"), float("inf"), float("-inf"), -0.5):
            with pytest.raises(InvalidQueryError, match="arrival"):
                svc.submit(0, arrival=bad)
        assert issubclass(InvalidQueryError, ReproError)
        assert issubclass(InvalidQueryError, ValueError)
        assert svc.num_pending == 0

    def test_non_finite_arrival_rejected_in_wave(self, session):
        from repro.errors import InvalidQueryError

        svc = QueryService(session, k=2)
        with pytest.raises(InvalidQueryError, match="arrival"):
            svc.submit_many([0, 1, 2], [0.0, float("nan"), 1.0])
        with pytest.raises(InvalidQueryError, match="arrival"):
            svc.submit_many([0, 1], [0.0, float("inf")], targets=[1, 2])
        assert svc.num_pending == 0

    def test_unknown_lane_rejected_in_wave(self, session):
        """A wave with one unknown lane queues nothing."""
        from repro.errors import InvalidQueryError
        from repro.qos import QosConfig

        svc = QueryService(session, k=2, qos=QosConfig())
        with pytest.raises(InvalidQueryError, match="unknown lane 'nope'"):
            svc.submit_many(
                [1, 2, 3], lane=["interactive", "nope", "interactive"]
            )
        assert svc.num_pending == 0

    def test_non_finite_mutation_arrival_rejected(self, session, small_rmat):
        from repro.errors import InvalidQueryError
        from repro.runtime.session import GraphSession

        sess = GraphSession(small_rmat, num_machines=2)
        sess.dynamic()
        svc = QueryService(sess, k=2)
        for bad in (float("nan"), float("inf"), -1.0):
            with pytest.raises(InvalidQueryError, match="arrival"):
                svc.apply_mutations([(0, 1)], arrival=bad)
        assert svc.num_pending_mutations == 0

    def test_mutation_arrival_is_one_number(self, small_rmat):
        from repro.errors import InvalidQueryError
        from repro.runtime.session import GraphSession

        sess = GraphSession(small_rmat, num_machines=2)
        sess.dynamic()
        svc = QueryService(sess, k=2)
        with pytest.raises(InvalidQueryError, match="one arrival time"):
            svc.apply_mutations([(0, 1)], arrival=[1.0, 2.0])
        assert svc.num_pending_mutations == 0

    def test_mismatched_arrivals(self, session):
        svc = QueryService(session, k=2)
        with pytest.raises(ValueError, match="arrivals"):
            svc.submit_many([0, 1], [0.0])


class TestDrainRaises:
    """A dispatch that raises must not take the rest of the queue with it."""

    @pytest.mark.parametrize("kind", ["khop", "reach"])
    def test_failed_dispatch_requeues_unrun_work(self, kind, monkeypatch):
        edges = rmat_edges(9, 4000, seed=13).remove_self_loops().deduplicate()
        rng = np.random.default_rng(5)
        sources = rng.integers(0, edges.num_vertices, 24)
        targets = (
            rng.integers(0, edges.num_vertices, 24) if kind == "reach" else None
        )
        # three batches of 8 (t = 0, 0.5, 1.0), a mutation batch due before
        # the second and the third, and one past the last dispatch
        arrivals = np.repeat([0.0, 0.5, 1.0], 8)
        mutations = [(0.25, [(1, 2)]), (0.75, [(3, 4)]), (2.0, [(5, 6)])]

        def service():
            sess = GraphSession(edges, num_machines=3)
            sess.dynamic()
            svc = QueryService(sess, k=3, batch_width=8)
            svc.submit_many(sources, arrivals, targets=targets)
            for arrival, inserts in mutations:
                svc.apply_mutations(inserts, arrival=arrival)
            return svc

        twin = service().drain()

        svc = service()
        calls = [0]
        if kind == "khop":
            import repro.core.khop as owner

            name = "concurrent_khop"
        else:
            import repro.core.reachability as owner

            name = "reachability_queries"
        original = getattr(owner, name)

        def flaky(*args, **kwargs):
            calls[0] += 1
            if calls[0] == 2:
                raise RuntimeError("boom")
            return original(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(owner, name, flaky)
            with pytest.raises(RuntimeError, match="boom"):
                svc.drain()
        # the first batch ran and the first mutation applied; the other two
        # batches and the other two mutations are queued again
        assert svc.num_pending == 16
        assert svc.num_pending_mutations == 2
        assert svc.mutations_applied == 1

        rest = svc.drain()
        assert svc.num_pending == 0 and svc.num_pending_mutations == 0
        assert rest.mutations_applied == 2
        np.testing.assert_array_equal(rest.query_ids, twin.query_ids[8:])
        np.testing.assert_array_equal(rest.epochs, twin.epochs[8:])
        np.testing.assert_array_equal(rest.reachable, twin.reachable[8:])
        np.testing.assert_array_equal(rest.start_seconds, twin.start_seconds[8:])
        np.testing.assert_array_equal(
            rest.finish_seconds, twin.finish_seconds[8:]
        )
        assert rest.clock_seconds == twin.clock_seconds
