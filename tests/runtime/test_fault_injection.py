"""Chaos suite: injected faults must never change an answer.

Every test injects a deterministic :class:`FaultPlan` into a pool session
and asserts the batch still matches the fault-free in-process reference
**bit-identically** — reach counts, verdicts and the virtual clock.  The
recovery machinery (checkpoint + rewind-replay + respawn) is only correct
if it is invisible in the results; wall-clock is the only thing a fault is
allowed to cost.

The shared pool session is module-scoped (spawn paid once) and re-armed
per test via ``set_fault_plan``; scenarios that poison the pool on purpose
(budget exhaustion, degradation, hang timeouts) build their own sessions.
"""

import multiprocessing as mp
import os
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from repro.core.api import run_program
from repro.core.khop import concurrent_khop
from repro.core.multi_sssp import concurrent_sssp
from repro.core.pagerank import pagerank
from repro.core.reachability import reachability_queries
from repro.errors import UnsupportedConfigError, WorkerLost
from repro.graph import EdgeList, rmat_edges
from repro.runtime.fault import FaultPlan, FaultTolerance
from repro.runtime.session import GraphSession
from repro.telemetry import Instrumentation
from tests.core.test_api import ListingTwoKHop


def _pool_children():
    return [p for p in mp.active_children() if p.name.startswith("repro-pool-")]


def _shm_files(names):
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        return []
    present = set(os.listdir("/dev/shm"))
    return [n for n in names if n in present]


@pytest.fixture(scope="module")
def graph():
    return rmat_edges(10, 12000, seed=11).remove_self_loops().deduplicate()


@pytest.fixture(scope="module")
def inproc_sess(graph):
    return GraphSession(graph, num_machines=2)


@pytest.fixture(scope="module")
def pool_sess(graph):
    ft = FaultTolerance(max_recoveries=16, step_timeout=30.0)
    with GraphSession(
        graph, num_machines=2, backend="pool", fault_tolerance=ft
    ) as sess:
        yield sess


@pytest.fixture(autouse=True)
def _disarm(request):
    """Leave the shared pool fault-free for the next test."""
    yield
    if "pool_sess" in request.fixturenames:
        request.getfixturevalue("pool_sess").set_fault_plan(None)


class TestCrashRecovery:
    def test_khop_parity_after_crash(self, inproc_sess, pool_sess):
        sources = [0, 17, 333, 901]
        ref = inproc_sess.khop(sources, 4)
        before = pool_sess.pool().recoveries
        pool_sess.set_fault_plan(FaultPlan().crash_worker(1, 0))
        res = pool_sess.khop(sources, 4)
        assert np.array_equal(ref.reached, res.reached)
        assert ref.virtual_seconds == res.virtual_seconds
        assert ref.per_step_seconds == res.per_step_seconds
        assert pool_sess.pool().recoveries == before + 1
        assert not pool_sess.degraded

    def test_reach_parity_after_crash(self, inproc_sess, pool_sess):
        sources = [0, 5, 9, 33, 101]
        targets = [9, 0, 200, 44, 101]
        ref = reachability_queries(inproc_sess, sources, targets, 4)
        pool_sess.set_fault_plan(FaultPlan().crash_worker(0, 1))
        res = reachability_queries(pool_sess, sources, targets, 4)
        assert np.array_equal(ref.reachable, res.reachable)
        assert np.array_equal(ref.hops, res.hops)
        assert np.array_equal(ref.resolution_seconds, res.resolution_seconds)
        assert ref.virtual_seconds == res.virtual_seconds
        assert not pool_sess.degraded

    def test_wide_batch_parity_after_crash(self, graph, inproc_sess, pool_sess):
        sources = [i % graph.num_vertices for i in range(512)]
        ref = concurrent_khop(inproc_sess, sources, 3)
        pool_sess.set_fault_plan(FaultPlan().crash_worker(2, 1))
        res = concurrent_khop(pool_sess, sources, 3)
        assert np.array_equal(ref.reached, res.reached)
        assert ref.virtual_seconds == res.virtual_seconds
        assert not pool_sess.degraded

    def test_next_batch_after_recovery_is_clean(self, inproc_sess, pool_sess):
        # a recovered pool (respawned worker reattached to the same shm
        # graph image) must serve later fault-free batches unperturbed
        pool_sess.set_fault_plan(FaultPlan().crash_worker(1, 0))
        pool_sess.khop([0], 3)
        pool_sess.set_fault_plan(None)
        ref = inproc_sess.khop([3, 44, 555], 3)
        res = pool_sess.khop([3, 44, 555], 3)
        assert np.array_equal(ref.reached, res.reached)
        assert ref.per_step_seconds == res.per_step_seconds


class TestSlotPlaneAfterRecovery:
    """The k-hop slot plane (one row per boundary vertex, filled by compute,
    read by the flush) is task state outside the checkpoint.  After a fault
    lands between a scatter and its delivery, the next batch on the same
    pool must match a fresh session bit for bit — answers, wire counts and
    the virtual clock.  Push is forced: only the scatter depends on what the
    plane held."""

    @pytest.mark.parametrize(
        "fault",
        [
            lambda: FaultPlan().drop_outbox(1, 0),
            lambda: FaultPlan().crash_worker(1, 1),
            lambda: FaultPlan().drop_outbox(0, 1).crash_worker(2, 0),
        ],
        ids=["drop_outbox", "crash_worker", "both"],
    )
    def test_next_batch_matches_fresh_session(self, graph, pool_sess, fault):
        # a wide batch guarantees cross-machine traffic on the faulted steps
        wide = [(7 * i) % graph.num_vertices for i in range(128)]
        narrow = [5, 77, 901]
        pool_sess.set_fault_plan(fault())
        faulted = concurrent_khop(pool_sess, wide, 4,
                                  direction="push")
        pool_sess.set_fault_plan(None)
        after = concurrent_khop(pool_sess, narrow, 3,
                                direction="push")
        for res, sources, k in ((faulted, wide, 4), (after, narrow, 3)):
            ref = concurrent_khop(GraphSession(graph, num_machines=2), sources, k,
                                  direction="push")
            assert np.array_equal(ref.reached, res.reached)
            assert np.array_equal(ref.completion_seconds, res.completion_seconds)
            assert ref.total_messages == res.total_messages
            assert ref.total_bytes == res.total_bytes
            assert ref.virtual_seconds == res.virtual_seconds
            assert ref.per_step_seconds == res.per_step_seconds
        assert not pool_sess.degraded


class TestDelayAndHang:
    def test_straggler_below_timeout_is_latency_only(
        self, inproc_sess, pool_sess
    ):
        ref = inproc_sess.khop([0, 17], 4)
        before = pool_sess.pool().recoveries
        pool_sess.set_fault_plan(FaultPlan().delay_worker(1, 0, seconds=0.05))
        res = pool_sess.khop([0, 17], 4)
        assert np.array_equal(ref.reached, res.reached)
        assert ref.virtual_seconds == res.virtual_seconds
        # a straggler under step_timeout costs wall time, never a recovery
        assert pool_sess.pool().recoveries == before

    def test_hang_is_killed_and_recovered(self, graph, inproc_sess):
        ref = inproc_sess.khop([0, 17], 4)
        ft = FaultTolerance(max_recoveries=4, step_timeout=0.5)
        with GraphSession(
            graph, num_machines=2, backend="pool", fault_tolerance=ft,
            fault_plan=FaultPlan().delay_worker(1, 0, seconds=30.0),
        ) as sess:
            res = sess.khop([0, 17], 4)
            assert np.array_equal(ref.reached, res.reached)
            assert ref.virtual_seconds == res.virtual_seconds
            assert sess.pool().recoveries >= 1
            assert not sess.degraded


class TestMessageFaults:
    def test_drop_outbox_parity(self, graph, inproc_sess, pool_sess):
        # a wide batch guarantees cross-machine traffic on early steps
        sources = [i % graph.num_vertices for i in range(128)]
        ref = concurrent_khop(inproc_sess, sources, 4)
        pool_sess.set_fault_plan(FaultPlan().drop_outbox(1, 0))
        res = concurrent_khop(pool_sess, sources, 4)
        assert np.array_equal(ref.reached, res.reached)
        assert ref.virtual_seconds == res.virtual_seconds
        assert not pool_sess.degraded

    def test_corrupt_inbox_parity_gas(self, inproc_sess, pool_sess):
        ref = pagerank(inproc_sess, iterations=8)
        pool_sess.set_fault_plan(FaultPlan().corrupt_inbox(2, 1))
        res = pagerank(pool_sess, iterations=8)
        # float sums replayed in identical order: exact, not allclose
        assert np.array_equal(ref.values, res.values)
        assert ref.virtual_seconds == res.virtual_seconds
        assert not pool_sess.degraded

    def test_combined_faults_one_batch(self, inproc_sess, pool_sess):
        ref = inproc_sess.khop([0, 17, 333], 5)
        pool_sess.set_fault_plan(
            FaultPlan().crash_worker(1, 0).corrupt_inbox(2, 1)
        )
        res = pool_sess.khop([0, 17, 333], 5)
        assert np.array_equal(ref.reached, res.reached)
        assert ref.virtual_seconds == res.virtual_seconds
        assert not pool_sess.degraded


class TestCheckpointInterval:
    def test_sparse_checkpoints_rewind_further(self, graph, inproc_sess):
        # with C=3 a crash at step 4 rewinds to the step-3 checkpoint and
        # replays two supersteps; the answer must not notice
        ref = inproc_sess.khop([0, 17, 333], 6)
        ft = FaultTolerance(checkpoint_interval=3, max_recoveries=4)
        with GraphSession(
            graph, num_machines=2, backend="pool", fault_tolerance=ft,
            fault_plan=FaultPlan().crash_worker(4, 1),
        ) as sess:
            res = sess.khop([0, 17, 333], 6)
            assert np.array_equal(ref.reached, res.reached)
            assert ref.virtual_seconds == res.virtual_seconds
            assert ref.per_step_seconds == res.per_step_seconds
            assert sess.pool().recoveries == 1


class TestSSSPReplay:
    def test_crash_at_step_2_with_sparse_checkpoints(self, graph):
        # multi-SSSP runs in the workers: its dist/active/hop checkpoint is
        # what the rewind to the step-2 barrier replays from
        rng = np.random.default_rng(3)
        weighted = EdgeList(graph.src, graph.dst, graph.num_vertices,
                            rng.uniform(0.1, 4.0, graph.num_edges))
        sources = [0, 17, 333, 901, 5, 44, 555]
        ref = concurrent_sssp(GraphSession(weighted, num_machines=2), sources)
        ft = FaultTolerance(checkpoint_interval=2, max_recoveries=4)
        with GraphSession(
            weighted, num_machines=2, backend="pool", fault_tolerance=ft,
            fault_plan=FaultPlan().crash_worker(2, 1),
        ) as sess:
            res = concurrent_sssp(sess, sources)
            assert sess.pool().recoveries == 1
            assert not sess.degraded
        assert res.distances.tobytes() == ref.distances.tobytes()
        assert repr(res.virtual_seconds) == repr(ref.virtual_seconds)
        got, want = res.engine_result, ref.engine_result
        assert got.per_step_seconds == want.per_step_seconds
        assert got.total_stats() == want.total_stats()


class CtxHoldingKHop(ListingTwoKHop):
    """Listing 2 through the context its factory was handed, not the one
    ``compute`` receives: a rewind must leave it bound to the live one."""

    def __init__(self, ctx, source, k):
        super().__init__(ctx, source, k)
        self.ctx = ctx

    def compute(self, ctx):
        super().compute(self.ctx)


class TestProgramReplay:
    @pytest.mark.parametrize("backend", ["inproc", "pool"])
    def test_program_holding_its_context(self, graph, backend):
        factory = partial(CtxHoldingKHop, source=0, k=4)
        want_progs, want = run_program(
            GraphSession(graph, num_machines=2), factory, max_supersteps=30
        )
        ft = FaultTolerance(checkpoint_interval=2, max_recoveries=4)
        with GraphSession(
            graph, num_machines=2, backend=backend, fault_tolerance=ft,
            fault_plan=FaultPlan().crash_worker(2, 1),
        ) as sess:
            got_progs, got = run_program(sess, factory, max_supersteps=30)
            assert not sess.degraded
            if backend == "pool":
                assert sess.pool().recoveries == 1
        assert [p.best for p in got_progs] == [p.best for p in want_progs]
        assert repr(got.virtual_seconds) == repr(want.virtual_seconds)
        assert got.per_step_seconds == want.per_step_seconds
        assert got.total_stats() == want.total_stats()


class TestReachReplay:
    """Reachability's early-termination mask comes from each step's probe,
    never from what the batch's ``on_step`` remembered — so a run rewound
    past steps that settled verdicts, or a batch retried on the degraded
    engine, replays the fault-free masks: verdicts, hops, per-query and
    batch clocks and scanned edges all equal the fault-free twin."""

    @pytest.fixture(scope="class")
    def pairs(self, graph):
        return np.random.default_rng(3).integers(0, graph.num_vertices, (2, 48))

    @pytest.fixture(scope="class")
    def ref(self, graph, pairs):
        res = reachability_queries(GraphSession(graph, num_machines=2), *pairs, None)
        # targets settle at several levels, so the replayed steps matter
        assert len(set(res.hops[res.hops > 0].tolist())) >= 3
        return res

    @staticmethod
    def _assert_twin(ref, res):
        assert np.array_equal(ref.reachable, res.reachable)
        assert np.array_equal(ref.hops, res.hops)
        assert np.array_equal(ref.resolution_seconds, res.resolution_seconds)
        assert ref.virtual_seconds == res.virtual_seconds
        assert ref.total_edges_scanned == res.total_edges_scanned

    @pytest.mark.parametrize("backend", ["inproc", "pool"])
    def test_rewind_past_settled_verdicts(self, graph, pairs, ref, backend):
        # C=3: a crash at superstep 2 rewinds to step 0 and replays two
        # steps whose verdicts the first pass already settled
        ft = FaultTolerance(checkpoint_interval=3, max_recoveries=4)
        with GraphSession(
            graph, num_machines=2, backend=backend, fault_tolerance=ft,
            fault_plan=FaultPlan().crash_worker(2, 1),
        ) as sess:
            self._assert_twin(ref, reachability_queries(sess, *pairs, None))

    def test_retry_on_the_degraded_engine(self, graph, pairs, ref):
        # no recovery budget: losing the pool at superstep 3 re-runs the
        # whole batch in-process, through the same description
        ft = FaultTolerance(max_recoveries=0)
        with GraphSession(
            graph, num_machines=2, backend="pool", fault_tolerance=ft,
            fault_plan=FaultPlan().crash_worker(3, 1),
        ) as sess:
            res = reachability_queries(sess, *pairs, None)
            assert sess.degraded
        self._assert_twin(ref, res)


class TestTelemetry:
    def test_fault_counters(self, graph):
        instr = Instrumentation()
        ft = FaultTolerance(max_recoveries=8, step_timeout=30.0)
        plan = FaultPlan().crash_worker(1, 0).delay_worker(2, 1, seconds=0.01)
        with GraphSession(
            graph, num_machines=2, backend="pool", fault_tolerance=ft,
            fault_plan=plan, instrumentation=instr,
        ) as sess:
            sess.khop([0, 17], 4)
        m = instr.metrics
        assert m.get("cgraph_faults_total").value(kind="crash") == 1
        assert m.get("cgraph_recoveries_total").total == 1
        # one initial checkpoint + one per completed superstep
        assert m.get("cgraph_checkpoints_total").total >= 2


class TestRecoveryBudget:
    def test_sticky_crash_exhausts_budget_and_cleans_up(self, graph):
        others = {p.pid for p in _pool_children()}  # the shared module pool
        ft = FaultTolerance(max_recoveries=1, degrade=False)
        plan = FaultPlan().crash_worker(1, 0, sticky=True)
        sess = GraphSession(
            graph, num_machines=2, backend="pool", fault_tolerance=ft,
            fault_plan=plan,
        )
        names = sess.pool().segment_names()
        with pytest.raises(WorkerLost, match="budget"):
            sess.khop([0, 17], 4)
        # the failed attempt must leave nothing behind
        assert {p.pid for p in _pool_children()} <= others
        assert _shm_files(names) == []
        assert sess.pool_failures == 1
        assert not sess.degraded
        sess.close()


class TestDegradationLadder:
    def test_sticky_crash_degrades_to_inproc(self, graph, inproc_sess):
        ref = inproc_sess.khop([0, 17, 333], 4)
        others = {p.pid for p in _pool_children()}  # the shared module pool
        ft = FaultTolerance(max_recoveries=0)
        plan = FaultPlan().crash_worker(1, 0, sticky=True)
        sess = GraphSession(
            graph, num_machines=2, backend="pool", fault_tolerance=ft,
            fault_plan=plan,
        )
        try:
            res = sess.khop([0, 17, 333], 4)
            # the pool attempt died; the in-process fallback answered
            assert np.array_equal(ref.reached, res.reached)
            assert ref.virtual_seconds == res.virtual_seconds
            assert sess.degraded
            assert sess.pool_failures == 1
            assert sess.degraded_batches == 1
            assert {p.pid for p in _pool_children()} <= others

            # later batches stay degraded (no new pool, no new failures)
            res2 = sess.khop([3, 44], 3)
            ref2 = inproc_sess.khop([3, 44], 3)
            assert np.array_equal(ref2.reached, res2.reached)
            assert sess.degraded_batches == 2
            assert sess.pool_failures == 1

            # forgiveness: disarm the fault, reset, and the pool comes back
            sess.set_fault_plan(None)
            sess.reset_degradation()
            res3 = sess.khop([0, 9], 3)
            ref3 = inproc_sess.khop([0, 9], 3)
            assert np.array_equal(ref3.reached, res3.reached)
            assert not sess.degraded
            assert sess.degraded_batches == 2
        finally:
            sess.close()

    def test_degraded_batches_counter_counts_every_batch(self, graph):
        instr = Instrumentation()
        with GraphSession(
            graph, num_machines=2, backend="pool", instrumentation=instr,
            fault_tolerance=FaultTolerance(max_recoveries=0),
            fault_plan=FaultPlan().crash_worker(1, 0, sticky=True),
        ) as sess:
            for sources in ([0, 17], [3, 44], [5]):
                sess.khop(sources, 3)
        assert sess.degraded_batches == 3
        counter = instr.metrics.get("cgraph_degraded_batches_total")
        assert counter.total == sess.degraded_batches

    def test_one_shot_fault_fires_once(self, graph, inproc_sess, pool_sess):
        # no recovery budget: the one-shot crash loses the pool, and the
        # batch degrades without the fault firing again anywhere
        pool_sess.pool()  # the resource tracker's pipe opens once per process
        ref = inproc_sess.khop([0, 17, 333], 4)
        fds = len(os.listdir("/proc/self/fd"))
        instr = Instrumentation()
        sess = GraphSession(
            graph, num_machines=2, backend="pool", instrumentation=instr,
            fault_tolerance=FaultTolerance(max_recoveries=0),
            fault_plan=FaultPlan().crash_worker(1, 0),
        )
        res = sess.khop([0, 17, 333], 4)
        sess.close()
        assert instr.metrics.get("cgraph_faults_total").total == 1
        assert sess.pool_failures == 1
        assert sess.degraded
        assert np.array_equal(ref.reached, res.reached)
        assert repr(ref.virtual_seconds) == repr(res.virtual_seconds)
        assert len(os.listdir("/proc/self/fd")) == fds


class TestSharedDriver:
    """One superstep driver, two executors: the same fault plan must cost
    the same — result *and* telemetry — in-process and on the pool."""

    @staticmethod
    def _pagerank(graph, backend, plan, ft):
        instr = Instrumentation()
        # an exhausted budget must surface, not degrade
        ft = replace(ft, degrade=False)
        with GraphSession(
            graph, num_machines=2, backend=backend, fault_plan=plan,
            fault_tolerance=ft, instrumentation=instr,
        ) as sess:
            try:
                outcome = pagerank(sess, iterations=6).engine_result
            except WorkerLost as exc:
                outcome = exc
        telemetry = {
            name: instr.metrics.get(f"cgraph_{name}_total").total
            for name in ("faults", "recoveries", "checkpoints", "supersteps")
        }
        telemetry["superstep_spans"] = sum(
            1 for span in instr.tracer.spans if span.cat == "superstep"
        )
        return outcome, telemetry

    @pytest.mark.parametrize(
        "step, machine, interval", [(0, 0, 1), (2, 1, 1), (3, 0, 2)]
    )
    def test_same_crash_same_result_and_telemetry(
        self, graph, step, machine, interval
    ):
        ft = FaultTolerance(checkpoint_interval=interval, max_recoveries=2)
        runs = [
            self._pagerank(
                graph, backend, FaultPlan().crash_worker(step, machine), ft
            )
            for backend in ("inproc", "pool")
        ]
        (a, seen_a), (b, seen_b) = runs
        assert a.supersteps == b.supersteps == 6
        assert a.per_step_seconds == b.per_step_seconds
        assert a.per_step_stats == b.per_step_stats
        assert a.truncated == b.truncated
        assert seen_a == seen_b
        assert seen_a["faults"] == seen_a["recoveries"] == 1
        # replayed supersteps are executed twice but emitted once
        assert seen_a["supersteps"] == seen_a["superstep_spans"] == 6

    def test_exhausted_budget_raises_on_both(self, graph):
        ft = FaultTolerance(max_recoveries=1)
        runs = [
            self._pagerank(
                graph, backend, FaultPlan().crash_worker(1, 0, sticky=True), ft
            )
            for backend in ("inproc", "pool")
        ]
        for outcome, _ in runs:
            assert isinstance(outcome, WorkerLost)
            assert "budget" in str(outcome)
        assert runs[0][1] == runs[1][1]
        assert runs[0][1]["faults"] == 2 and runs[0][1]["recoveries"] == 1


class TestInprocResilient:
    def test_inproc_crash_and_delay_parity(self, graph, inproc_sess):
        ref = inproc_sess.khop([0, 17, 333], 4)
        plan = FaultPlan().crash_worker(1, 0).delay_worker(2, 1, seconds=0.0)
        sess = GraphSession(graph, num_machines=2, fault_plan=plan)
        res = sess.khop([0, 17, 333], 4)
        assert np.array_equal(ref.reached, res.reached)
        assert ref.virtual_seconds == res.virtual_seconds
        assert ref.per_step_seconds == res.per_step_seconds

    def test_inproc_resilient_rejects_async(self, graph):
        sess = GraphSession(
            graph, num_machines=2, fault_plan=FaultPlan().crash_worker(0, 0)
        )
        with pytest.raises(ValueError, match="fault injection requires") as exc:
            pagerank(sess, iterations=3, asynchronous=True)
        # typed, and raised at engine construction — before any superstep
        assert isinstance(exc.value, UnsupportedConfigError)
        assert sess.batches_run == 0
