"""The fused in-process k-hop superstep against the per-machine sequence.

A synchronous in-process traversal batch runs every machine's superstep at
once (``KHopPartitionTask.fused``: session-wide planes, each partition's
kernel writing its rows, one exchange and delivery for all).  The reference
here is the pool worker's per-machine sequence run in this process — every
task computes, the cluster exchanges, every task applies its inbox and
finalizes — so after every superstep the two must agree on every machine's
``StepStats``, field by field, on the votes and on the probes; and at the
end on reached counts, depths, completion levels and seconds, ``resolved``
and ``truncated``.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import adapters
from repro.core.khop import DIRECTIONS, KHopPartitionTask, _run_traversal
from repro.graph import EdgeList, rmat_edges
from repro.runtime import session as session_module
from repro.runtime.comm import exchange_sync
from repro.runtime.engine import SuperstepEngine
from repro.runtime.message import combine_or
from repro.runtime.netmodel import StepStats
from repro.runtime.session import GraphSession


def _loop_step(engine):
    """The pool worker's per-machine sequence, in this process."""
    tasks = engine.tasks
    stats = [StepStats() for _ in tasks]
    for task, mine in zip(tasks, stats):
        task.compute(mine)
    exchange_sync(engine.cluster, stats, combine_or)
    for task, mine in zip(tasks, stats):
        task.apply_inbox(mine)
    votes = [task.finalize() for task in tasks]
    probes = None
    if engine.probe is not None:
        probes = [engine.probe(t, *a) for t, a in zip(tasks, engine.probe_args)]
    return votes, stats, probes, None


def _traverse(sess, fused, sources, k, targets=None, **kwargs):
    """One traversal batch, every superstep's ``(votes, stats, probes)``
    recorded, on the fused step or on the reference sequence."""
    trace = []

    class Recording(SuperstepEngine):
        def step(self, step):
            assert (self._fused is not None) == fused
            out = super().step(step) if fused else _loop_step(self)
            trace.append(out[:3])
            return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(session_module, "SuperstepEngine", Recording)
        if not fused:
            patch.setattr(KHopPartitionTask, "fused", classmethod(lambda *a: None))
        level, seconds, resolved, hit, result = _run_traversal(
            sess, np.asarray(sources, dtype=np.int64), k,
            None if targets is None else np.asarray(targets, dtype=np.int64),
            **kwargs,
        )
    reached = sum(sess.gather_batch(adapters.khop_visited_counts))
    depths = None
    if kwargs.get("record_depths"):
        depths = np.concatenate(sess.gather_batch(adapters.task_attribute, "depths"))
    return trace, dict(
        reached=reached, depths=depths, level=level, seconds=seconds,
        resolved=resolved, hit=hit, truncated=result.truncated,
        per_step_seconds=result.per_step_seconds,
        virtual_seconds=result.virtual_seconds,
    )


def _assert_parity(fused_sess, ref_sess, sources, k, targets=None, **kwargs):
    trace, got = _traverse(fused_sess, True, sources, k, targets, **kwargs)
    ref_trace, want = _traverse(ref_sess, False, sources, k, targets, **kwargs)
    assert len(trace) == len(ref_trace)
    for (votes, stats, probes), (ref_votes, ref_stats, ref_probes) in zip(
        trace, ref_trace
    ):
        for mine, ref in zip(stats, ref_stats, strict=True):
            assert mine == ref
            # the clock sums per destination in insertion order
            assert list(mine.bytes_sent) == list(ref.bytes_sent)
        assert votes == ref_votes
        assert probes == ref_probes
    for name, value in want.items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(got[name], value), name
        else:
            assert got[name] == value, name


_random_digraph = dict(
    pairs=st.lists(
        st.tuples(st.integers(0, 13), st.integers(0, 13)), min_size=0, max_size=80
    ),
    # ids 0..13 on 14..16 vertices, and with five machines trailing
    # partitions that own no vertex at all
    num_vertices=st.integers(14, 16),
    machines=st.integers(1, 5),
    seed=st.integers(0, 2**16),
)


def _batch(rng, n, width, with_targets):
    sources = rng.integers(0, n, width)
    targets = None
    if with_targets:
        targets = rng.integers(0, n, width)
        targets[::3] = sources[::3]  # source == target pairs settle at hop 0
    return sources, targets


class TestFusedStepMatchesTheLoop:
    @settings(max_examples=300, deadline=None)
    @given(
        width=st.sampled_from([1, 63, 64, 65, 130, 512]),
        k=st.sampled_from([None, 1, 2, 3, 4]),
        direction=st.sampled_from(DIRECTIONS),
        with_targets=st.booleans(),
        record_depths=st.booleans(),
        deadline=st.sampled_from([None, 1e-9, 3e-4]),
        edge_sets=st.booleans(),
        **_random_digraph,
    )
    def test_one_batch(
        self, pairs, num_vertices, machines, seed, width, k, direction,
        with_targets, record_depths, deadline, edge_sets,
    ):
        graph = EdgeList.from_pairs(pairs, num_vertices=num_vertices).deduplicate()
        sources, targets = _batch(
            np.random.default_rng(seed), num_vertices, width, with_targets
        )
        sessions = [
            GraphSession(graph, num_machines=machines, edge_sets=edge_sets)
            for _ in range(2)
        ]
        _assert_parity(
            *sessions, sources, k, targets, direction=direction,
            record_depths=record_depths, max_virtual_seconds=deadline,
        )

    @settings(max_examples=60, deadline=None)
    @given(
        batches=st.lists(
            st.tuples(
                st.lists(st.tuples(st.integers(0, 13), st.integers(0, 13)),
                         max_size=6),
                st.integers(0, 3),  # deletes, drawn from the live edges
            ),
            min_size=1, max_size=4,
        ),
        width=st.sampled_from([1, 65]),
        direction=st.sampled_from(DIRECTIONS),
        **_random_digraph,
    )
    def test_a_dynamic_session_across_batches(
        self, pairs, num_vertices, machines, seed, batches, width, direction
    ):
        """Every mutation batch splices plans; the fused step must read the
        spliced ones, not a view of the old."""
        graph = EdgeList.from_pairs(pairs, num_vertices=num_vertices).deduplicate()
        rng = np.random.default_rng(seed)
        sessions = [GraphSession(graph, num_machines=machines) for _ in range(2)]
        for sess in sessions:
            sess.dynamic()
        for inserts, num_deletes in batches:
            live = sessions[0].pg.edge_list()
            picked = rng.permutation(live.num_edges)[:num_deletes]
            deletes = np.stack([live.src[picked], live.dst[picked]], axis=1)
            inserts = [(u, v) for u, v in inserts if u != v]
            for sess in sessions:
                sess.apply_mutations(inserts, deletes)
            sources, _ = _batch(rng, num_vertices, width, False)
            _assert_parity(*sessions, sources, 3, direction=direction)

    @pytest.mark.parametrize("direction", DIRECTIONS)
    @pytest.mark.parametrize("machines", [2, 4])
    def test_an_rmat_graph(self, direction, machines):
        graph = rmat_edges(9, 6000, seed=3).remove_self_loops().deduplicate()
        rng = np.random.default_rng(machines)
        sessions = [GraphSession(graph, num_machines=machines) for _ in range(2)]
        for width in (1, 64, 200):
            sources, targets = _batch(rng, graph.num_vertices, width, width == 200)
            _assert_parity(*sessions, sources, None, targets, direction=direction,
                           record_depths=True)


class TestFusedStepIsolation:
    def test_a_raise_mid_step_leaves_the_next_batch_clean(self, small_rmat):
        """The push has scattered into ``next`` and the slot rows when the
        step raises; the next batch must still match a fresh session."""
        sess = GraphSession(small_rmat, num_machines=3)
        real_push = KHopPartitionTask._expand_push

        def push_then_raise(task, *args):
            real_push(task, *args)
            raise RuntimeError("injected failure after the scatter")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(KHopPartitionTask, "_expand_push", push_then_raise)
            with pytest.raises(RuntimeError, match="injected"):
                _traverse(sess, True, np.arange(0, 256, 4), 3, direction="push")
        narrow = [3, 90, 200]
        _, got = _traverse(sess, True, narrow, 3, record_depths=True)
        _, want = _traverse(
            GraphSession(small_rmat, num_machines=3), False, narrow, 3,
            record_depths=True,
        )
        for name, value in want.items():
            assert np.array_equal(got[name], value), name


def _calls_per_superstep(machines: int) -> float:
    """Python and builtin calls per superstep of one in-process k=3 batch
    (the session warm, so no plan or view is built inside)."""
    graph = rmat_edges(9, 6000, seed=3).remove_self_loops().deduplicate()
    sess = GraphSession(graph, num_machines=machines)
    sources = np.arange(0, 512, 8)
    _traverse(sess, True, sources, 3)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(count)
    try:
        *_, result = _run_traversal(sess, sources, 3)
    finally:
        sys.setprofile(None)
    return calls / result.supersteps


class TestCallBudget:
    """A superstep's interpreter work per machine is the partition's own
    expansion kernel, not the per-machine loop's exchange and promote."""

    #: 249 measured at 2 machines (CPython 3.11, numpy 2.4), with headroom
    #: for other interpreter and numpy versions; a rise past it is a
    #: regression to look at
    PINNED_AT_2 = 290
    #: what one more machine may add to a superstep (30 measured): its
    #: booking (``_book``) and push or pull kernel, and the superstep loop's
    #: and the session's clock, stats, probe, reset and seed calls.  The
    #: per-machine loop grew by about 440 calls per machine-superstep.
    PER_MACHINE = 40

    def test_pinned_count(self):
        assert _calls_per_superstep(2) <= self.PINNED_AT_2

    def test_growth_with_the_machine_count(self):
        assert (
            _calls_per_superstep(8)
            <= _calls_per_superstep(2) + 6 * self.PER_MACHINE
        )
