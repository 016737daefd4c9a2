"""A pick replayed from a shared k-hop run against the pick run alone.

:class:`~repro.core.khop.SharedKHop` runs one traversal over distinct
sources; passed to :func:`concurrent_khop` as ``_shared``, it answers any
pick of them (any order, duplicates allowed) from what each superstep lit.
The reference is the same pick on a twin session without one: every
:class:`KHopResult` field and every superstep's per-machine ``StepStats``
must be equal, including a pick a deadline cuts short.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.khop import DIRECTIONS, SharedKHop, _Replay, concurrent_khop
from repro.errors import UnsupportedConfigError
from repro.graph import EdgeList, rmat_edges
from repro.runtime.session import GraphSession


def _steps_of(run):
    """``run()``'s result, with each superstep's per-machine stats of the
    batches it booked on a session."""
    booked = []
    real = GraphSession._run_on

    def spy(sess, *args):
        result = real(sess, *args)
        booked.append(result.per_step_stats)
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(GraphSession, "_run_on", spy)
        out = run()
    return out, booked


def _assert_replays(share, sess, ref, pick, **kwargs):
    got, got_steps = _steps_of(
        lambda: concurrent_khop(sess, pick, share.k, _shared=share, **kwargs)
    )
    assert isinstance(sess._executor, _Replay)
    want, want_steps = _steps_of(lambda: concurrent_khop(ref, pick, share.k, **kwargs))
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert np.array_equal(a, b), f.name
        else:
            assert a == b, f.name
    assert got_steps == want_steps  # one batch each, every step's stats
    for mine, theirs in zip(got_steps[0], want_steps[0]):
        for a, b in zip(mine, theirs):  # the clock sums in insertion order
            assert list(a.bytes_sent) == list(b.bytes_sent)
    return want


class TestReplayMatchesTheBatch:
    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=160
        ),
        num_vertices=st.integers(40, 44),
        machines=st.integers(1, 4),
        edge_sets=st.booleans(),
        run_width=st.integers(1, 200),
        pick_widths=st.lists(st.integers(1, 200), min_size=1, max_size=3),
        k=st.sampled_from([1, 2, 3, None]),
        direction=st.sampled_from(DIRECTIONS),
        deadline=st.sampled_from([None, 1e-12, 0.4, 0.7]),
        seed=st.integers(0, 2**16),
    )
    def test_every_pick(
        self, pairs, num_vertices, machines, edge_sets, run_width, pick_widths,
        k, direction, deadline, seed,
    ):
        graph = EdgeList.from_pairs(pairs, num_vertices=num_vertices).deduplicate()
        sess, ref = (
            GraphSession(graph, num_machines=machines, edge_sets=edge_sets)
            for _ in range(2)
        )
        rng = np.random.default_rng(seed)
        sources = rng.integers(0, num_vertices, run_width)  # with duplicates
        share = SharedKHop(sess, sources, k)
        for width in pick_widths:
            pick = rng.choice(sources, width)  # any order, duplicates
            limit = None
            if deadline is not None:  # a share of the pick's own clock
                full = concurrent_khop(ref, pick, k, direction=direction)
                limit = deadline * full.virtual_seconds
            _assert_replays(
                share, sess, ref, pick,
                max_virtual_seconds=limit, direction=direction,
            )

    @pytest.mark.parametrize("machines", [2, 4])
    def test_wide_runs_on_an_rmat_graph(self, machines):
        """Runs past one word; picks narrower and wider than a word, and a
        pick truncated mid-run on its own clock."""
        graph = rmat_edges(9, 6000, seed=3).remove_self_loops().deduplicate()
        sess, ref = (GraphSession(graph, num_machines=machines) for _ in range(2))
        rng = np.random.default_rng(machines)
        sources = rng.integers(0, graph.num_vertices, 300)
        share = SharedKHop(sess, sources, 3)
        assert share.sources.size > 128
        for width in (1, 50, 64, 130, 512):
            _assert_replays(share, sess, ref, rng.choice(sources, width))
        full = concurrent_khop(ref, sources[:40], 3)
        want = _assert_replays(
            share, sess, ref, sources[:40],
            max_virtual_seconds=full.per_step_seconds[0] * 1.5,
        )
        assert want.truncated


class TestTheSharedRun:
    def test_books_nothing_but_its_replays(self, small_rmat):
        sess = GraphSession(small_rmat, num_machines=3)
        share = SharedKHop(sess, np.arange(0, 200, 3), 3)
        assert share.lit is None  # it traverses at its first replay
        concurrent_khop(sess, [3, 3, 9], 3, _shared=share)
        assert sess.batches_run == 1 and isinstance(sess._executor, _Replay)
        concurrent_khop(sess, [9, 0], 3, _shared=share)
        assert sess.batches_run == 2 and isinstance(sess._executor, _Replay)

    def test_what_it_cannot_replay_traverses(self, small_rmat):
        """Another source, hop budget, session or epoch, depths or the
        asynchronous engine: the batch runs as it would without the run."""
        sess = GraphSession(small_rmat, num_machines=3)
        sess.dynamic()
        share = SharedKHop(sess, [1, 2, 3], 2)
        other = GraphSession(small_rmat, num_machines=3)
        for run in (
            lambda: concurrent_khop(sess, [1, 4], 2, _shared=share),
            lambda: concurrent_khop(sess, [1], 3, _shared=share),
            lambda: concurrent_khop(sess, [1], 2, record_depths=True, _shared=share),
            lambda: concurrent_khop(sess, [1], 2, asynchronous=True, _shared=share),
            lambda: concurrent_khop(other, [1], 2, _shared=share),
        ):
            run()
            assert not isinstance(sess._executor, _Replay)
            assert not isinstance(other._executor, _Replay)
        assert share.lit is None  # none of them traversed it
        concurrent_khop(sess, [1], 2, _shared=share)
        assert isinstance(sess._executor, _Replay)
        sess.apply_mutations([(1, 200)])  # a run serves only its own epoch
        concurrent_khop(sess, [1], 2, _shared=share)
        assert not isinstance(sess._executor, _Replay)

    def test_in_process_only(self, small_rmat):
        with GraphSession(small_rmat, num_machines=2, backend="pool") as sess:
            with pytest.raises(UnsupportedConfigError):
                SharedKHop(sess, [1, 2], 2)
