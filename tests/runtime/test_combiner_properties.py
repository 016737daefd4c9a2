"""Algebraic property tests for the message-combining layer.

Combiners must be *semantically transparent*: combining before the wire can
never change what a receiver computes, because the receiving side applies
the same associative/commutative/idempotent-or-additive operation.  These
tests pin those algebra facts — the correctness foundation under the
paper's "one combined task per vertex" sharing.
"""

import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.message import (
    MessageBatch,
    Outbox,
    combine_min,
    combine_or,
    combine_sum,
)
from repro.runtime.netmodel import StepStats

verts = st.lists(st.integers(0, 8), min_size=1, max_size=30)


def _or_batch(vs, ps):
    return MessageBatch(np.array(vs), np.array(ps, dtype=np.uint64))


def _float_batch(vs, ps):
    return MessageBatch(np.array(vs), np.array(ps, dtype=np.float64))


def _as_dict(batch):
    return dict(zip(batch.vertices.tolist(), batch.payload.tolist()))


class TestCombineOrAlgebra:
    @settings(max_examples=60, deadline=None)
    @given(vs=verts, data=st.data())
    def test_idempotent(self, vs, data):
        ps = data.draw(
            st.lists(st.integers(0, 2**63), min_size=len(vs), max_size=len(vs))
        )
        once = combine_or(_or_batch(vs, ps))
        twice = combine_or(once)
        assert _as_dict(once) == _as_dict(twice)

    @settings(max_examples=60, deadline=None)
    @given(vs=verts, data=st.data())
    def test_order_independent(self, vs, data):
        ps = data.draw(
            st.lists(st.integers(0, 2**63), min_size=len(vs), max_size=len(vs))
        )
        perm = data.draw(st.permutations(list(range(len(vs)))))
        a = combine_or(_or_batch(vs, ps))
        b = combine_or(_or_batch([vs[i] for i in perm], [ps[i] for i in perm]))
        assert _as_dict(a) == _as_dict(b)

    @settings(max_examples=40, deadline=None)
    @given(vs=verts, data=st.data())
    def test_split_then_combine_equals_combine(self, vs, data):
        """Combining partial batches then recombining = combining once —
        exactly the sender-side/receiver-side split of the exchange step."""
        ps = data.draw(
            st.lists(st.integers(0, 2**63), min_size=len(vs), max_size=len(vs))
        )
        cut = data.draw(st.integers(0, len(vs)))
        left = combine_or(
            MessageBatch(
                np.array(vs[:cut], dtype=np.int64),
                np.array(ps[:cut], dtype=np.uint64),
            )
        )
        right = combine_or(
            MessageBatch(
                np.array(vs[cut:], dtype=np.int64),
                np.array(ps[cut:], dtype=np.uint64),
            )
        )
        merged = combine_or(
            MessageBatch(
                np.concatenate([left.vertices, right.vertices]),
                np.concatenate([left.payload, right.payload]),
            )
        )
        direct = combine_or(_or_batch(vs, ps))
        assert _as_dict(merged) == _as_dict(direct)


class TestCombineMinSum:
    @settings(max_examples=50, deadline=None)
    @given(vs=verts, data=st.data())
    def test_min_matches_naive(self, vs, data):
        ps = data.draw(
            st.lists(st.floats(-100, 100), min_size=len(vs), max_size=len(vs))
        )
        combined = combine_min(_float_batch(vs, ps))
        expected = {}
        for v, p in zip(vs, ps):
            expected[v] = min(expected.get(v, np.inf), p)
        got = _as_dict(combined)
        assert set(got) == set(expected)
        for v in got:
            assert got[v] == pytest.approx(expected[v])

    @settings(max_examples=50, deadline=None)
    @given(vs=verts, data=st.data())
    def test_sum_matches_naive(self, vs, data):
        ps = data.draw(
            st.lists(st.floats(-50, 50), min_size=len(vs), max_size=len(vs))
        )
        combined = combine_sum(_float_batch(vs, ps))
        expected = {}
        for v, p in zip(vs, ps):
            expected[v] = expected.get(v, 0.0) + p
        got = _as_dict(combined)
        for v in got:
            assert got[v] == pytest.approx(expected[v], abs=1e-9)

    def test_sum_not_idempotent_but_stable_when_unique(self):
        """Sum combining is only applied pre-wire where keys are made
        unique — combining an already-combined batch is then a no-op."""
        b = combine_sum(_float_batch([1, 1, 2], [1.0, 2.0, 5.0]))
        again = combine_sum(b)
        assert _as_dict(b) == _as_dict(again)

    def test_vertices_sorted_after_combine(self):
        c = combine_or(_or_batch([5, 1, 3, 1], [1, 2, 4, 8]))
        assert c.vertices.tolist() == sorted(c.vertices.tolist())


class TestCombine2D:
    """Multi-word payloads (the wide engine) combine row-wise."""

    def test_or_2d(self):
        b = MessageBatch(
            np.array([2, 2, 1]),
            np.array([[1, 0], [4, 8], [2, 2]], dtype=np.uint64),
        )
        c = combine_or(b)
        assert c.vertices.tolist() == [1, 2]
        assert c.payload.tolist() == [[2, 2], [5, 8]]

    def test_min_2d(self):
        b = MessageBatch(
            np.array([0, 0]),
            np.array([[1.0, 9.0], [5.0, 2.0]]),
        )
        c = combine_min(b)
        assert c.payload.tolist() == [[1.0, 2.0]]

    def test_nbytes_2d(self):
        b = MessageBatch(
            np.array([0], dtype=np.int64),
            np.zeros((1, 8), dtype=np.uint64),
        )
        assert b.nbytes() == 8 + 64


#: One ``route`` call's emissions: (destination seed, vertex offset, value).
_emission = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 6), st.integers(0, 255)),
    max_size=40,  # past numpy's small-array insertion sort, which is stable
)


class TestRouteFlush:
    """The one message path — ``Outbox.route`` then ``Outbox.flush`` — against
    a naive per-destination reference folded in emission order."""

    @staticmethod
    def _emit(rounds, parts, dtype):
        """Route every round from partition 0 of ``parts``; returns the outbox
        and, per destination, its ``(vertex, value)`` pairs in emission order.
        Values are quarter-integers, so float sums are exact in any order."""
        out = Outbox()
        emitted: dict[int, list] = {}
        for tasks in rounds:
            owners = np.array([1 + o % (parts - 1) for o, _, _ in tasks], np.int64)
            vertices = owners * 100 + np.array([v for _, v, _ in tasks], np.int64)
            payload = np.array([p for _, _, p in tasks], dtype=dtype)
            if dtype is np.float64:
                payload = payload / 4
            out.route(owners, vertices, payload)
            for o, v, p in zip(owners.tolist(), vertices.tolist(), payload.tolist()):
                emitted.setdefault(o, []).append((v, p))
        return out, emitted

    @pytest.mark.parametrize(
        "combiner, fold, dtype",
        [
            (combine_or, operator.or_, np.uint64),
            (combine_min, min, np.float64),
            (combine_sum, operator.add, np.float64),
        ],
    )
    @settings(max_examples=40, deadline=None)
    @given(rounds=st.lists(_emission, min_size=1, max_size=4), parts=st.integers(2, 4))
    def test_matches_naive_reference(self, combiner, fold, dtype, rounds, parts):
        out, emitted = self._emit(rounds, parts, dtype)
        expected: dict[int, dict] = {}
        for dest, pairs in emitted.items():
            per = expected.setdefault(dest, {})
            for v, p in pairs:
                per[v] = fold(per[v], p) if v in per else p
        stats = StepStats()
        wire = out.flush(0, stats, combiner)
        assert [dest for dest, _ in wire] == sorted(expected)
        for dest, batch in wire:
            assert batch.vertices.tolist() == sorted(expected[dest])
            assert _as_dict(batch) == expected[dest]
        assert stats.messages_sent == {d: len(per) for d, per in expected.items()}
        assert stats.bytes_sent == {d: 16 * len(per) for d, per in expected.items()}
        assert out.is_empty

    @settings(max_examples=40, deadline=None)
    @given(rounds=st.lists(_emission, min_size=1, max_size=4), parts=st.integers(2, 4))
    def test_emission_order_survives_inside_a_destination(self, rounds, parts):
        """What float sums and the non-reducing combiners of the Listing 1 /
        Pregel adapters rely on."""
        out, emitted = self._emit(rounds, parts, np.float64)
        wire = out.flush(0, StepStats(), lambda batch: batch)
        assert [dest for dest, _ in wire] == sorted(emitted)
        for dest, batch in wire:
            got = list(zip(batch.vertices.tolist(), batch.payload.tolist()))
            assert got == emitted[dest]
