"""Unit tests for message batches, combiners and task buffers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.message import (
    Inbox,
    MessageBatch,
    Outbox,
    PlaneSlice,
    combine_min,
    combine_or,
    combine_sum,
)
from repro.runtime.netmodel import StepStats


class TestMessageBatch:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MessageBatch(np.array([1, 2]), np.array([1.0]))

    def test_num_tasks(self):
        b = MessageBatch(np.array([1, 2, 3]), np.zeros(3, dtype=np.uint64))
        assert b.num_tasks == 3

    def test_nbytes_counts_both_arrays(self):
        v = np.array([1, 2], dtype=np.int64)
        p = np.array([1, 2], dtype=np.uint64)
        assert MessageBatch(v, p).nbytes() == v.nbytes + p.nbytes

    def test_empty_batch(self):
        b = MessageBatch(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint64))
        assert b.num_tasks == 0


class TestCombiners:
    def test_combine_or_merges_duplicates(self):
        b = MessageBatch(
            np.array([3, 1, 3]), np.array([1, 2, 4], dtype=np.uint64)
        )
        c = combine_or(b)
        assert c.vertices.tolist() == [1, 3]
        assert c.payload.tolist() == [2, 5]

    def test_combine_min(self):
        b = MessageBatch(np.array([7, 7, 2]), np.array([3.0, 1.0, 9.0]))
        c = combine_min(b)
        assert c.vertices.tolist() == [2, 7]
        assert c.payload.tolist() == [9.0, 1.0]

    def test_combine_sum(self):
        b = MessageBatch(np.array([0, 0, 1]), np.array([1.5, 2.5, 3.0]))
        c = combine_sum(b)
        assert c.vertices.tolist() == [0, 1]
        assert c.payload.tolist() == [4.0, 3.0]

    def test_combine_empty(self):
        b = MessageBatch(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint64))
        assert combine_or(b).num_tasks == 0

    def test_combine_never_grows(self):
        b = MessageBatch(np.array([5, 5, 5, 5]), np.array([1, 2, 4, 8], np.uint64))
        c = combine_or(b)
        assert c.num_tasks == 1
        assert c.payload[0] == 15

    @settings(max_examples=60, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 10), st.integers(0, 2**32)),
            min_size=1,
            max_size=40,
        )
    )
    def test_combine_or_equals_naive(self, pairs):
        v = np.array([a for a, _ in pairs], dtype=np.int64)
        p = np.array([b for _, b in pairs], dtype=np.uint64)
        c = combine_or(MessageBatch(v, p))
        expected = {}
        for a, b in pairs:
            expected[a] = expected.get(a, 0) | b
        got = dict(zip(c.vertices.tolist(), c.payload.tolist()))
        assert got == expected


class TestTaskBuffer:
    """The two single-role task buffers: ``Outbox`` and ``Inbox``.

    What ``TaskBuffer`` did and these no longer do: ``take``/``partitions``
    (a flush is the only way out of an outbox), ``num_tasks()``/``nbytes()``
    (the accounting is the ``StepStats`` charge of the flush), ``merged()`` on
    a missing key (a flush visits queued destinations only) and the
    sender-keyed inbox (delivery order is the only order).
    """

    def test_append_and_take(self):
        buf = Outbox()
        b = MessageBatch(np.array([1]), np.array([1], dtype=np.uint64))
        buf.append(2, b)
        assert not buf.is_empty
        ((dest, sent),) = buf.flush(0, StepStats(), combine_or)
        assert dest == 2
        assert sent.vertices.tolist() == [1] and sent.payload.tolist() == [1]
        assert buf.is_empty

    def test_empty_batches_skipped(self):
        buf = Outbox()
        buf.append(0, MessageBatch(np.empty(0, np.int64), np.empty(0, np.uint64)))
        assert buf.is_empty

    def test_merged_combines_across_batches(self):
        buf = Outbox()
        buf.append(1, MessageBatch(np.array([4]), np.array([1], np.uint64)))
        buf.append(1, MessageBatch(np.array([4]), np.array([2], np.uint64)))
        ((dest, merged),) = buf.flush(0, StepStats(), combine_or)
        assert dest == 1
        assert merged.num_tasks == 1
        assert merged.payload[0] == 3

    def test_single_batch_reaches_combiner_uncopied(self):
        buf = Outbox()
        b = MessageBatch(np.array([4, 4]), np.array([1, 2], np.uint64))
        buf.append(1, b)
        seen = []
        buf.flush(0, StepStats(), lambda batch: seen.append(batch) or batch)
        assert len(seen) == 1 and seen[0] is b

    def test_flush_of_empty_outbox(self):
        stats = StepStats()
        assert Outbox().flush(0, stats, combine_or) == []
        assert stats.total_messages == 0

    def test_drain_keeps_delivery_order(self):
        buf = Inbox()
        first = MessageBatch(np.array([1]), np.array([1], np.uint64))
        second = MessageBatch(np.array([2]), np.array([2], np.uint64))
        buf.append(first)
        buf.append(second)
        drained = buf.drain()
        assert len(drained) == 2
        assert drained[0] is first and drained[1] is second
        assert buf.is_empty
        assert buf.drain() == []

    def test_accounting(self):
        buf = Outbox()
        buf.append(3, MessageBatch(np.array([1, 2]), np.array([1, 2], np.uint64)))
        buf.append(1, MessageBatch(np.array([7, 7]), np.array([1, 2], np.uint64)))
        stats = StepStats()
        wire = buf.flush(0, stats, combine_or)
        assert [dest for dest, _ in wire] == [1, 3]
        # charged post-combine: the two tasks for vertex 7 ride as one
        assert stats.messages_sent == {1: 1, 3: 2}
        assert stats.bytes_sent == {1: 16, 3: 32}


class TestPlaneSlice:
    """A destination's slice of a sender's slot plane: ``combine_or`` on it
    is the compress to its lit rows."""

    @pytest.mark.parametrize("words", [1, 3])
    def test_compress_keeps_lit_rows_in_slot_order(self, words):
        boundary = np.array([3, 8, 9, 20, 41], dtype=np.int32)
        plane = np.zeros((5, words), dtype=np.uint64)
        plane[1, 0] = 6
        plane[4, words - 1] = 1
        item = PlaneSlice(boundary, plane)
        assert item.num_tasks == 5  # slots handed to the combine, lit or not
        out = combine_or(item)
        assert isinstance(out, MessageBatch)
        assert out.vertices.tolist() == [8, 41] and out.vertices.dtype == np.int32
        assert np.array_equal(out.payload, plane[[1, 4]])
        assert out.payload.shape == (2, words)

    def test_compress_copies_even_when_every_row_is_lit(self):
        boundary = np.arange(4, dtype=np.int32)
        plane = np.ones((4, 2), dtype=np.uint64)
        out = combine_or(PlaneSlice(boundary, plane))
        assert out.num_tasks == 4
        assert not np.shares_memory(out.payload, plane)
        assert not np.shares_memory(out.vertices, boundary)

    def test_flush_charges_the_compressed_size_and_skips_a_dark_slice(self):
        plane = np.zeros((6, 1), dtype=np.uint64)
        plane[2, 0] = 5
        boundary = np.arange(10, 16, dtype=np.int32)
        buf = Outbox()
        buf.append(1, PlaneSlice(boundary[:3], plane[:3]))
        buf.append(2, PlaneSlice(boundary[3:], plane[3:]))  # nothing lit
        stats = StepStats()
        ((dest, sent),) = buf.flush(0, stats, combine_or)
        assert dest == 1 and sent.vertices.tolist() == [12]
        assert stats.messages_sent == {1: 1}
        assert stats.bytes_sent == {1: 4 + 8}
