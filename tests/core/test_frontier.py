"""Unit tests for the bit-parallel frontier planes (§3.5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.frontier import BitFrontier, per_query_counts, popcount


class TestPopcount:
    def test_known_values(self):
        x = np.array([0, 1, 3, 0xFF, 2**63], dtype=np.uint64)
        assert popcount(x).tolist() == [0, 1, 2, 8, 1]

    def test_all_ones(self):
        x = np.array([0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
        assert popcount(x).tolist() == [64]

    @settings(max_examples=100, deadline=None)
    @given(v=st.integers(0, 2**64 - 1))
    def test_matches_python_bitcount(self, v):
        arr = np.array([v], dtype=np.uint64)
        assert popcount(arr)[0] == v.bit_count()

    def test_does_not_mutate_input(self):
        x = np.array([0xDEADBEEF, 7], dtype=np.uint64)
        before = x.copy()
        popcount(x)
        assert np.array_equal(x, before)

    def test_accepts_non_uint64_input(self):
        assert popcount(np.array([3, 255], dtype=np.int64)).tolist() == [2, 8]


class TestPerQueryCounts:
    def test_counts_columns(self):
        bits = np.array([0b01, 0b11, 0b10], dtype=np.uint64)
        counts = per_query_counts(bits, 2)
        assert counts.tolist() == [2, 2]

    def test_zero_queries_width(self):
        bits = np.zeros(4, dtype=np.uint64)
        assert per_query_counts(bits, 3).tolist() == [0, 0, 0]

    def test_two_dimensional_planes(self):
        # 2 vertices x 2 words: query 0 set on both rows, query 64 on row 1
        bits = np.array([[1, 0], [1, 1]], dtype=np.uint64)
        counts = per_query_counts(bits, 65)
        assert counts[0] == 2
        assert counts[64] == 1
        assert counts[1:64].sum() == 0

    def test_empty_partition(self):
        bits = np.zeros((0, 2), dtype=np.uint64)
        assert per_query_counts(bits, 100).tolist() == [0] * 100

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2**63, size=(16, 3), dtype=np.uint64)
        num_queries = 150
        mask = np.uint64((1 << (num_queries - 128)) - 1)
        bits[:, 2] &= mask  # trim the partial word like promote() does
        counts = per_query_counts(bits, num_queries)
        for q in (0, 1, 63, 64, 127, 128, 149):
            w, b = divmod(q, 64)
            expected = sum(int(row[w]) >> b & 1 for row in bits)
            assert counts[q] == expected

    @settings(max_examples=150, deadline=None)
    @given(
        words=st.integers(1, 8),
        rows=st.integers(0, 3000),
        fill=st.sampled_from(["random", "ones", "top_bit", "sparse"]),
        flat=st.booleans(),
        data=st.data(),
    )
    def test_matches_an_unpackbits_model(self, words, rows, fill, flat, data):
        """Every width, row count and bit pattern: the one-bincount counts
        equal a column sum of the fully unpacked plane."""
        if flat:
            words = 1
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2**64, size=(rows, words), dtype=np.uint64)
        if fill == "ones":
            bits[:] = np.uint64(2**64 - 1)
        elif fill == "top_bit":
            bits |= np.uint64(1 << 63)
        elif fill == "sparse":
            bits &= rng.integers(0, 2**64, size=bits.shape, dtype=np.uint64)
            bits[rng.random(rows) < 0.8] = 0
        num_queries = data.draw(st.integers(1, 64 * words))
        unpacked = np.unpackbits(
            bits.astype("<u8").view(np.uint8).reshape(rows, 8 * words),
            axis=1, bitorder="little",
        )
        want = unpacked.sum(axis=0, dtype=np.int64)[:num_queries]
        got = per_query_counts(bits[:, 0] if flat else bits, num_queries)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


class TestBitFrontier:
    def test_width_bounds(self):
        with pytest.raises(ValueError):
            BitFrontier(4, 0)
        with pytest.raises(ValueError):
            BitFrontier(4, 513)
        BitFrontier(4, 64)  # single-word max
        BitFrontier(4, 65)  # spills into a second word
        BitFrontier(4, 512)  # widest supported batch

    def test_seed_sets_frontier_and_visited(self):
        f = BitFrontier(4, 2)
        f.seed(1, 0)
        f.seed(1, 1)
        assert f.frontier[1] == 0b11
        assert f.visited[1] == 0b11
        assert f.active_vertices().tolist() == [1]

    def test_seed_out_of_batch_rejected(self):
        f = BitFrontier(4, 2)
        with pytest.raises(ValueError):
            f.seed(0, 2)

    def test_or_into_next_accumulates_duplicates(self):
        f = BitFrontier(4, 3)
        f.or_into_next(
            np.array([2, 2]), np.array([0b001, 0b100], dtype=np.uint64)
        )
        assert f.next[2] == 0b101

    def test_promote_masks_visited(self):
        f = BitFrontier(4, 2)
        f.seed(0, 0)  # vertex 0 visited by query 0
        f.or_into_next(np.array([0, 1]), np.array([0b01, 0b01], dtype=np.uint64))
        newly = f.promote()
        # vertex 0 already visited by query 0 -> masked out; vertex 1 is new
        assert newly[0] == 0
        assert newly[1] == 0b01
        assert f.frontier[1] == 0b01
        assert f.visited[1] == 0b01

    def test_promote_applies_query_mask(self):
        f = BitFrontier(2, 2)  # only queries 0,1 valid
        f.or_into_next(np.array([0]), np.array([0b111], dtype=np.uint64))
        newly = f.promote()
        assert newly[0] == 0b11  # bit 2 masked off

    def test_promote_clears_next(self):
        f = BitFrontier(3, 1)
        f.or_into_next(np.array([1]), np.array([1], dtype=np.uint64))
        f.promote()
        assert (f.next == 0).all()

    def test_alive_bits(self):
        f = BitFrontier(4, 3)
        f.seed(0, 0)
        f.seed(3, 2)
        assert int(f.alive_bits()) == 0b101

    def test_alive_bits_empty_partition(self):
        f = BitFrontier(0, 2)
        assert int(f.alive_bits()) == 0

    def test_visited_and_frontier_counts(self):
        f = BitFrontier(4, 2)
        f.seed(0, 0)
        f.seed(1, 0)
        f.seed(1, 1)
        assert f.visited_counts().tolist() == [2, 1]
        assert f.frontier_counts().tolist() == [2, 1]

    def test_nbytes(self):
        f = BitFrontier(100, 64)
        assert f.nbytes() == 3 * 100 * 8

    def test_visited_monotone_under_promote(self):
        """The visited plane only ever gains bits (Figure 5 invariant)."""
        rng = np.random.default_rng(0)
        f = BitFrontier(32, 8)
        f.seed(0, 0)
        prev = f.visited.copy()
        for _ in range(10):
            verts = rng.integers(0, 32, size=20)
            bits = rng.integers(0, 256, size=20).astype(np.uint64)
            f.or_into_next(verts, bits)
            f.promote()
            assert ((f.visited & prev) == prev).all()
            prev = f.visited.copy()

    def test_frontier_disjoint_from_prior_visited(self):
        """After promote, the new frontier never revisits a vertex/query."""
        f = BitFrontier(8, 4)
        f.seed(2, 1)
        before = f.visited.copy()
        f.or_into_next(np.array([2, 3]), np.array([0b10, 0b10], dtype=np.uint64))
        newly = f.promote()
        assert (newly & before).max() == 0


class TestMultiWordBitFrontier:
    """Batches wider than 64 queries span multiple words per vertex."""

    def test_word_count(self):
        assert BitFrontier(4, 64).words == 1
        assert BitFrontier(4, 65).words == 2
        assert BitFrontier(4, 128).words == 2
        assert BitFrontier(4, 129).words == 3
        assert BitFrontier(4, 512).words == 8

    def test_seed_lands_in_right_word(self):
        f = BitFrontier(4, 130)
        f.seed(1, 0)
        f.seed(1, 64)
        f.seed(2, 129)
        assert f.frontier[1, 0] == np.uint64(1)
        assert f.frontier[1, 1] == np.uint64(1)
        assert f.frontier[2, 2] == np.uint64(1 << 1)
        assert sorted(f.active_vertices().tolist()) == [1, 2]

    def test_seed_out_of_batch_rejected(self):
        f = BitFrontier(4, 70)
        with pytest.raises(ValueError):
            f.seed(0, 70)

    def test_query_mask_trims_partial_word(self):
        f = BitFrontier(2, 70)  # word 1 has only 6 valid bits
        ones = np.full((1, 2), 0xFFFFFFFFFFFFFFFF, dtype=np.uint64)
        f.or_into_next(np.array([0]), ones)
        newly = f.promote()
        assert newly[0, 0] == np.uint64(0xFFFFFFFFFFFFFFFF)
        assert newly[0, 1] == np.uint64(0b111111)

    def test_promote_masks_visited_per_word(self):
        f = BitFrontier(2, 128)
        f.seed(0, 0)
        f.seed(0, 64)
        bits = np.array([[0b11, 0b01]], dtype=np.uint64)
        f.or_into_next(np.array([0]), bits)
        newly = f.promote()
        # query 0 (word 0) and query 64 (word 1) already visited at vertex 0
        assert newly[0, 0] == np.uint64(0b10)
        assert newly[0, 1] == np.uint64(0)

    def test_alive_bits_across_words(self):
        f = BitFrontier(4, 130)
        f.seed(0, 5)
        f.seed(3, 129)
        alive = f.alive_bits()
        assert isinstance(alive, int)
        assert alive == (1 << 5) | (1 << 129)

    def test_visited_counts_multi_word(self):
        f = BitFrontier(4, 100)
        f.seed(0, 0)
        f.seed(1, 0)
        f.seed(2, 99)
        counts = f.visited_counts()
        assert counts.shape == (100,)
        assert counts[0] == 2
        assert counts[99] == 1
        assert counts.sum() == 3

    def test_nbytes(self):
        f = BitFrontier(10, 512)  # 8 words x 3 planes x 10 vertices
        assert f.nbytes() == 3 * 10 * 8 * 8
