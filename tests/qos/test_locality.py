"""Affinity batching: a pure function of candidate order and seed owners."""

import numpy as np
import pytest

from repro.qos.locality import affinity_select


class TestAffinitySelect:
    def test_anchor_partition_first_then_arrival_order(self):
        #            anchor v
        owners = np.array([2, 0, 2, 1, 2, 0])
        # anchor partition 2 holds candidates {0, 2, 4}; fill with earliest
        # others {1, 3}; result reported in sorted (drain) order
        np.testing.assert_array_equal(
            affinity_select(owners, width=5), [0, 1, 2, 3, 4]
        )

    def test_same_partition_overflow_truncates(self):
        owners = np.array([1, 1, 1, 1])
        np.testing.assert_array_equal(affinity_select(owners, 2), [0, 1])

    def test_perfect_affinity_skips_strangers(self):
        owners = np.array([0, 1, 0, 1, 0])
        np.testing.assert_array_equal(affinity_select(owners, 3), [0, 2, 4])

    def test_width_one_is_the_anchor(self):
        np.testing.assert_array_equal(affinity_select(np.array([3, 0, 1]), 1), [0])

    def test_empty_and_bad_width(self):
        assert affinity_select(np.array([], dtype=np.int64), 4).size == 0
        with pytest.raises(ValueError, match="width"):
            affinity_select(np.array([0]), 0)

    def test_pure_function_of_inputs(self):
        rng = np.random.default_rng(5)
        owners = rng.integers(0, 4, 40)
        a = affinity_select(owners, 16)
        b = affinity_select(owners.copy(), 16)
        np.testing.assert_array_equal(a, b)
        assert a.dtype == np.int64


class TestLocalityScore:
    def test_affinity_select_raises_score(self):
        """The whole point: a selected batch has no smaller share of seeds
        in its most popular partition than the arrival-order prefix it
        replaces."""

        def top_share(owners):
            return np.bincount(owners).max() / owners.size

        for seed in range(5):
            owners = np.random.default_rng(seed).integers(0, 4, 60)
            width = 16
            chosen = affinity_select(owners, width)
            fifo = np.arange(width)
            assert top_share(owners[chosen]) >= top_share(owners[fifo])
