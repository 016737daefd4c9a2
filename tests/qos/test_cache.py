"""ResultCache: LRU bounds, epoch invalidation and the batch hot path."""

import numpy as np
import pytest

from repro.qos.cache import ResultCache


def store(c, source, target, k, epoch, verdict):
    """One verdict through a length-1 ``store_many``."""
    c.store_many([source], [target], k, epoch, [verdict])


def lookup(c, source, target, k, epoch):
    """One probe through a length-1 ``lookup_many``: the verdict or None."""
    verdicts, hit = c.lookup_many([source], [target], k, epoch)
    return bool(verdicts[0]) if hit[0] else None


class TestLru:
    def test_store_lookup_round_trip(self):
        c = ResultCache(capacity=8)
        store(c, 1, 2, 3, 0, True)
        store(c, 4, 5, 3, 0, False)
        assert lookup(c, 1, 2, 3, 0) is True
        assert lookup(c, 4, 5, 3, 0) is False
        assert lookup(c, 9, 9, 3, 0) is None
        assert c.hits == 2 and c.misses == 1
        assert len(c) == 2

    def test_eviction_is_least_recently_used(self):
        c = ResultCache(capacity=2)
        store(c, 1, 1, 2, 0, True)
        store(c, 2, 2, 2, 0, True)
        assert lookup(c, 1, 1, 2, 0) is True  # refresh 1 -> 2 is now LRU
        store(c, 3, 3, 2, 0, True)  # evicts 2
        assert c.evictions == 1
        assert lookup(c, 2, 2, 2, 0) is None
        assert lookup(c, 1, 1, 2, 0) is True
        assert lookup(c, 3, 3, 2, 0) is True

    def test_restore_refreshes_not_evicts(self):
        c = ResultCache(capacity=2)
        store(c, 1, 1, 2, 0, True)
        store(c, 2, 2, 2, 0, True)
        store(c, 1, 1, 2, 0, True)  # refresh in place
        assert c.evictions == 0
        assert len(c) == 2

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            ResultCache(capacity=0)

    def test_hit_ratio_nan_free(self):
        c = ResultCache()
        assert c.hit_ratio == 0.0
        store(c, 0, 1, 2, 0, True)
        lookup(c, 0, 1, 2, 0)
        lookup(c, 5, 5, 2, 0)
        assert c.hit_ratio == 0.5
        assert "hit_ratio=0.500" in repr(c)

    def test_k_none_is_a_distinct_key(self):
        c = ResultCache()
        store(c, 0, 1, None, 0, True)
        assert lookup(c, 0, 1, None, 0) is True
        assert lookup(c, 0, 1, 4, 0) is None


class TestEpochInvalidation:
    def test_epoch_advance_drops_older_entries(self):
        c = ResultCache()
        store(c, 1, 2, 3, 0, True)
        store(c, 3, 4, 3, 1, True)
        assert c.on_epoch(1) == 1  # the epoch-0 entry
        assert c.invalidated == 1
        assert lookup(c, 1, 2, 3, 0) is None
        assert lookup(c, 3, 4, 3, 1) is True

    def test_on_epoch_is_idempotent_and_monotone(self):
        c = ResultCache()
        store(c, 1, 2, 3, 2, True)
        assert c.on_epoch(2) == 0
        assert c.on_epoch(2) == 0
        assert c.on_epoch(1) == 0  # stale notification: no rollback
        assert lookup(c, 1, 2, 3, 2) is True

    def test_stale_epoch_key_never_hits(self):
        """Even without an on_epoch sweep, the epoch in the key makes an
        old verdict unreachable — invalidation is for capacity, not
        correctness."""
        c = ResultCache()
        store(c, 1, 2, 3, 0, True)
        assert lookup(c, 1, 2, 3, 1) is None


class TestBatchInterface:
    def test_lookup_many_matches_scalar_path(self):
        rng = np.random.default_rng(2)
        src = rng.integers(0, 50, 40)
        dst = rng.integers(0, 50, 40)
        verdicts = rng.integers(0, 2, 40).astype(bool)
        c = ResultCache()
        c.store_many(src[:25], dst[:25], 3, 7, verdicts[:25])
        got, hit = c.lookup_many(src, dst, 3, 7)
        scalar = ResultCache()
        scalar.store_many(src[:25], dst[:25], 3, 7, verdicts[:25])
        for i in range(40):
            v = lookup(scalar, int(src[i]), int(dst[i]), 3, 7)
            assert hit[i] == (v is not None)
            if v is not None:
                assert got[i] == v
        assert c.hits == scalar.hits and c.misses == scalar.misses

    def test_lookup_many_counts_and_refreshes(self):
        c = ResultCache(capacity=3)
        c.store_many([1, 2, 3], [1, 2, 3], 2, 0, [True, False, True])
        got, hit = c.lookup_many([1, 9], [1, 9], 2, 0)
        assert hit.tolist() == [True, False]
        assert got[0] == True  # noqa: E712 - numpy bool
        assert (c.hits, c.misses) == (1, 1)
        # the probe refreshed (1,1): storing a 4th entry evicts (2,2)
        store(c, 4, 4, 2, 0, True)
        assert lookup(c, 2, 2, 2, 0) is None
        assert lookup(c, 1, 1, 2, 0) is True
