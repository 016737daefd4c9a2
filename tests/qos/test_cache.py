"""ResultCache: LRU bounds, epoch invalidation and the batch hot path."""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


class DictCache:
    """Reference model: the one-probe-per-query ``OrderedDict`` LRU the
    array columns replace.  ``reinserted`` counts keys a ``store_many``
    popped and then stored again within the same call."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = OrderedDict()
        self.epoch = 0
        self.hits = self.misses = self.evictions = self.invalidated = 0
        self.reinserted = 0

    def on_epoch(self, epoch):
        if epoch <= self.epoch:
            return 0
        self.epoch = epoch
        stale = [key for key in self.entries if key[3] < epoch]
        for key in stale:
            del self.entries[key]
        self.invalidated += len(stale)
        return len(stale)

    def lookup_many(self, sources, targets, k, epoch):
        verdicts, hit = [], []
        for s, t in zip(sources, targets):
            verdict = self.entries.get((s, t, k, epoch))
            if verdict is not None:
                self.entries.move_to_end((s, t, k, epoch))
            verdicts.append(bool(verdict))
            hit.append(verdict is not None)
        self.hits += sum(hit)
        self.misses += len(hit) - sum(hit)
        return verdicts, hit

    def store_many(self, sources, targets, k, epoch, verdicts):
        popped = set()
        for s, t, verdict in zip(sources, targets, verdicts):
            key = (s, t, k, epoch)
            if key in self.entries:
                self.entries.move_to_end(key)
            elif len(self.entries) >= self.capacity:
                popped.add(self.entries.popitem(last=False)[0])
                self.evictions += 1
                self.reinserted += key in popped
            self.entries[key] = bool(verdict)


def _lru_order(c):
    """A ResultCache's entries, least recently used first."""
    rows = [
        (used, (key >> 32, key & 0xFFFFFFFF, None if k < 0 else k, epoch))
        for (k, epoch), gen in c._generations.items()
        for key, used in zip(gen.keys.tolist(), gen.used.tolist())
    ]
    return [(key, bool(used & 1)) for used, key in sorted(rows)]


def _assert_same(c, ref):
    assert _lru_order(c) == list(ref.entries.items())
    assert len(c) == len(ref.entries)
    assert (c.hits, c.misses, c.invalidated) == (
        ref.hits, ref.misses, ref.invalidated
    )
    # a key the dict pops and stores again in one call costs it one more pop
    assert c.evictions == ref.evictions - ref.reinserted


_pairs = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 3)), min_size=0, max_size=24
)
_k = st.sampled_from([None, 2, 3])
_steps = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["serve", "store"]), _pairs, _k,
                  st.integers(0, 2**31 - 1)),
        st.tuples(st.just("probe"), _pairs, _k, st.integers(0, 1)),
        st.tuples(st.just("epoch"), st.integers(-1, 2)),
    ),
    max_size=30,
)


def _columns(pairs):
    return [s for s, _ in pairs], [t for _, t in pairs]


def _flags(bits, count):
    return [bool(bits >> (i % 31) & 1) for i in range(count)]


class TestAgainstDictModel:
    """The columns are the dict LRU, batch by batch: same verdicts and hit
    masks, same entries in the same recency order, same counters."""

    @settings(max_examples=150, deadline=None)
    @given(capacity=st.integers(1, 16), steps=_steps)
    @example(capacity=1, steps=[("serve", [(0, 0), (1, 1), (0, 0)], 2, 5)])
    def test_matches_the_dict_lru_step_by_step(self, capacity, steps):
        """``serve`` is the service's contract: probe a wave, then store its
        misses, at the current epoch.  ``store`` stores any pairs, cached
        ones included; ``probe`` looks up at the current or next epoch
        without storing; ``epoch`` moves the epoch by -1..2."""
        c, ref = ResultCache(capacity), DictCache(capacity)
        epoch = 0
        for step in steps:
            if step[0] == "epoch":
                epoch = max(0, epoch + step[1])
                assert c.on_epoch(epoch) == ref.on_epoch(epoch)
            elif step[0] == "store":
                _, pairs, k, bits = step
                src, dst = _columns(pairs)
                for cache in (c, ref):
                    cache.store_many(src, dst, k, epoch, _flags(bits, len(pairs)))
            else:
                _, pairs, k, bits = step
                src, dst = _columns(pairs)
                at = epoch if step[0] == "serve" else epoch + bits
                got, hit = c.lookup_many(src, dst, k, at)
                want, want_hit = ref.lookup_many(src, dst, k, at)
                assert hit.tolist() == want_hit
                assert got[hit].tolist() == [v for v, h in zip(want, want_hit) if h]
                if step[0] == "serve":
                    miss = [i for i, h in enumerate(want_hit) if not h]
                    args = ([src[i] for i in miss], [dst[i] for i in miss], k, at)
                    for cache in (c, ref):
                        cache.store_many(*args, _flags(bits, len(miss)))
            _assert_same(c, ref)

    def test_a_repeat_beyond_capacity_is_one_eviction(self):
        """A miss repeated with ``capacity`` other keys between: the dict
        pops it and stores it again (two evictions), the columns count the
        one entry that left.  Contents and order agree."""
        c, ref = ResultCache(1), DictCache(1)
        for cache in (c, ref):
            cache.store_many([0, 1, 0], [0, 1, 0], 2, 0, [True, False, True])
        assert (c.evictions, ref.evictions, ref.reinserted) == (1, 2, 1)
        _assert_same(c, ref)

    def test_storing_cached_keys_into_a_full_cache(self):
        """Storing keys already cached, after a fresh one that pushes one of
        them out first: the dict pops it and reinserts it, the columns
        refresh it in place and evict the least recent other entry.  Same
        contents and verdicts; one eviction fewer."""
        c, ref = ResultCache(2), DictCache(2)
        for cache in (c, ref):
            cache.store_many([1, 2], [1, 2], 2, 0, [True, True])
            cache.store_many([3, 1], [3, 1], 2, 0, [False, False])
        assert (c.evictions, ref.evictions) == (1, 2)
        _assert_same(c, ref)
