"""Incremental 2-hop index maintenance: exactness, budgets, repacking."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamic.delta import DynamicGraph
from repro.graph import EdgeList, range_partition, rmat_edges
from repro.index.build import build_hub_labels
from repro.index.incremental import IncrementalIndex
from repro.runtime.session import GraphSession

from tests.dynamic.conftest import existing_edges, fresh_edges
from tests.index.incremental_reference import IncrementalIndex as ReferenceIndex


def _pairs(edges):
    return {(int(u), int(v)) for u, v in zip(edges.src, edges.dst)}


def _bfs_matrix(pairs, n):
    """All-pairs hop distances (-1 unreachable) from an edge-pair set."""
    adj = [[] for _ in range(n)]
    for u, v in pairs:
        adj[u].append(v)
    out = np.full((n, n), -1, dtype=np.int64)
    for s in range(n):
        out[s, s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for v in adj[u]:
                if out[s, v] < 0:
                    out[s, v] = out[s, u] + 1
                    q.append(v)
    return out


def _twin(pg, **kwargs):
    """A dynamic graph over ``pg`` and an index twin of its built labels."""
    labels = build_hub_labels(pg).labels
    return DynamicGraph(pg), IncrementalIndex(labels, pg, **kwargs)


class TestExactness:
    def test_mixed_batches_match_bfs_oracle(self, rng):
        el = rmat_edges(7, 1200, seed=3).remove_self_loops().deduplicate()
        n = el.num_vertices
        dg, inc = _twin(
            range_partition(el, 2), churn_threshold=10.0, region_threshold=1.1
        )
        current = {int(u) * n + int(v) for u, v in zip(el.src, el.dst)}
        live = _pairs(el)
        src, dst = np.divmod(np.arange(n * n, dtype=np.int64), n)
        for _ in range(3):
            dels = existing_edges(rng, n, current, 4)
            guard = current | {u * n + v for u, v in dels}
            ins = fresh_edges(rng, n, guard, 5)
            current |= {u * n + v for u, v in ins}
            res = dg.apply(ins, dels)
            patch = inc.apply(res.inserted, res.deleted)
            assert not patch.needs_rebuild
            live = (live - set(dels)) | set(ins)
            got = inc.finalize().dist_many(src, dst).reshape(n, n)
            np.testing.assert_array_equal(got, _bfs_matrix(live, n))

    def test_insert_only_patch_matches_rebuild(self, dyn_graph, rng):
        n = dyn_graph.num_vertices
        dg, inc = _twin(range_partition(dyn_graph, 2))
        current = {
            int(u) * n + int(v)
            for u, v in zip(dyn_graph.src, dyn_graph.dst)
        }
        res = dg.apply(fresh_edges(rng, n, current, 10))
        patch = inc.apply(res.inserted, res.deleted)
        assert not patch.needs_rebuild
        assert patch.entries_patched > 0
        rebuilt = build_hub_labels(dg.graph_at(dg.epoch)).labels
        s = rng.integers(0, n, size=2048)
        t = rng.integers(0, n, size=2048)
        np.testing.assert_array_equal(
            inc.finalize().dist_many(s, t), rebuilt.dist_many(s, t)
        )


class TestBudgets:
    def test_churn_threshold_trips_rebuild(self, dyn_graph, edge_keys, rng):
        dg, inc = _twin(range_partition(dyn_graph, 2), churn_threshold=0.0)
        res = dg.apply(fresh_edges(rng, dg.num_vertices, edge_keys, 1))
        assert inc.apply(res.inserted, res.deleted).needs_rebuild

    def test_region_threshold_trips_on_delete(self):
        el = EdgeList.from_pairs([(0, 1), (1, 2), (2, 3)], num_vertices=4)
        dg, inc = _twin(range_partition(el, 1), region_threshold=0.0)
        res = dg.apply(deletes=[(1, 2)])
        assert inc.apply(res.inserted, res.deleted).needs_rebuild


class TestRepack:
    def test_clean_finalize_reuses_arrays(self, dyn_graph):
        _, inc = _twin(range_partition(dyn_graph, 2))
        first = inc.finalize()
        second = inc.finalize()
        # No patched rows: finalize hands back the packed arrays.
        assert second.out_hubs is first.out_hubs
        assert second.in_hubs is first.in_hubs

    def test_dirty_rows_repacked_once(self, dyn_graph, rng):
        n = dyn_graph.num_vertices
        dg, inc = _twin(range_partition(dyn_graph, 2))
        base = inc.finalize()
        current = {
            int(u) * n + int(v)
            for u, v in zip(dyn_graph.src, dyn_graph.dst)
        }
        res = dg.apply(fresh_edges(rng, n, current, 2))
        inc.apply(res.inserted, res.deleted)
        patched = inc.finalize()
        # A fresh edge always changes at least one label side (its repack
        # replaces that side's arrays); untouched sides keep theirs.
        assert (
            patched.out_hubs is not base.out_hubs
            or patched.in_hubs is not base.in_hubs
        )
        again = inc.finalize()
        assert again.out_hubs is patched.out_hubs
        assert again.in_hubs is patched.in_hubs


_FIELDS = (
    "order", "out_indptr", "out_hubs", "out_dists",
    "in_indptr", "in_hubs", "in_dists",
)


@st.composite
def _streams(draw):
    """A small graph, a partition count and netted insert/delete batches."""
    n = draw(st.integers(4, 24))
    vid = st.integers(0, n - 1)
    pairs = draw(st.sets(st.tuples(vid, vid), max_size=3 * n))
    base = sorted((u, v) for u, v in pairs if u != v)
    el = EdgeList.from_pairs(base, num_vertices=n)
    batches = []
    current = set(base)
    for _ in range(draw(st.integers(1, 6))):
        dels = set()
        if current:
            dels = draw(st.sets(st.sampled_from(sorted(current)), max_size=2))
        ins = {
            (u, v)
            for u, v in draw(st.sets(st.tuples(vid, vid), max_size=4))
            if u != v and (u, v) not in current
        }
        current = (current - dels) | ins
        batches.append((sorted(ins), sorted(dels)))
    return el, draw(st.integers(1, 4)), batches


class TestReferenceParity:
    """The patch writes what the dict-label patch it replaced wrote
    (``tests/index/incremental_reference.py``): after every batch the
    frozen labels are byte-identical, dtypes included, and the rebuild
    decision and the accounting agree."""

    @settings(max_examples=150, deadline=None)
    @given(
        stream=_streams(),
        region=st.sampled_from([0.0, 0.1, 0.3, 1.1]),
        churn=st.sampled_from([0.05, 10.0]),
    )
    def test_labels_equal_the_dict_patch_after_every_batch(
        self, stream, region, churn
    ):
        el, parts, batches = stream
        pg = range_partition(el, parts)
        dg = DynamicGraph(pg)
        kwargs = dict(churn_threshold=churn, region_threshold=region)
        inc = ref = None
        for ins, dels in batches:
            if inc is None:  # a fresh twin of freshly built labels
                labels = build_hub_labels(pg).labels
                inc = IncrementalIndex(labels, pg, **kwargs)
                ref = ReferenceIndex.from_graph(labels, pg, **kwargs)
            res = dg.apply(ins, dels)
            if not res.changed:
                continue
            got = inc.apply(res.inserted, res.deleted)
            want = ref.apply(res.inserted, res.deleted)
            for name in ("needs_rebuild", "entries_patched", "vertices_repaired"):
                assert getattr(got, name) == getattr(want, name), name
            if got.needs_rebuild:
                inc = ref = None
                continue
            have, oracle = inc.finalize(), ref.finalize()
            for name in _FIELDS:
                a, b = getattr(have, name), getattr(oracle, name)
                assert a.dtype == b.dtype, name
                np.testing.assert_array_equal(a, b, err_msg=name)

    def test_a_delete_that_trips_and_one_that_does_not(self):
        # 0→1→2→3 plus the shortcut 0→2: deleting 0→1 moves d(0, 1) alone
        # (a region of 2 of the 4 vertices); deleting 2→3 cuts 3 off from
        # every vertex (a region of all 4)
        el = EdgeList.from_pairs(
            [(0, 1), (1, 2), (2, 3), (0, 2)], num_vertices=4
        )
        for dels, trips in (([(0, 1)], False), ([(2, 3)], True)):
            pg = range_partition(el, 2)
            budget = dict(churn_threshold=10.0, region_threshold=0.5)
            dg, inc = _twin(pg, **budget)
            ref = ReferenceIndex.from_graph(
                build_hub_labels(pg).labels, pg, **budget
            )
            res = dg.apply(deletes=dels)
            got = inc.apply(res.inserted, res.deleted)
            assert got.needs_rebuild is trips
            assert ref.apply(res.inserted, res.deleted).needs_rebuild is trips


class TestSessionIntegration:
    def test_patch_keeps_index_current(self, dyn_session, edge_keys, rng):
        dg = dyn_session.dynamic()
        n = dg.num_vertices
        dyn_session.index()
        # Mutations must flow through the session's write path for index
        # maintenance to happen; DynamicGraph.apply alone only moves the
        # graph.
        dyn_session.apply_mutations(fresh_edges(rng, n, edge_keys, 3),
                                    existing_edges(rng, n, edge_keys, 2))
        # The patched resident index answers like a from-scratch build of
        # the mutated graph.
        rebuilt = build_hub_labels(dg.graph_at(dg.epoch)).labels
        s = rng.integers(0, n, size=1024)
        t = rng.integers(0, n, size=1024)
        np.testing.assert_array_equal(
            dyn_session.index().dist_many(s, t), rebuilt.dist_many(s, t)
        )

    def test_maintenance_accepts_only_incremental(self, dyn_graph):
        # a resident index is always patched; the keyword names that one
        # mode, and the stale-index mode it once offered is refused
        sess = GraphSession(dyn_graph, num_machines=2)
        with pytest.raises(ValueError, match="must be 'incremental'"):
            sess.dynamic(index_maintenance="none")
        assert not sess.is_dynamic
        assert sess.dynamic(index_maintenance="incremental").epoch == 0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.01])
    def test_churn_threshold_must_be_finite_and_non_negative(
        self, dyn_graph, bad
    ):
        # NaN never trips the rebuild budget, a negative one trips it on
        # every batch; recovery passes the manifest's value through here
        sess = GraphSession(dyn_graph, num_machines=2)
        with pytest.raises(ValueError, match="churn_threshold"):
            sess.dynamic(churn_threshold=bad)
        assert not sess.is_dynamic
        assert sess.dynamic(churn_threshold=0.0).epoch == 0
