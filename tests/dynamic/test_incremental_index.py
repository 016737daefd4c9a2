"""Incremental 2-hop index maintenance: canonical labels, exactness,
repacking, and the dense head carried across every patch."""

import tempfile
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dynamic.delta import DynamicGraph
from repro.graph import EdgeList, range_partition, rmat_edges
from repro.index.build import build_hub_labels
from repro.index import labels as labels_module
from repro.index.incremental import IncrementalIndex, _LabelRows
from repro.index.labels import _head_width, _write_head
from repro.index.storage import labels_equal
from repro.runtime.durability import recover_session
from repro.runtime.session import GraphSession

from tests.dynamic.conftest import existing_edges, fresh_edges


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


def _twin(pg):
    """A dynamic graph over ``pg`` and an index twin of its built labels."""
    labels = build_hub_labels(pg).labels
    return DynamicGraph(pg), IncrementalIndex(labels, pg)


class TestExactness:
    def test_mixed_batches_match_bfs_oracle(self, rng):
        el = rmat_edges(7, 1200, seed=3).remove_self_loops().deduplicate()
        n = el.num_vertices
        dg, inc = _twin(range_partition(el, 2))
        current = {int(u) * n + int(v) for u, v in zip(el.src, el.dst)}
        live = _pairs(el)
        src, dst = np.divmod(np.arange(n * n, dtype=np.int64), n)
        for _ in range(3):
            dels = existing_edges(rng, n, current, 4)
            guard = current | {u * n + v for u, v in dels}
            ins = fresh_edges(rng, n, guard, 5)
            current |= {u * n + v for u, v in ins}
            res = dg.apply(ins, dels)
            inc.apply(res.inserted, res.deleted)
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
        assert inc.apply(res.inserted, res.deleted) > 0  # entries written
        rebuilt = build_hub_labels(dg.graph_at(dg.epoch)).labels
        s = rng.integers(0, n, size=2048)
        t = rng.integers(0, n, size=2048)
        np.testing.assert_array_equal(
            inc.finalize().dist_many(s, t), rebuilt.dist_many(s, t)
        )


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

    def test_append_after_finalize_fills_the_slack(self, dyn_graph):
        """A repack leaves room behind the image: the next append writes
        there without regrowing the buffers, and the image handed out
        before it does not change."""
        labels = build_hub_labels(range_partition(dyn_graph, 2)).labels
        rows = _LabelRows(labels.out_indptr, labels.out_hubs, labels.out_dists)
        n = labels.num_vertices
        rows.append(np.arange(0, n, 3), n - 1, 5)
        image = rows.finalize()
        frozen = [a.copy() for a in image]
        hubs, dists = rows.hubs, rows.dists
        rows.append(np.arange(1, n, 3), n - 2, 6)
        assert rows.hubs is hubs and rows.dists is dists
        for got, want in zip(image, frozen):
            np.testing.assert_array_equal(got, want)
        for v in range(1, n, 3):  # and the append landed
            assert n - 2 in rows.row(v)[0].tolist()


@st.composite
def _streams(draw):
    """A small graph, a partition count and netted insert/delete batches."""
    n = draw(st.integers(4, 24))
    vid = st.integers(0, n - 1)
    pairs = draw(st.sets(st.tuples(vid, vid), min_size=n, max_size=3 * n))
    base = sorted((u, v) for u, v in pairs if u != v)
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
    return n, base, batches


class TestCanonicalLabels:
    """After every batch the patched labels are the build's labelling of
    the current graph under the frozen hub order, entry for entry — on
    flat and edge-set sessions of 1–4 partitions, across a recovery from
    the durable directory mid-stream."""

    @settings(max_examples=80, deadline=None)
    @given(
        stream=_streams(),
        parts=st.integers(1, 4),
        edge_sets=st.booleans(),
        recover_at=st.integers(0, 6),
    )
    # 0→1→2→3 plus the shortcut 0→2: deleting 2→3 cuts 3 off from every
    # vertex; deleting 0→1 then moves d(0, 1) alone
    @example(
        stream=(4, [(0, 1), (0, 2), (1, 2), (2, 3)], [([], [(2, 3)]),
                                                      ([], [(0, 1)])]),
        parts=2, edge_sets=False, recover_at=1,
    )
    def test_labels_equal_a_frozen_order_build_after_every_batch(
        self, stream, parts, edge_sets, recover_at
    ):
        n, base, batches = stream
        el = EdgeList.from_pairs(base, num_vertices=n)
        with tempfile.TemporaryDirectory() as root:
            sess = GraphSession(el, num_machines=parts, edge_sets=edge_sets)
            frozen = sess.index().order
            mgr = sess.enable_durability(root, fsync="none", checkpoint_every=3)
            for i, (ins, dels) in enumerate(batches):
                if i == recover_at:
                    mgr.close()
                    sess.close()
                    sess = recover_session(root)
                    mgr = sess._durability
                sess.apply_mutations(ins, dels)
                dg = sess.dynamic()
                want = build_hub_labels(dg.graph_at(dg.epoch), order=frozen)
                assert labels_equal(sess.index(), want.labels)
            mgr.close()
            sess.close()


def _assert_fresh_head(labels, width):
    """``labels``' head is already there (carried, not derived on this
    read) and equals a derivation from its rows at ``width``."""
    assert labels._head is not None
    for head, side in zip(labels._head, labels._sides()):
        for got, want in zip(head, _write_head(*side, width)):
            np.testing.assert_array_equal(got, want)


class TestCarriedHead:
    """``finalize`` copies the last image's head and rewrites only the rows
    the patch moved; after every batch that equals a fresh derivation at
    the width of the first one."""

    @settings(max_examples=60, deadline=None)
    @given(
        stream=_streams(),
        parts=st.integers(1, 3),
        width=st.sampled_from([None, 1, 2, 4, 32]),
    )
    def test_carried_head_equals_a_fresh_derivation(self, stream, parts, width):
        n, base, batches = stream
        el = EdgeList.from_pairs(base, num_vertices=n)
        dg, inc = _twin(range_partition(el, parts))
        rule = _head_width if width is None else (lambda n, b: width)
        with mock.patch.object(labels_module, "_head_width", rule):
            first = inc.finalize().head[0].plane.shape[1]
            for ins, dels in batches:
                res = dg.apply(ins, dels)
                inc.apply(res.inserted, res.deleted)
                _assert_fresh_head(inc.finalize(), first)

    def test_the_width_is_kept_while_the_labels_grow(self, rng):
        # 128 vertices and 12 edges: the rule gives an 8-wide head, and
        # 400 inserts later it would give a wider one
        el = rmat_edges(7, 12, seed=2).remove_self_loops().deduplicate()
        n = el.num_vertices
        dg, inc = _twin(range_partition(el, 2))
        first = inc.finalize().head[0].plane.shape[1]
        current = {int(u) * n + int(v) for u, v in zip(el.src, el.dst)}
        for _ in range(4):
            res = dg.apply(fresh_edges(rng, n, current, 100))
            inc.apply(res.inserted, res.deleted)
            labels = inc.finalize()
            _assert_fresh_head(labels, first)
        size = sum(h.nbytes + d.nbytes for _, h, d in labels._sides())
        assert _head_width(n, size) > first


class TestHeadBudget:
    """A dynamic session that reads its index after every batch derives
    the head once and carries it per batch; a head derived again per epoch
    (3-6 ms on OR-100M) raised ``mixed_dynamic``'s p90 by 20-40 %."""

    def test_twelve_batches_derive_once_and_carry_twelve_times(
        self, dyn_session, edge_keys, rng, monkeypatch
    ):
        derived, carried = [], []
        write, carry = labels_module._write_head, labels_module.HubLabels.carry_head

        def counting_write(indptr, hubs, dists, width, prior=None, rows=None):
            if rows is None:
                derived.append(width)
            return write(indptr, hubs, dists, width, prior, rows)

        def counting_carry(self, prior, out_rows, in_rows):
            carried.append(prior._head is not None)
            return carry(self, prior, out_rows, in_rows)

        monkeypatch.setattr(labels_module, "_write_head", counting_write)
        monkeypatch.setattr(labels_module.HubLabels, "carry_head", counting_carry)
        n = dyn_session.num_vertices
        s, t = rng.integers(0, n, 256), rng.integers(0, n, 256)
        dyn_session.index().dist_many(s, t)
        for _ in range(12):
            dyn_session.apply_mutations(fresh_edges(rng, n, edge_keys, 3),
                                        existing_edges(rng, n, edge_keys, 1))
            dyn_session.index().dist_many(s, t)
        assert len(derived) == 2  # one derivation, out and in
        assert carried == [True] * 12


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
