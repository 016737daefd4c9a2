"""Incremental 2-hop index maintenance: exactness, budgets, repacking."""

from collections import deque

import numpy as np
import pytest

from repro.graph import EdgeList, range_partition, rmat_edges
from repro.index.build import build_hub_labels, global_csr_csc
from repro.index.incremental import IncrementalIndex
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


def _arr(pairs):
    if not pairs:
        return np.empty((0, 2), dtype=np.int64)
    return np.array(pairs, dtype=np.int64)


class TestExactness:
    def test_mixed_batches_match_bfs_oracle(self, rng):
        el = rmat_edges(7, 1200, seed=3).remove_self_loops().deduplicate()
        n = el.num_vertices
        pg = range_partition(el, 2)
        inc = IncrementalIndex.from_graph(
            build_hub_labels(pg).labels, pg,
            churn_threshold=10.0, region_threshold=1.1,
        )
        current = {int(u) * n + int(v) for u, v in zip(el.src, el.dst)}
        live = _pairs(el)
        src, dst = np.divmod(np.arange(n * n, dtype=np.int64), n)
        for _ in range(3):
            # Keep the batch's inserts and deletes disjoint: the index
            # patch API takes *netted* batches (DynamicGraph.apply nets
            # out insert-then-delete of the same edge before handing the
            # result to the index).
            dels = existing_edges(rng, n, current, 4)
            guard = current | {u * n + v for u, v in dels}
            ins = fresh_edges(rng, n, guard, 5)
            current |= {u * n + v for u, v in ins}
            res = inc.apply(_arr(ins), _arr(dels))
            assert not res.needs_rebuild
            live = (live - set(dels)) | set(ins)
            got = inc.finalize().dist_many(src, dst).reshape(n, n)
            np.testing.assert_array_equal(got, _bfs_matrix(live, n))

    def test_insert_only_patch_matches_rebuild(self, dyn_graph, rng):
        n = dyn_graph.num_vertices
        pg = range_partition(dyn_graph, 2)
        inc = IncrementalIndex.from_graph(build_hub_labels(pg).labels, pg)
        current = {
            int(u) * n + int(v)
            for u, v in zip(dyn_graph.src, dyn_graph.dst)
        }
        ins = fresh_edges(rng, n, current, 10)
        res = inc.apply(_arr(ins), _arr([]))
        assert not res.needs_rebuild
        assert res.entries_patched > 0
        arr = np.array(sorted(current), dtype=np.int64)
        rebuilt = build_hub_labels(
            range_partition(EdgeList(arr // n, arr % n, n), 2)
        ).labels
        s = rng.integers(0, n, size=2048)
        t = rng.integers(0, n, size=2048)
        np.testing.assert_array_equal(
            inc.finalize().dist_many(s, t), rebuilt.dist_many(s, t)
        )


class TestBudgets:
    def test_churn_threshold_trips_rebuild(self, dyn_graph):
        pg = range_partition(dyn_graph, 2)
        inc = IncrementalIndex.from_graph(
            build_hub_labels(pg).labels, pg, churn_threshold=0.0
        )
        res = inc.apply(_arr([(0, 1)]), _arr([]))
        assert res.needs_rebuild

    def test_region_threshold_trips_on_delete(self):
        el = EdgeList.from_pairs([(0, 1), (1, 2), (2, 3)], num_vertices=4)
        pg = range_partition(el, 1)
        inc = IncrementalIndex.from_graph(
            build_hub_labels(pg).labels, pg, region_threshold=0.0
        )
        res = inc.apply(_arr([]), _arr([(1, 2)]))
        assert res.needs_rebuild


class TestRepack:
    def test_clean_finalize_reuses_arrays(self, dyn_graph):
        pg = range_partition(dyn_graph, 2)
        inc = IncrementalIndex.from_graph(build_hub_labels(pg).labels, pg)
        first = inc.finalize()
        second = inc.finalize()
        # No dirty rows: finalize hands back the cached packed arrays.
        assert second.out_hubs is first.out_hubs
        assert second.in_hubs is first.in_hubs

    def test_dirty_rows_repacked_once(self, dyn_graph, rng):
        n = dyn_graph.num_vertices
        pg = range_partition(dyn_graph, 2)
        inc = IncrementalIndex.from_graph(build_hub_labels(pg).labels, pg)
        base = inc.finalize()
        current = {
            int(u) * n + int(v)
            for u, v in zip(dyn_graph.src, dyn_graph.dst)
        }
        inc.apply(_arr(fresh_edges(rng, n, current, 2)), _arr([]))
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


class TestAdjacency:
    """The index's own adjacency is the graph's: the splice it applies per
    batch must leave exactly the arrays ``global_csr_csc`` concatenates
    from the spliced shards.  The labels cannot be trusted otherwise — a
    row out of order splices the next insert into the wrong slot, and the
    pruned BFS then walks a graph that is not the one being labelled."""

    @pytest.mark.parametrize(
        "churn, region, patched",
        [(10.0, 1.1, True), (0.0, 1.1, False), (10.0, 0.0, False)],
        ids=["patched", "churn-tripped", "region-tripped"],
    )
    def test_matches_graph_after_every_batch(
        self, dyn_graph, edge_keys, rng, churn, region, patched
    ):
        sess = GraphSession(dyn_graph, num_machines=3)
        dg = sess.dynamic()
        n = dg.num_vertices
        inc = IncrementalIndex.from_graph(
            build_hub_labels(sess.pg).labels, sess.pg,
            churn_threshold=churn, region_threshold=region,
        )
        repaired = tripped = 0
        for step in range(8):
            dels = existing_edges(rng, n, edge_keys, step % 3)
            guard = edge_keys | {u * n + v for u, v in dels}
            ins = fresh_edges(rng, n, guard, 3)
            edge_keys |= {u * n + v for u, v in ins}
            res = dg.apply(ins, dels)
            patch = inc.apply(res.inserted, res.deleted)
            repaired += patch.vertices_repaired
            tripped += patch.needs_rebuild
            if step == 4:
                dg.compact()
            for got, want in zip(
                (inc.out_csr, inc.in_csc), global_csr_csc(sess.pg)
            ):
                for a, b in ((got.indptr, want.indptr),
                             (got.indices, want.indices)):
                    assert a.dtype == b.dtype
                    np.testing.assert_array_equal(a, b)
        # the stream ran delete repair, or tripped the budget it guards
        assert (repaired > 0, tripped > 0) == (patched, not patched)


def _reference_repack(label_dicts, packed, dirty):
    """The per-vertex repack ``finalize`` ran before it was vectorised."""
    if not dirty:
        return packed
    indptr0, hubs0, dists0 = packed
    indptr = np.zeros(len(label_dicts) + 1, dtype=np.int64)
    hub_segs, dist_segs = [], []
    for v in range(len(label_dicts)):
        if v in dirty:
            items = sorted(label_dicts[v].items())
            hub_segs.append(np.array([r for r, _ in items], dtype=hubs0.dtype))
            dist_segs.append(np.array([d for _, d in items], dtype=dists0.dtype))
        else:
            hub_segs.append(hubs0[indptr0[v]:indptr0[v + 1]])
            dist_segs.append(dists0[indptr0[v]:indptr0[v + 1]])
        indptr[v + 1] = indptr[v] + len(hub_segs[-1])
    return indptr, np.concatenate(hub_segs), np.concatenate(dist_segs)


class TestRepackReference:
    def test_vectorised_repack_is_byte_identical(self, rng):
        el = rmat_edges(7, 1200, seed=11).remove_self_loops().deduplicate()
        n = el.num_vertices
        pg = range_partition(el, 2)
        inc = IncrementalIndex.from_graph(
            build_hub_labels(pg).labels, pg,
            churn_threshold=10.0, region_threshold=1.1,
        )
        current = {int(u) * n + int(v) for u, v in zip(el.src, el.dst)}
        repaired = 0
        for step in range(10):
            dels = existing_edges(rng, n, current, int(rng.integers(0, 4)))
            guard = current | {u * n + v for u, v in dels}
            ins = fresh_edges(rng, n, guard, int(rng.integers(0, 4)))
            current |= {u * n + v for u, v in ins}
            repaired += inc.apply(_arr(ins), _arr(dels)).vertices_repaired
            if step % 3 == 1:
                continue  # dirty rows pile up over two batches
            want_out = _reference_repack(
                inc.out_labels, inc._packed_out, inc._dirty_out
            )
            want_in = _reference_repack(
                inc.in_labels, inc._packed_in, inc._dirty_in
            )
            got = inc.finalize()
            for name, want in zip(
                ("out_indptr", "out_hubs", "out_dists",
                 "in_indptr", "in_hubs", "in_dists"),
                (*want_out, *want_in),
            ):
                have = getattr(got, name)
                assert have.dtype == want.dtype, name
                np.testing.assert_array_equal(have, want, err_msg=name)
        assert repaired > 0  # whole rows were rewritten by delete repair


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
