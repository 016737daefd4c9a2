"""The label kernel and the lookup cost, held to plain-Python references.

``HubLabels.dist_many`` answers a pair from a dense head (a uint8 gather and
a row ``min``) and a sorted-key merge of the tails past it; here it must
equal the per-pair dict intersection of the same labels for every pair of
a graph — self pairs, empty labels and isolated vertices included — whether
the labels were built, patched incrementally (heads carried across the
patch), round-tripped through ``.npz`` or drawn at random.  With the width
rule patched to 1, 2 and 4 (mostly tail) or to ``n`` and past it (all
head) the split moves, and chains longer than 127 hops hold distances the
head cannot.  ``IndexPlanner``'s per-lookup cost must equal the cost
model's scalar formula bit for bit.
"""

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamic.delta import DynamicGraph
from repro.graph.edgelist import EdgeList
from repro.graph.generators import rmat_edges
from repro.graph.partition import range_partition
from repro.index import (
    HubLabels,
    IndexPlanner,
    build_hub_labels,
    load_labels,
    save_labels,
)
from repro.index import labels as labels_module
from repro.index.incremental import IncrementalIndex
from repro.index.labels import UNREACHABLE, check_labels
from repro.runtime.netmodel import NetworkModel, StepStats


def _label(indptr, hubs, dists, v) -> dict:
    lo, hi = indptr[v], indptr[v + 1]
    return dict(zip(hubs[lo:hi].tolist(), dists[lo:hi].tolist()))


def reference_dist(labels: HubLabels, s: int, t: int) -> int:
    """``min`` over the hubs common to ``out(s)`` and ``in(t)`` of the
    summed distances, by dict intersection."""
    if s == t:
        return 0
    out = _label(labels.out_indptr, labels.out_hubs, labels.out_dists, s)
    inn = _label(labels.in_indptr, labels.in_hubs, labels.in_dists, t)
    common = out.keys() & inn.keys()
    return min(out[h] + inn[h] for h in common) if common else UNREACHABLE


@st.composite
def digraphs(draw, max_n=16):
    """Small digraphs: edgeless (isolated vertices), paths, R-MAT, or
    arbitrary pairs (self-loops and parallel edges allowed)."""
    kind = draw(st.sampled_from(["isolated", "chain", "rmat", "pairs"]))
    if kind == "isolated":
        n = draw(st.integers(1, 6))
        return EdgeList(np.empty(0), np.empty(0), num_vertices=n)
    if kind == "chain":
        n = draw(st.integers(1, max_n))
        ids = np.array(draw(st.permutations(range(n))))
        return EdgeList(ids[:-1], ids[1:], num_vertices=n)
    if kind == "rmat":
        scale = draw(st.integers(2, 4))
        return rmat_edges(
            scale,
            draw(st.integers(0, 6 << scale)),
            seed=draw(st.integers(0, 999)),
        )
    n = draw(st.integers(1, max_n))
    vid = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vid, vid), max_size=40))
    edges = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return EdgeList(edges[:, 0], edges[:, 1], num_vertices=n)


@st.composite
def random_labels(draw):
    """Structurally valid labels with no graph behind them: any strictly
    ascending rank set per slice (often empty), any distances."""
    n = draw(st.integers(1, 12))
    fields = {}
    for side in ("out", "in"):
        slices = [
            sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))
            for _ in range(n)
        ]
        sizes = [len(s) for s in slices]
        fields[f"{side}_indptr"] = np.concatenate(
            [[0], np.cumsum(sizes)]
        ).astype(np.int64)
        fields[f"{side}_hubs"] = np.array(
            [h for s in slices for h in s], dtype=np.int32
        )
        dists = st.integers(0, 9)
        fields[f"{side}_dists"] = np.array(
            draw(st.lists(dists, min_size=sum(sizes), max_size=sum(sizes))),
            dtype=np.int32,
        )
    order = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    return check_labels(HubLabels(num_vertices=n, order=order, **fields))


@st.composite
def long_chains(draw):
    """A path of 130–160 vertices in any order, with up to three extra
    edges: distances past 127 hops."""
    n = draw(st.integers(130, 160))
    ids = np.array(draw(st.permutations(range(n))))
    vid = st.integers(0, n - 1)
    extra = np.array(draw(st.lists(st.tuples(vid, vid), max_size=3)),
                     dtype=np.int64).reshape(-1, 2)
    return EdgeList(np.concatenate((ids[:-1], extra[:, 0])),
                    np.concatenate((ids[1:], extra[:, 1])), num_vertices=n)


@st.composite
def patched_labels(draw, graphs=digraphs()):
    """Labels of a built graph after random netted insert/delete batches;
    a head read before a batch is carried across it."""
    el = draw(graphs).remove_self_loops().deduplicate()
    n = el.num_vertices
    pg = range_partition(el, 1)
    dg = DynamicGraph(pg)
    inc = IncrementalIndex(build_hub_labels(pg).labels, pg)
    current = {(int(u), int(v)) for u, v in zip(el.src, el.dst)}
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            inc.finalize().head
        dels = set()
        if current:
            dels = draw(st.sets(st.sampled_from(sorted(current)), max_size=3))
        vid = st.integers(0, n - 1)
        ins = {
            (u, v)
            for u, v in draw(st.sets(st.tuples(vid, vid), max_size=4))
            if u != v and (u, v) not in current
        }
        current = (current - dels) | ins
        res = dg.apply(sorted(ins), sorted(dels))
        inc.apply(res.inserted, res.deleted)
    return inc.finalize()


@st.composite
def any_labels(draw):
    source = draw(st.sampled_from(["built", "patched", "round-trip", "random"]))
    if source == "built":
        return build_hub_labels(draw(digraphs())).labels
    if source == "patched":
        return draw(patched_labels())
    if source == "random":
        return draw(random_labels())
    labels = build_hub_labels(draw(digraphs())).labels
    with tempfile.TemporaryDirectory() as tmp:
        return load_labels(save_labels(labels, Path(tmp) / "index.npz"))


class TestDistManyReference:
    @settings(max_examples=100, deadline=None)
    @given(labels=any_labels())
    def test_all_pairs_equal_dict_intersection(self, labels):
        n = labels.num_vertices
        s, t = np.divmod(np.arange(n * n, dtype=np.int64), n)
        want = [
            reference_dist(labels, a, b) for a, b in zip(s.tolist(), t.tolist())
        ]
        got = labels.dist_many(s, t)
        assert got.dtype == np.int64
        assert got.tolist() == want

    @settings(max_examples=40, deadline=None)
    @given(labels=any_labels(), data=st.data())
    def test_any_pair_sequence_equals_dict_intersection(self, labels, data):
        """Repeated, unordered pairs: the kernel keeps no state across them."""
        vid = st.integers(0, labels.num_vertices - 1)
        pairs = data.draw(st.lists(st.tuples(vid, vid), max_size=30))
        s = np.array([a for a, _ in pairs], dtype=np.int64)
        t = np.array([b for _, b in pairs], dtype=np.int64)
        assert labels.dist_many(s, t).tolist() == [
            reference_dist(labels, a, b) for a, b in pairs
        ]


def _some_pairs(n: int, seed: int):
    """Every pair of a small graph; 400 random pairs, the self pairs of
    the first ten vertices and all pairs among ten more of a large one."""
    if n <= 16:
        return np.divmod(np.arange(n * n, dtype=np.int64), n)
    rng = np.random.default_rng(seed)
    few = rng.choice(n, 10, replace=False)
    s = np.concatenate((rng.integers(0, n, 400), np.arange(10), np.repeat(few, 10)))
    t = np.concatenate((rng.integers(0, n, 400), np.arange(10), np.tile(few, 10)))
    return s, t


class TestDenseHead:
    """The head/tail split at every width, on every label source and on
    chains past the head's distance cap."""

    @settings(max_examples=80, deadline=None)
    @given(
        width=st.sampled_from([1, 2, 4, "n", "2n"]),
        chain=st.booleans(),
        seed=st.integers(0, 99),
        data=st.data(),
    )
    def test_head_and_tail_equal_dict_intersection(self, width, chain, seed, data):
        def rule(n, label_bytes):
            return {"n": max(n, 1), "2n": 2 * n + 1}.get(width, width)

        with mock.patch.object(labels_module, "_head_width", rule):
            if chain:
                labels = data.draw(st.one_of(
                    long_chains().map(lambda el: build_hub_labels(el).labels),
                    patched_labels(long_chains()),
                ))
            else:
                labels = data.draw(any_labels())
            s, t = _some_pairs(labels.num_vertices, seed)
            got = labels.dist_many(s, t)
        assert labels.head[0].plane.shape[1] == rule(labels.num_vertices, 0)
        assert got.tolist() == [
            reference_dist(labels, a, b) for a, b in zip(s.tolist(), t.tolist())
        ]

    def test_a_chain_longer_than_the_cap_answers_end_to_end(self):
        n = 200
        labels = build_hub_labels(EdgeList(np.arange(n - 1), np.arange(1, n),
                                           num_vertices=n)).labels
        with mock.patch.object(labels_module, "_head_width", lambda n, b: 2 * n):
            got = labels.dist_many([0, 0, 5, n - 1], [n - 1, 130, 133, 0])
            out, inn = labels.head
        assert got.tolist() == [n - 1, 130, 128, UNREACHABLE]
        assert out.short.any() or inn.short.any()  # a head stopped early


class TestLookupCost:
    def test_query_seconds_equals_scalar_cost_model(self):
        labels = build_hub_labels(rmat_edges(6, 400, seed=3)).labels
        rng = np.random.default_rng(0)
        s = rng.integers(0, labels.num_vertices, 300)
        t = rng.integers(0, labels.num_vertices, 300)
        entries = labels.entries_scanned(s, t)
        for netmodel in (
            NetworkModel(),
            NetworkModel(
                seconds_per_edge=3.7e-9,
                seconds_per_vertex=1.3e-7,
                cores_per_machine=7,
                parallel_efficiency=0.31,
            ),
        ):
            planner = IndexPlanner(labels, netmodel)
            want = [
                netmodel.compute_seconds(
                    StepStats(edges_scanned=int(e), vertices_updated=1)
                )
                for e in entries
            ]
            got = planner.query_seconds(s, t)
            assert got.dtype == np.float64
            assert got.tolist() == want
            assert planner.answer(s, t, 2).service_seconds.tolist() == want
        assert IndexPlanner(labels, NetworkModel()).query_seconds([], []).size == 0
