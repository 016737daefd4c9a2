"""The array-resident build reproduces the canonical labelling exactly.

For a fixed hub order, pruned landmark labelling has one answer.  A
hypothesis property holds ``build_hub_labels`` to the pure-Python reference
in ``pll_reference`` on random digraphs and random orders, and sha256 pins
hold it to the labels two registry analogs produced before the build was
vectorised — dtypes, visit counts and all.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.datasets import load_dataset
from repro.graph.edgelist import EdgeList
from repro.graph.generators import rmat_edges
from repro.index import build_hub_labels, labels_equal
from tests.index.pll_reference import reference_build

FIELDS = (
    "order",
    "out_indptr",
    "out_hubs",
    "out_dists",
    "in_indptr",
    "in_hubs",
    "in_dists",
)


@st.composite
def digraph_and_order(draw):
    kind = draw(st.sampled_from(["isolated", "chain", "rmat", "pairs"]))
    if kind == "isolated":
        n = draw(st.integers(0, 8))
        el = EdgeList(np.empty(0), np.empty(0), num_vertices=n)
    elif kind == "chain":
        # a long path under shuffled ids: deep BFS levels, little pruning
        n = draw(st.integers(1, 24))
        ids = np.array(draw(st.permutations(range(n))))
        el = EdgeList(ids[:-1], ids[1:], num_vertices=n)
    elif kind == "rmat":
        scale = draw(st.integers(2, 5))
        el = rmat_edges(
            scale,
            draw(st.integers(0, 8 << scale)),
            seed=draw(st.integers(0, 2**16)),
        )
    else:
        n = draw(st.integers(1, 16))
        vid = st.integers(0, n - 1)
        pairs = draw(st.lists(st.tuples(vid, vid), max_size=48))
        edges = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        el = EdgeList(edges[:, 0], edges[:, 1], num_vertices=n)
    order = np.array(draw(st.permutations(range(el.num_vertices))), np.int64)
    return el, order


class TestReferenceEquality:
    @settings(max_examples=120, deadline=None)
    @given(case=digraph_and_order())
    def test_build_equals_reference(self, case):
        el, order = case
        build = build_hub_labels(el, order=order)
        want, labeled, pruned = reference_build(el, order)
        assert labels_equal(build.labels, want)
        for name in FIELDS:
            assert getattr(build.labels, name).dtype == getattr(want, name).dtype
        assert (build.labeled_visits, build.pruned_visits) == (labeled, pruned)


def array_digest(a: np.ndarray) -> str:
    return hashlib.sha256(a.dtype.str.encode() + a.tobytes()).hexdigest()


# recorded from the per-vertex-list build this one replaced
PINS = {
    ("OR-100M", 0.25): (
        {
            "order": "c0060d9d5d678fd3cd3b870f1007d70b7363ba05245e626cd3edab9d0ee9138f",
            "out_indptr": "b844aeb128428b528882b1e5e1fdb577e0c92ef5f3bc3780d18ef820a0a4e7b4",
            "out_hubs": "a443b5414a0306bb0109561eedcee157e33f74f00ab01bd44a003942d07a67c3",
            "out_dists": "be9585acf3961c9ceeb654152e5a851af2d2bc9af521c3563c6450e70b52ed74",
            "in_indptr": "b844aeb128428b528882b1e5e1fdb577e0c92ef5f3bc3780d18ef820a0a4e7b4",
            "in_hubs": "a443b5414a0306bb0109561eedcee157e33f74f00ab01bd44a003942d07a67c3",
            "in_dists": "be9585acf3961c9ceeb654152e5a851af2d2bc9af521c3563c6450e70b52ed74",
        },
        (36156, 153890),
    ),
    ("SLASHDOT-ZOO", 0.05): (
        {
            "order": "97008fc85c826772851ed93dde6d3d15f53afa829a1de9f656eefeb21662eb02",
            "out_indptr": "810b13a5e57b818f9934a75f9f30426f5a166c3f8b65b012c7b398e7cb6cf627",
            "out_hubs": "169a2f080db5b5cccdd5c9fbe0d3aa2911199bcf18aa898535c12c33de54b982",
            "out_dists": "069ec80e4de38c22270f4e342669a2d5f59b4e5ac357bcc4f64e257ac66e04d8",
            "in_indptr": "810b13a5e57b818f9934a75f9f30426f5a166c3f8b65b012c7b398e7cb6cf627",
            "in_hubs": "169a2f080db5b5cccdd5c9fbe0d3aa2911199bcf18aa898535c12c33de54b982",
            "in_dists": "069ec80e4de38c22270f4e342669a2d5f59b4e5ac357bcc4f64e257ac66e04d8",
        },
        (45938, 94948),
    ),
}


class TestPinnedAnalogs:
    @pytest.mark.parametrize(
        "dataset, scale", list(PINS), ids=[name for name, _ in PINS]
    )
    def test_labels_match_pinned_digests(self, dataset, scale):
        digests, visits = PINS[dataset, scale]
        build = build_hub_labels(load_dataset(dataset, scale=scale))
        got = {name: array_digest(getattr(build.labels, name)) for name in FIELDS}
        assert got == digests
        assert (build.labeled_visits, build.pruned_visits) == visits
