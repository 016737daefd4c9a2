"""Property test: a batch splices each exchange plan to its rebuild.

:func:`~repro.dynamic.delta.splice_record` moves a built
:class:`~repro.graph.partition.ExchangePlan` forward with its shard
(:func:`~repro.graph.partition.splice_plan`).  Hypothesis draws small
graphs on 1–4 partitions, flat or under an edge-set layout, and streams of
edge toggles, so slots appear and vanish and local→local, local→remote and
remote→local edges all come and go.  After every record each partition's
plan must equal ``_build_exchange_plan`` of its spliced shards field by
field, dtypes included; a plan the record does not touch stays the same
object, and no replaced plan has its arrays written.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamic import DynamicGraph
from repro.graph import CSR, EdgeList, range_partition
from repro.graph.partition import ExchangePlan, _build_exchange_plan


def plan_arrays(plan: ExchangePlan) -> dict:
    """Every array of ``plan`` by name (a CSR's as ``field.part``)."""
    out = {}
    for f in dataclasses.fields(ExchangePlan):
        value = getattr(plan, f.name)
        if isinstance(value, CSR):
            for part in ("indptr", "indices", "weights"):
                out[f"{f.name}.{part}"] = getattr(value, part)
        elif f.name != "layout":
            out[f.name] = value
    return out


def assert_plans_equal(got: ExchangePlan, want: ExchangePlan) -> None:
    assert got.layout is want.layout
    want_arrays = plan_arrays(want)
    for name, a in plan_arrays(got).items():
        b = want_arrays[name]
        if b is None:
            assert a is None, name
            continue
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


@st.composite
def streams(draw):
    n = draw(st.integers(4, 24))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1]
    )
    base = draw(st.lists(pair, max_size=3 * n, unique=True))
    records = draw(
        st.lists(
            st.lists(pair, min_size=1, max_size=6, unique=True),
            min_size=1, max_size=10,
        )
    )
    parts = draw(st.integers(1, 4))
    sets = draw(st.sampled_from([None, 2, 3]))
    return n, base, records, parts, sets


def _graph(n, base, parts, sets):
    pairs = np.array(base, dtype=np.int64).reshape(-1, 2)
    pg = range_partition(EdgeList(pairs[:, 0], pairs[:, 1], n), parts)
    if sets is not None:
        pg.build_edge_sets(sets)
    return pg


@settings(max_examples=150, deadline=None)
@given(streams())
def test_spliced_plan_equals_the_rebuild_after_every_record(stream):
    n, base, records, parts, sets = stream
    pg = _graph(n, base, parts, sets)
    dg = DynamicGraph(pg)
    for part in pg.partitions:
        part.exchange_plan()
    for toggles in records:
        pairs = np.array(toggles, dtype=np.int64)
        present = dg._present(pairs)
        before = [part.plan_cache for part in pg.partitions]
        frozen = [
            {k: v.copy() for k, v in plan_arrays(p).items() if v is not None}
            for p in before
        ]
        res = dg.apply(pairs[~present], pairs[present])
        sources = np.concatenate([res.inserted, res.deleted])[:, 0]
        for part, old, arrays in zip(pg.partitions, before, frozen):
            plan = part.plan_cache
            assert plan is not None  # spliced, not dropped
            owns = np.any((sources >= part.lo) & (sources < part.hi))
            assert (plan is old) != owns
            assert_plans_equal(plan, _build_exchange_plan(part))
            for name, copy in arrays.items():
                np.testing.assert_array_equal(
                    plan_arrays(old)[name], copy, err_msg=name
                )


def test_a_weighted_plan_is_rebuilt():
    """Only test helpers weigh a dynamic shard; a batch that touches its
    weighted plan drops it, and the next use rebuilds it unweighted."""
    pg = _graph(12, [(0, 7), (1, 2), (3, 9), (8, 1), (10, 4)], 2, None)
    dg = DynamicGraph(pg)
    part = pg.partitions[0]
    out = part.out_csr
    part.out_csr = CSR(out.indptr, out.indices, np.ones(out.nnz))
    assert part.exchange_plan().local_csr.weights is not None
    dg.apply([(0, 5), (2, 11)], [])
    assert part.plan_cache is None
    assert_plans_equal(part.exchange_plan(), _build_exchange_plan(part))
    assert part.exchange_plan().local_csr.weights is None
