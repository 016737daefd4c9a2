"""Epoch history: ``DynamicGraph.edges_at`` / ``graph_at`` replay."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import MutationError
from repro.graph import EdgeList, rmat_edges
from repro.graph.partition import partition_with_bounds
from repro.runtime.session import GraphSession

from tests.dynamic.conftest import (
    assert_shards_equal,
    existing_edges,
    fresh_edges,
)


def _keys(edges):
    n = edges.num_vertices
    return (edges.src.astype(np.int64) * n + edges.dst.astype(np.int64)).tolist()


class TestReplay:
    def test_epoch_zero_is_base(self, dyn_session, dyn_graph):
        dg = dyn_session.dynamic()
        assert sorted(_keys(dg.edges_at(0))) == sorted(_keys(dyn_graph))

    def test_every_epoch_matches_set_oracle(self, dyn_session, edge_keys, rng):
        dg = dyn_session.dynamic()
        n = dg.num_vertices
        per_epoch = {0: set(edge_keys)}
        for _ in range(4):
            ins = fresh_edges(rng, n, edge_keys, 3)
            dels = existing_edges(rng, n, edge_keys, 2)
            dg.apply(ins, dels)
            per_epoch[dg.epoch] = set(edge_keys)
        assert len(dg.history) == dg.epoch
        for epoch, want in per_epoch.items():
            assert set(_keys(dg.edges_at(epoch))) == want
        # Replay is keyed on the history, not the live graph: reading an
        # old epoch never perturbs the resident shards.
        assert_shards_equal(dg.pg, dg.graph_at(dg.epoch))

    def test_compaction_record_preserves_edges(
        self, dyn_session, edge_keys, rng
    ):
        dg = dyn_session.dynamic()
        n = dg.num_vertices
        dg.apply(fresh_edges(rng, n, edge_keys, 2), [])
        pre = dg.epoch
        dg.compact()
        assert dg.history[-1].compaction
        assert set(_keys(dg.edges_at(pre))) == set(_keys(dg.edges_at(dg.epoch)))

    def test_graph_at_is_bounds_stable(self, dyn_session, edge_keys, rng):
        # The oracle partitioning uses the dynamic graph's frozen bounds,
        # not a fresh edge-balanced split of the mutated edge list.
        dg = dyn_session.dynamic()
        n = dg.num_vertices
        dg.apply(fresh_edges(rng, n, edge_keys, 5),
                 existing_edges(rng, n, edge_keys, 5))
        oracle = dg.graph_at(dg.epoch)
        np.testing.assert_array_equal(oracle.bounds, dg.bounds)
        assert_shards_equal(dg.pg, oracle)


class TestValidation:
    def test_epoch_out_of_range(self, dyn_session):
        dg = dyn_session.dynamic()
        with pytest.raises(MutationError):
            dg.edges_at(-1)
        with pytest.raises(MutationError):
            dg.edges_at(dg.epoch + 1)
        with pytest.raises(MutationError):
            dg.graph_at(dg.epoch + 1)

    def test_restored_history_starts_at_the_checkpoint(self, dyn_session):
        dg = dyn_session.dynamic()
        dg.restore_epoch(5, compactions=2)
        assert dg.base_epoch == 5
        assert _keys(dg.edges_at(5)) == _keys(dg.materialize_edges())
        with pytest.raises(MutationError, match=r"outside \[5, 5\]"):
            dg.edges_at(4)


# --------------------------------------------------------------------------- #
# property: replay equals a pure-Python set replay and a fresh partitioning
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def small_graph():
    return rmat_edges(6, 300, seed=3).remove_self_loops().deduplicate()


def _edge_list(keys: set, n: int) -> EdgeList:
    arr = np.array(sorted(keys), dtype=np.int64)
    return EdgeList(arr // n, arr % n, n)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    seed=st.integers(0, 2**32 - 1),
    start=st.integers(0, 6),
    ops=st.lists(st.sampled_from(["apply", "compact"]), max_size=10),
)
def test_replay_matches_set_oracle_at_every_epoch(small_graph, seed, start, ops):
    """Inserts (fresh and present), deletes (present and absent), no-op
    batches, compactions and a restored starting epoch: at every epoch of
    the history, ``edges_at`` is the set replay's edge set and ``graph_at``
    is ``partition_with_bounds`` of it, shard for shard."""
    rng = np.random.default_rng(seed)
    n = small_graph.num_vertices
    sess = GraphSession(small_graph, num_machines=3)
    dg = sess.dynamic()
    if start:
        dg.restore_epoch(start, compactions=start // 2)
    live = set(_keys(small_graph))
    want = {dg.epoch: set(live)}
    for op in ops:
        if op == "compact":
            dg.compact()
        else:
            ins = rng.integers(0, n, size=(int(rng.integers(0, 4)), 2))
            dels = rng.integers(0, n, size=(int(rng.integers(0, 2)), 2))
            present = sorted(live)
            picks = rng.choice(len(present), size=min(2, len(present)),
                               replace=False)
            dels = np.concatenate(
                [dels, [[present[i] // n, present[i] % n] for i in picks]]
            ).astype(np.int64)
            dg.apply(ins, dels)
            live -= {int(u) * n + int(v) for u, v in dels}
            live |= {int(u) * n + int(v) for u, v in ins}
        want[dg.epoch] = set(live)  # a no-op batch keeps the epoch
    assert sorted(want) == list(range(start, dg.epoch + 1))
    for epoch, keys in want.items():
        assert set(_keys(dg.edges_at(epoch))) == keys
        assert_shards_equal(
            dg.graph_at(epoch), partition_with_bounds(_edge_list(keys, n), dg.bounds)
        )
    assert_shards_equal(dg.pg, dg.graph_at(dg.epoch))
