"""Property test: any interleaved mutation/query program matches the oracle.

Hypothesis draws a seed; the seed unrolls into a random program of edge
inserts, deletes and (point + enumeration) queries with interleaved
virtual arrival times.  The program runs through the service's mutation
lane with ``cross_check=True``, which replays **every dispatched query
batch** on a rebuilt-from-scratch oracle graph at that batch's epoch and
raises on any divergence — answers and virtual clocks both.  The property
is that no seed can make the live spliced shards drift from the oracle,
on either backend, including across a mid-drain compaction.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph import rmat_edges
from repro.runtime.scheduler import QueryService
from repro.runtime.session import GraphSession

from tests.dynamic.conftest import existing_edges, fresh_edges

K = 3
SPACING = 1e6  # arrival gap forcing each event into its own dispatch


@pytest.fixture(scope="module")
def base_graph():
    return rmat_edges(8, 2500, seed=5).remove_self_loops().deduplicate()


def _program(rng, n, keys, num_events):
    """Random interleaved (arrival, kind, payload) events.

    Mutations draw only *effective* ops (fresh inserts, present deletes,
    disjoint within a batch), so ``keys`` tracks the live edge set
    exactly as the service applies the program.
    """
    events = []
    for i in range(num_events):
        arrival = float(i) * SPACING
        if rng.random() < 0.45:
            dels = existing_edges(rng, n, keys, int(rng.integers(0, 3)))
            guard = keys | {u * n + v for u, v in dels}
            ins = fresh_edges(rng, n, guard, int(rng.integers(1, 4)))
            keys |= {u * n + v for u, v in ins}
            events.append((arrival, "mutate", (ins, dels)))
        elif rng.random() < 0.5:
            events.append((arrival, "khop", int(rng.integers(0, n))))
        else:
            s, t = int(rng.integers(0, n)), int(rng.integers(0, n))
            events.append((arrival, "reach", (s, t)))
    # Always end on a query so the final epoch is exercised.
    events.append((float(num_events) * SPACING, "khop", int(rng.integers(0, n))))
    return events


def _run(svc, events):
    mutation_batches = 0
    for arrival, kind, payload in events:
        if kind == "mutate":
            ins, dels = payload
            svc.apply_mutations(ins, dels, arrival=arrival)
            mutation_batches += 1
        elif kind == "khop":
            svc.submit(payload, arrival=arrival)
        else:
            s, t = payload
            svc.submit(s, target=t, arrival=arrival)
    rep = svc.drain()
    assert rep.mutations_applied == mutation_batches
    # Point queries drain on their own lane ahead of enumeration queries,
    # so epochs are nondecreasing in arrival order *within* each lane
    # (the clock never runs backwards inside a lane's FIFO).
    order = np.argsort(rep.arrival_seconds, kind="stable")
    for lane in (rep.targets[order] >= 0, rep.targets[order] < 0):
        assert (np.diff(rep.epochs[order][lane]) >= 0).all()
    return rep.epochs[order]


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_inproc_interleaved_program_matches_oracle(base_graph, seed):
    rng = np.random.default_rng(seed)
    n = base_graph.num_vertices
    keys = {
        int(u) * n + int(v)
        for u, v in zip(base_graph.src.tolist(), base_graph.dst.tolist())
    }
    sess = GraphSession(base_graph, num_machines=2)
    sess.dynamic(compact_interval=2)
    svc = QueryService(sess, k=K, cross_check=True)
    epochs = _run(svc, _program(rng, n, keys, num_events=6))
    assert epochs[-1] == sess.graph_epoch
    assert not sess.degraded


@pytest.fixture(scope="module")
def pool_state(base_graph):
    """One shm pool serves every pool example; the edge-key set persists
    across examples because the shared graph keeps mutating."""
    n = base_graph.num_vertices
    keys = {
        int(u) * n + int(v)
        for u, v in zip(base_graph.src.tolist(), base_graph.dst.tolist())
    }
    with GraphSession(base_graph, num_machines=2, backend="pool") as sess:
        sess.dynamic(compact_interval=2)
        yield sess, keys


@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_pool_interleaved_program_matches_oracle(pool_state, seed):
    sess, keys = pool_state
    rng = np.random.default_rng(seed)
    svc = QueryService(sess, k=K, cross_check=True)
    epochs = _run(svc, _program(rng, sess.num_vertices, keys, num_events=4))
    assert epochs[-1] == sess.graph_epoch
    assert not sess.degraded
