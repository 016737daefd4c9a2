"""Fixtures for the dynamic-graph suite: small graphs, dynamic sessions."""

import numpy as np
import pytest

from repro.graph import rmat_edges
from repro.runtime.session import GraphSession


@pytest.fixture
def dyn_graph():
    """A 256-vertex R-MAT graph, deduplicated — a valid mutation base."""
    return rmat_edges(8, 3000, seed=7).remove_self_loops().deduplicate()


@pytest.fixture
def dyn_session(dyn_graph):
    """In-process dynamic session."""
    sess = GraphSession(dyn_graph, num_machines=2)
    sess.dynamic()
    return sess


@pytest.fixture
def edge_keys(dyn_graph):
    """The base edge set as ``u * n + v`` keys, for effective-op drawing."""
    n = dyn_graph.num_vertices
    return set(
        int(u) * n + int(v)
        for u, v in zip(dyn_graph.src.tolist(), dyn_graph.dst.tolist())
    )


def fresh_edges(rng, n, current, count):
    """``count`` random edges absent from ``current`` (which is updated)."""
    out = []
    while len(out) < count:
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u != v and u * n + v not in current:
            out.append((u, v))
            current.add(u * n + v)
    return out


def existing_edges(rng, n, current, count):
    """``count`` distinct edges drawn from ``current`` (which is updated)."""
    pool = sorted(current)
    picks = rng.choice(len(pool), size=min(count, len(pool)), replace=False)
    out = []
    for i in picks.tolist():
        key = pool[i]
        out.append((key // n, key % n))
        current.discard(key)
    return out


def assert_shards_equal(live, oracle):
    """Byte-identity of every partition's CSR/CSC arrays."""
    for a, b in zip(live.partitions, oracle.partitions):
        np.testing.assert_array_equal(a.out_csr.indptr, b.out_csr.indptr)
        np.testing.assert_array_equal(a.out_csr.indices, b.out_csr.indices)
        np.testing.assert_array_equal(a.in_csc.indptr, b.in_csc.indptr)
        np.testing.assert_array_equal(a.in_csc.indices, b.in_csc.indices)
