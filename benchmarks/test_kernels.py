"""Micro-benchmarks of the engine's hot kernels (multi-round, wall clock).

Not paper figures — these guard the performance-critical primitives against
regressions: CSR construction, frontier expansion, bitwise combining and the
PageRank gather.
"""

import numpy as np
import pytest

from repro.core.frontier import BitFrontier, popcount
from repro.core.khop import concurrent_khop
from repro.core.pagerank import pagerank
from repro.graph import build_csr, range_partition, rmat_edges
from repro.runtime.message import MessageBatch, combine_or
from repro.runtime.session import GraphSession


@pytest.fixture(scope="module")
def kernel_graph():
    return rmat_edges(14, 200_000, seed=3).remove_self_loops().deduplicate()


def test_kernel_csr_build(benchmark, kernel_graph):
    el = kernel_graph
    csr = benchmark(build_csr, el.src, el.dst, el.num_vertices)
    assert csr.nnz == el.num_edges


def test_kernel_partition(benchmark, kernel_graph):
    pg = benchmark(range_partition, kernel_graph, 8)
    assert pg.num_partitions == 8


def test_kernel_single_khop(benchmark, kernel_graph):
    sess = GraphSession(kernel_graph)
    res = benchmark(concurrent_khop, sess, [0], 3)
    assert res.reached[0] > 0


def test_kernel_batch64_khop(benchmark, kernel_graph):
    sess = GraphSession(kernel_graph)
    sources = list(range(64))
    res = benchmark(concurrent_khop, sess, sources, 3)
    assert res.num_queries == 64


def test_kernel_combine_or(benchmark):
    rng = np.random.default_rng(0)
    batch = MessageBatch(
        rng.integers(0, 10_000, size=200_000),
        rng.integers(0, 2**63, size=200_000).astype(np.uint64),
    )
    out = benchmark(combine_or, batch)
    assert out.num_tasks <= 10_000


def test_kernel_popcount(benchmark):
    rng = np.random.default_rng(1)
    words = rng.integers(0, 2**63, size=1_000_000).astype(np.uint64)
    counts = benchmark(popcount, words)
    assert counts.max() <= 64


def test_kernel_frontier_promote(benchmark):
    state = BitFrontier(500_000, 64)
    rng = np.random.default_rng(2)
    verts = rng.integers(0, 500_000, size=100_000)
    bits = rng.integers(0, 2**63, size=100_000).astype(np.uint64)

    def step():
        state.or_into_next(verts, bits)
        return state.promote()

    benchmark(step)


def test_kernel_pagerank_iteration(benchmark, kernel_graph):
    sess = GraphSession(kernel_graph, num_machines=4)
    run = benchmark.pedantic(
        pagerank, args=(sess,), kwargs={"iterations": 2},
        rounds=3, iterations=1,
    )
    assert run.iterations == 2


def test_kernel_wide_batch_512(benchmark, kernel_graph):
    sess = GraphSession(kernel_graph)
    sources = [i % kernel_graph.num_vertices for i in range(512)]
    res = benchmark.pedantic(
        concurrent_khop, args=(sess, sources, 3), rounds=3, iterations=1
    )
    assert res.num_queries == 512


def test_kernel_reachability_batch(benchmark, kernel_graph):
    from repro.core.reachability import reachability_queries

    sess = GraphSession(kernel_graph, num_machines=2)
    rng = np.random.default_rng(7)
    src = rng.integers(0, kernel_graph.num_vertices, 32)
    dst = rng.integers(0, kernel_graph.num_vertices, 32)
    res = benchmark.pedantic(
        reachability_queries, args=(sess, src, dst, 3), rounds=3, iterations=1
    )
    assert res.num_queries == 32


def test_kernel_multi_sssp(benchmark, kernel_graph):
    from repro.core.multi_sssp import concurrent_sssp
    from repro.graph import EdgeList

    rng = np.random.default_rng(8)
    w = EdgeList(kernel_graph.src, kernel_graph.dst,
                 kernel_graph.num_vertices,
                 rng.uniform(0.5, 2.0, kernel_graph.num_edges))
    sess = GraphSession(w, num_machines=2)
    res = benchmark.pedantic(
        concurrent_sssp, args=(sess, list(range(16))), rounds=3, iterations=1
    )
    assert res.num_queries == 16


def test_kernel_kcore(benchmark, kernel_graph):
    from repro.core.kcore import core_numbers

    sess = GraphSession(kernel_graph, num_machines=2)
    res = benchmark.pedantic(core_numbers, args=(sess,), rounds=1, iterations=1)
    assert res.core.max() > 0


def test_kernel_triangles(benchmark, kernel_graph):
    from repro.core.triangles import triangle_count

    count = benchmark.pedantic(
        triangle_count, args=(kernel_graph,), rounds=3, iterations=1
    )
    assert count >= 0
