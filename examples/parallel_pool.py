"""Draining query batches on the persistent shared-memory worker pool.

The default runtime simulates every machine in one process.  With
``GraphSession(backend="pool")`` the same partition-centric protocol runs
on one long-lived OS process per machine: CSR shards live in shared
memory (workers attach once, zero copies), supersteps exchange only small
control records over pipes, and the pool survives across batches — so a
query service pays spawn cost once and every drain after that is pure
compute.  Answers are bit-identical to the in-process engine, virtual
times included; this script asserts it on every batch.

Run:  python examples/parallel_pool.py
"""

import os
import time

import numpy as np

from repro.core.khop import concurrent_khop
from repro.graph import graph500_kronecker
from repro.runtime.session import GraphSession


def main() -> None:
    edges = (
        graph500_kronecker(scale=14, edgefactor=12, seed=4)
        .remove_self_loops()
        .deduplicate()
    )
    print(f"graph: {edges.num_vertices:,} vertices, {edges.num_edges:,} edges")
    print(f"cores available: {len(os.sched_getaffinity(0))}")

    rng = np.random.default_rng(0)
    sources = rng.integers(0, edges.num_vertices, size=512)

    inproc = GraphSession(edges, num_machines=2)
    ref = concurrent_khop(inproc, sources, 3)  # warm-up

    with GraphSession(edges, num_machines=2, backend="pool") as pool:
        t0 = time.perf_counter()
        res = concurrent_khop(pool, sources, 3)
        first = time.perf_counter() - t0  # includes worker spawn + image map

        assert np.array_equal(res.reached, ref.reached), "backends diverged"
        assert res.virtual_seconds == ref.virtual_seconds

        print(f"\nfirst pool drain (spawns workers):  {first * 1e3:8.1f} ms")
        for i in range(3):
            t0 = time.perf_counter()
            concurrent_khop(pool, sources, 3)
            t0_in = time.perf_counter()
            concurrent_khop(inproc, sources, 3)
            t1 = time.perf_counter()
            print(
                f"warm drain {i}: pool {(t0_in - t0) * 1e3:8.1f} ms"
                f"   inproc {(t1 - t0_in) * 1e3:8.1f} ms"
            )

        print(
            f"\n512 queries, k=3: {int(res.reached.sum()):,} vertices reached"
            f" in {res.supersteps} supersteps"
            f" ({res.virtual_seconds:.4f} virtual s on both backends)"
        )
    print("pool shut down; workers and shared segments released")


if __name__ == "__main__":
    main()
