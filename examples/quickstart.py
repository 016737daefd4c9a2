"""Quickstart: build a graph, serve concurrent k-hop queries, rank vertices.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import GraphSession, concurrent_khop, pagerank
from repro.core import traverse
from repro.graph import graph500_kronecker


def main() -> None:
    # 1. A synthetic social graph (the Graph500 generator the paper uses),
    #    ~16k vertices / ~260k edges, deduplicated and symmetrised.
    edges = (
        graph500_kronecker(scale=14, edgefactor=16, seed=7)
        .remove_self_loops()
        .deduplicate()
        .symmetrize()
    )
    print(f"graph: {edges.num_vertices} vertices, {edges.num_edges} edges")

    # 2. Load it once onto a resident session: 3 simulated machines,
    #    edge-set (cache-blocked) storage built.  Every job below is a
    #    function that takes this session first.
    sess = GraphSession(edges, num_machines=3, edge_sets=True)
    print(sess)

    # 3. A batch of concurrent 3-hop reachability queries — the paper's
    #    core workload.  All queries traverse the graph *together*,
    #    sharing one pass per edge-set (§3.5).
    rng = np.random.default_rng(0)
    sources = rng.integers(0, sess.num_vertices, size=8)
    result = concurrent_khop(sess, sources, k=3, use_edge_sets=True)
    print("\n3-hop reachability (concurrent batch):")
    for q, s in enumerate(sources):
        print(
            f"  source {int(s):6d}: {int(result.reached[q]):6d} vertices "
            f"within 3 hops (finished at hop {int(result.completion_level[q])})"
        )
    print(f"  batch virtual time: {result.virtual_seconds * 1e3:.2f} ms "
          f"({result.supersteps} supersteps, "
          f"{result.total_edges_scanned:,} edges scanned once for all queries)")

    # 4. Iterative computation on the same session: PageRank via the GAS
    #    Update interface (Listing 3), 10 iterations as in the paper.
    run = pagerank(sess)
    top = np.argsort(run.values)[-5:][::-1]
    print("\nPageRank top-5 vertices:")
    for v in top:
        print(f"  vertex {int(v):6d}: rank {run.values[v]:.3f}")

    # 5. One traversal with a per-level callback (Listing 2's Traverse),
    #    rooted at the highest-degree vertex.
    hub = int(edges.out_degrees().argmax())
    print(f"\nfrontier sizes from hub vertex {hub}:")
    traverse(sess, hub, hops=4,
             visit=lambda lv, vs: print(f"  hop {lv}: {vs.size} new"))


if __name__ == "__main__":
    main()
