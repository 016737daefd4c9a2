"""Web-graph analytics on the GAS Update interface (Listing 3).

Runs the paper's PageRank on a scale-free web-graph analog, then shows the
extension point: a custom :class:`VertexProgram` (connected components by
min-label propagation) on the same partition-centric engine — "our system
... supports both synchronous and asynchronous communication" (§1); both
modes are timed here.

Run:  python examples/web_pagerank.py
"""

import numpy as np

from repro import GraphSession, pagerank
from repro.core.gas import VertexProgram, run_gas
from repro.graph import rmat_edges


class ConnectedComponents(VertexProgram):
    """Min-label propagation: every vertex converges to its component's min id."""

    combiner = np.minimum
    identity = np.inf

    def initial_values(self, num_vertices):
        return np.arange(num_vertices, dtype=np.float64)

    def scatter(self, values, part):
        return values

    def apply(self, values, gathered, part):
        return np.minimum(values, gathered)

    def has_converged(self, old, new):
        return bool(np.array_equal(old, new))


def main() -> None:
    # A directed scale-free "web" (pages + hyperlinks).
    web = rmat_edges(15, 400_000, seed=11).remove_self_loops().deduplicate()
    # Ingestion-time re-indexing (§3.1): hubs get small ids.  The session
    # sees only the new ids; ``mapping[page] == internal id``.
    relabelled, mapping = web.reindex("degree")
    sess = GraphSession(relabelled, num_machines=4)
    print(f"web graph: {sess.num_vertices:,} pages, {sess.num_edges:,} links")

    # --- PageRank (Listing 3), sync vs async update model ---------------- #
    for asynchronous in (False, True):
        run = pagerank(sess, iterations=10, asynchronous=asynchronous)
        label = "async" if asynchronous else "sync"
        print(f"\nPageRank ({label}, 10 iterations): "
              f"virtual time {run.virtual_seconds * 1e3:.2f} ms")
    ranks = run.values[mapping]  # back to the caller's page ids
    top = np.argsort(ranks)[-10:][::-1]
    print("top-10 pages by rank:")
    for v in top:
        print(f"  page {int(v):7d}  rank {ranks[v]:8.2f}")

    # --- A custom vertex program on the same engine ----------------------- #
    sym = web.symmetrize()
    cc = run_gas(GraphSession(sym, num_machines=4), ConnectedComponents(),
                 iterations=100)
    labels = cc.values
    num_components = np.unique(labels).size
    sizes = np.sort(np.bincount(labels.astype(np.int64)))[::-1]
    print(f"\nconnected components: {num_components} "
          f"(converged in {cc.iterations} supersteps)")
    print(f"largest components: {sizes[:5].tolist()}")


if __name__ == "__main__":
    main()
