"""Mutating a graph under live query traffic.

Production reachability services rarely get to stop the world: edges
stream in (new friendships, new links) and out (expiry, unfollows) while
queries keep arriving.  This example drives the dynamic graph layer
end to end:

1. builds a web-graph analog into a ``GraphSession`` and enables the
   dynamic layer — streaming mutations, an epoch history any past
   version replays from, and incremental maintenance of the resident
   2-hop index;
2. runs an online ``QueryService`` with the hybrid planner while edge
   mutation batches arrive *between* query waves: every dispatched batch
   runs against one consistent epoch, the index is patched in place
   (resumption BFS for inserts, invalidate-and-repair for deletes), and
   point queries keep routing to the index lane;
3. compacts mid-stream (a new epoch over the same edge set) and shows
   the epoch advancing without the edge set changing;
4. replays an old epoch from the dynamic graph's history to prove any
   past version stays queryable.

Run:  python examples/dynamic_stream.py
"""

import numpy as np

from repro.graph.generators import rmat_edges
from repro.runtime.scheduler import QueryService
from repro.runtime.session import GraphSession


def main() -> None:
    edges = rmat_edges(12, 40_000, seed=42).remove_self_loops().deduplicate()
    n = edges.num_vertices
    print(f"web-graph analog: {n:,} vertices, {edges.num_edges:,} edges")

    session = GraphSession(edges, num_machines=4)
    dynamic = session.dynamic(compact_interval=4)
    session.index()  # resident 2-hop index, incrementally maintained
    service = QueryService(session, k=3, planner="hybrid")

    rng = np.random.default_rng(7)
    live = {int(u) * n + int(v) for u, v in zip(edges.src, edges.dst)}

    print("\nstreaming 6 mutation batches between query waves:")
    for wave in range(6):
        # A mutation batch: mostly fresh edges, one expiry.
        inserts = []
        while len(inserts) < 8:
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
            if u != v and u * n + v not in live:
                inserts.append((u, v))
                live.add(u * n + v)
        drop = int(rng.choice(sorted(live)))
        deletes = [(drop // n, drop % n)]
        live.discard(drop)

        res = service.apply_mutations(inserts, deletes)

        # A wave of point queries rides the patched index lane.
        s = rng.integers(0, n, size=16)
        t = rng.integers(0, n, size=16)
        service.submit_many(s.tolist(), targets=t.tolist())
        report = service.drain()

        index_hits = int((report.routes == "index").sum())
        print(
            f"  wave {wave}: epoch {res.epoch:2d}  "
            f"+{len(inserts)}/-{len(deletes)} edges  "
            f"{session.num_edges:,} edges  "
            f"index lane {index_hits}/{report.num_queries}"
        )

    print(f"\ncompactions so far: {dynamic.compactions} "
          f"(one after every 4th mutated batch)")

    # Any past epoch stays queryable: replay epoch 2 from the history.
    old = dynamic.edges_at(2)
    now = dynamic.edges_at(dynamic.epoch)
    print(f"history replay: epoch 2 had {old.num_edges:,} edges, "
          f"epoch {dynamic.epoch} has {now.num_edges:,}")
    assert now.num_edges == len(live)
    print("done: mutations, queries, compaction and replay on one session")


if __name__ == "__main__":
    main()
