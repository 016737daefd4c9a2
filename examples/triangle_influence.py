"""Triangle counting as composed k-hop queries — the paper's §1 claim.

"Many higher-level analyses can be described and implemented in terms of
k-hop queries, such as triangle counting which is equivalent to finding
vertices that are within 1 and 2-hop neighbors of the same vertex."

This example verifies that equivalence end to end on a social analog
(sparse-matrix exact count == k-hop-composed count), then uses rooted k-hop
triangle queries for a local-influence analysis: users whose neighbourhoods
are densely interconnected (high local clustering) versus mere hubs.

Run:  python examples/triangle_influence.py
"""

import numpy as np

from repro.core.triangles import khop_triangle_count, local_triangles, triangle_count
from repro.graph import graph500_kronecker


def main() -> None:
    social = (
        graph500_kronecker(scale=13, edgefactor=12, seed=21)
        .remove_self_loops()
        .deduplicate()
        .symmetrize()
    )
    print(f"graph: {social.num_vertices:,} users, {social.num_edges:,} friendships")

    exact = triangle_count(social)
    via_khop = khop_triangle_count(social)
    print(f"\ntriangles (sparse-matrix exact): {exact:,}")
    print(f"triangles (1/2-hop composition): {via_khop:,}")
    assert exact == via_khop, "the k-hop formulation must agree exactly"

    # local influence: triangles per user vs degree
    per_user = local_triangles(social)
    deg = social.out_degrees()
    with np.errstate(divide="ignore", invalid="ignore"):
        wedges = deg * (deg - 1) / 2
        clustering = np.where(wedges > 0, per_user / wedges, 0.0)

    print("\nmost embedded users (triangles, degree, local clustering):")
    for v in np.argsort(per_user)[-5:][::-1]:
        print(f"  user {int(v):7d}: {int(per_user[v]):6d} triangles, "
              f"degree {int(deg[v]):5d}, clustering {clustering[v]:.4f}")

    hubs = np.argsort(deg)[-5:][::-1]
    print("\nbiggest hubs for comparison:")
    for v in hubs:
        print(f"  user {int(v):7d}: {int(per_user[v]):6d} triangles, "
              f"degree {int(deg[v]):5d}, clustering {clustering[v]:.4f}")

    # rooted queries: triangles incident to a sampled user set, served by
    # the same operator a query workload would use
    rng = np.random.default_rng(5)
    sample = rng.choice(np.nonzero(deg > 0)[0], size=10, replace=False)
    rooted = khop_triangle_count(social, roots=sample)
    print(f"\ntriangles incident to a 10-user sample (rooted k-hop): {rooted:,}")


if __name__ == "__main__":
    main()
