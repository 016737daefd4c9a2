"""Hop-constrained latency paths in a software-defined network.

The paper motivates weighted path queries with SDNs: "a path query must be
subject to some distance constraints in order to meet quality-of-service
latency requirements" (§1).  This example models a datacenter-style network
(fat-tree-ish random topology with per-link latencies), then answers:

* what is the lowest-latency path to each host, and
* how much latency do we sacrifice by capping the hop count (route table
  depth), the constraint C-Graph's hop-budgeted SSSP answers directly.

Run:  python examples/sdn_path_latency.py
"""

import numpy as np

from repro import GraphSession, sssp
from repro.graph import EdgeList, erdos_renyi


def build_network(num_switches: int = 2000, avg_links: int = 6, seed: int = 3):
    """A random switch fabric with lognormal per-link latencies (ms)."""
    rng = np.random.default_rng(seed)
    base = (
        erdos_renyi(num_switches, num_switches * avg_links, seed=seed)
        .remove_self_loops()
        .deduplicate()
        .symmetrize()
    )
    latency_ms = rng.lognormal(mean=0.0, sigma=0.6, size=base.num_edges)
    return EdgeList(base.src, base.dst, base.num_vertices, latency_ms)


def main() -> None:
    net = build_network()
    print(f"network: {net.num_vertices} switches, {net.num_edges} directed links")

    sess = GraphSession(net, num_machines=4)
    controller = 0  # the SDN controller's switch

    unlimited = sssp(sess, controller)
    reachable = np.isfinite(unlimited.distances)
    print(f"\nunconstrained shortest paths from switch {controller}:")
    print(f"  reachable switches: {int(reachable.sum())}")
    print(f"  median latency: {np.median(unlimited.distances[reachable]):.2f} ms")
    print(f"  p99 latency:    {np.percentile(unlimited.distances[reachable], 99):.2f} ms")

    print("\nhop-budget sweep (QoS constraint = route-table depth):")
    print("  hops  reachable  median_ms  stretch_vs_unlimited")
    for hops in (2, 3, 4, 6, 8):
        capped = sssp(sess, controller, max_hops=hops)
        ok = np.isfinite(capped.distances)
        both = ok & reachable
        stretch = float(
            np.median(capped.distances[both] / np.maximum(unlimited.distances[both], 1e-9))
        )
        print(
            f"  {hops:4d}  {int(ok.sum()):9d}  "
            f"{np.median(capped.distances[ok]):9.2f}  {stretch:7.3f}x"
        )

    # a concrete QoS check: which switches meet a 3-hop, 5 ms SLA?
    sla = sssp(sess, controller, max_hops=3)
    meets = np.isfinite(sla.distances) & (sla.distances <= 5.0)
    print(f"\nswitches meeting a (<=3 hops, <=5 ms) SLA: {int(meets.sum())}")


if __name__ == "__main__":
    main()
