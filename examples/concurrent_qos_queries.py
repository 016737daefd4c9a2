"""Concurrent QoS path queries: the full weighted-query stack in one scenario.

A network operator receives a burst of simultaneous questions against one
weighted topology:

1. *latency maps* — "lowest-latency distance from each of these 16 ingress
   points to everywhere, using at most 4 hops" (concurrent hop-constrained
   SSSP, sharing one relaxation sweep);
2. *reachability checks* — "can these 12 (src, dst) pairs connect within
   3 hops at all?" (pairwise reachability with early termination);
3. *capacity planning* — "which switches are the most central?" (closeness
   over shared BFS batches);
4. *multi-tenant serving* — a monitoring crawler floods the service while
   the NOC dashboard needs sub-batch latency: SLO lanes + a tenant quota
   protect the interactive queries, and the result cache makes the
   dashboard's repeated probes nearly free (same verdicts throughout).

Run:  python examples/concurrent_qos_queries.py
"""

import numpy as np

from repro.core.centrality import closeness_centrality
from repro.core.multi_sssp import concurrent_sssp
from repro.core.reachability import reachability_queries
from repro.graph import EdgeList, erdos_renyi
from repro.qos import LaneSpec, QosConfig, QuotaSpec, ResultCache
from repro.runtime.scheduler import QueryService
from repro.runtime.session import GraphSession


def build_topology(num_switches=3000, avg_links=5, seed=13):
    rng = np.random.default_rng(seed)
    base = (
        erdos_renyi(num_switches, num_switches * avg_links, seed=seed)
        .remove_self_loops()
        .deduplicate()
        .symmetrize()
    )
    latency_ms = rng.lognormal(0.0, 0.5, base.num_edges)
    return EdgeList(base.src, base.dst, base.num_vertices, latency_ms)


def main() -> None:
    net = build_topology()
    session = GraphSession(net, num_machines=4)
    rng = np.random.default_rng(1)
    print(f"topology: {net.num_vertices} switches, {net.num_edges} links, "
          f"4 partitions\n")

    # --- 1. concurrent hop-constrained latency maps ----------------------- #
    ingresses = rng.choice(net.num_vertices, size=16, replace=False)
    maps = concurrent_sssp(session, ingresses, max_hops=4)
    print(f"latency maps for {maps.num_queries} ingress points "
          f"(max 4 hops, one shared sweep, "
          f"{maps.total_edges_scanned:,} edge relaxations):")
    for q in range(0, 16, 4):
        reach = np.isfinite(maps.distances[:, q])
        print(f"  ingress {int(ingresses[q]):5d}: {int(reach.sum()):5d} "
              f"switches reachable, median "
              f"{np.median(maps.distances[reach, q]):.2f} ms")

    # --- 2. pairwise reachability with early termination ------------------ #
    src = rng.choice(net.num_vertices, size=12)
    dst = rng.choice(net.num_vertices, size=12)
    reach = reachability_queries(session, src, dst, k=3)
    ok = int(reach.reachable.sum())
    print(f"\nreachability: {ok}/12 pairs connect within 3 hops "
          f"({reach.total_edges_scanned:,} edges scanned; resolved queries "
          f"left the batch early)")
    for q in range(4):
        verdict = (
            f"{int(reach.hops[q])} hops" if reach.reachable[q] else "no route"
        )
        print(f"  {int(src[q]):5d} -> {int(dst[q]):5d}: {verdict}")

    # --- 3. closeness of sampled switches over shared BFS batches --------- #
    sample = rng.choice(net.num_vertices, size=128, replace=False)
    central = closeness_centrality(session, roots=sample)
    print(f"\nmost central of {sample.size} sampled switches "
          f"(BFS batches shared 64-wide):")
    for v, score in central.top(5):
        print(f"  switch {v:5d}: closeness {score:.4f}")

    # --- 4. SLO lanes: protect the NOC dashboard from the crawler --------- #
    qos = QosConfig(
        lanes={
            "interactive": LaneSpec(weight=8.0, batch_width=8),
            "bulk": LaneSpec(weight=1.0),
        },
        quotas={"crawler": QuotaSpec(rate=2e4, burst=4.0)},
    )
    crawl_src = rng.integers(0, net.num_vertices, 256)
    crawl_dst = rng.integers(0, net.num_vertices, 256)
    dash_src = rng.integers(0, net.num_vertices, 8)
    dash_dst = rng.integers(0, net.num_vertices, 8)

    reports = {}
    for name, policy in (("fifo", None), ("qos", qos)):
        svc = QueryService(session, k=3, qos=policy)
        svc.submit_many(crawl_src, targets=crawl_dst, lane="bulk",
                        tenant="crawler")
        svc.submit_many(dash_src, np.linspace(1e-4, 2e-3, 8),
                        targets=dash_dst, lane="interactive", tenant="noc")
        reports[name] = svc.drain()
    fifo, qos_rep = reports["fifo"], reports["qos"]
    assert np.array_equal(fifo.reachable, qos_rep.reachable)
    print(f"\nSLO lanes under a {crawl_src.size}-query crawler backlog "
          f"(answers bit-identical to FIFO):")
    print(f"  dashboard p99: {1e3 * fifo.p99(lane='interactive'):8.3f} ms FIFO"
          f" -> {1e3 * qos_rep.p99(lane='interactive'):7.3f} ms with lanes")
    print(f"  crawler  p99: {1e3 * fifo.p99(lane='bulk'):8.3f} ms FIFO"
          f" -> {1e3 * qos_rep.p99(lane='bulk'):7.3f} ms "
          f"({qos_rep.throttled} quota-throttled)")

    # --- 5. the result cache on the dashboard's repeated probes ----------- #
    cached = QueryService(session, k=3, planner="hybrid",
                          cache=ResultCache(capacity=1024))
    for _ in range(2):  # the dashboard refreshes: same probes, warm cache
        cached.submit_many(dash_src, targets=dash_dst)
        rep = cached.drain()
    print(f"\ndashboard refresh via result cache: {rep.cache_hits} hits / "
          f"{rep.cache_misses} misses, routes {sorted(set(map(str, rep.routes)))}, "
          f"p99 {1e3 * rep.p99():.6f} ms")


if __name__ == "__main__":
    main()
