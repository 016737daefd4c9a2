"""A concurrent friend-of-friend query service on a social-network analog.

The paper's motivating scenario (§1): a recommendation backend receives many
simultaneous "who is within k hops of this user" queries and must keep every
response under the interactivity threshold (~2 s).  This example:

1. builds the Friendster analog once into a persistent ``GraphSession``
   (the 9-machine C-Graph deployment stays resident between waves);
2. replays a burst of 120 concurrent 3-hop queries through the *online*
   ``QueryService`` admission loop, comparing the pooled C-Graph discipline
   against a serialized (Gemini-style) engine;
3. submits a second wave to the same resident service — no rebuild, the
   virtual clock just keeps running;
4. prints the response-time distributions against the paper's UX thresholds.

Run:  python examples/social_query_service.py           (full analog, ~1 min)
      REPRO_SCALE=0.2 python examples/social_query_service.py   (quick)
"""

from repro.baselines.serial import GeminiLikeEngine
from repro.bench.experiments import calibrated_netmodel
from repro.bench.timing import ResponseTimes
from repro.bench.workload import random_sources
from repro.graph.datasets import load_dataset
from repro.runtime.scheduler import QueryService
from repro.runtime.session import GraphSession

UX_THRESHOLDS = [
    (0.2, "instantaneous (0.1-0.2 s)"),
    (2.0, "interactive (the paper's 2 s target)"),
    (10.0, "attention limit (10 s)"),
]


def main() -> None:
    edges = load_dataset("FR-1B")
    print(f"social graph analog: {edges.num_vertices:,} users, "
          f"{edges.num_edges:,} friendships")

    # Build the deployment ONCE: partitions, cluster and cost model live on
    # the session for as long as the service runs.
    machines = 9
    netmodel = calibrated_netmodel("FR-1B")
    session = GraphSession(edges, num_machines=machines, netmodel=netmodel)
    print(f"deployment: {machines} machines, "
          f"{session.pg.total_boundary_vertices():,} boundary vertices")

    service = QueryService(session, k=3, discipline="pool")
    queries = random_sources(edges, 120, seed=7)

    # Wave 1: a burst of 120 simultaneous queries hits the online service.
    service.submit_many(queries)
    report = service.drain()
    pooled = ResponseTimes("C-Graph (pooled)", report.response_seconds)

    gemini = GeminiLikeEngine(session)
    serial = ResponseTimes(
        "serialized engine", gemini.serialized_response_times(queries, 3)
    )

    for rt in (pooled, serial):
        print(f"\n{rt.label}: mean {rt.mean:.2f} s, "
              f"p90 {rt.percentile(90):.2f} s, max {rt.max:.2f} s")
        for threshold, label in UX_THRESHOLDS:
            pct = 100 * rt.fraction_within(threshold)
            print(f"  {pct:5.1f}% of queries within {label}")

    speedup = serial.mean / max(pooled.mean, 1e-12)
    print(f"\nconcurrent service is {speedup:.1f}x faster on average "
          f"(the Figure 8b effect)")

    # Wave 2: the session stays resident — later queries reuse the same
    # partitioned graph, cluster, and per-root service-time memo.
    wave2 = random_sources(edges, 40, seed=8)
    service.submit_many(wave2, arrivals=[float(service.clock)] * wave2.size)
    report2 = service.drain()
    print(f"\nsecond wave of {wave2.size} queries on the resident session: "
          f"mean {report2.mean_response:.2f} s "
          f"(no rebuild; clock now {service.clock:.2f} s, "
          f"{session.batches_run} engine batches total)")


if __name__ == "__main__":
    main()
