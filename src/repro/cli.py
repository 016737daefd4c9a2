"""Command-line interface: ``python -m repro <command>``.

Subcommands mirror how the paper's framework is operated — inspect the
dataset registry, issue concurrent queries, run iterative jobs, and
regenerate any evaluation figure:

.. code-block:: console

   $ python -m repro datasets
   $ python -m repro khop --dataset OR-100M --queries 16 --k 3 --machines 3
   $ python -m repro reach --dataset OR-100M --pairs 8 --k 4
   $ python -m repro pagerank --dataset OR-100M --iterations 10 --machines 4
   $ python -m repro service --dataset OR-100M --queries 100 --k 3 --rate 500
   $ python -m repro index build --dataset OR-100M --save or100m.npz
   $ python -m repro index query --dataset OR-100M --source 5 --target 99 --k 3
   $ python -m repro hopplot --dataset SLASHDOT-ZOO
   $ python -m repro experiment fig10 --scale 0.2
   $ python -m repro service --dataset OR-100M --mutations stream.txt --wal-dir state/
   $ python -m repro recover --wal-dir state/
   $ python -m repro chaos --durable --seed 3

Every graph subcommand builds one :class:`~repro.runtime.session.GraphSession`
for the loaded dataset and runs all of its work on it — the partitioned
graph and cluster are constructed once per invocation, exactly the resident
deployment model the ``service`` subcommand then exercises online.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main", "build_parser"]

EXPERIMENTS = {
    "table1": "table1",
    "fig1": "fig1_hop_plot",
    "fig7": "fig7_vs_titan",
    "fig8a": "fig8a_distribution_vs_titan",
    "fig8b": "fig8b_distribution_vs_gemini",
    "fig9": "fig9_data_size_scalability",
    "fig10": "fig10_pagerank_scaling",
    "fig11": "fig11_machine_scaling",
    "fig12": "fig12_query_count_scaling",
    "fig13": "fig13_bfs_vs_gemini",
    "ablation-edgesets": "ablation_edge_sets",
    "ablation-width": "ablation_batch_width",
    "ablation-ooc": "ablation_out_of_core",
    "ablation-wide": "ablation_wide_batches",
    "ablation-async": "ablation_async",
    "ablation-memory": "ablation_memory",
    "index-vs-traversal": "index_vs_traversal",
    "recovery-overhead": "recovery_overhead",
    "push-pull": "push_pull",
    "durability": "durability_overhead",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="C-Graph: concurrent graph reachability queries (ICPP 2018)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="show the Table 1 dataset registry")

    def add_common(p):
        p.add_argument("--dataset", default="OR-100M", help="registry dataset name")
        p.add_argument("--scale", type=float, default=None,
                       help="extra dataset scale factor (default REPRO_SCALE)")
        p.add_argument("--machines", type=int, default=3,
                       help="simulated machine count")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("khop", help="run concurrent k-hop queries")
    add_common(p)
    p.add_argument("--queries", type=int, default=16)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--edge-sets", action="store_true",
                   help="lay the graph out as edge-sets (§3.2)")
    p.add_argument("--direction", choices=["auto", "push", "pull"],
                   default="auto",
                   help="traversal direction (auto = per-partition heuristic)")

    p = sub.add_parser("reach", help="pairwise s->t reachability within k hops")
    add_common(p)
    p.add_argument("--pairs", type=int, default=8)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--direction", choices=["auto", "push", "pull"],
                   default="auto",
                   help="traversal direction (auto = per-partition heuristic)")

    p = sub.add_parser("pagerank", help="run GAS PageRank")
    add_common(p)
    p.add_argument("--iterations", type=int, default=10)
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--async", dest="asynchronous", action="store_true",
                   help="use the asynchronous update model")

    p = sub.add_parser("sssp", help="hop-constrained shortest paths (unit weights)")
    add_common(p)
    p.add_argument("--source", type=int, default=0)
    p.add_argument("--max-hops", type=int, default=None)

    p = sub.add_parser("kcore", help="k-core decomposition (coreness)")
    add_common(p)

    p = sub.add_parser("hopplot", help="hop plot / effective diameters (Figure 1)")
    add_common(p)
    p.add_argument("--sources", type=int, default=200,
                   help="BFS roots to sample")

    p = sub.add_parser("path", help="one minimum-hop path between two vertices")
    add_common(p)
    p.add_argument("--source", type=int, default=0)
    p.add_argument("--target", type=int, default=1)
    p.add_argument("--k", type=int, default=None)

    p = sub.add_parser("centrality", help="closeness/harmonic centrality via BFS batches")
    add_common(p)
    p.add_argument("--kind", choices=["closeness", "harmonic"], default="closeness")
    p.add_argument("--roots", type=int, default=64, help="sampled roots")
    p.add_argument("--top", type=int, default=10)

    p = sub.add_parser(
        "service",
        help="online query service: admit arriving k-hop queries on one session",
    )
    add_common(p)
    p.add_argument("--queries", type=int, default=100)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--rate", type=float, default=1000.0,
                   help="Poisson arrival rate (queries per virtual second)")
    p.add_argument("--discipline", choices=["batch", "pool"], default="batch")
    p.add_argument("--batch-width", type=int, default=64)
    p.add_argument("--edge-sets", action="store_true",
                   help="lay the graph out as edge-sets (§3.2)")
    p.add_argument("--planner", choices=["traversal", "hybrid"],
                   default="traversal",
                   help="route point reachability queries to the distance-"
                        "label index (hybrid) or the traversal engine")
    p.add_argument("--reach-frac", type=float, default=0.0,
                   help="fraction of queries submitted as point s->t "
                        "reachability queries (with random targets)")
    p.add_argument("--cross-check", action="store_true",
                   help="hybrid planner: assert index and cache answers "
                        "match the traversal engine")
    p.add_argument("--trace-out", default=None,
                   help="write a chrome://tracing-loadable span trace of the "
                        "drain to this .json path (enables instrumentation)")
    p.add_argument("--metrics-out", default=None,
                   help="write Prometheus text-format metrics to this path "
                        "(enables instrumentation)")
    p.add_argument("--backend", choices=["inproc", "pool"], default="inproc",
                   help="execution backend for the resident session")
    p.add_argument("--deadline-ms", type=float, default=None,
                   help="per-dispatch virtual-clock deadline; queries still "
                        "open at the deadline are reported deadline_missed")
    p.add_argument("--max-pending", type=int, default=None,
                   help="admission bound: shed submissions past this many "
                        "pending queries")
    p.add_argument("--mutations", default=None,
                   help="edge-stream file ('+/- u v [arrival]' lines) "
                        "replayed through the drain, interleaved with the "
                        "query batches (enables the dynamic graph layer)")
    p.add_argument("--lanes", default=None,
                   help="enable QoS weighted fair queueing: "
                        "'name=weight[:width],...' lane specs, e.g. "
                        "'interactive=8,bulk=1:32'")
    p.add_argument("--tenant-quota", action="append", default=None,
                   metavar="TENANT=RATE[:BURST]",
                   help="token-bucket quota for one tenant (tokens per "
                        "virtual second); repeatable")
    p.add_argument("--bulk-frac", type=float, default=0.0,
                   help="fraction of queries submitted on the 'bulk' lane "
                        "as tenant 'bulk' (QoS demo traffic mix)")
    p.add_argument("--cache", type=int, default=None, metavar="CAPACITY",
                   help="LRU result cache (entries) in front of the index "
                        "lane, keyed (source, target, k, graph epoch); "
                        "requires --planner hybrid")
    p.add_argument("--wal-dir", default=None,
                   help="durable service state: WAL every mutation batch "
                        "and checkpoint the graph under this directory "
                        "(enables the dynamic graph layer)")
    p.add_argument("--checkpoint-every", type=int, default=8,
                   help="take a checkpoint every this many WAL'd mutation "
                        "batches (with --wal-dir)")
    p.add_argument("--fsync", choices=["always", "batch", "none"],
                   default="batch",
                   help="WAL fsync policy: per append, per drained "
                        "mutation group, or never (with --wal-dir)")

    p = sub.add_parser(
        "chaos",
        help="fault-injection drill: crash/delay/corrupt pool workers under "
             "a seeded plan and assert bit-identical recovery",
    )
    add_common(p)
    p.add_argument("--queries", type=int, default=16)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--events", type=int, default=2,
                   help="number of seeded fault events to inject")
    p.add_argument("--kinds", default=None,
                   help="comma-separated fault kinds to draw from "
                        "(crash, delay, drop_outbox, corrupt_inbox); "
                        "default all")
    p.add_argument("--max-recoveries", type=int, default=8,
                   help="recovery budget before the batch is abandoned")
    p.add_argument("--step-timeout", type=float, default=30.0,
                   help="per-superstep hang detection timeout (seconds)")
    p.add_argument("--durable", action="store_true",
                   help="durability drill instead: kill the whole process "
                        "at a seeded crash point mid-mutation-stream, "
                        "recover from WAL+checkpoint, and assert answers "
                        "and epochs are bit-identical to an uninterrupted "
                        "run")
    p.add_argument("--crash-point",
                   choices=["crash_post_append", "crash_mid_checkpoint",
                            "crash_mid_compaction"],
                   default=None,
                   help="durable drill: pin the kill point (default: drawn "
                        "from --seed)")
    p.add_argument("--crash-at", type=int, default=None,
                   help="durable drill: 1-based ordinal of the crash point "
                        "occurrence to kill at")
    p.add_argument("--wal-dir", default=None,
                   help="durable drill: working directory for WAL + "
                        "checkpoints (default: a fresh temp dir)")
    p.add_argument("--backend", choices=["inproc", "pool"], default="inproc",
                   help="durable drill: backend for the reference and "
                        "recovered runs")

    p = sub.add_parser(
        "recover",
        help="recover a crashed durable service: load the newest valid "
             "checkpoint, replay the WAL suffix, report the restored state",
    )
    p.add_argument("--wal-dir", required=True,
                   help="durability root the crashed service was writing "
                        "(contains wal/ and checkpoints/)")
    p.add_argument("--backend", choices=["inproc", "pool"], default="inproc")
    p.add_argument("--cross-check", action="store_true",
                   help="also rebuild every shard from the recovered edge "
                        "set and assert the resident CSR/CSC is "
                        "bit-identical")

    p = sub.add_parser(
        "telemetry",
        help="summarize an exported trace: per-category totals, top-K "
             "slowest spans, per-partition skew",
    )
    p.add_argument("trace", help="trace file (chrome trace or telemetry JSON)")
    p.add_argument("--top", type=int, default=10,
                   help="how many slowest spans to show")

    p = sub.add_parser(
        "index",
        help="reachability index: build, inspect, or query the distance labels",
    )
    p.add_argument("action", choices=["build", "stats", "query"])
    add_common(p)
    p.add_argument("--save", default=None,
                   help="write the built index to this .npz path")
    p.add_argument("--load", default=None,
                   help="load a previously saved index instead of building")
    p.add_argument("--source", type=int, default=0,
                   help="query action: source vertex")
    p.add_argument("--target", type=int, default=1,
                   help="query action: target vertex")
    p.add_argument("--k", type=int, default=None,
                   help="query action: hop budget (default unbounded)")
    p.add_argument("--cross-check", action="store_true",
                   help="query action: also run the traversal engine and "
                        "assert the verdicts match")

    p = sub.add_parser("experiment", help="regenerate a paper figure/table")
    p.add_argument("name", choices=sorted(EXPERIMENTS))
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--export", default=None,
                   help="also write the result rows to this .csv/.json path")

    return parser


def _load(args):
    from repro.graph.datasets import load_dataset

    return load_dataset(args.dataset, args.scale)


def _session(args, el=None, instrumentation=None, **kwargs):
    """Build the one resident session this subcommand runs on (laid out
    as edge-sets when the subcommand has ``--edge-sets`` and it is set)."""
    from repro.runtime.session import GraphSession

    if el is None:
        el = _load(args)
    return GraphSession(el, num_machines=args.machines,
                        edge_sets=getattr(args, "edge_sets", False),
                        instrumentation=instrumentation, **kwargs)


def cmd_datasets(args, out) -> int:
    from repro.bench.report import format_table
    from repro.graph.datasets import dataset_table

    print(format_table(dataset_table(build=False),
                       title="Dataset registry (Table 1 analogs)"), file=out)
    return 0


def cmd_khop(args, out) -> int:
    from repro.bench.workload import random_sources
    from repro.core.khop import concurrent_khop
    from repro.errors import ReproError

    el = _load(args)
    sess = _session(args, el)
    try:
        roots = random_sources(el, args.queries, seed=args.seed)
        res = concurrent_khop(sess, roots, args.k, direction=args.direction)
    except (ValueError, ReproError) as exc:
        raise SystemExit(f"repro khop: {exc}") from None
    print(f"{args.queries} concurrent {args.k}-hop queries on {args.dataset} "
          f"({args.machines} machines, 1 batch(es), "
          f"direction={args.direction}: {res.push_partition_steps} push / "
          f"{res.pull_partition_steps} pull partition-steps)", file=out)
    for q in range(res.num_queries):
        print(f"  source {int(res.sources[q]):8d}: "
              f"{int(res.reached[q]):8d} reached, "
              f"response {res.completion_seconds[q] * 1e3:9.3f} ms", file=out)
    print(f"total virtual time: {res.virtual_seconds * 1e3:.3f} ms, "
          f"{res.total_edges_scanned:,} edges scanned", file=out)
    return 0


def cmd_reach(args, out) -> int:
    from repro.bench.workload import random_sources
    from repro.core.reachability import reachability_queries
    from repro.errors import ReproError

    el = _load(args)
    sess = _session(args, el)
    # a stream of its own: random_sources draws from default_rng(seed), so
    # reusing that seed here paired every source with itself
    rng = np.random.default_rng([args.seed, 1])
    try:
        sources = random_sources(el, args.pairs, seed=args.seed)
        targets = rng.integers(0, el.num_vertices, size=args.pairs)
        res = reachability_queries(
            sess, sources, targets, args.k, direction=args.direction
        )
    except (ValueError, ReproError) as exc:
        raise SystemExit(f"repro reach: {exc}") from None
    print(f"{args.pairs} reachability pairs within {args.k} hops on "
          f"{args.dataset}:", file=out)
    for q in range(res.num_queries):
        verdict = f"reachable in {int(res.hops[q])} hops" if res.reachable[q] \
            else "unreachable"
        print(f"  {int(res.sources[q]):8d} -> {int(res.targets[q]):8d}: "
              f"{verdict}", file=out)
    return 0


def cmd_pagerank(args, out) -> int:
    from repro.core.pagerank import pagerank

    sess = _session(args)
    run = pagerank(sess, iterations=args.iterations,
                   asynchronous=args.asynchronous)
    mode = "async" if args.asynchronous else "sync"
    print(f"PageRank on {args.dataset}: {run.iterations} iterations ({mode}), "
          f"virtual time {run.virtual_seconds * 1e3:.2f} ms", file=out)
    top = np.argsort(run.values)[-args.top:][::-1]
    for v in top:
        print(f"  vertex {int(v):8d}: rank {run.values[v]:10.3f}", file=out)
    return 0


def cmd_sssp(args, out) -> int:
    from repro.core.sssp import sssp

    el = _load(args).with_unit_weights()
    sess = _session(args, el)
    res = sssp(sess, args.source, max_hops=args.max_hops)
    finite = np.isfinite(res.distances)
    print(f"SSSP from {args.source} on {args.dataset} "
          f"(max_hops={args.max_hops}):", file=out)
    print(f"  reachable: {int(finite.sum())} / {el.num_vertices}", file=out)
    if finite.any():
        print(f"  median distance: {np.median(res.distances[finite]):.1f}",
              file=out)
        print(f"  max distance:    {res.distances[finite].max():.1f}", file=out)
    return 0


def cmd_kcore(args, out) -> int:
    from repro.core.kcore import core_numbers

    sess = _session(args)
    res = core_numbers(sess)
    print(f"k-core decomposition of {args.dataset} "
          f"({res.rounds} rounds):", file=out)
    values, counts = np.unique(res.core, return_counts=True)
    for v, c in list(zip(values.tolist(), counts.tolist()))[-10:]:
        print(f"  coreness {int(v):5d}: {int(c):8d} vertices", file=out)
    print(f"  degeneracy (max coreness): {int(res.core.max())}", file=out)
    return 0


def cmd_hopplot(args, out) -> int:
    from repro.graph.analysis import effective_diameter, hop_plot

    el = _load(args)
    d, cdf = hop_plot(el, num_sources=args.sources, seed=args.seed)
    print(f"hop plot of {args.dataset}:", file=out)
    for dist, frac in zip(d.tolist(), cdf.tolist()):
        bar = "#" * int(round(frac * 40))
        print(f"  {dist:3d} hops: {100 * frac:6.2f}% {bar}", file=out)
    print(f"  delta_0.5 = {effective_diameter(d, cdf, 0.5):.2f}   "
          f"delta_0.9 = {effective_diameter(d, cdf, 0.9):.2f}   "
          f"diameter = {int(d[-1])}", file=out)
    return 0


def cmd_path(args, out) -> int:
    from repro.core.traversal import shortest_hop_path

    sess = _session(args)
    path = shortest_hop_path(sess, args.source, args.target, k=args.k)
    if path is None:
        budget = "" if args.k is None else f" within {args.k} hops"
        print(f"{args.target} is not reachable from {args.source}{budget}",
              file=out)
    else:
        print(" -> ".join(str(v) for v in path), file=out)
        print(f"({len(path) - 1} hops)", file=out)
    return 0


def cmd_centrality(args, out) -> int:
    from repro.bench.workload import random_sources
    from repro.core.centrality import closeness_centrality, harmonic_centrality

    el = _load(args)
    sess = _session(args, el)
    roots = random_sources(el, min(args.roots, el.num_vertices), seed=args.seed)
    fn = closeness_centrality if args.kind == "closeness" else harmonic_centrality
    res = fn(sess, roots=roots)
    print(f"{args.kind} centrality over {roots.size} sampled roots "
          f"({res.total_edges_scanned:,} edges scanned in shared batches):",
          file=out)
    for v, score in res.top(args.top):
        print(f"  vertex {v:8d}: {score:10.4f}", file=out)
    return 0


def cmd_service(args, out) -> int:
    from repro.bench.workload import random_sources
    from repro.dynamic.stream import parse_edge_stream
    from repro.errors import ReproError
    from repro.qos import QosConfig, ResultCache
    from repro.runtime.scheduler import QueryService

    # traffic shape only: every setting the constructors below check is
    # refused by them, mapped to one exit in the except clause
    if args.queries < 1:
        raise SystemExit("repro service: --queries must be >= 1")
    if args.rate <= 0:
        raise SystemExit("repro service: --rate must be > 0")
    if not 0.0 <= args.reach_frac <= 1.0:
        raise SystemExit("repro service: --reach-frac must be in [0, 1]")
    if not 0.0 <= args.bulk_frac <= 1.0:
        raise SystemExit("repro service: --bulk-frac must be in [0, 1]")
    instr = None
    if args.trace_out or args.metrics_out:
        from repro.telemetry import Instrumentation

        instr = Instrumentation()
    el = _load(args)
    try:
        qos = None
        if args.lanes or args.tenant_quota:
            qos = QosConfig.from_cli(args.lanes, args.tenant_quota)
            if args.bulk_frac > 0.0 and "bulk" not in qos.lanes:
                raise ValueError("--bulk-frac needs a 'bulk' lane in --lanes")
        cache = None
        if args.cache is not None:
            cache = ResultCache(capacity=args.cache)
        sess = _session(args, el, instrumentation=instr, backend=args.backend)
        mutation_batches = []
        if args.mutations:
            mutation_batches = parse_edge_stream(args.mutations)
            sess.dynamic()
        durability = None
        if args.wal_dir:
            durability = sess.enable_durability(
                args.wal_dir, fsync=args.fsync,
                checkpoint_every=args.checkpoint_every,
            )
        svc = QueryService(
            sess, args.k, discipline=args.discipline,
            batch_width=args.batch_width,
            planner=args.planner, cross_check=args.cross_check,
            deadline_seconds=(
                None if args.deadline_ms is None else args.deadline_ms / 1e3
            ),
            max_pending=args.max_pending,
            qos=qos,
            cache=cache,
        )
        for b in mutation_batches:
            svc.apply_mutations(b.inserts, b.deletes, arrival=b.arrival)
    except (ValueError, ReproError) as exc:
        raise SystemExit(f"repro service: {exc}") from None
    roots = random_sources(el, args.queries, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    arrivals = np.cumsum(rng.exponential(1.0 / args.rate, size=args.queries))
    num_point = int(round(args.reach_frac * args.queries))
    targets = (
        rng.integers(0, el.num_vertices, size=num_point) if num_point else None
    )
    num_bulk = int(round(args.bulk_frac * args.queries))
    for i in range(args.queries):
        lane = tenant = "bulk" if i < num_bulk else None
        svc.submit(
            int(roots[i]), float(arrivals[i]),
            target=int(targets[i]) if i < num_point else None,
            lane=lane, tenant=tenant,
        )
    rep = svc.drain()
    resp = rep.response_seconds * 1e3
    routed_index = int(np.count_nonzero(rep.routes == "index"))
    print(f"online {args.discipline} service on {args.dataset}: "
          f"{args.queries} {args.k}-hop queries at {args.rate:g}/s "
          f"({args.machines} machines, {rep.num_batches} dispatch(es), "
          f"{num_point} point / {args.queries - num_point} enumeration, "
          f"{routed_index} index-routed)",
          file=out)
    print(f"  response ms: mean {resp.mean():9.3f}  p50 {rep.p50() * 1e3:9.3f}  "
          f"p95 {rep.p95() * 1e3:9.3f}  p99 {rep.p99() * 1e3:9.3f}  "
          f"max {resp.max():9.3f}", file=out)
    print(f"  queueing ms: mean {rep.queueing_seconds.mean() * 1e3:9.3f}", file=out)
    print(f"  clock at drain end: {svc.clock * 1e3:.3f} ms "
          f"(session batches run: {sess.batches_run}, "
          f"makespan {rep.makespan * 1e3:.3f} ms)", file=out)
    if args.deadline_ms is not None:
        n_missed = (
            0 if rep.deadline_missed is None
            else int(np.count_nonzero(rep.deadline_missed))
        )
        print(f"  deadline {args.deadline_ms:g} ms: {n_missed} missed "
              f"(best-effort answers), {rep.shed} shed", file=out)
    if qos is not None:
        lane_bits = "  ".join(
            f"{name}: n={rep.lane_queries(name)} "
            f"p99 {rep.p99(lane=name) * 1e3:.3f} ms"
            for name in sorted(qos.lanes)
            if rep.lane_queries(name)
        )
        print(f"  lanes: {lane_bits}; throttled {rep.throttled}", file=out)
    if cache is not None:
        print(f"  cache: {rep.cache_hits} hits / {rep.cache_misses} misses "
              f"(hit ratio {cache.hit_ratio:.2f}, "
              f"{len(cache)}/{cache.capacity} resident)", file=out)
    if args.mutations:
        print(f"  mutations: {rep.mutations_applied} batch(es) interleaved, "
              f"graph now at epoch {sess.graph_epoch} "
              f"({sess.num_edges:,} edges); query epochs "
              f"{int(rep.epochs.min())}..{int(rep.epochs.max())}", file=out)
    if durability is not None:
        wal = durability.wal
        print(f"  durability: {wal.appends} WAL append(s) "
              f"({wal.bytes_written:,} bytes, {wal.fsyncs} fsync(s), "
              f"policy {args.fsync}), {durability.checkpoints} "
              f"checkpoint(s) under {args.wal_dir}", file=out)
    if args.backend == "pool":
        print(f"  pool: failures {sess.pool_failures}, "
              f"degraded {'yes' if rep.degraded else 'no'}", file=out)
        sess.close()
    if instr is not None:
        from repro.telemetry import write_chrome_trace, write_prometheus

        if args.trace_out:
            path = write_chrome_trace(instr.tracer, args.trace_out)
            print(f"  trace written to {path} "
                  f"({instr.tracer.num_recorded} spans, "
                  f"{instr.tracer.num_dropped} dropped)", file=out)
        if args.metrics_out:
            path = write_prometheus(instr.metrics, args.metrics_out)
            print(f"  metrics written to {path}", file=out)
    return 0


def cmd_chaos(args, out) -> int:
    """Run one seeded fault-injection drill and verify full recovery.

    The same k-hop batch runs twice: fault-free on the in-process engine
    (the reference) and on the worker pool with a seeded random
    :class:`~repro.runtime.fault.FaultPlan` armed.  The drill passes when
    the pool's answers *and* virtual clock are bit-identical to the
    reference and no shared-memory segments leak; exit code 1 otherwise.

    With ``--durable`` the drill targets the durability layer instead:
    a spawned child process runs a deterministic mutation+query workload
    with WAL and checkpoints on and is killed at a seeded crash point;
    the parent recovers from disk and asserts the resumed run is
    bit-identical to an uninterrupted reference.
    """
    if args.durable:
        return _cmd_chaos_durable(args, out)
    import glob

    from repro.bench.workload import random_sources
    from repro.core.khop import concurrent_khop
    from repro.runtime.fault import FAULT_KINDS, FaultPlan, FaultTolerance
    from repro.runtime.session import GraphSession

    kinds = tuple(FAULT_KINDS)
    if args.kinds:
        kinds = tuple(k.strip() for k in args.kinds.split(",") if k.strip())
        bad = set(kinds) - set(FAULT_KINDS)
        if bad:
            raise SystemExit(f"repro chaos: unknown fault kind(s) {sorted(bad)}")
    el = _load(args)
    roots = random_sources(el, args.queries, seed=args.seed)

    ref_sess = GraphSession(el, num_machines=args.machines)
    ref = concurrent_khop(ref_sess, roots, args.k)

    plan = FaultPlan.random(
        args.seed, num_workers=args.machines, max_step=max(args.k - 1, 0),
        num_events=args.events, kinds=kinds,
    )
    print(f"chaos drill on {args.dataset} ({args.machines} machines, "
          f"{args.queries} {args.k}-hop queries, seed {args.seed}):", file=out)
    for ev in plan.events:
        extra = f" ({ev.seconds:g}s)" if ev.kind == "delay_worker" else ""
        print(f"  inject {ev.kind}{extra} on worker {ev.machine} "
              f"at superstep {ev.step}", file=out)

    shm_before = set(glob.glob("/dev/shm/cgp*"))
    sess = GraphSession(
        el, num_machines=args.machines, backend="pool",
        fault_plan=plan,
        fault_tolerance=FaultTolerance(
            checkpoint_interval=1,
            step_timeout=args.step_timeout,
            max_recoveries=args.max_recoveries,
        ),
    )
    try:
        res = concurrent_khop(sess, roots, args.k)
        recoveries = 0 if sess._pool is None else sess._pool.recoveries
        degraded = sess.degraded
    finally:
        sess.close()
    leaked = sorted(set(glob.glob("/dev/shm/cgp*")) - shm_before)

    ok = True
    if not np.array_equal(res.reached, ref.reached):
        bad = int(np.nonzero(res.reached != ref.reached)[0][0])
        print(f"  MISMATCH: query {bad} reached {int(res.reached[bad])} "
              f"(reference {int(ref.reached[bad])})", file=out)
        ok = False
    if res.virtual_seconds != ref.virtual_seconds:
        print(f"  MISMATCH: virtual clock {res.virtual_seconds!r} "
              f"(reference {ref.virtual_seconds!r})", file=out)
        ok = False
    if leaked:
        print(f"  LEAK: shared-memory segments left behind: {leaked}", file=out)
        ok = False
    if ok:
        print(f"  recovered: answers and virtual clock bit-identical to the "
              f"fault-free reference "
              f"({recoveries} worker respawn(s), "
              f"{'degraded to inproc' if degraded else 'pool survived'}, "
              f"no leaked segments)", file=out)
    return 0 if ok else 1


def _cmd_chaos_durable(args, out) -> int:
    """``repro chaos --durable``: whole-process kill/recover/parity drill."""
    import tempfile

    from repro.errors import DurabilityError
    from repro.runtime.durability import run_durable_drill

    root = args.wal_dir
    tmp = None
    if root is None:
        tmp = tempfile.TemporaryDirectory(prefix="cgraph-drill-")
        root = tmp.name
    try:
        rep = run_durable_drill(
            args.seed, root,
            crash_kind=args.crash_point,
            crash_at=args.crash_at,
            backend=args.backend,
            scale=args.scale if args.scale is not None else 1.0,
            num_machines=args.machines,
        )
    except DurabilityError as exc:
        print(f"durable drill FAILED: {exc}", file=out)
        return 1
    finally:
        if tmp is not None:
            tmp.cleanup()
    print(f"durable drill (seed {args.seed}, {rep.backend} backend, "
          f"{args.machines} machines): killed the service at "
          f"{rep.crash_kind} #{rep.crash_at}", file=out)
    print(f"  recovered: checkpoint epoch {rep.checkpoint_epoch} -> epoch "
          f"{rep.recovered_epoch} ({rep.replayed_records} WAL record(s) "
          f"replayed in {rep.recovery_seconds * 1e3:.1f} ms)", file=out)
    print(f"  resumed {rep.resumed_batches} batch(es) to epoch "
          f"{rep.final_epoch}: {rep.waves_compared} query wave(s) "
          f"bit-identical to the uninterrupted run (answers, verdicts, "
          f"hops, epochs)", file=out)
    return 0


def _cadence(batches: int | None) -> str:
    return "never" if batches is None else f"every {batches} batches"


def cmd_recover(args, out) -> int:
    """Recover a crashed durable service and report the restored state."""
    from repro.errors import DurabilityError
    from repro.runtime.durability import recover_session

    try:
        sess = recover_session(
            args.wal_dir, cross_check=args.cross_check, backend=args.backend
        )
    except DurabilityError as exc:
        print(f"repro recover: {exc}", file=out)
        return 1
    mgr = sess._durability
    try:
        rep = mgr.last_recovery
        print(f"recovered {args.wal_dir}: checkpoint epoch "
              f"{rep.checkpoint_epoch} -> epoch {rep.epoch} in "
              f"{rep.seconds * 1e3:.1f} ms", file=out)
        print(f"  replayed {rep.replayed_records} WAL record(s) "
              f"({rep.replayed_mutations} mutation batch(es), "
              f"{rep.replayed_compactions} compaction(s)); "
              f"{rep.checkpoint_fallbacks} torn/corrupt checkpoint(s) "
              f"skipped, {rep.wal_truncated_bytes} torn WAL byte(s) "
              f"truncated", file=out)
        print(f"  graph: {sess.num_vertices:,} vertices, "
              f"{sess.num_edges:,} edges at epoch {sess.graph_epoch}; "
              f"index {'resident' if sess.has_index else 'absent'}", file=out)
        if args.cross_check:
            print("  cross-check: resident shards bit-identical to a "
                  "rebuilt-from-scratch oracle"
                  + ("; index equal to its hub order's build"
                     if sess.has_index else ""), file=out)
        print(f"  service resumes durably under {args.wal_dir} with the "
              f"recorded policy: fsync {mgr.wal.fsync_policy}, checkpoint "
              f"{_cadence(mgr.checkpoint_every)}, compaction "
              f"{_cadence(sess._compact_interval)}", file=out)
    finally:
        mgr.close()
        sess.close()
    return 0


def cmd_telemetry(args, out) -> int:
    from repro.bench.report import format_table
    from repro.telemetry import load_trace, summarize_trace

    events = load_trace(args.trace)
    summary = summarize_trace(events, top=args.top)
    print(f"{args.trace}: {summary['num_events']} span(s)", file=out)
    print(format_table(summary["categories"],
                       title="\nvirtual time by category"), file=out)
    print(format_table(summary["slowest"],
                       title=f"\ntop {args.top} slowest spans"), file=out)
    if summary["skew"]:
        print(format_table(summary["skew"],
                           title="\nper-partition compute skew"), file=out)
        print(f"skew ratio (max/mean compute): {summary['skew_ratio']:.3f}",
              file=out)
    else:
        print("\nno per-partition compute spans in this trace", file=out)
    return 0


def cmd_index(args, out) -> int:
    from repro.core.reachability import reachability_queries
    from repro.index import IndexPlanner, load_labels, save_labels

    el = _load(args)
    sess = _session(args, el)
    if args.load:
        try:
            labels = load_labels(args.load)
            sess.set_index(labels)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"repro index: {exc}") from None
        build = None
        print(f"index loaded from {args.load}", file=out)
    else:
        build = sess.index_build()
        labels = build.labels

    if args.action in ("build", "stats"):
        if build is not None:
            print(f"index built for {args.dataset} in "
                  f"{build.build_seconds:.3f} s "
                  f"(prune ratio {build.prune_ratio:.2f})", file=out)
        print(f"  vertices:        {labels.num_vertices:10d}", file=out)
        print(f"  label entries:   {labels.num_entries:10d} "
              f"(mean {labels.mean_label_size:.1f}/vertex/direction)",
              file=out)
        print(f"  size on memory:  {labels.nbytes():10d} bytes", file=out)
        if args.save:
            path = save_labels(labels, args.save)
            print(f"  saved to {path}", file=out)
        return 0

    # action == "query"
    planner = IndexPlanner(labels, sess.netmodel)
    try:
        answer = planner.answer([args.source], [args.target], args.k)
    except ValueError as exc:
        raise SystemExit(f"repro index: {exc}") from None
    dist = labels.dist(args.source, args.target)
    budget = "unbounded" if args.k is None else f"k={args.k}"
    verdict = "reachable" if answer.reachable[0] else "unreachable"
    within = "" if dist < 0 else f" (distance {dist})"
    print(f"{args.source} -> {args.target} ({budget}): {verdict}{within}",
          file=out)
    print(f"  label entries scanned: {int(answer.entries_scanned[0])}, "
          f"virtual cost {answer.service_seconds[0] * 1e6:.3f} us", file=out)
    if args.cross_check:
        res = reachability_queries(sess, [args.source], [args.target], args.k)
        if bool(res.reachable[0]) != bool(answer.reachable[0]):
            print(f"  CROSS-CHECK FAILED: traversal says "
                  f"{bool(res.reachable[0])}", file=out)
            return 1
        print(f"  cross-check vs traversal engine: ok "
              f"(traversal virtual time {res.virtual_seconds * 1e3:.3f} ms)",
              file=out)
    return 0


def cmd_experiment(args, out) -> int:
    from repro.bench import experiments

    driver = getattr(experiments, EXPERIMENTS[args.name])
    kwargs = {} if args.scale is None else {"scale": args.scale}
    result = driver(**kwargs)
    print(result.report(), file=out)
    if args.export:
        from repro.bench.export import export_result

        path = export_result(result, args.export)
        print(f"rows written to {path}", file=out)
    return 0


def main(argv=None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    handler = {
        "datasets": cmd_datasets,
        "khop": cmd_khop,
        "reach": cmd_reach,
        "pagerank": cmd_pagerank,
        "sssp": cmd_sssp,
        "kcore": cmd_kcore,
        "hopplot": cmd_hopplot,
        "path": cmd_path,
        "centrality": cmd_centrality,
        "service": cmd_service,
        "chaos": cmd_chaos,
        "recover": cmd_recover,
        "telemetry": cmd_telemetry,
        "index": cmd_index,
        "experiment": cmd_experiment,
    }[args.command]
    return handler(args, out)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
