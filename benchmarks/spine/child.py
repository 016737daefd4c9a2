"""One (workload, mode) run in a fresh process; the last stdout line is JSON.

Modes: ``e2e`` (set-up, warm-up, timed waves, answer checks — tracing off)
and ``traced`` (the per-layer run: first quarter of the waves under the span
recorder and the repo's own ``Instrumentation``, then the same waves untraced
for the overhead ratio and the answer checks).  ``run.py`` is the only caller.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
if sys.path and sys.path[0] == str(HERE):
    sys.path[0] = str(HERE.parent)  # import as the ``spine`` package

import numpy as np  # noqa: E402
from repro.telemetry.instrument import Instrumentation  # noqa: E402

from spine import check, hostspeed, workloads  # noqa: E402
from spine.trace import END, NAME, START, Recorder  # noqa: E402
from spine.workloads import CHECKED_EDGE_WAVES, WARMUP_WAVES  # noqa: E402

#: Waves of the in-process twin behind ``runtime.pool.speedup_vs_inproc``.
TWIN_WAVES = 24


@dataclass
class Tally:
    """What one pass over the waves observed."""

    attempted: int = 0
    failed: int = 0  # raised, shed, deadline-missed, degraded or wrong
    queries: int = 0  # answered and not found wrong
    unverified: list = field(default_factory=list)  # reports still to check
    wall_s: float = 0.0  # Σ mutation + submit + drain over the timed waves
    total_s: list = field(default_factory=list)  # mutation + submit + drain
    wave_s: list = field(default_factory=list)  # submit + drain
    mutation_s: list = field(default_factory=list)
    mutated: list = field(default_factory=list)  # timed waves with a mutation
    probe_at: list = field(default_factory=list)  # one host-speed probe before
    probe_s: list = field(default_factory=list)  # each wave, one after the last
    makespan_s: float = 0.0
    responses: list = field(default_factory=list)
    throttled: int = 0
    traversal_queries: int = 0
    setup_done_at: float = 0.0  # time.time() at the first timed wave


def drive(spec, resident, graph, inputs, timed_waves, recorder=None,
          verify=False, digest=None, at_first_wave=None,
          fail_at_wave=None) -> Tally:
    """Warm up, then run the timed waves: one closed-loop client."""
    service, session = resident.service, resident.session
    tally = Tally()

    def one_wave(g: int, timed: bool):
        mutation = inputs.mutations.get(g)
        root = recorder.span("wave") if recorder is not None else nullcontext()
        with root:
            if mutation is not None:
                t0 = time.perf_counter()
                try:
                    service.apply_mutations(inserts=mutation[0], deletes=mutation[1])
                    ok = True
                except Exception:
                    traceback.print_exc()
                    ok = False
                if timed:
                    tally.mutation_s.append(time.perf_counter() - t0)
                    tally.mutated.append(len(tally.wave_s))
                    tally.attempted += 1
                    tally.failed += not ok
            size = spec.enum_per_wave + spec.point_per_wave
            t0 = time.perf_counter()
            try:
                workloads.submit_wave(service, spec, inputs, g)
                report = service.drain()
            except Exception:
                traceback.print_exc()
                report = None
            elapsed = time.perf_counter() - t0
        if not timed:
            return None
        tally.wave_s.append(elapsed)
        tally.attempted += size
        if report is None:
            tally.failed += size
            return None
        if report.degraded:
            bad = size
        else:
            # a refused (shed) query raises in submit, which fails the whole
            # wave above; what is left to count is lost or late answers
            bad = size - report.num_queries
            if report.deadline_missed is not None:
                bad += int(report.deadline_missed.sum())
        tally.failed += bad
        tally.queries += size - bad
        tally.makespan_s += report.makespan
        if recorder is not None:  # only the traced run reports virtual p99
            tally.responses.append(report.response_seconds)
        tally.throttled += report.throttled
        tally.traversal_queries += int((report.routes == "traversal").sum())
        if digest is not None:
            digest.add(report.reachable, report.epochs)
        return report

    for g in range(WARMUP_WAVES):
        one_wave(g, timed=False)
    gc.collect()
    if at_first_wave is not None:
        at_first_wave()
    tally.setup_done_at = time.time()
    edge = CHECKED_EDGE_WAVES

    def read_host_speed():
        tally.probe_at.append(time.perf_counter())
        tally.probe_s.append(hostspeed.probe())

    for w in range(timed_waves):
        if w == fail_at_wave:
            raise RuntimeError(f"injected harness failure at wave {w}")
        if recorder is not None:
            recorder.wave = w
        read_host_speed()
        t0 = time.perf_counter()
        report = one_wave(WARMUP_WAVES + w, timed=True)
        tally.total_s.append(time.perf_counter() - t0)
        if verify and report is not None and (w < edge or w >= timed_waves - edge):
            if spec.dynamic:
                # off the clock, but now: the next mutation moves the epoch
                src, dst = check.edges_at(graph, inputs.mutations, WARMUP_WAVES + w)
                check_reports(tally, session, spec, [report], src, dst)
            else:
                tally.unverified.append(report)
    read_host_speed()
    tally.wall_s = sum(tally.total_s)
    return tally


def check_reports(tally, session, spec, reports, src, dst) -> None:
    for report in reports:
        wrong = check.count_wrong(session, spec.k, report, src, dst)
        tally.failed += wrong
        tally.queries -= wrong


def verify_static(tally, resident, spec, graph) -> None:
    """Check the held-back reports of a static-graph run.  Kept until after
    the timed phase so the reference's arrays never count into the run's
    peak RSS."""
    if tally.unverified:
        check_reports(
            tally, resident.session, spec, tally.unverified, graph.src, graph.dst
        )
        tally.unverified = []


def percentile_ms(samples, q: float) -> float:
    return float(np.percentile(samples, q)) * 1e3


def end_to_end(spec, args) -> dict:
    graph = workloads.load_graph(spec)
    inputs = workloads.generate_inputs(spec, graph, args.seed, args.waves)
    resident = workloads.open_service(spec, graph, Path(args.tmp) / "wal")
    try:
        tally = drive(
            spec, resident, graph, inputs, args.waves,
            verify=True, fail_at_wave=args.fail_at_wave,
        )
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        verify_static(tally, resident, spec, graph)
        resident.close()  # reaps the pool workers, so their peak is readable
        if spec.backend == "pool":
            rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    finally:
        resident.close()
    # timings as they would read on the reference host (see hostspeed.py);
    # the raw readings are printed beside them
    speed = hostspeed.speed_per_wave(tally.probe_at, tally.probe_s)
    wave_s = np.array(tally.wave_s)
    mutation_s = np.array(tally.mutation_s)
    metrics = {
        "setup_s": tally.setup_done_at - args.spawned_at,
        "qps": tally.queries / float(np.dot(tally.total_s, speed)),
        "wave_p50_ms": percentile_ms(wave_s * speed, 50),
        "wave_p90_ms": percentile_ms(wave_s * speed, 90),
        "peak_rss_mb": rss_kb / 1024.0,
        "failed_frac": tally.failed / tally.attempted,
        "host_speed": float(np.median(speed)),
    }
    raw = {
        "qps": tally.queries / tally.wall_s,
        "wave_p50_ms": percentile_ms(wave_s, 50),
        "wave_p90_ms": percentile_ms(wave_s, 90),
    }
    if spec.dynamic:  # the only workload with writes
        metrics["mutation_p50_ms"] = percentile_ms(
            mutation_s * speed[tally.mutated], 50
        )
        raw["mutation_p50_ms"] = percentile_ms(mutation_s, 50)
    return {
        "numpy": np.__version__,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "samples": {"waves": len(tally.wave_s), "mutations": len(tally.mutation_s)},
        "end_to_end": metrics,
        "raw": raw,
    }


# --------------------------------------------------------------------------- #
# the traced run
# --------------------------------------------------------------------------- #


class WorkerWalls(Instrumentation):
    """The repo's telemetry, plus the pool workers' per-superstep wall
    seconds summed two ways (coordinator-side wrappers cannot see into
    spawned workers; ``on_superstep`` is where their walls surface)."""

    slowest_s = 0.0  # Σ over supersteps of the slowest worker
    busy_s = 0.0  # Σ over supersteps and workers

    def on_superstep(self, *a, wall_compute=None, **kw):
        if wall_compute:
            self.slowest_s += max(wall_compute)
            self.busy_s += sum(wall_compute)
        super().on_superstep(*a, wall_compute=wall_compute, **kw)


#: Exact counts read from the repo's own ``cgraph_*`` metrics.
COUNTERS = {
    "dispatches": ("cgraph_batches_total", {}),
    "traversal_dispatches": ("cgraph_batches_total", {"discipline": "batch"}),
    "index_entries": ("cgraph_index_entries_scanned_total", {}),
    "index_lookups": ("cgraph_index_lookups_total", {}),
    "edges_scanned": ("cgraph_edges_scanned_total", {}),
    "push_steps": ("cgraph_direction_partitions_total", {"mode": "push"}),
    "pull_steps": ("cgraph_direction_partitions_total", {"mode": "pull"}),
    "messages": ("cgraph_messages_total", {}),
    "bytes": ("cgraph_bytes_total", {}),
    "supersteps": ("cgraph_supersteps_total", {}),
    "recoveries": ("cgraph_recoveries_total", {}),
    "wal_fsyncs": ("cgraph_wal_fsyncs_total", {}),
    "wal_bytes": ("cgraph_wal_bytes_total", {}),
    "edges_mutated": ("cgraph_mutations_total", {}),
}


def snapshot(instr, resident) -> dict:
    """Every cumulative count the per-layer metrics difference over the
    traced waves (taken once after warm-up, once at the end)."""
    snap = {}
    for key, (name, match) in COUNTERS.items():
        metric = instr.metrics.get(name)
        snap[key] = sum(
            value
            for labels, value in metric.series.items()
            if all(
                dict(zip(metric.labelnames, labels)).get(k) == v
                for k, v in match.items()
            )
        )
    snap["slowest_s"], snap["busy_s"] = instr.slowest_s, instr.busy_s
    cache = resident.service.cache
    for attr in ("hits", "misses", "evictions", "invalidated"):
        snap["cache_" + attr] = getattr(cache, attr, 0)
    snap["degraded_batches"] = resident.session.degraded_batches
    return snap


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spec, recorder, with_trace, plain, speedup, hooked, delta) -> dict:
    """Every per-layer metric by name, from the traced pass's spans, the
    counter deltas over its timed waves, and the untraced pass's walls."""
    in_waves = recorder.totals(waves_only=True)
    overall = recorder.totals(waves_only=False)

    def span_s(name, table=in_waves):
        return table.get(name, {}).get("span_s", 0.0)

    def self_s(name):
        return in_waves.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return in_waves.get(name, {}).get("n", 0)

    pool = spec.backend == "pool"
    # the constructor only spawns; the first ensure_task is what waits for
    # the workers to import and attach, so pool start is the two together
    first_ensure = next(
        (
            s[END] - s[START]
            for s in recorder.spans
            if s[NAME] == "runtime.pool.ensure_task"
        ),
        0.0,
    )
    compute_s = delta["busy_s"] if pool else span_s("core.khop.compute")
    run_s = span_s("runtime.pool.run")
    responses = np.concatenate(with_trace.responses) if with_trace.responses else np.zeros(1)
    return {
        "runtime.scheduler.submit_s": span_s("runtime.scheduler.submit"),
        "runtime.scheduler.drain_self_s": self_s("runtime.scheduler.drain"),
        "runtime.scheduler.dispatches": delta["dispatches"],
        "runtime.scheduler.batch_fill": ratio(
            with_trace.traversal_queries, 64 * delta["traversal_dispatches"]
        ),
        "qos.cache.lookup_s": span_s("qos.cache.lookup"),
        "qos.cache.store_s": span_s("qos.cache.store"),
        "qos.cache.hit_ratio": ratio(
            delta["cache_hits"], delta["cache_hits"] + delta["cache_misses"]
        ),
        "qos.cache.evictions": delta["cache_evictions"],
        "qos.cache.invalidated": delta["cache_invalidated"],
        "qos.locality.select_s": span_s("qos.locality.select"),
        "qos.lanes.throttled": with_trace.throttled,
        "index.planner.answer_s": span_s("index.planner.answer"),
        "index.planner.entries_per_lookup": ratio(
            delta["index_entries"], delta["index_lookups"]
        ),
        "index.incremental.apply_s": span_s("index.incremental.apply"),
        "index.incremental.finalize_s": span_s("index.incremental.finalize"),
        "index.incremental.rebuilds": calls("index.build.build"),
        "index.build.build_s": span_s("index.build.build", overall),
        "core.khop.compute_s": compute_s,
        "core.khop.apply_s": span_s("core.khop.apply"),
        "core.khop.finalize_s": span_s("core.khop.finalize"),
        "core.khop.edges_scanned": delta["edges_scanned"],
        "core.khop.edges_per_s": ratio(delta["edges_scanned"], compute_s),
        "core.khop.push_steps": delta["push_steps"],
        "core.khop.pull_steps": delta["pull_steps"],
        "runtime.comm.exchange_s": span_s("runtime.comm.exchange"),
        "runtime.message.combine_s": span_s("runtime.message.combine"),
        "runtime.message.combine_calls": calls("runtime.message.combine"),
        "runtime.comm.messages": delta["messages"],
        "runtime.comm.bytes": delta["bytes"],
        "runtime.message.dedup_ratio": ratio(hooked["tasks_out"], hooked["tasks_in"]),
        "runtime.engine.run_self_s": self_s("runtime.engine.run"),
        "runtime.engine.supersteps": delta["supersteps"],
        "runtime.session.run_batch_self_s": self_s("runtime.session.run_batch")
        + self_s("runtime.session.run_batch_pool"),
        "runtime.session.apply_mutations_self_s": self_s(
            "runtime.session.apply_mutations"
        ),
        "runtime.pool.start_s": span_s("runtime.pool.start", overall) + first_ensure,
        "runtime.pool.run_s": run_s,
        "runtime.pool.worker_compute_s": delta["slowest_s"],
        "runtime.pool.ipc_wait_s": run_s - delta["slowest_s"] if pool else 0.0,
        "runtime.pool.speedup_vs_inproc": speedup,
        "runtime.pool.recoveries": delta["recoveries"],
        "runtime.pool.degraded_batches": delta["degraded_batches"],
        "dynamic.delta.apply_s": span_s("dynamic.delta.apply"),
        "dynamic.delta.compact_s": span_s("dynamic.delta.compact"),
        "dynamic.delta.compactions": calls("dynamic.delta.compact"),
        "dynamic.wal.append_s": span_s("dynamic.wal.append"),
        "dynamic.wal.sync_s": span_s("dynamic.wal.sync"),
        "dynamic.wal.fsyncs": delta["wal_fsyncs"],
        "dynamic.wal.bytes": delta["wal_bytes"],
        "dynamic.wal.bytes_per_edge": ratio(delta["wal_bytes"], delta["edges_mutated"]),
        "runtime.durability.checkpoint_s": span_s("runtime.durability.checkpoint"),
        "runtime.durability.checkpoints": calls("runtime.durability.checkpoint"),
        "runtime.durability.checkpoint_bytes": hooked["checkpoint_bytes"],
        "runtime.netmodel.virtual_makespan_s": with_trace.makespan_s,
        "runtime.netmodel.virtual_p99_s": float(np.percentile(responses, 99)),
        "runtime.netmodel.wall_over_virtual": ratio(
            sum(plain.wave_s), with_trace.makespan_s
        ),
        "telemetry.trace_overhead_ratio": ratio(
            sum(with_trace.wave_s), sum(plain.wave_s)
        ),
        # layer self times against the wall the harness clocked itself
        "telemetry.self_time_coverage": ratio(
            sum(r["self_s"] for name, r in in_waves.items() if name != "wave"),
            with_trace.wall_s,
        ),
        "graph.load_s": span_s("graph.load", overall),
        "graph.partition_s": span_s("graph.partition", overall),
    }


def traced(spec, args) -> dict:
    waves = args.waves
    recorder = Recorder()
    instr = WorkerWalls()
    digest = check.AnswerDigest()
    hooked = {"tasks_in": 0, "tasks_out": 0, "checkpoint_bytes": 0}

    def on_combine(call_args, _kwargs, merged):
        if recorder.wave >= 0:
            hooked["tasks_in"] += call_args[0].num_tasks
            hooked["tasks_out"] += merged.num_tasks

    def on_khop(_args, _kwargs, result):
        if recorder.wave >= 0:
            digest.add(result.sources, result.reached)

    def on_checkpoint(_args, _kwargs, ckdir):
        if recorder.wave >= 0:
            hooked["checkpoint_bytes"] += sum(
                f.stat().st_size for f in Path(ckdir).iterdir() if f.is_file()
            )

    recorder.on("runtime.message.combine", on_combine)
    recorder.on("core.khop.batch", on_khop)
    recorder.on("runtime.durability.checkpoint", on_checkpoint)

    # pass 1 — set-up and waves under the recorder and Instrumentation
    before = {}
    recorder.install()
    try:
        graph = workloads.load_graph(spec)
        inputs = workloads.generate_inputs(spec, graph, args.seed, waves)
        resident = workloads.open_service(
            spec, graph, Path(args.tmp) / "wal-traced", instrumentation=instr
        )
        try:
            with_trace = drive(
                spec, resident, graph, inputs, waves, recorder=recorder,
                digest=digest,
                at_first_wave=lambda: before.update(snapshot(instr, resident)),
            )
            after = snapshot(instr, resident)
        finally:
            resident.close()
    finally:
        recorder.uninstall()
    if args.trace_out:
        recorder.write_chrome_trace(args.trace_out)

    # pass 2 — the same waves with tracing off: the overhead base, the wall
    # side of wall_over_virtual, and the answer checks
    resident = workloads.open_service(spec, graph, Path(args.tmp) / "wal-plain")
    try:
        plain = drive(spec, resident, graph, inputs, waves, verify=True)
        verify_static(plain, resident, spec, graph)
    finally:
        resident.close()

    # pass 3 (pool workload) — the in-process twin on the first waves
    speedup = 0.0
    if spec.backend == "pool":
        twin_waves = min(TWIN_WAVES, waves)
        resident = workloads.open_service(spec, graph, None, inproc_twin=True)
        try:
            twin = drive(spec, resident, graph, inputs, twin_waves)
        finally:
            resident.close()
        speedup = ratio(sum(twin.wave_s), sum(plain.wave_s[:twin_waves]))

    per_layer = layer_metrics(
        spec, recorder, with_trace, plain, speedup, hooked,
        {k: after[k] - before[k] for k in after},
    )
    wave_wall = recorder.totals()["wave"]["span_s"]
    return {
        "attempted": with_trace.attempted + plain.attempted,
        "failed": with_trace.failed + plain.failed,
        "numpy": np.__version__,
        "samples": {"traced_waves": waves, "spans": len(recorder.spans)},
        "per_layer": {k: float(v) for k, v in per_layer.items()},
        "digest": digest.hexdigest(),
        "shares": {
            name: row["self_s"] / wave_wall
            for name, row in sorted(recorder.totals().items())
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--mode", required=True, choices=("e2e", "traced"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=workloads.RUN_SECONDS)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--tmp", required=True, help="run-private scratch directory")
    parser.add_argument("--trace-out", help="write the Chrome trace here")
    parser.add_argument("--fail-at-wave", type=int, help="test hook: raise mid-run")
    args = parser.parse_args(argv)
    spec = workloads.WORKLOADS[args.workload]
    args.waves = spec.scaled_waves(args.seconds)
    if args.mode == "traced":  # replays the first quarter of the waves
        args.waves = max(workloads.MIN_WAVES, args.waves // 4)
    result = traced(spec, args) if args.mode == "traced" else end_to_end(spec, args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
