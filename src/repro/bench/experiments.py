"""Per-figure experiment drivers reproducing the paper's evaluation (§4).

Each ``figN_*`` / ``table1`` function regenerates the rows/series of the
corresponding figure or table on the scaled analog datasets and returns a
result object whose ``report()`` prints them in the paper's layout.

Measurement conventions (see DESIGN.md):

* **Figures 7 and 8a** are single-machine comparisons against the
  Titan-like database — both systems' per-traversal *service times* are
  real wall-clock measurements; concurrency is then applied identically via
  the deterministic FIFO-pool model, so the comparison is measured work,
  fairly scheduled.
* **Figures 8b–13** are cluster experiments; times are *virtual seconds*
  from the network cost model over counted work (the offline substitute for
  the paper's 9-node testbed).  Shapes, ratios and crossovers are the
  reproduction target, not absolute values.
* Figures 7–12 use the paper's default per-query execution ("executed
  individually in request order"); Figure 13 uses bit-parallel batches
  ("we enabled bit operations in this experiment").
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from repro.baselines.graphdb import TitanLikeDB
from repro.baselines.serial import GeminiLikeEngine
from repro.bench.report import format_histogram, format_series, format_table
from repro.bench.timing import ResponseTimes
from repro.bench.workload import QueryWorkload, random_sources
from repro.core.frontier import words_for
from repro.core.khop import concurrent_khop
from repro.core.pagerank import pagerank
from repro.core.reachability import reachability_queries
from repro.graph import rmat_edges
from repro.graph.analysis import effective_diameter, hop_plot
from repro.graph.datasets import DATASETS, dataset_table, load_dataset, runtime_scale
from repro.runtime.netmodel import NetworkModel
from repro.runtime.scheduler import QueryService, simulate_fifo_pool
from repro.runtime.session import GraphSession

__all__ = [
    "calibrated_netmodel",
    "pooled_sources",
    "table1",
    "fig1_hop_plot",
    "fig7_vs_titan",
    "fig8a_distribution_vs_titan",
    "fig8b_distribution_vs_gemini",
    "fig9_data_size_scalability",
    "fig10_pagerank_scaling",
    "fig11_machine_scaling",
    "fig12_query_count_scaling",
    "fig13_bfs_vs_gemini",
    "ablation_edge_sets",
    "ablation_batch_width",
    "ablation_async",
    "ablation_memory",
    "ablation_out_of_core",
    "ablation_wide_batches",
    "index_vs_traversal",
    "push_pull",
    "recovery_overhead",
    "durability_overhead",
]

PAPER_BINS = np.arange(0.0, 2.2, 0.2)  # the Fig 11/12 histogram bins (seconds)


def calibrated_netmodel(
    dataset_name: str,
    scale: float | None = None,
    base: NetworkModel | None = None,
) -> NetworkModel:
    """A cost model whose virtual seconds represent *paper-scale* work.

    The analogs shrink vertex/edge counts by a factor ``s`` (×10⁻³/×10⁻⁴,
    times ``REPRO_SCALE``), but real network latencies and barrier costs are
    per-superstep constants that do not shrink with graph size — using them
    raw would make communication look ``1/s`` times more expensive relative
    to compute than on the paper's testbed.  Calibration restores the ratio:
    per-edge/per-vertex compute cost is multiplied by ``1/s`` and bandwidth
    by ``s`` (each analog byte stands for ``1/s`` real bytes), while latency
    and barrier stay fixed (superstep counts are scale-invariant).  Virtual
    times then land near the paper's absolute ranges, and — more importantly
    — the compute/communication split that drives every scalability shape
    matches the testbed's.
    """
    from dataclasses import replace

    spec = DATASETS[dataset_name.upper()]
    s = spec.edges * (scale if scale is not None else runtime_scale())
    s /= spec.paper_edges
    base = base or NetworkModel()
    return replace(
        base,
        seconds_per_edge=base.seconds_per_edge / s,
        seconds_per_vertex=base.seconds_per_vertex / s,
        bandwidth_bytes_per_second=base.bandwidth_bytes_per_second * s,
    )


def pooled_sources(el, count: int, distinct: int | None, seed) -> np.ndarray:
    """``count`` roots drawn from a pool of at most ``distinct`` vertices.

    Bounds the number of standalone traversals the harness must cost while
    keeping the response-time sample size at ``count``.
    """
    if distinct is None or distinct >= count:
        return random_sources(el, count, seed=seed)
    rng = np.random.default_rng(seed)
    pool = random_sources(el, distinct, seed=seed)
    return rng.choice(pool, size=count, replace=True)


# --------------------------------------------------------------------------- #
# Table 1
# --------------------------------------------------------------------------- #


@dataclass
class Table1Result:
    rows: list[dict]

    def report(self) -> str:
        return format_table(self.rows, title="Table 1: datasets (paper vs analog)")


def table1(scale: float | None = None, build: bool = True) -> Table1Result:
    """Reproduce Table 1: dataset inventory, paper sizes next to analogs."""
    return Table1Result(rows=dataset_table(scale=scale, build=build))


# --------------------------------------------------------------------------- #
# Figure 1 — hop plot
# --------------------------------------------------------------------------- #


@dataclass
class Fig1Result:
    distances: np.ndarray
    cdf: np.ndarray
    diameter: int
    d50: float
    d90: float
    paper = {"diameter": 12, "d50": 3.51, "d90": 4.71}

    def report(self) -> str:
        rows = [
            {"distance": int(d), "cumulative_pct": 100.0 * c}
            for d, c in zip(self.distances, self.cdf)
        ]
        head = format_table(rows, title="Figure 1: hop plot (Slashdot-Zoo analog)")
        return (
            f"{head}\n"
            f"diameter={self.diameter}  delta_0.5={self.d50:.2f}  "
            f"delta_0.9={self.d90:.2f}  "
            f"(paper: 12 / 3.51 / 4.71)"
        )


def fig1_hop_plot(
    scale: float | None = None, num_sources: int = 200, seed: int = 0
) -> Fig1Result:
    """Reproduce Figure 1 on the small-world Slashdot-Zoo analog."""
    el = load_dataset("SLASHDOT-ZOO", scale)
    d, cdf = hop_plot(el, num_sources=num_sources, seed=seed)
    return Fig1Result(
        distances=d,
        cdf=cdf,
        diameter=int(d[-1]),
        d50=effective_diameter(d, cdf, 0.5),
        d90=effective_diameter(d, cdf, 0.9),
    )


# --------------------------------------------------------------------------- #
# Figure 7 / 8a — single machine vs Titan (wall clock)
# --------------------------------------------------------------------------- #


@dataclass
class Fig7Result:
    cgraph_sorted: np.ndarray
    titan_sorted: np.ndarray
    speedup_min: float
    speedup_max: float
    cgraph_traversals: ResponseTimes = field(repr=False)
    titan_traversals: ResponseTimes = field(repr=False)
    paper = {"speedup_min": 21.0, "speedup_max": 74.0}

    def report(self) -> str:
        rows = [
            {
                "query_rank": i,
                "cgraph_s": float(self.cgraph_sorted[i]),
                "titan_s": float(self.titan_sorted[i]),
            }
            for i in range(0, len(self.cgraph_sorted), max(len(self.cgraph_sorted) // 20, 1))
        ]
        head = format_table(
            rows, title="Figure 7: 100 concurrent 3-hop queries vs Titan (sorted)"
        )
        return (
            f"{head}\nper-rank speedup: {self.speedup_min:.1f}x - "
            f"{self.speedup_max:.1f}x  (paper: 21x - 74x)"
        )


def fig7_vs_titan(
    num_queries: int = 100,
    roots_per_query: int = 10,
    k: int = 3,
    scale: float | None = None,
    concurrency: int = 16,
    seed: int = 0,
) -> Fig7Result:
    """Reproduce Figure 7: per-query response times, C-Graph vs Titan-like.

    Both systems' per-traversal service times are wall-clock measured on the
    OR-100M analog; both streams are scheduled on the same FIFO pool; the
    figure's value per query is the mean of its 10 traversals, sorted
    ascending.
    """
    el = load_dataset("OR-100M", scale)
    workload = QueryWorkload.generate(el, num_queries, k, roots_per_query, seed=seed)
    roots = workload.all_roots()

    sess = GraphSession(el)
    cgraph_service = np.empty(roots.size)
    for i, s in enumerate(roots):
        t0 = time.perf_counter()
        concurrent_khop(sess, [int(s)], k)
        cgraph_service[i] = time.perf_counter() - t0

    db = TitanLikeDB(el)
    titan_service = np.array([db.timed_khop_query(int(s), k)[0] for s in roots])

    cg_resp = ResponseTimes(
        "C-Graph", simulate_fifo_pool(cgraph_service, concurrency)
    )
    ti_resp = ResponseTimes(
        "Titan", simulate_fifo_pool(titan_service, concurrency)
    )

    cg_q = ResponseTimes("C-Graph", workload.per_query_mean(cg_resp.seconds))
    ti_q = ResponseTimes("Titan", workload.per_query_mean(ti_resp.seconds))
    s_min, s_max = cg_q.speedup_over(ti_q)
    return Fig7Result(
        cgraph_sorted=cg_q.sorted(),
        titan_sorted=ti_q.sorted(),
        speedup_min=s_min,
        speedup_max=s_max,
        cgraph_traversals=cg_resp,
        titan_traversals=ti_resp,
    )


@dataclass
class Fig8aResult:
    cgraph: dict
    titan: dict
    mean_ratio: float
    paper = {"titan_mean_s": 8.6, "cgraph_mean_s": 0.25}

    def report(self) -> str:
        head = format_table(
            [self.cgraph, self.titan],
            title="Figure 8a: 1000-traversal response-time distribution vs Titan",
        )
        return (
            f"{head}\nTitan/C-Graph mean ratio: {self.mean_ratio:.1f}x "
            f"(paper: 8.6s / 0.25s = 34x)"
        )


def fig8a_distribution_vs_titan(fig7: Fig7Result | None = None, **kwargs) -> Fig8aResult:
    """Reproduce Figure 8a from the Figure 7 run's full traversal sample."""
    if fig7 is None:
        fig7 = fig7_vs_titan(**kwargs)
    cg = fig7.cgraph_traversals.summary()
    ti = fig7.titan_traversals.summary()
    return Fig8aResult(
        cgraph=cg, titan=ti, mean_ratio=ti["mean"] / max(cg["mean"], 1e-12)
    )


# --------------------------------------------------------------------------- #
# Figure 8b — 3 machines vs Gemini (virtual time)
# --------------------------------------------------------------------------- #


@dataclass
class Fig8bResult:
    cgraph: dict
    gemini: dict
    mean_ratio: float
    paper = {"gemini_mean_s": 4.25, "cgraph_mean_s": 0.3}

    def report(self) -> str:
        head = format_table(
            [self.cgraph, self.gemini],
            title="Figure 8b: 100 concurrent 3-hop queries vs Gemini (FR analog, 3 machines)",
        )
        return (
            f"{head}\nGemini/C-Graph mean ratio: {self.mean_ratio:.1f}x "
            f"(paper: 4.25s / 0.3s = 14x)"
        )


def fig8b_distribution_vs_gemini(
    num_queries: int = 100,
    k: int = 3,
    num_machines: int = 3,
    scale: float | None = None,
    seed: int = 1,
) -> Fig8bResult:
    """Reproduce Figure 8b: serialized Gemini vs pooled C-Graph (virtual).

    C-Graph's side runs on the online :class:`QueryService` admission loop
    over a persistent session.
    """
    el = load_dataset("FR-1B", scale)
    nm = calibrated_netmodel("FR-1B", scale)
    sess = GraphSession(el, num_machines=num_machines, netmodel=nm)
    roots = random_sources(el, num_queries, seed=seed)

    svc = QueryService(sess, k, discipline="pool")
    svc.submit_many(roots)
    cg = ResponseTimes("C-Graph", svc.drain().response_seconds)
    gemini_engine = GeminiLikeEngine(sess)
    ge = ResponseTimes("Gemini", gemini_engine.serialized_response_times(roots, k))
    return Fig8bResult(
        cgraph=cg.summary(),
        gemini=ge.summary(),
        mean_ratio=ge.mean / max(cg.mean, 1e-12),
    )


# --------------------------------------------------------------------------- #
# Figure 9 — data size scalability (virtual time)
# --------------------------------------------------------------------------- #


@dataclass
class Fig9Result:
    per_dataset: dict[str, ResponseTimes]
    avg_root_degree: dict[str, float]
    paper = {
        "FR-1B": {"pct85_s": 0.4, "max_s": 1.2},
        "FRS-100B": {"pct85_s": 0.6, "max_s": 1.6},
    }

    def report(self) -> str:
        rows = []
        for name, rt in self.per_dataset.items():
            rows.append(
                {
                    "dataset": name,
                    "avg_root_deg": self.avg_root_degree[name],
                    "p85": rt.percentile(85),
                    "max": rt.max,
                    "mean": rt.mean,
                }
            )
        return format_table(
            rows,
            title="Figure 9: 100 concurrent 3-hop queries, 9 machines "
            "(paper: 85% within 0.4s/0.6s; max 1.2s/1.6s for FR/FRS)",
        )


def fig9_data_size_scalability(
    num_queries: int = 100,
    k: int = 3,
    num_machines: int = 9,
    datasets=("OR-100M", "FR-1B", "FRS-100B"),
    scale: float | None = None,
    seed: int = 2,
    distinct_roots: int | None = None,
) -> Fig9Result:
    """Reproduce Figure 9: response-time growth with dataset size.

    ``distinct_roots`` caps how many standalone traversals are costed (roots
    are then sampled from that pool), bounding harness wall time on the
    densest analog.  Each dataset's workload runs on the online
    :class:`QueryService` pool over its own resident session.
    """
    per_dataset: dict[str, ResponseTimes] = {}
    avg_deg: dict[str, float] = {}
    for name in datasets:
        el = load_dataset(name, scale)
        nm = calibrated_netmodel(name, scale)
        sess = GraphSession(el, num_machines=num_machines, netmodel=nm)
        roots = pooled_sources(el, num_queries, distinct_roots, seed)
        svc = QueryService(sess, k, discipline="pool")
        svc.submit_many(roots)
        per_dataset[name] = ResponseTimes(name, svc.drain().response_seconds)
        avg_deg[name] = float(el.out_degrees()[roots].mean())
    return Fig9Result(per_dataset=per_dataset, avg_root_degree=avg_deg)


# --------------------------------------------------------------------------- #
# Figure 10 — PageRank multi-machine scalability (virtual time)
# --------------------------------------------------------------------------- #


@dataclass
class Fig10Result:
    machines: list[int]
    normalized: dict[str, np.ndarray]  # dataset -> time normalised to 1 machine
    paper = {
        "FR-1B": {3: 1 / 1.8, 6: 1 / 2.4, 9: 1 / 2.9},
        "FRS-72B": {9: 1 / 4.5},
        "note": "OR-100M stops scaling beyond 6 machines",
    }

    def report(self) -> str:
        return format_series(
            self.machines,
            self.normalized,
            x_label="machines",
            title="Figure 10: PageRank time normalised to 1 machine "
            "(paper: FR 0.56/0.42/0.34 at p=3/6/9; FRS-72B best; OR degrades)",
        )


def fig10_pagerank_scaling(
    machines=(1, 2, 3, 4, 5, 6, 7, 8, 9),
    datasets=("OR-100M", "FR-1B", "FRS-72B"),
    iterations: int = 10,
    scale: float | None = None,
) -> Fig10Result:
    """Reproduce Figure 10: PageRank virtual time vs machine count."""
    normalized: dict[str, np.ndarray] = {}
    for name in datasets:
        el = load_dataset(name, scale)
        nm = calibrated_netmodel(name, scale)
        times = []
        for p in machines:
            sess = GraphSession(el, num_machines=p, netmodel=nm)
            times.append(pagerank(sess, iterations=iterations).virtual_seconds)
        times = np.asarray(times)
        normalized[name] = times / times[0]
    return Fig10Result(machines=list(machines), normalized=normalized)


# --------------------------------------------------------------------------- #
# Figure 11 — machine-count scaling of 100 queries (virtual time)
# --------------------------------------------------------------------------- #


@dataclass
class Fig11Result:
    per_machines: dict[int, ResponseTimes]
    boundary_vertices: dict[int, int]
    bins: np.ndarray
    paper = {"pct_within_0.2s": 80.0, "pct_within_1s": 90.0}

    def report(self) -> str:
        parts = []
        for p, rt in self.per_machines.items():
            parts.append(
                format_histogram(
                    self.bins,
                    rt.histogram(self.bins),
                    title=f"Figure 11: {p} machine(s) — 100 3-hop queries, FR analog "
                    f"(boundary vertices: {self.boundary_vertices[p]})",
                )
            )
            parts.append(
                f"  within 0.2s: {100 * rt.fraction_within(0.2):.0f}%   "
                f"within 1.0s: {100 * rt.fraction_within(1.0):.0f}%   "
                f"(paper: 80% / 90%)"
            )
        return "\n".join(parts)


def fig11_machine_scaling(
    machines=(1, 3, 6, 9),
    num_queries: int = 100,
    k: int = 3,
    scale: float | None = None,
    seed: int = 3,
) -> Fig11Result:
    """Reproduce Figure 11: response-time histograms vs machine count.

    Each machine count gets its own resident session; its workload runs on
    the online :class:`QueryService` pool.
    """
    el = load_dataset("FR-1B", scale)
    nm = calibrated_netmodel("FR-1B", scale)
    roots = random_sources(el, num_queries, seed=seed)
    per_machines: dict[int, ResponseTimes] = {}
    boundary: dict[int, int] = {}
    for p in machines:
        sess = GraphSession(el, num_machines=p, netmodel=nm)
        svc = QueryService(sess, k, discipline="pool")
        svc.submit_many(roots)
        per_machines[p] = ResponseTimes(
            f"{p} machines", svc.drain().response_seconds
        )
        boundary[p] = sess.pg.total_boundary_vertices()
    return Fig11Result(
        per_machines=per_machines, boundary_vertices=boundary, bins=PAPER_BINS
    )


# --------------------------------------------------------------------------- #
# Figure 12 — query-count scaling (virtual time)
# --------------------------------------------------------------------------- #


@dataclass
class Fig12Result:
    per_count: dict[int, ResponseTimes]
    bins: np.ndarray
    paper = {
        "q<=100": "80% within 0.6s, 90% within 1s",
        "q=350": "40% within 1s, 60% within 2s, tail 4-7s",
    }

    def degradation_ratio(self) -> float:
        """Max response at the largest count over max at the smallest count.

        The figure's claim in one number: paper ≈ 7s / 1.6s ≈ 4.4×.
        """
        counts = sorted(self.per_count)
        return self.per_count[counts[-1]].max / max(
            self.per_count[counts[0]].max, 1e-12
        )

    def report(self) -> str:
        parts = []
        for q, rt in self.per_count.items():
            parts.append(
                format_histogram(
                    self.bins,
                    rt.histogram(self.bins),
                    title=f"Figure 12: {q} concurrent queries — FRS-100B analog, "
                    f"9 machines (bins scaled to the analog's response range)",
                )
            )
            parts.append(
                f"  within 1s: {100 * rt.fraction_within(1.0):.0f}%   "
                f"within 2s: {100 * rt.fraction_within(2.0):.0f}%   max: {rt.max:.2f}s"
            )
        parts.append(
            f"degradation max(q_max)/max(q_min): {self.degradation_ratio():.1f}x "
            f"(paper: ~4.4x from 1.6s to 7s)"
        )
        return "\n".join(parts)


def fig12_query_count_scaling(
    counts=(20, 50, 100, 350),
    k: int = 3,
    num_machines: int = 9,
    scale: float | None = None,
    seed: int = 4,
    distinct_roots: int | None = 80,
) -> Fig12Result:
    """Reproduce Figure 12: degradation as the concurrent-query count grows.

    Roots for the 350-query stream are sampled from an 80-root pool by
    default (service times are per-root deterministic and memoised on the
    session, see :meth:`GraphSession.khop_service`), which keeps
    the harness wall time bounded on the dense FRS-100B analog without
    changing the response-time distribution shape.
    """
    el = load_dataset("FRS-100B", scale)
    nm = calibrated_netmodel("FRS-100B", scale)
    sess = GraphSession(el, num_machines=num_machines, netmodel=nm)
    max_count = max(counts)
    roots = pooled_sources(el, max_count, distinct_roots, seed)
    per_count: dict[int, ResponseTimes] = {}
    for q in counts:
        # every count is one wave on the same resident session — the online
        # admission loop replays the first q arrivals of the stream
        svc = QueryService(sess, k, discipline="pool")
        svc.submit_many(roots[:q])
        per_count[q] = ResponseTimes(
            f"{q} queries", svc.drain().response_seconds
        )
    # The FRS-100B analog saturates under 3 hops (see EXPERIMENTS.md), so an
    # absolute 0-2 s histogram can be empty; rescale the paper's bin layout
    # to the observed range when needed, keeping the paper bins when they
    # already capture the mass.
    smallest = per_count[min(counts)]
    if smallest.fraction_within(PAPER_BINS[-1]) >= 0.5:
        bins = PAPER_BINS
    else:
        bins = PAPER_BINS * (smallest.percentile(90) / PAPER_BINS[-2])
    return Fig12Result(per_count=per_count, bins=bins)


# --------------------------------------------------------------------------- #
# Figure 13 — concurrent BFS vs Gemini, bit ops enabled (virtual time)
# --------------------------------------------------------------------------- #


@dataclass
class Fig13Result:
    counts: list[int]
    cgraph_total: np.ndarray
    gemini_total: np.ndarray
    paper = {"ratio_at_64": 1.7, "ratio_at_128": 1.7, "ratio_at_256": 2.4}

    def ratios(self) -> np.ndarray:
        return self.gemini_total / np.maximum(self.cgraph_total, 1e-12)

    def report(self) -> str:
        head = format_series(
            self.counts,
            {"C-Graph_s": self.cgraph_total, "Gemini_s": self.gemini_total,
             "ratio": self.ratios()},
            x_label="concurrent_BFS",
            title="Figure 13: concurrent BFS total time, FR analog, 3 machines "
            "(paper: 1.7x at 64/128, 2.4x at 256; Gemini linear, C-Graph sublinear)",
        )
        return head


def fig13_bfs_vs_gemini(
    counts=(1, 64, 128, 256),
    num_machines: int = 3,
    scale: float | None = None,
    seed: int = 5,
) -> Fig13Result:
    """Reproduce Figure 13: bit-parallel batched BFS vs serialized Gemini."""
    el = load_dataset("FR-1B", scale)
    nm = calibrated_netmodel("FR-1B", scale)
    sess = GraphSession(el, num_machines=num_machines, netmodel=nm)
    max_count = max(counts)
    roots = random_sources(el, max_count, seed=seed)
    gemini = GeminiLikeEngine(sess)
    single = np.array(
        [gemini.single_query_seconds(int(s), None) for s in roots]
    )
    cg_total, ge_total = [], []
    for q in counts:
        # every count is one fresh service on the one resident session
        svc = QueryService(sess, None)
        svc.submit_many(roots[:q])
        cg_total.append(svc.drain().clock_seconds)
        ge_total.append(float(single[:q].sum()))
    return Fig13Result(
        counts=list(counts),
        cgraph_total=np.asarray(cg_total),
        gemini_total=np.asarray(ge_total),
    )


# --------------------------------------------------------------------------- #
# Ablations (design choices DESIGN.md calls out)
# --------------------------------------------------------------------------- #


@dataclass
class AblationResult:
    name: str
    rows: list[dict]

    def report(self) -> str:
        return format_table(self.rows, title=f"Ablation: {self.name}")


def ablation_edge_sets(
    dataset: str = "OR-100M",
    num_queries: int = 32,
    k: int = 3,
    num_machines: int = 3,
    scale: float | None = None,
    seed: int = 6,
) -> AblationResult:
    """Edge-set blocked scan vs flat CSR scan (same answers, counted work
    and virtual time).  Both rows force push — the scan the layout orders;
    pull's target-major sweep is the same under either.  ``wall_s``
    includes each session's first plan build — for edge-sets, the one-time
    block-major layout sort."""
    el = load_dataset(dataset, scale)
    nm = calibrated_netmodel(dataset, scale)
    roots = random_sources(el, num_queries, seed=seed)
    rows = []
    for edge_sets, label in ((False, "flat CSR"), (True, "edge-sets")):
        sess = GraphSession(
            el, num_machines=num_machines, netmodel=nm, edge_sets=edge_sets,
            consolidate_min_edges=4096 if edge_sets else None,
        )
        t0 = time.perf_counter()
        res = concurrent_khop(sess, roots, k, direction="push")
        wall = time.perf_counter() - t0
        rows.append(
            {
                "variant": label,
                "wall_s": wall,
                "virtual_s": res.virtual_seconds,
                "edges_scanned": res.total_edges_scanned,
                "reached_total": int(res.reached.sum()),
            }
        )
    return AblationResult("edge-set blocking vs flat CSR", rows)


def ablation_batch_width(
    dataset: str = "OR-100M",
    num_queries: int = 64,
    k: int = 3,
    widths=(1, 8, 16, 32, 64),
    num_machines: int = 3,
    scale: float | None = None,
    seed: int = 7,
) -> AblationResult:
    """Bit-parallel batch width sweep: W=1 is the no-bit-ops baseline (§3.5)."""
    el = load_dataset(dataset, scale)
    nm = calibrated_netmodel(dataset, scale)
    sess = GraphSession(el, num_machines=num_machines, netmodel=nm)
    roots = random_sources(el, num_queries, seed=seed)
    rows = []
    for w in widths:
        svc = QueryService(sess, k, batch_width=w)
        svc.submit_many(roots)
        rep = svc.drain()
        rows.append(
            {
                "batch_width": w,
                "total_virtual_s": rep.clock_seconds,
                "edges_scanned": rep.edges_scanned,
                "supersteps": rep.supersteps,
            }
        )
    return AblationResult("bit-parallel batch width", rows)


def ablation_async(
    dataset: str = "OR-100M",
    num_machines: int = 4,
    iterations: int = 10,
    scale: float | None = None,
    seed: int = 8,
) -> AblationResult:
    """Synchronous barrier vs asynchronous overlap (§3.3 update models)."""
    el = load_dataset(dataset, scale)
    nm = calibrated_netmodel(dataset, scale)
    sess = GraphSession(el, num_machines=num_machines, netmodel=nm)
    rows = []
    for asynchronous, label in ((False, "sync"), (True, "async")):
        run = pagerank(sess, iterations=iterations, asynchronous=asynchronous)
        rows.append(
            {
                "mode": label,
                "virtual_s": run.virtual_seconds,
                "iterations": run.iterations,
            }
        )
    roots = random_sources(el, 16, seed=seed)
    for asynchronous, label in ((False, "sync"), (True, "async")):
        res = concurrent_khop(sess, roots, 3, asynchronous=asynchronous)
        rows.append(
            {
                "mode": f"khop-{label}",
                "virtual_s": res.virtual_seconds,
                "iterations": res.supersteps,
            }
        )
    return AblationResult("sync vs async update model", rows)


def ablation_memory(
    dataset: str = "FR-1B",
    num_queries: int = 64,
    k: int = 1,
    scale: float | None = None,
    seed: int = 9,
) -> AblationResult:
    """Level-limited value storage vs dense per-vertex values (§3.3).

    The paper's optimisation pays off in the regime it targets: frontiers
    much smaller than the vertex count (billion-scale graphs, small k).
    The analog datasets are small enough that a saturating 3-hop frontier
    can approach ``n``, so the default here is the unsaturated ``k=1`` case
    on the larger FR analog — the faithful stand-in for the paper's regime.
    """
    from repro.graph.properties import DenseVertexValues, LevelLimitedValues

    el = load_dataset(dataset, scale)
    roots = random_sources(el, num_queries, seed=seed)
    res = concurrent_khop(GraphSession(el), roots, k, record_depths=True)
    dense = DenseVertexValues(el.num_vertices, num_queries)
    limited = LevelLimitedValues(num_queries)
    depths = res.depths
    for q in range(num_queries):
        for level in range(k + 1):
            verts = np.nonzero(depths[:, q] == level)[0]
            limited.push_level(q, level, verts, np.full(verts.size, float(level)))
    rows = [
        {"store": "dense per-vertex", "bytes": dense.nbytes()},
        {"store": "level-limited (peak)", "bytes": limited.peak_nbytes},
        {
            "store": "ratio",
            "bytes": round(dense.nbytes() / max(limited.peak_nbytes, 1), 2),
        },
    ]
    return AblationResult("level-limited vs dense vertex values", rows)


def ablation_out_of_core(
    dataset: str = "OR-100M",
    num_queries: int = 16,
    k: int = 3,
    num_machines: int = 3,
    cache_blocks=(0, 2, 8, 64),
    scale: float | None = None,
    seed: int = 10,
) -> AblationResult:
    """Disk-resident edge-sets: cache size and consolidation vs I/O cost.

    Reproduces §3.2's consolidation argument quantitatively: tiny edge-sets
    force many small disk reads; merging them (or growing the block cache)
    collapses the I/O term of the virtual time.
    """
    from repro.core.ooc import concurrent_khop_out_of_core

    el = load_dataset(dataset, scale)
    nm = calibrated_netmodel(dataset, scale)
    roots = random_sources(el, num_queries, seed=seed)
    sess = GraphSession(el, num_machines=num_machines, netmodel=nm)
    rows = []
    for cache in cache_blocks:
        res = concurrent_khop_out_of_core(sess, roots, k, cache_blocks=cache)
        rows.append(
            {
                "variant": f"cache={cache}",
                "disk_reads": res.disk_reads,
                "disk_MB": round(res.disk_bytes_read / 1e6, 2),
                "hit_rate": round(res.cache_hit_rate, 3),
                "virtual_s": res.virtual_seconds,
            }
        )
    consolidated = concurrent_khop_out_of_core(
        GraphSession(el, num_machines=num_machines, netmodel=nm, edge_sets=True,
                     consolidate_min_edges=el.num_edges // 8),
        roots, k, cache_blocks=cache_blocks[1],
    )
    rows.append(
        {
            "variant": f"cache={cache_blocks[1]}+consolidated",
            "disk_reads": consolidated.disk_reads,
            "disk_MB": round(consolidated.disk_bytes_read / 1e6, 2),
            "hit_rate": round(consolidated.cache_hit_rate, 3),
            "virtual_s": consolidated.virtual_seconds,
        }
    )
    return AblationResult("out-of-core edge-sets: cache size & consolidation", rows)


def ablation_wide_batches(
    dataset: str = "OR-100M",
    num_queries: int = 256,
    k: int = 3,
    num_machines: int = 3,
    scale: float | None = None,
    seed: int = 11,
) -> AblationResult:
    """Cache-line-wide batches (512 bits) vs word-wide batch streams (§3.5).

    One multi-word pass shares traversal work across every query in the
    stream; the word-wide stream pays one pass per 64-query batch.
    """
    el = load_dataset(dataset, scale)
    nm = calibrated_netmodel(dataset, scale)
    sess = GraphSession(el, num_machines=num_machines, netmodel=nm)
    roots = random_sources(el, num_queries, seed=seed)
    svc = QueryService(sess, k)
    svc.submit_many(roots)
    stream = svc.drain()
    wide = concurrent_khop(sess, roots, k)
    rows = [
        {
            "variant": "64-wide batch stream",
            "edges_scanned": stream.edges_scanned,
            "virtual_s": stream.clock_seconds,
            "passes": stream.num_batches,
        },
        {
            "variant": f"{num_queries}-wide single batch ({words_for(num_queries)} words)",
            "edges_scanned": wide.total_edges_scanned,
            "virtual_s": wide.virtual_seconds,
            "passes": 1,
        },
    ]
    assert (wide.reached == stream.reached).all()
    return AblationResult("cache-line-wide vs word-wide batches", rows)


# --------------------------------------------------------------------------- #
# Index vs traversal: point-query workloads on the hybrid planner
# --------------------------------------------------------------------------- #


@dataclass
class IndexVsTraversalResult:
    """One point-query workload answered both ways on one resident session.

    The traversal side packs the ``(s, t)`` pairs into word-wide
    early-terminating reachability batches (the engine's best
    configuration for point queries); the index side answers the whole
    workload with one vectorised label intersection after its one-time
    build (reported separately, never folded into the per-query cost).
    The driver asserts both sides return bit-identical verdicts.
    """

    dataset: str
    num_pairs: int
    k: int | None
    num_machines: int
    index_build_s: float
    index_answer_s: float
    traversal_answer_s: float
    index_virtual_s: float
    traversal_virtual_s: float
    label_entries: int
    mean_label_size: float
    reachable_fraction: float

    @property
    def speedup(self) -> float:
        """Wall-clock answering speedup, excluding the one-time build."""
        return self.traversal_answer_s / max(self.index_answer_s, 1e-12)

    @property
    def virtual_speedup(self) -> float:
        """Virtual-time speedup under the shared calibrated cost model."""
        return self.traversal_virtual_s / max(self.index_virtual_s, 1e-12)

    @property
    def rows(self) -> list[dict]:
        per_pair = 1e6 / max(self.num_pairs, 1)
        return [
            {
                "strategy": "traversal (64-wide batches)",
                "wall_s": round(self.traversal_answer_s, 6),
                "virtual_s": round(self.traversal_virtual_s, 9),
                "per_query_wall_us": round(
                    self.traversal_answer_s * per_pair, 3
                ),
            },
            {
                "strategy": "index (label intersection)",
                "wall_s": round(self.index_answer_s, 6),
                "virtual_s": round(self.index_virtual_s, 9),
                "per_query_wall_us": round(self.index_answer_s * per_pair, 3),
            },
            {
                "strategy": "index build (one-time)",
                "wall_s": round(self.index_build_s, 6),
                "virtual_s": 0.0,
                "per_query_wall_us": 0.0,
            },
        ]

    def report(self) -> str:
        budget = "unbounded" if self.k is None else f"k={self.k}"
        table = format_table(
            self.rows,
            title=(
                f"Index vs traversal: {self.num_pairs} point reachability "
                f"queries ({budget}) on {self.dataset}"
            ),
        )
        return (
            f"{table}\n"
            f"index: {self.label_entries} label entries "
            f"(mean {self.mean_label_size:.1f}/vertex/direction), "
            f"built once in {self.index_build_s:.3f} s\n"
            f"answering speedup: {self.speedup:.1f}x wall clock, "
            f"{self.virtual_speedup:.1f}x virtual time "
            f"({100 * self.reachable_fraction:.0f}% of pairs reachable)"
        )


def index_vs_traversal(
    dataset: str = "OR-100M",
    num_pairs: int = 256,
    k: int | None = 3,
    num_machines: int = 3,
    scale: float | None = None,
    seed: int = 21,
) -> IndexVsTraversalResult:
    """Answer a point-query workload via traversal and via the index.

    Both strategies run on the same resident :class:`GraphSession`; the
    index is built once on it (``session.index()``), exactly the hybrid
    deployment the service layer's ``planner="hybrid"`` mode runs online.
    """
    el = load_dataset(dataset, scale)
    nm = calibrated_netmodel(dataset, scale)
    sess = GraphSession(el, num_machines=num_machines, netmodel=nm)
    sources = random_sources(el, num_pairs, seed=seed)
    rng = np.random.default_rng(seed)
    targets = rng.integers(0, el.num_vertices, size=num_pairs)

    trav_verdicts = []
    trav_virtual = 0.0
    t0 = time.perf_counter()
    for i in range(0, num_pairs, 64):
        res = reachability_queries(sess, sources[i : i + 64], targets[i : i + 64], k)
        trav_verdicts.append(res.reachable)
        trav_virtual += res.virtual_seconds
    traversal_answer_s = time.perf_counter() - t0
    trav_verdicts = np.concatenate(trav_verdicts)

    build = sess.index_build()
    planner = sess.index_planner()
    t0 = time.perf_counter()
    answer = planner.answer(sources, targets, k)
    index_answer_s = time.perf_counter() - t0

    if not np.array_equal(answer.reachable, trav_verdicts):
        raise AssertionError(
            "index verdicts diverged from the traversal engine"
        )

    return IndexVsTraversalResult(
        dataset=dataset,
        num_pairs=num_pairs,
        k=k,
        num_machines=num_machines,
        index_build_s=build.build_seconds,
        index_answer_s=index_answer_s,
        traversal_answer_s=traversal_answer_s,
        index_virtual_s=answer.total_seconds,
        traversal_virtual_s=trav_virtual,
        label_entries=build.labels.num_entries,
        mean_label_size=build.labels.mean_label_size,
        reachable_fraction=float(answer.reachable.mean()),
    )


# --------------------------------------------------------------------------- #
# Direction optimization: adaptive push-pull vs always-push.
# --------------------------------------------------------------------------- #


@dataclass
class PushPullResult:
    """Wall-clock of adaptive (auto) traversal vs forced push and pull.

    Two workloads over the same 64-query bit-parallel batch:

    * **dense** — a full BFS to fixpoint.  Mid-traversal the frontier
      covers most of the graph, so the density heuristic switches the
      bulk supersteps to the cache-blocked pull kernel; the headline
      claim is ``dense_speedup >= 1`` with a margin asserted by the
      benchmark gate.
    * **sparse** — a 1-hop drain whose frontier is only the 64 roots, far
      below the density crossover.  Auto must stay in push mode
      (``sparse_pull_steps == 0``) and
      ``sparse_ratio`` (auto over push) must sit at ~1: the heuristic may
      not tax workloads it cannot help.

    Before any timing the driver drains every direction (push, pull,
    auto) on the in-process engine *and* the worker pool and raises
    unless answers and virtual clocks are bit-identical across all six
    runs — direction choice is an execution detail, never an answer
    change.
    """

    num_queries: int
    k_sparse: int
    num_vertices: int
    num_edges: int
    num_machines: int
    repeats: int
    dense_push_wall_s: float
    dense_pull_wall_s: float
    dense_auto_wall_s: float
    dense_auto_push_steps: int
    dense_auto_pull_steps: int
    dense_virtual_s: float
    sparse_push_wall_s: float
    sparse_auto_wall_s: float
    sparse_pull_steps: int

    @property
    def dense_speedup(self) -> float:
        """Auto's wall-clock win over always-push on the dense drain."""
        return self.dense_push_wall_s / max(self.dense_auto_wall_s, 1e-12)

    @property
    def sparse_ratio(self) -> float:
        """Auto over push on the sparse drain (~1.0 = no overhead)."""
        return self.sparse_auto_wall_s / max(self.sparse_push_wall_s, 1e-12)

    @property
    def rows(self) -> list[dict]:
        return [
            {
                "workload": "dense (full BFS)",
                "push_wall_s": round(self.dense_push_wall_s, 6),
                "pull_wall_s": round(self.dense_pull_wall_s, 6),
                "auto_wall_s": round(self.dense_auto_wall_s, 6),
                "auto_vs_push": round(self.dense_speedup, 3),
                "auto_pull_steps": self.dense_auto_pull_steps,
                "auto_push_steps": self.dense_auto_push_steps,
            },
            {
                "workload": f"sparse ({self.k_sparse}-hop)",
                "push_wall_s": round(self.sparse_push_wall_s, 6),
                "pull_wall_s": "-",
                "auto_wall_s": round(self.sparse_auto_wall_s, 6),
                "auto_vs_push": round(1.0 / max(self.sparse_ratio, 1e-12), 3),
                "auto_pull_steps": self.sparse_pull_steps,
                "auto_push_steps": "-",
            },
        ]

    def report(self) -> str:
        table = format_table(
            self.rows,
            title=(
                f"Push-pull direction optimization: {self.num_queries}-query "
                f"batch, RMAT n={self.num_vertices} m={self.num_edges}, "
                f"{self.num_machines} machines"
            ),
        )
        return (
            f"{table}\n"
            f"dense auto speedup over always-push: {self.dense_speedup:.2f}x "
            f"({self.dense_auto_pull_steps} pull / "
            f"{self.dense_auto_push_steps} push partition-steps)\n"
            f"sparse auto/push wall ratio: {self.sparse_ratio:.3f} "
            f"(bit-identical answers asserted, both backends)"
        )


def push_pull(
    num_queries: int = 64,
    k_sparse: int = 1,
    vertex_scale: int = 13,
    num_edges: int = 120_000,
    num_machines: int = 2,
    repeats: int = 3,
    seed: int = 17,
    scale: float | None = None,
) -> PushPullResult:
    """Time adaptive direction selection against forced push and pull.

    One persistent in-process session serves all timed drains, so the
    lazily built pull index (a one-time per-partition cost, like the CSR
    build it sits beside) is amortised exactly as in service operation.
    Warm-up drains install it and double as the bit-identity gate: push,
    pull and auto must agree on reached counts, per-step virtual times
    and the total virtual clock, on the in-process engine and on the
    worker pool.  Timed rounds then interleave the directions and report
    each one's min over ``repeats``.
    """
    if scale is not None:
        num_edges = max(int(num_edges * scale), 2_000)
    el = rmat_edges(vertex_scale, num_edges, seed=seed)
    el = el.remove_self_loops().deduplicate()
    roots = random_sources(el, num_queries, seed=seed + 1)
    sess = GraphSession(el, num_machines=num_machines)

    def drain(k, direction, on=sess):
        return concurrent_khop(on, roots, k, direction=direction)

    # Warm-up + correctness gate: every direction, both backends, one
    # push-mode reference.  Also installs the pull index in `sess`.
    ref = drain(None, "push")
    checked = {"push (in-process)": ref}
    checked["pull (in-process)"] = drain(None, "pull")
    auto = drain(None, "auto")
    checked["auto (in-process)"] = auto
    with GraphSession(el, num_machines=num_machines, backend="pool") as pooled:
        for direction in ("push", "pull", "auto"):
            checked[f"{direction} (pool)"] = drain(None, direction, on=pooled)
    for label, res in checked.items():
        if not np.array_equal(res.reached, ref.reached):
            raise AssertionError(f"{label} diverged from push reference")
        if res.virtual_seconds != ref.virtual_seconds:
            raise AssertionError(f"{label} virtual clock diverged")
        if res.per_step_seconds != ref.per_step_seconds:
            raise AssertionError(f"{label} per-step virtual times diverged")
    if auto.pull_partition_steps == 0:
        raise AssertionError("auto never selected pull on the dense drain")

    dense_wall = dict.fromkeys(("push", "pull", "auto"), float("inf"))
    for _ in range(repeats):
        for direction in dense_wall:
            t0 = time.perf_counter()
            drain(None, direction)
            dense_wall[direction] = min(
                dense_wall[direction], time.perf_counter() - t0
            )

    sparse_auto = drain(k_sparse, "auto")  # warm-up
    drain(k_sparse, "push")
    sparse_wall = dict.fromkeys(("push", "auto"), float("inf"))
    for _ in range(repeats):
        for direction in sparse_wall:
            t0 = time.perf_counter()
            drain(k_sparse, direction)
            sparse_wall[direction] = min(
                sparse_wall[direction], time.perf_counter() - t0
            )

    return PushPullResult(
        num_queries=num_queries,
        k_sparse=k_sparse,
        num_vertices=el.num_vertices,
        num_edges=el.num_edges,
        num_machines=num_machines,
        repeats=repeats,
        dense_push_wall_s=dense_wall["push"],
        dense_pull_wall_s=dense_wall["pull"],
        dense_auto_wall_s=dense_wall["auto"],
        dense_auto_push_steps=auto.push_partition_steps,
        dense_auto_pull_steps=auto.pull_partition_steps,
        dense_virtual_s=ref.virtual_seconds,
        sparse_push_wall_s=sparse_wall["push"],
        sparse_auto_wall_s=sparse_wall["auto"],
        sparse_pull_steps=sparse_auto.pull_partition_steps,
    )


# --------------------------------------------------------------------------- #
# Fault tolerance: what does checkpointing cost, what does recovery cost?
# --------------------------------------------------------------------------- #


@dataclass
class RecoveryOverheadResult:
    """Wall-clock cost of per-superstep checkpointing and of one recovery.

    Three drains of the same k-hop batch on the worker pool:

    * ``plain_wall_s`` — checkpointing effectively disabled (interval far
      beyond the superstep count; only the mandatory batch-start snapshot);
    * ``ft_wall_s`` — checkpoint every superstep (``checkpoint_interval=1``,
      the default), still fault-free.  The headline claim is
      ``ft_wall_s <= 1.10 * plain_wall_s``: full per-step durability for
      under ten percent;
    * ``faulted_wall_s`` — checkpointing on *and* one injected worker crash
      mid-drain, recovered by respawn + rewind-replay.  Answers from all
      three drains (and the in-process reference) are bit-identical,
      virtual clocks included — asserted inside the driver before any
      timing counts.
    """

    num_queries: int
    k: int
    num_vertices: int
    num_edges: int
    workers: int
    repeats: int
    supersteps: int
    plain_wall_s: float
    ft_wall_s: float
    faulted_wall_s: float
    recoveries: int

    @property
    def checkpoint_overhead(self) -> float:
        """Fault-free checkpointing cost as a fraction of the plain drain."""
        return self.ft_wall_s / max(self.plain_wall_s, 1e-12) - 1.0

    @property
    def recovery_cost_s(self) -> float:
        """Extra wall-clock one crash+recovery added over the ft drain."""
        return self.faulted_wall_s - self.ft_wall_s

    @property
    def rows(self) -> list[dict]:
        return [
            {
                "drain": "plain (no checkpoints)",
                "wall_s": round(self.plain_wall_s, 6),
                "vs_plain": 1.0,
                "recoveries": 0,
            },
            {
                "drain": "checkpoint every superstep",
                "wall_s": round(self.ft_wall_s, 6),
                "vs_plain": round(
                    self.ft_wall_s / max(self.plain_wall_s, 1e-12), 3
                ),
                "recoveries": 0,
            },
            {
                "drain": "checkpointed + 1 worker crash",
                "wall_s": round(self.faulted_wall_s, 6),
                "vs_plain": round(
                    self.faulted_wall_s / max(self.plain_wall_s, 1e-12), 3
                ),
                "recoveries": self.recoveries,
            },
        ]

    def report(self) -> str:
        table = format_table(
            self.rows,
            title=(
                f"Recovery overhead: {self.num_queries}-query {self.k}-hop "
                f"pool drain ({self.workers} workers, {self.supersteps} "
                f"supersteps, RMAT n={self.num_vertices} m={self.num_edges})"
            ),
        )
        return (
            f"{table}\n"
            f"checkpoint overhead (fault-free): "
            f"{100 * self.checkpoint_overhead:+.1f}%\n"
            f"one crash + rewind-replay recovery: "
            f"{self.recovery_cost_s * 1e3:+.1f} ms over the checkpointed "
            f"drain (bit-identical answers asserted for all drains)"
        )


def recovery_overhead(
    num_queries: int = 64,
    k: int = 4,
    vertex_scale: int = 13,
    num_edges: int = 120_000,
    workers: int = 2,
    repeats: int = 3,
    seed: int = 17,
    scale: float | None = None,
) -> RecoveryOverheadResult:
    """Measure checkpointing overhead and crash-recovery cost on the pool.

    Two fault-free pool sessions (checkpointing off / every superstep) and
    one faulted session (checkpointing on, worker 0 crashes at superstep 1
    of every timed drain) run the identical batch.  Warm-ups install
    resident tasks and assert bit-identical answers against the in-process
    reference; timed rounds interleave the sessions and keep each side's
    min over ``repeats``.  The faulted session re-arms its one-shot crash
    before every drain, so each timed round pays exactly one respawn +
    rewind-replay.
    """
    from repro.runtime.fault import FaultPlan, FaultTolerance

    if scale is not None:
        num_edges = max(int(num_edges * scale), 2_000)
        num_queries = int(np.clip(int(num_queries * scale), 8, 64))
    el = rmat_edges(vertex_scale, num_edges, seed=seed)
    el = el.remove_self_loops().deduplicate()
    roots = random_sources(el, num_queries, seed=seed + 1)

    inproc = GraphSession(el, num_machines=workers)
    ref = concurrent_khop(inproc, roots, k)

    off = FaultTolerance(checkpoint_interval=1_000_000_000)
    every = FaultTolerance(checkpoint_interval=1)
    crash_plan = FaultPlan().crash_worker(min(1, max(k - 1, 0)), 0)

    def check(res, label: str) -> None:
        if not np.array_equal(res.reached, ref.reached):
            raise AssertionError(f"{label} drain diverged from reference")
        if res.virtual_seconds != ref.virtual_seconds:
            raise AssertionError(f"{label} virtual clock diverged")

    with GraphSession(
        el, num_machines=workers, backend="pool", fault_tolerance=off
    ) as plain_sess, GraphSession(
        el, num_machines=workers, backend="pool", fault_tolerance=every
    ) as ft_sess, GraphSession(
        el, num_machines=workers, backend="pool", fault_tolerance=every
    ) as faulted_sess:
        check(concurrent_khop(plain_sess, roots, k), "plain")
        check(concurrent_khop(ft_sess, roots, k), "checkpointed")
        faulted_sess.set_fault_plan(crash_plan)
        check(concurrent_khop(faulted_sess, roots, k), "faulted")
        if faulted_sess.degraded or faulted_sess._pool.recoveries < 1:
            raise AssertionError("faulted warm-up did not recover in-pool")

        t_plain = t_ft = t_faulted = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            concurrent_khop(plain_sess, roots, k)
            t_plain = min(t_plain, time.perf_counter() - t0)
            t0 = time.perf_counter()
            concurrent_khop(ft_sess, roots, k)
            t_ft = min(t_ft, time.perf_counter() - t0)
            faulted_sess.set_fault_plan(crash_plan)
            t0 = time.perf_counter()
            res = concurrent_khop(faulted_sess, roots, k)
            t_faulted = min(t_faulted, time.perf_counter() - t0)
            check(res, "faulted")
        recoveries = faulted_sess._pool.recoveries
        supersteps = ref.supersteps

    return RecoveryOverheadResult(
        num_queries=num_queries,
        k=k,
        num_vertices=el.num_vertices,
        num_edges=el.num_edges,
        workers=workers,
        repeats=repeats,
        supersteps=supersteps,
        plain_wall_s=t_plain,
        ft_wall_s=t_ft,
        faulted_wall_s=t_faulted,
        recoveries=recoveries,
    )


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _timed_value(fn):
    t0 = time.perf_counter()
    value = fn()
    return time.perf_counter() - t0, value

# --------------------------------------------------------------------------- #
# durability overhead (the cost of never losing a mutation)
# --------------------------------------------------------------------------- #


@dataclass
class DurabilityOverheadResult:
    """What durable service state costs — and what it buys back.

    **Cost** (the WAL tax): the same effective mutation stream is applied
    to three twin dynamic sessions — WAL off, WAL on with per-drain group
    commit (``fsync=batch``, the service lane's policy), and WAL on with
    an fsync per append (``fsync=always``).  Checkpoints are timed as
    their own phase (one explicit checkpoint, amortized over the
    configured cadence in the table) so the WAL throughput number
    isolates the per-mutation logging cost the ``0.8x`` gate is about.

    **Payback** (recovery): after a short post-checkpoint suffix of
    batches, restoring the durable twin's state — newest checkpoint plus
    WAL-suffix replay — is timed against the only alternative a WAL-less
    deployment has: rebuild the session from the original edge list,
    rebuild the index, and re-apply every mutation batch from an
    external source of truth.

    Exactness is gated off the clock: the recovered session's epoch,
    edge set and index answers are bit-identical to the uninterrupted
    twin's.
    """

    num_vertices: int
    num_edges: int
    num_machines: int
    num_batches: int
    suffix_batches: int
    warmup_batches: int
    mutations_total: int
    checkpoint_every: int
    group_size: int
    wal_off_wall_s: float
    wal_batch_wall_s: float
    wal_always_wall_s: float
    checkpoint_wall_s: float
    recovery_wall_s: float
    rebuild_wall_s: float
    checkpoint_epoch: int
    replayed_records: int
    final_epoch: int
    wal_bytes: int
    wal_fsyncs_batch: int
    wal_fsyncs_always: int
    pairs_checked: int

    @property
    def timed_batches(self) -> int:
        """Batches inside the throughput-timed window."""
        return self.num_batches - self.suffix_batches - self.warmup_batches

    @property
    def batch_relative_throughput(self) -> float:
        """WAL-on (batch fsync) throughput relative to WAL-off (<= 1)."""
        return self.wal_off_wall_s / max(self.wal_batch_wall_s, 1e-12)

    @property
    def always_relative_throughput(self) -> float:
        return self.wal_off_wall_s / max(self.wal_always_wall_s, 1e-12)

    @property
    def steady_state_relative(self) -> float:
        """Relative throughput with the checkpoint amortized in."""
        amortized = self.checkpoint_wall_s * (
            self.timed_batches / self.checkpoint_every
        )
        return self.wal_off_wall_s / max(
            self.wal_batch_wall_s + amortized, 1e-12
        )

    @property
    def recovery_speedup(self) -> float:
        """Checkpoint+replay restore over rebuild-from-scratch."""
        return self.rebuild_wall_s / max(self.recovery_wall_s, 1e-12)

    @property
    def rows(self) -> list[dict]:
        def row(phase, mode, wall, per_batch, fsyncs, rel):
            return {
                "phase": phase,
                "mode": mode,
                "wall_s": round(wall, 6),
                "mean_batch_ms": round(per_batch * 1e3, 3),
                "fsyncs": fsyncs,
                "relative": round(rel, 3),
            }

        t = self.timed_batches
        return [
            row("apply", "wal_off", self.wal_off_wall_s,
                self.wal_off_wall_s / t, 0, 1.0),
            row("apply", "wal_batch", self.wal_batch_wall_s,
                self.wal_batch_wall_s / t, self.wal_fsyncs_batch,
                self.batch_relative_throughput),
            row("apply", "wal_always", self.wal_always_wall_s,
                self.wal_always_wall_s / t, self.wal_fsyncs_always,
                self.always_relative_throughput),
            # One checkpoint; per-batch column is its cost amortized over
            # the configured cadence, relative is steady-state (WAL +
            # amortized checkpoints) vs WAL-off.
            row("apply", "checkpoint", self.checkpoint_wall_s,
                self.checkpoint_wall_s / self.checkpoint_every, 0,
                self.steady_state_relative),
            row("restore", "recover", self.recovery_wall_s,
                self.recovery_wall_s / self.num_batches, 0,
                self.recovery_speedup),
            row("restore", "rebuild", self.rebuild_wall_s,
                self.rebuild_wall_s / self.num_batches, 0, 1.0),
        ]

    def report(self) -> str:
        table = format_table(
            self.rows,
            title=(
                f"Durability overhead: {self.warmup_batches}+"
                f"{self.timed_batches}+{self.suffix_batches} "
                f"(warm+timed+suffix) mutation batches "
                f"({self.mutations_total} edges) on RMAT "
                f"n={self.num_vertices} m={self.num_edges}, "
                f"{self.num_machines} machines, checkpoint cadence "
                f"{self.checkpoint_every}, group commit x{self.group_size}"
            ),
        )
        return (
            f"{table}\n"
            f"WAL tax (batch fsync, group commit): "
            f"{self.batch_relative_throughput:.2f}x of WAL-off throughput "
            f"({self.wal_bytes:,} WAL bytes, {self.wal_fsyncs_batch} "
            f"fsyncs; {self.steady_state_relative:.2f}x with checkpoints "
            f"amortized); recovery from checkpoint epoch "
            f"{self.checkpoint_epoch} + {self.replayed_records} replayed "
            f"record(s) is {self.recovery_speedup:.1f}x faster than "
            f"rebuild-from-scratch (answers exact on {self.pairs_checked} "
            f"sampled pairs)"
        )


def durability_overhead(
    num_batches: int = 24,
    suffix_batches: int = 2,
    warmup_batches: int = 1,
    ops_per_batch: int = 12,
    vertex_scale: int = 11,
    num_edges: int = 24_000,
    num_machines: int = 2,
    checkpoint_every: int = 8,
    group_size: int = 4,
    seed: int = 23,
    scale: float | None = None,
    root: str | None = None,
) -> DurabilityOverheadResult:
    """Measure the WAL tax and the recovery payback on one churn stream.

    Each twin applies ``warmup_batches`` off the clock first (the first
    patch pays one-time :class:`IncrementalIndex` construction), then
    the throughput-timed window (no checkpoint fires inside it, so the
    WAL twins' walls isolate logging cost); then the durable twin takes
    one explicit checkpoint (timed as its own phase) and applies the
    ``suffix_batches`` tail, so the timed recovery has a genuine WAL
    suffix to replay, not just a checkpoint to load.  ``scale`` shrinks
    the graph and the stream together; ``root`` overrides the scratch
    directory (default: a fresh temp dir, removed afterwards).
    """
    import gc
    import shutil
    import tempfile

    from repro.runtime.durability import recover_session

    if suffix_batches < 1 or warmup_batches < 0:
        raise ValueError("suffix_batches must be >= 1, warmup_batches >= 0")
    if warmup_batches + suffix_batches >= num_batches:
        raise ValueError("warmup + suffix must leave a timed window")
    if scale is not None:
        s = max(scale, 1e-9)
        while s <= 0.5 and vertex_scale > 8:
            vertex_scale -= 1
            s *= 2
        num_edges = max(int(num_edges * scale), 2_000)
    el = rmat_edges(
        vertex_scale, num_edges, seed=seed
    ).remove_self_loops().deduplicate()
    base_edges = el.num_edges
    rng = np.random.default_rng(seed + 1)
    n = el.num_vertices

    # The effective stream: fresh inserts plus one base-edge expiry per
    # batch, so no batch is a silent no-op.
    current = set(
        (int(u) * n + int(v))
        for u, v in zip(el.src.tolist(), el.dst.tolist())
    )
    base_pool = rng.permutation(
        np.fromiter(current, dtype=np.int64, count=len(current))
    ).tolist()
    stream = []
    for _ in range(num_batches):
        inserts, deletes = [], []
        key = base_pool.pop()
        deletes.append((key // n, key % n))
        current.discard(key)
        for _ in range(ops_per_batch - 1):
            while True:
                u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
                if u != v and u * n + v not in current:
                    break
            inserts.append((u, v))
            current.add(u * n + v)
        stream.append((inserts, deletes))
    mutations_total = sum(len(i) + len(d) for i, d in stream)
    warm = warmup_batches
    timed = num_batches - suffix_batches

    def twin() -> GraphSession:
        sess = GraphSession(el, num_machines=num_machines)
        sess.dynamic()
        sess.index()  # resident at epoch 0, checkpointed when durable
        return sess

    def apply_window(sess: GraphSession, batches, durability=None) -> float:
        total = 0.0
        for start in range(0, len(batches), group_size):
            chunk = batches[start:start + group_size]
            t0 = time.perf_counter()
            if durability is not None:
                # The service scheduler's drain-step group commit: one
                # fsync per drained group of arrival batches.
                with durability.group():
                    for inserts, deletes in chunk:
                        sess.apply_mutations(inserts, deletes)
            else:
                for inserts, deletes in chunk:
                    sess.apply_mutations(inserts, deletes)
            total += time.perf_counter() - t0
        return total

    num_pairs = min(4096, n * n)
    qsrc = rng.integers(0, n, size=num_pairs)
    qdst = rng.integers(0, n, size=num_pairs)

    tmp = None
    if root is None:
        tmp = tempfile.mkdtemp(prefix="cgraph-durbench-")
        root = tmp
    try:
        # The three apply twins run their timed windows INTERLEAVED,
        # group by group, so environmental noise (scheduler, gc over the
        # three resident label stores) lands on all three walls alike and
        # the relative-throughput gates compare like with like.  The
        # durable twin's periodic cadence is parked past the window so
        # the explicit checkpoint below is the only one on any clock.
        batch_root = os.path.join(root, "batch")
        off = twin()
        durable = twin()
        mgr = durable.enable_durability(
            batch_root, fsync="batch", checkpoint_every=num_batches + 1
        )
        always = twin()
        amgr = always.enable_durability(
            os.path.join(root, "always"), fsync="always",
            checkpoint_every=num_batches + 1,
        )
        # Warmup, off every clock: the first patch pays one-time
        # IncrementalIndex construction (and, durably, WAL setup).
        apply_window(off, stream[:warm])
        apply_window(durable, stream[:warm], mgr)
        apply_window(always, stream[:warm])
        wal_off_wall = wal_batch_wall = wal_always_wall = 0.0
        for start in range(warm, timed, group_size):
            chunk = stream[start:min(start + group_size, timed)]
            wal_off_wall += apply_window(off, chunk)
            wal_batch_wall += apply_window(durable, chunk, mgr)
            wal_always_wall += apply_window(always, chunk)
        fsyncs_always = amgr.wal.fsyncs
        amgr.close()
        always.close()
        del always
        checkpoint_wall = _timed(lambda: mgr.checkpoint())
        apply_window(off, stream[timed:])  # suffix, off the clock
        apply_window(durable, stream[timed:], mgr)  # the WAL suffix
        wal_bytes = mgr.wal.bytes_written
        fsyncs_batch = mgr.wal.fsyncs
        ref_edges = off.dynamic().materialize_edges()
        final_epoch = int(off.graph_epoch)
        if int(durable.graph_epoch) != final_epoch:
            raise AssertionError(
                f"durable twin ended at epoch {durable.graph_epoch}, "
                f"WAL-off twin at {final_epoch}"
            )
        # Simulate the crash: abandon the durable session as-is —
        # recovery must load the checkpoint and replay the suffix.  The
        # restore phases below run one session at a time.
        mgr.close()
        durable.close()
        off.close()
        del durable, off
        gc.collect()

        recovery_wall, recovered = _timed_value(
            lambda: recover_session(batch_root)
        )
        recovery = recovered._durability.last_recovery
        if int(recovered.graph_epoch) != final_epoch:
            raise AssertionError(
                f"recovered epoch {recovered.graph_epoch} != uninterrupted "
                f"run's {final_epoch}"
            )
        rec_edges = recovered.dynamic().materialize_edges()
        rec_dists = recovered.index().dist_many(qsrc, qdst)
        recovered._durability.close()
        recovered.close()
        del recovered
        gc.collect()

        def rebuild() -> GraphSession:
            sess = twin()
            for inserts, deletes in stream:
                sess.apply_mutations(inserts, deletes)
            return sess

        rebuild_wall, rebuilt = _timed_value(rebuild)

        # -- exactness gates (off the clock) ---------------------------- #
        if not (
            np.array_equal(rec_edges.src, ref_edges.src)
            and np.array_equal(rec_edges.dst, ref_edges.dst)
        ):
            raise AssertionError(
                "recovered edge set diverges from the WAL-off twin"
            )
        if not np.array_equal(
            rec_dists, rebuilt.index().dist_many(qsrc, qdst)
        ):
            raise AssertionError(
                "recovered index answers diverge from the rebuilt oracle"
            )

        result = DurabilityOverheadResult(
            num_vertices=n,
            num_edges=base_edges,
            num_machines=num_machines,
            num_batches=num_batches,
            suffix_batches=suffix_batches,
            warmup_batches=warmup_batches,
            mutations_total=mutations_total,
            checkpoint_every=checkpoint_every,
            group_size=group_size,
            wal_off_wall_s=wal_off_wall,
            wal_batch_wall_s=wal_batch_wall,
            wal_always_wall_s=wal_always_wall,
            checkpoint_wall_s=checkpoint_wall,
            recovery_wall_s=recovery_wall,
            rebuild_wall_s=rebuild_wall,
            checkpoint_epoch=recovery.checkpoint_epoch,
            replayed_records=recovery.replayed_records,
            final_epoch=final_epoch,
            wal_bytes=wal_bytes,
            wal_fsyncs_batch=fsyncs_batch,
            wal_fsyncs_always=fsyncs_always,
            pairs_checked=num_pairs,
        )
        rebuilt.close()
        return result
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
