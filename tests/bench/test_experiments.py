"""Smoke + shape tests for every experiment driver, at tiny scale.

These tests pin the *qualitative* reproduction claims cheaply; the
``benchmarks/`` suite runs the same drivers at full analog scale and is the
source for EXPERIMENTS.md numbers.
"""

import numpy as np
import pytest

from repro.bench import experiments as E
from repro.graph.datasets import clear_cache

TINY = 0.02  # dataset scale for driver smoke tests


@pytest.fixture(autouse=True)
def _clear_dataset_cache():
    yield
    clear_cache()


class TestCalibratedNetmodel:
    def test_rescales_compute_and_bandwidth(self):
        from repro.runtime.netmodel import NetworkModel

        base = NetworkModel()
        nm = E.calibrated_netmodel("FR-1B", scale=1.0, base=base)
        s = 1_806_067 / 1_806_067_135
        assert nm.seconds_per_edge == pytest.approx(base.seconds_per_edge / s)
        assert nm.bandwidth_bytes_per_second == pytest.approx(
            base.bandwidth_bytes_per_second * s
        )
        assert nm.latency_seconds == base.latency_seconds
        assert nm.barrier_seconds == base.barrier_seconds

    def test_respects_runtime_scale_argument(self):
        a = E.calibrated_netmodel("OR-100M", scale=1.0)
        b = E.calibrated_netmodel("OR-100M", scale=0.5)
        assert b.seconds_per_edge == pytest.approx(2 * a.seconds_per_edge)


class TestTable1:
    def test_rows_cover_registry(self):
        res = E.table1(scale=TINY, build=False)
        assert {r["name"] for r in res.rows} >= {
            "OR-100M", "FR-1B", "FRS-72B", "FRS-100B",
        }
        assert "paper_edges" in res.rows[0]
        assert "Table 1" in res.report()


class TestFig1:
    def test_small_world_effective_diameter(self):
        res = E.fig1_hop_plot(scale=0.1, num_sources=40)
        assert res.d50 < res.d90 <= res.diameter
        assert res.diameter < 20  # small world, as in the paper's Figure 1
        assert np.isclose(res.cdf[-1], 1.0)
        assert "delta_0.5" in res.report()


class TestFig7And8a:
    # wall-clock comparison needs a graph large enough that vectorised
    # kernels beat interpreter BFS (the crossover is ~1k edges); 0.02 scale
    # leaves only ~150 vertices, so these two tests use 0.1.
    def test_cgraph_beats_titan_everywhere(self):
        res = E.fig7_vs_titan(num_queries=10, roots_per_query=3, scale=0.1)
        assert res.speedup_min > 1.0  # C-Graph wins at every rank
        assert (np.diff(res.cgraph_sorted) >= 0).all()
        assert res.cgraph_sorted.size == 10

    def test_fig8a_reuses_fig7(self):
        f7 = E.fig7_vs_titan(num_queries=8, roots_per_query=2, scale=0.1)
        f8 = E.fig8a_distribution_vs_titan(f7)
        assert f8.mean_ratio > 1.0
        assert f8.titan["mean"] > f8.cgraph["mean"]
        assert "Figure 8a" in f8.report()


class TestFig8b:
    def test_gemini_serialization_penalty(self):
        res = E.fig8b_distribution_vs_gemini(num_queries=12, scale=TINY)
        # the paper's point: serialized responses stack, pooled ones don't
        assert res.mean_ratio > 2.0
        assert res.gemini["max"] > res.cgraph["max"]


class TestFig9:
    def test_order_by_dataset_size(self):
        res = E.fig9_data_size_scalability(
            num_queries=10, scale=TINY, datasets=("OR-100M", "FR-1B")
        )
        assert set(res.per_dataset) == {"OR-100M", "FR-1B"}
        for rt in res.per_dataset.values():
            assert rt.count == 10
            assert (rt.seconds > 0).all()


class TestFig10:
    def test_scaling_shapes(self):
        res = E.fig10_pagerank_scaling(
            machines=(1, 3, 9), datasets=("OR-100M", "FRS-72B"), scale=0.2,
            iterations=3,
        )
        for name, series in res.normalized.items():
            assert series[0] == pytest.approx(1.0)
        # the dense graph scales better than the small one at p=9
        assert res.normalized["FRS-72B"][-1] < res.normalized["OR-100M"][-1]

    def test_large_graph_gets_speedup(self):
        res = E.fig10_pagerank_scaling(
            machines=(1, 3), datasets=("FRS-72B",), scale=0.2, iterations=3
        )
        assert res.normalized["FRS-72B"][1] < 1.0  # 3 machines beat 1


class TestFig11:
    def test_more_machines_faster_responses(self):
        res = E.fig11_machine_scaling(machines=(1, 9), num_queries=10, scale=TINY)
        mean_1 = res.per_machines[1].mean
        mean_9 = res.per_machines[9].mean
        assert mean_9 < mean_1
        # boundary vertices grow with machine count (the paper's comment)
        assert res.boundary_vertices[9] > res.boundary_vertices[1]


class TestFig12:
    def test_query_count_degradation(self):
        res = E.fig12_query_count_scaling(counts=(5, 60), scale=TINY)
        assert res.per_count[60].max > res.per_count[5].max
        # small counts fit the pool: no queueing, identical leading responses
        assert res.per_count[5].mean <= res.per_count[60].mean


class TestFig13:
    def test_gemini_linear_cgraph_sublinear(self):
        res = E.fig13_bfs_vs_gemini(counts=(1, 32, 64), scale=TINY)
        g = res.gemini_total
        c = res.cgraph_total
        # Gemini exactly linear in query count (sum of singles)
        assert g[2] == pytest.approx(2 * g[1], rel=0.35)
        # C-Graph grows sublinearly thanks to bit-parallel sharing
        assert c[2] < 2 * c[1]
        # crossover: C-Graph wins at high concurrency
        assert res.ratios()[2] > 1.0


class TestAblations:
    def test_edge_sets_same_answers(self):
        res = E.ablation_edge_sets(num_queries=8, scale=TINY)
        reached = {r["reached_total"] for r in res.rows}
        assert len(reached) == 1  # both variants agree
        scanned = {r["edges_scanned"] for r in res.rows}
        assert len(scanned) == 1
        assert len({r["virtual_s"] for r in res.rows}) == 1

    def test_batch_width_monotone_total_time(self):
        res = E.ablation_batch_width(num_queries=32, widths=(1, 8, 32), scale=TINY)
        times = [r["total_virtual_s"] for r in res.rows]
        assert times[-1] < times[0]  # wide beats narrow
        edges = [r["edges_scanned"] for r in res.rows]
        assert edges[-1] < edges[0]  # because work is shared

    def test_async_cheaper_than_sync(self):
        res = E.ablation_async(scale=TINY, iterations=3)
        by_mode = {r["mode"]: r["virtual_s"] for r in res.rows}
        assert by_mode["async"] < by_mode["sync"]

    def test_memory_ablation_favours_level_limited(self):
        # the paper's regime: frontier << n (here k=1 on the FR analog)
        res = E.ablation_memory(num_queries=16, k=1, scale=0.1)
        by_store = {r["store"]: r["bytes"] for r in res.rows}
        assert by_store["level-limited (peak)"] < by_store["dense per-vertex"]

    def test_reports_render(self):
        res = E.ablation_batch_width(num_queries=8, widths=(1, 8), scale=TINY)
        assert "Ablation" in res.report()


class TestStreamDriversPinned:
    """The batched-stream drivers' numbers, exactly: the stream is one
    zero-arrival ``QueryService`` wave, whose clock, reach counts and
    engine totals must not drift from the values recorded here."""

    def test_fig13_cgraph_totals(self):
        res = E.fig13_bfs_vs_gemini(counts=(1, 32, 64), scale=TINY)
        assert [float(x).hex() for x in res.cgraph_total] == [
            "0x1.1ff6d4998b2a5p+1",
            "0x1.38a3161ba1928p+2",
            "0x1.464d7cd7cd835p+2",
        ]

    def test_batch_width_rows(self):
        res = E.ablation_batch_width(num_queries=32, widths=(1, 8, 32), scale=TINY)
        assert res.rows == [
            {"batch_width": 1,
             "total_virtual_s": float.fromhex("0x1.5aa87994e125fp+1"),
             "edges_scanned": 35719, "supersteps": 96},
            {"batch_width": 8,
             "total_virtual_s": float.fromhex("0x1.12651be52d088p-1"),
             "edges_scanned": 9131, "supersteps": 12},
            {"batch_width": 32,
             "total_virtual_s": float.fromhex("0x1.3f8e9eed1a6dfp-3"),
             "edges_scanned": 2763, "supersteps": 3},
        ]

    def test_wide_batch_rows(self):
        res = E.ablation_wide_batches(num_queries=128, scale=TINY)
        assert res.rows == [
            {"variant": "64-wide batch stream", "edges_scanned": 5948,
             "virtual_s": float.fromhex("0x1.45f2e08ce388fp-2"), "passes": 2},
            {"variant": "128-wide single batch (2 words)",
             "edges_scanned": 3252,
             "virtual_s": float.fromhex("0x1.ae122cb0ed5e9p-3"), "passes": 1},
        ]
