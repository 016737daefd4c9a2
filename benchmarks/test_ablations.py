"""Ablation benches for the design choices DESIGN.md calls out.

* edge-set blocking vs flat CSR scan (§3.2);
* bit-parallel batch width, W=1 being the no-bit-ops mode (§3.5, the toggle
  the paper flips for Figure 13);
* synchronous barrier vs asynchronous overlap (§3.3);
* level-limited vs dense vertex-value storage (§3.3).
"""

from conftest import run_once

from repro.bench import experiments as E


def test_ablation_edge_sets(benchmark, bench_scale):
    res = run_once(benchmark, E.ablation_edge_sets, scale=bench_scale)
    print()
    print(res.report())
    by_variant = {r["variant"]: r for r in res.rows}
    # identical answers and identical counted work — blocking is a layout
    # change, not an algorithm change
    assert (
        by_variant["flat CSR"]["reached_total"]
        == by_variant["edge-sets"]["reached_total"]
    )
    assert (
        by_variant["flat CSR"]["edges_scanned"]
        == by_variant["edge-sets"]["edges_scanned"]
    )
    assert by_variant["flat CSR"]["virtual_s"] == by_variant["edge-sets"]["virtual_s"]


def test_ablation_batch_width(benchmark, bench_scale):
    res = run_once(
        benchmark, E.ablation_batch_width, widths=(1, 8, 16, 32, 64),
        scale=bench_scale,
    )
    print()
    print(res.report())
    times = [r["total_virtual_s"] for r in res.rows]
    edges = [r["edges_scanned"] for r in res.rows]
    # monotone: wider batches share more traversal work
    assert times == sorted(times, reverse=True)
    assert edges == sorted(edges, reverse=True)
    # the full-word batch is dramatically cheaper than query-at-a-time
    assert times[-1] < times[0] / 4


def test_ablation_async(benchmark, bench_scale):
    res = run_once(benchmark, E.ablation_async, scale=bench_scale)
    print()
    print(res.report())
    by_mode = {r["mode"]: r["virtual_s"] for r in res.rows}
    assert by_mode["async"] < by_mode["sync"]
    assert by_mode["khop-async"] <= by_mode["khop-sync"]


def test_ablation_memory(benchmark, bench_scale):
    res = run_once(benchmark, E.ablation_memory, scale=bench_scale)
    print()
    print(res.report())
    by_store = {r["store"]: r["bytes"] for r in res.rows}
    assert by_store["level-limited (peak)"] < by_store["dense per-vertex"]


def test_ablation_out_of_core(benchmark, bench_scale):
    res = run_once(benchmark, E.ablation_out_of_core, scale=bench_scale)
    print()
    print(res.report())
    by_variant = {r["variant"]: r for r in res.rows}
    fragmented = by_variant["cache=2"]
    consolidated = by_variant["cache=2+consolidated"]
    # §3.2: consolidation slashes the number of small I/O operations
    assert consolidated["disk_reads"] < fragmented["disk_reads"] / 2
    assert consolidated["virtual_s"] <= fragmented["virtual_s"]
    # a cache big enough to hold the shard eliminates repeat reads
    biggest = by_variant["cache=64"]
    assert biggest["disk_reads"] <= fragmented["disk_reads"]


def test_ablation_wide_batches(benchmark, bench_scale):
    res = run_once(benchmark, E.ablation_wide_batches, scale=bench_scale)
    print()
    print(res.report())
    stream, wide = res.rows
    assert wide["edges_scanned"] < stream["edges_scanned"]
    assert wide["virtual_s"] < stream["virtual_s"]
    assert wide["passes"] == 1
