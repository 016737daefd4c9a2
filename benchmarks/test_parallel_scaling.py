"""Parallel scaling: the shared-memory worker pool vs the in-process engine.

The pool backend exists to turn the simulated cluster's per-machine
supersteps into real multicore work on the service hot path.  This
benchmark drains one 512-query wide k-hop batch at 1/2/4 workers on both
backends (bit-identical answers asserted inside the driver) and reports
wall-clock per worker count plus the pool-over-inproc speedup.

The speedup assertions are gated on the cores the host actually grants
(``os.sched_getaffinity``) and on the graph being large enough for a
superstep to outweigh two pipe round-trips (``bench_scale >= 0.25``, the
scale CI runs): a single-core runner, or a 12 k-edge graph, cannot show
parallel speedup, so there the check degrades to an overhead bound — the
pool's IPC and shared-memory plumbing must stay within a small constant
factor of the in-process engine.  The measured numbers are always exported
(``tmp_path``, cores included; CI uploads ``BENCH_parallel_scaling.json`` as
an artifact) and the standing pool-vs-in-process record is
``runtime.pool.speedup_vs_inproc`` in ``benchmarks/spine/baseline.json``.
"""

from conftest import run_once

from repro.bench import experiments as E
from repro.bench.export import export_result, result_rows


def test_parallel_scaling(benchmark, bench_scale, tmp_path):
    res = run_once(
        benchmark,
        E.parallel_scaling,
        worker_counts=(1, 2, 4),
        repeats=3,
        scale=bench_scale,
    )
    print()
    print(res.report())

    rows = result_rows(res)
    assert len(rows) == 3
    out = export_result(res, tmp_path / "parallel_scaling.json")
    assert out.exists()

    # bit-identical pool-vs-inproc answers were asserted inside the driver
    # for every worker count; what remains is the performance claim,
    # honest about the cores this host actually granted and about the
    # scale below which there is too little work per superstep to share.
    enough_work = bench_scale >= 0.25
    if enough_work and res.cores >= 4:
        assert res.speedup(4) >= 1.8, (
            f"pool speedup {res.speedup(4):.2f}x < 1.8x at 4 workers "
            f"on a {res.cores}-core host"
        )
    elif enough_work and res.cores >= 2:
        assert res.speedup(2) >= 1.15, (
            f"pool speedup {res.speedup(2):.2f}x < 1.15x at 2 workers "
            f"on a {res.cores}-core host"
        )
    else:
        # no parallelism to be had — bound the plumbing overhead
        assert res.pool_wall_s[0] <= 6.0 * res.inproc_wall_s[0] + 0.05, (
            f"1-worker pool overhead out of bounds: pool "
            f"{res.pool_wall_s[0]:.4f} s vs inproc {res.inproc_wall_s[0]:.4f} s"
        )
