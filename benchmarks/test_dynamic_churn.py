"""Dynamic graphs: incremental 2-hop index maintenance vs rebuild-per-batch.

The ``dynamic_churn`` driver replays one insert-dominated mutation stream
(fresh edge inserts plus one random base-edge expiry per batch, <= 1% of
the base edge count in total) against two twin dynamic sessions with a
resident hub-label index: one patches the index in place per batch
(pruned resumption BFS for inserts, invalidate-and-repair for deletes),
the other rebuilds it from scratch per batch.  Exactness is asserted
inside the driver — patched labels answer identically to the
from-scratch rebuild on sampled pairs at the final epoch, and the
spliced shards are byte-identical to the snapshot store's oracle
partitioning — before any timing counts.  The headline gate is the
incremental path's wall-clock win.  Each run exports its numbers
(``tmp_path``; CI uploads ``BENCH_dynamic_churn.json`` as an artifact).
"""

from conftest import run_once

from repro.bench import experiments as E
from repro.bench.export import export_result, result_rows


def test_dynamic_churn(benchmark, bench_scale, tmp_path):
    res = run_once(benchmark, E.dynamic_churn, scale=bench_scale)
    print()
    print(res.report())

    rows = result_rows(res)
    assert len(rows) == 2
    out = export_result(res, tmp_path / "dynamic_churn.json")
    assert out.exists()

    # The stream must stay within the low-churn regime the claim is about.
    assert res.churn_fraction <= 0.01

    # The performance claim: incremental maintenance beats rebuilding the
    # index every batch by >= 5x at <= 1% churn.  Measured reference:
    # ~8-10x at full scale, ~5.6x at scale 0.5, ~3.9x at scale 0.25 (the
    # smaller analog graphs shrink the rebuild side faster than the
    # patch side); gates leave headroom for runner noise.
    floor = 5.0 if bench_scale >= 0.5 else 2.5
    assert res.speedup >= floor, (
        f"incremental {res.incremental_wall_s:.4f} s vs rebuild "
        f"{res.rebuild_wall_s:.4f} s: speedup {res.speedup:.2f}x < {floor}x"
    )
