"""Durability: the WAL tax on mutation throughput, and the recovery payback.

The ``durability_overhead`` driver applies one effective mutation stream
to three twin dynamic sessions — WAL off, WAL on with group commit
(``fsync=batch``, the service lane's policy), WAL on with an fsync per
append — then times restoring the durable twin (newest checkpoint + WAL
suffix replay) against the WAL-less alternative (rebuild the session and
index from the original edge list and re-apply every batch).  Exactness
is asserted inside the driver — the recovered session's epoch, edge set
and index answers are bit-identical to the uninterrupted twin's — before
any gate is evaluated.  Each run exports its numbers (``tmp_path``; CI
uploads ``BENCH_durability.json`` as an artifact).
"""

from conftest import run_once

from repro.bench import experiments as E
from repro.bench.export import export_result, result_rows


def test_durability_overhead(benchmark, bench_scale, tmp_path):
    res = run_once(benchmark, E.durability_overhead, scale=bench_scale)
    print()
    print(res.report())

    rows = result_rows(res)
    assert len(rows) == 6
    out = export_result(res, tmp_path / "durability.json")
    assert out.exists()

    # The timed recovery must have exercised both halves of the restore
    # path: a committed checkpoint and a non-empty WAL suffix.
    assert res.checkpoint_epoch > 0
    assert res.replayed_records == res.suffix_batches

    # Gate 1 — the WAL tax: group-commit batch fsync keeps mutation
    # throughput within 0.8x of running with no WAL at all.  Measured
    # reference: 0.92-1.1x across scales (the WAL writes ~5 KB and a
    # handful of fsyncs per stream; incremental index maintenance
    # dominates every batch).
    assert res.batch_relative_throughput >= 0.8, (
        f"WAL-on (batch fsync) {res.wal_batch_wall_s:.4f} s vs WAL-off "
        f"{res.wal_off_wall_s:.4f} s: relative throughput "
        f"{res.batch_relative_throughput:.2f}x < 0.8x"
    )

    # Gate 2 — the recovery payback: checkpoint + suffix replay beats
    # rebuild-from-scratch.  Measured reference: ~13x at scale 0.25 (the
    # CI regime: checkpoint load dominates and is nearly free), ~5.3x at
    # scale 0.5, ~2.5-7x at full scale — the replayed suffix batches are
    # the latest, most label-dense ones, so the per-batch patch cost
    # grows with scale on both sides and the suffix/total ratio caps the
    # win.  Floors leave headroom for runner noise.
    floor = 5.0 if bench_scale <= 0.3 else 2.0
    assert res.recovery_speedup >= floor, (
        f"recover {res.recovery_wall_s:.4f} s vs rebuild "
        f"{res.rebuild_wall_s:.4f} s: speedup "
        f"{res.recovery_speedup:.2f}x < {floor}x"
    )
