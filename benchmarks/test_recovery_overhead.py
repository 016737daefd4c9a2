"""Fault tolerance: what does per-superstep checkpointing cost?

The supervisor checkpoints every worker's task state at each superstep
barrier (``FaultTolerance(checkpoint_interval=1)``, the default) so a
crashed worker can be respawned and the batch rewound-and-replayed to a
bit-identical answer.  That durability must be cheap on the fault-free
fast path: this benchmark drains the identical k-hop batch with
checkpointing effectively off and with a checkpoint every superstep
(answers asserted bit-identical inside the driver, virtual clocks
included) and bounds the fault-free overhead at ten percent plus a small
absolute slack for sub-100ms drains.  A third, faulted drain records
what one injected crash + respawn + rewind-replay actually costs.

Each run exports its numbers to ``tmp_path``; no reference copy is kept.
"""

from conftest import run_once

from repro.bench import experiments as E
from repro.bench.export import export_result, result_rows


def test_recovery_overhead(benchmark, bench_scale, tmp_path):
    res = run_once(benchmark, E.recovery_overhead, repeats=3, scale=bench_scale)
    print()
    print(res.report())

    rows = result_rows(res)
    assert len(rows) == 3
    out = export_result(res, tmp_path / "recovery_overhead.json")
    assert out.exists()

    # bit-identical answers (reach counts and virtual clocks) for all three
    # drains were asserted inside the driver; what remains is the cost claim.
    assert res.ft_wall_s <= 1.10 * res.plain_wall_s + 0.05, (
        f"fault-free checkpointing overhead out of bounds: "
        f"{res.ft_wall_s:.4f} s vs plain {res.plain_wall_s:.4f} s "
        f"({100 * res.checkpoint_overhead:+.1f}%)"
    )
    # every timed faulted drain recovered in-pool (warm-up + repeats crashes)
    assert res.recoveries >= 1
