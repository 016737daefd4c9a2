"""Direction optimization: adaptive push-pull vs always-push traversal.

The dense-pull kernel exists so that the few mid-traversal supersteps
where the frontier covers most of the graph — which dominate full-BFS
drain time — run as cache-blocked segmented ORs over the local CSC
instead of scattered per-edge pushes.  This benchmark drains one
64-query batch to fixpoint under auto / forced-push / forced-pull on a
persistent session (bit-identical answers, per-step virtual times and
total virtual clocks asserted inside the driver, on both backends) and
gates auto's wall-clock win over always-push on the dense drain, plus a
no-regression bound on a 1-hop sparse drain where auto must stay in
push mode.  Each run exports its numbers (``tmp_path``; CI uploads
``BENCH_push_pull.json`` as an artifact).
"""

from conftest import run_once

from repro.bench import experiments as E
from repro.bench.export import export_result, result_rows


def test_push_pull(benchmark, bench_scale, tmp_path):
    res = run_once(benchmark, E.push_pull, repeats=3, scale=bench_scale)
    print()
    print(res.report())

    rows = result_rows(res)
    assert len(rows) == 2
    out = export_result(res, tmp_path / "push_pull.json")
    assert out.exists()

    # Auto must actually engage the pull kernel on the dense supersteps
    # and stay in push mode on the sparse drain.
    assert res.dense_auto_pull_steps > 0
    assert res.sparse_pull_steps == 0

    # The performance claims.  Measured reference: ~1.2x dense speedup at
    # both full scale and REPRO_BENCH_SCALE=0.25; gate leaves headroom
    # for runner noise.  Sparse drains are sub-millisecond, so the
    # no-regression bound carries an absolute noise floor.
    assert res.dense_speedup >= 1.05, (
        f"auto {res.dense_auto_wall_s:.4f} s vs push "
        f"{res.dense_push_wall_s:.4f} s: speedup {res.dense_speedup:.2f}x < 1.05x"
    )
    assert res.sparse_auto_wall_s <= 1.5 * res.sparse_push_wall_s + 0.005, (
        f"sparse regression: auto {res.sparse_auto_wall_s:.4f} s vs push "
        f"{res.sparse_push_wall_s:.4f} s"
    )
