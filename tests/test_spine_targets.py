"""The standing benchmark's bind points, checked under tier-1.

``benchmarks/spine/trace.py`` times each layer from outside by rebinding the
public callables named in its ``TARGETS`` table.  A rename under ``src/``
would otherwise only surface in the benchmark pipeline; this resolves every
``(module, attribute path)`` exactly the way ``Recorder.install`` does, and
runs one k-hop batch per executor under the recorder, in a few seconds,
without running the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.graph import rmat_edges
from repro.runtime.session import GraphSession

TRACE_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "spine" / "trace.py"


def _trace():
    spec = importlib.util.spec_from_file_location("_spine_trace", TRACE_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # stdlib-only: safe to load read-only
    return module


@pytest.mark.parametrize(
    "span_name, module_name, path", _trace().TARGETS, ids=lambda v: str(v)
)
def test_bind_point_resolves(span_name, module_name, path):
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        # a method is rebound on its own class: it must be defined there,
        # not inherited, or the wrapper would shadow a base-class attribute
        original = vars(getattr(module, owner_name))[attr]
    else:
        original = getattr(module, attr)
    assert callable(original), f"{span_name}: {module_name}.{path}"


@pytest.mark.parametrize(
    "backend, bracketing",
    [
        ("inproc", {"runtime.session.run_batch", "runtime.engine.run"}),
        ("pool", {"runtime.session.run_batch_pool", "runtime.pool.start",
                  "runtime.pool.ensure_task", "runtime.pool.run"}),
        # the out-of-core k-hop runs the fused step too
        ("ooc", {"runtime.session.run_batch", "runtime.engine.run"}),
        # the per-machine kernels, which pool workers run, in this process
        ("per-machine", {"runtime.session.run_batch", "runtime.engine.run",
                         "runtime.comm.exchange", "runtime.message.combine",
                         "core.khop.compute", "core.khop.apply",
                         "core.khop.finalize"}),
    ],
)
def test_khop_batch_runs_inside_its_bind_points(backend, bracketing):
    """A rebound callable must still be the one the batch goes through: a
    default argument or an alias captured before the rebind would skip the
    span (or, for the pool, fail to pickle)."""
    from repro.core.khop import KHopPartitionTask
    from repro.core.ooc import concurrent_khop_out_of_core

    graph = rmat_edges(8, 3000, seed=7).remove_self_loops().deduplicate()
    recorder = _trace().Recorder()
    recorder.install()
    try:
        with GraphSession(
            graph, num_machines=2, backend="pool" if backend == "pool" else "inproc"
        ) as sess, pytest.MonkeyPatch.context() as patch:
            if backend == "per-machine":  # no fused step: the engine's loop
                patch.setattr(KHopPartitionTask, "fused", classmethod(lambda *a: None))
            if backend == "ooc":
                res = concurrent_khop_out_of_core(sess, [0, 5, 9], 3)
            else:
                res = sess.khop([0, 5, 9], 3)
                bracketing = bracketing | {"core.khop.batch"}
    finally:
        recorder.uninstall()
    assert res.sources.tolist() == [0, 5, 9] and res.reached.size == 3
    seen = {span[0] for span in recorder.spans}
    assert bracketing <= seen


def test_index_lane_runs_inside_its_bind_points():
    """One hybrid wave with a result cache opens every index-lane span, so
    the per-layer attribution of the point-query workload stays whole."""
    from repro.qos import ResultCache
    from repro.runtime.scheduler import QueryService

    graph = rmat_edges(8, 3000, seed=7).remove_self_loops().deduplicate()
    rng = np.random.default_rng(3)
    sources, targets = rng.integers(0, graph.num_vertices, (2, 64))
    with GraphSession(graph, num_machines=2) as sess:
        sess.index()
        service = QueryService(
            sess, k=2, planner="hybrid", cache=ResultCache(capacity=32)
        )
        recorder = _trace().Recorder()
        recorder.install()
        try:
            service.submit_many(sources, targets=targets)
            report = service.drain()
        finally:
            recorder.uninstall()
    assert report.num_queries == 64 and (report.routes == "index").all()
    seen = {span[0] for span in recorder.spans}
    assert {
        "runtime.scheduler.submit", "runtime.scheduler.drain",
        "index.planner.answer_cached", "qos.cache.lookup",
        "index.planner.answer", "qos.cache.store",
    } <= seen
