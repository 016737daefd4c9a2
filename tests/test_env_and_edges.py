"""Environment-variable behaviour and remaining cross-cutting edge cases."""

import numpy as np

from repro.graph.datasets import clear_cache, load_dataset, runtime_scale


class TestReproScaleEnv:
    def test_default_scale(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert runtime_scale() == 1.0

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.25")
        assert runtime_scale() == 0.25

    def test_env_scales_dataset(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.02")
        small = load_dataset("OR-100M")
        clear_cache()
        monkeypatch.setenv("REPRO_SCALE", "0.04")
        bigger = load_dataset("OR-100M")
        clear_cache()
        assert bigger.num_vertices > small.num_vertices

    def test_explicit_scale_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.02")
        explicit = load_dataset("OR-100M", scale=0.05)
        clear_cache()
        monkeypatch.setenv("REPRO_SCALE", "0.05")
        via_env = load_dataset("OR-100M")
        clear_cache()
        assert explicit.num_vertices == via_env.num_vertices


class TestPublicSurface:
    def test_khop_with_numpy_sources(self, small_rmat):
        from repro import GraphSession, concurrent_khop

        sess = GraphSession(small_rmat)
        res = concurrent_khop(sess, np.array([0, 5], dtype=np.int32), 2)
        assert res.num_queries == 2

    def test_netmodel_propagates(self, small_rmat):
        from repro import GraphSession, NetworkModel, concurrent_khop

        slow = GraphSession(small_rmat, num_machines=2,
                            netmodel=NetworkModel(seconds_per_edge=1e-5))
        fast = GraphSession(small_rmat, num_machines=2,
                            netmodel=NetworkModel(seconds_per_edge=1e-9))
        assert (
            concurrent_khop(slow, [0], 3).virtual_seconds
            > concurrent_khop(fast, [0], 3).virtual_seconds
        )

    def test_repr_strings(self, small_rmat):
        from repro import GraphSession

        sess = GraphSession(small_rmat, num_machines=2)
        assert "GraphSession" in repr(sess)
        assert "PartitionedGraph" in repr(sess.pg)

    def test_top_level_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_core_exports_resolve(self):
        import repro.core as core

        for name in core.__all__:
            assert getattr(core, name) is not None

    def test_graph_exports_resolve(self):
        import repro.graph as graph

        for name in graph.__all__:
            assert getattr(graph, name) is not None

    def test_runtime_exports_resolve(self):
        import repro.runtime as runtime

        for name in runtime.__all__:
            assert getattr(runtime, name) is not None


class TestSchedulerArrivals:
    def test_staggered_arrivals_reduce_queueing(self):
        from repro.runtime.scheduler import simulate_fifo_pool

        service = [1.0] * 10
        burst = simulate_fifo_pool(service, 2)
        spread = simulate_fifo_pool(
            service, 2, arrival_times=np.arange(10) * 0.5
        )
        assert spread.mean() < burst.mean()

    def test_poisson_like_stream(self, rng):
        from repro.runtime.scheduler import simulate_fifo_pool

        service = rng.uniform(0.1, 0.5, 50)
        arrivals = np.cumsum(rng.exponential(0.2, 50))
        resp = simulate_fifo_pool(service, 4, arrival_times=arrivals)
        assert (resp >= service - 1e-12).all()


class TestVersionMetadata:
    def test_version_string(self):
        import repro

        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)
