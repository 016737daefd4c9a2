"""A drain's k-hop picks replayed from one shared run.

The QoS and FIFO rules choose every pick on the virtual clock; on an
in-process session the drain runs one traversal over the distinct sources
still waiting (:class:`~repro.core.khop.SharedKHop`) when that saves
words, and each pick's batch replays from it.  The report must be the one
each pick run alone gives, and no pick may replay across a graph epoch.
"""

import dataclasses

import numpy as np
import pytest

import repro.core.khop as khop
from repro.graph import rmat_edges
from repro.qos import LaneSpec, QosConfig, QuotaSpec
from repro.runtime.scheduler import QueryService
from repro.runtime.session import GraphSession

#: the spine's ``mixed_dynamic`` lanes and crawler quota
QOS = QosConfig(
    lanes={
        "interactive": LaneSpec(weight=8, batch_width=8),
        "bulk": LaneSpec(weight=1),
    },
    quotas={"crawler": QuotaSpec(rate=50_000, burst=64)},
)


@pytest.fixture(scope="module")
def graph():
    return rmat_edges(11, 40_000, seed=4).remove_self_loops().deduplicate()


def _count(monkeypatch, cls, name):
    """How often ``cls.name`` is called from here on."""
    calls = []
    real = getattr(cls, name)

    def spy(self, *args, **kwargs):
        calls.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, spy)
    return calls


def _assert_same_report(got, want):
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert np.array_equal(a, b), f.name
        else:
            assert a == b, f.name


def _mixed_wave(graph, seed):
    """128 Zipf bulk k-hop queries from the crawler, 64 Zipf point queries
    from the frontend, all arriving now."""
    n = graph.num_vertices
    rng = np.random.default_rng(seed)
    ranking = rng.permutation(n)
    p = np.arange(1, n + 1, dtype=np.float64) ** -1.2
    p /= p.sum()
    return tuple(ranking[rng.choice(n, size=size, p=p)] for size in (128, 64, 64))


def _drain(sess, wave, **kwargs):
    svc = QueryService(sess, k=3, planner="hybrid", qos=QOS, **kwargs)
    bulk, sources, targets = wave
    svc.submit_many(bulk, lane="bulk", tenant="crawler")
    svc.submit_many(sources, targets=targets, lane="interactive", tenant="frontend")
    return svc.drain()


class TestOneTraversalPerDrain:
    @pytest.mark.parametrize("seed, shared", [(1, True), (2, False)])
    def test_a_mixed_dynamic_wave(self, graph, monkeypatch, seed, shared):
        """The crawler's quota splits the bulk k-hop queries into three
        picks, which build three fused steps run alone.  Seed 1's 128 hold
        54 distinct sources: the drain builds one (a ROADMAP item 18
        budget).  Seed 2's hold 68: two words cannot beat the one word of
        the pick plus the one the 64 rows after it need, so no run."""
        wave = _mixed_wave(graph, seed)
        with monkeypatch.context() as patch:
            patch.setattr(QueryService, "_share_khop", lambda *a: None)
            picks = _count(patch, khop._FusedStep, "__init__")
            alone = _drain(GraphSession(graph, num_machines=4), wave)
        with monkeypatch.context() as patch:
            fused = _count(patch, khop._FusedStep, "__init__")
            replays = _count(patch, khop._Replay, "run")
            report = _drain(GraphSession(graph, num_machines=4), wave)
        assert len(picks) == 3
        assert (len(fused), len(replays)) == ((1, 3) if shared else (3, 0))
        _assert_same_report(report, alone)

    def test_distinct_sources_build_no_run(self, graph, monkeypatch):
        """A FIFO drain of 200 distinct sources in picks of 64: a run would
        be as wide as the picks it serves, so none is built, and the rows
        the first pick looked at are not looked at again."""
        sources = np.random.default_rng(3).permutation(graph.num_vertices)[:200]
        sess = GraphSession(graph, num_machines=3)
        svc = QueryService(sess, k=3, batch_width=64)
        svc.submit_many(sources, np.zeros(sources.size))
        with monkeypatch.context() as patch:
            runs = _count(patch, khop.SharedKHop, "__init__")
            picks = _count(patch, khop._FusedStep, "__init__")
            svc.drain()
        assert (len(runs), len(picks)) == (0, 4)
        assert svc._khop_next == sources.size

    def test_no_pick_replays_across_an_epoch(self, graph, monkeypatch):
        """A mutation arrives during the first of six picks, and 24 more
        queries after it.  No run is made while it is queued (the picks
        after it could not replay from one); the one made once it applied
        serves every later pick at the new epoch, and cross-check compares
        every pick with a from-scratch session at its epoch."""
        rng = np.random.default_rng(7)
        sources = rng.integers(0, graph.num_vertices, 48)
        edges = set(zip(graph.src.tolist(), graph.dst.tolist()))
        new = [(u, u + 1) for u in range(100) if (u, u + 1) not in edges][:2]

        def drain():
            sess = GraphSession(graph, num_machines=3)
            sess.dynamic()
            svc = QueryService(sess, k=3, batch_width=8, cross_check=True)
            svc.submit_many(sources, np.repeat([0.0, 2e-9], 24))
            svc.apply_mutations(new, arrival=1e-9)
            return sess, svc.drain()

        with monkeypatch.context() as patch:
            patch.setattr(QueryService, "_share_khop", lambda *a: None)
            _, alone = drain()
        with monkeypatch.context() as patch:
            runs = _count(patch, khop.SharedKHop, "__init__")
            replays = []
            real = khop._Replay.run

            def replay(executor, *args, **kwargs):
                share = executor.share
                replays.append((share.epoch, share.sess.graph_epoch))
                return real(executor, *args, **kwargs)

            patch.setattr(khop._Replay, "run", replay)
            sess, report = drain()
        assert sess.graph_epoch == 1 and report.mutations_applied == 1
        assert all(run == now for run, now in replays)
        assert len(runs) == 1 and [now for _, now in replays] == [1] * 5
        _assert_same_report(report, alone)
