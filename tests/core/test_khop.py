"""Correctness tests for the concurrent k-hop engine against oracles."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.naive import naive_distributed_khop, naive_khop
from repro.baselines.oracle import oracle_khop_reach
from repro.core.frontier import MAX_WIDE_BATCH
from repro.core.khop import DIRECTIONS, concurrent_khop
from repro.core.multi_sssp import concurrent_sssp
from repro.core.pagerank import pagerank
from repro.core.reachability import reachability_queries
from repro.graph import EdgeList, path_graph, range_partition, rmat_edges
from repro.runtime.scheduler import QueryService
from repro.runtime.session import GraphSession


class TestSingleQuery:
    def test_path_graph_levels(self, line10):
        res = concurrent_khop(GraphSession(line10), [0], k=4, record_depths=True)
        assert res.reached[0] == 5  # vertices 0..4
        assert res.depths[:5, 0].tolist() == [0, 1, 2, 3, 4]
        assert (res.depths[5:, 0] == -1).all()

    def test_star_one_hop(self, star20):
        res = concurrent_khop(GraphSession(star20), [0], k=1)
        assert res.reached[0] == 21

    def test_leaf_two_hops_covers_star(self, star20):
        res = concurrent_khop(GraphSession(star20), [3], k=2)
        assert res.reached[0] == 21

    def test_k_zero_reaches_only_source(self, small_rmat):
        res = concurrent_khop(GraphSession(small_rmat), [5], k=0)
        assert res.reached[0] == 1
        assert res.supersteps == 0
        assert res.completion_seconds[0] == 0.0

    def test_isolated_source(self):
        el = EdgeList.from_pairs([(1, 2)], num_vertices=4)
        res = concurrent_khop(GraphSession(el), [3], k=3)
        assert res.reached[0] == 1
        assert res.completion_level[0] <= 1

    def test_matches_oracle_various_k(self, small_rmat):
        for k in (1, 2, 3, 5):
            res = concurrent_khop(GraphSession(small_rmat), [7], k=k)
            assert res.reached[0] == len(oracle_khop_reach(small_rmat, 7, k))

    def test_full_bfs_with_none(self, small_rmat):
        res = concurrent_khop(GraphSession(small_rmat), [7], k=None)
        assert res.reached[0] == len(oracle_khop_reach(small_rmat, 7, None))

    def test_source_out_of_range(self, small_rmat):
        with pytest.raises(ValueError):
            concurrent_khop(GraphSession(small_rmat), [9999], k=2)

    def test_width_bounds(self, small_rmat):
        with pytest.raises(ValueError):
            concurrent_khop(GraphSession(small_rmat), [], k=2)
        with pytest.raises(ValueError):
            concurrent_khop(
                GraphSession(small_rmat), list(range(MAX_WIDE_BATCH + 1)), k=2
            )


class TestConcurrentBatch:
    def test_batch_matches_individual_runs(self, small_rmat):
        sources = [0, 3, 9, 17, 40]
        batch = concurrent_khop(GraphSession(small_rmat), sources, k=3)
        for q, s in enumerate(sources):
            solo = concurrent_khop(GraphSession(small_rmat), [s], k=3)
            assert batch.reached[q] == solo.reached[0]

    def test_batch_matches_oracle(self, small_rmat):
        sources = [0, 3, 9]
        res = concurrent_khop(
            GraphSession(small_rmat), sources, k=2, record_depths=True
        )
        for q, s in enumerate(sources):
            expected = oracle_khop_reach(small_rmat, s, 2)
            got = set(np.nonzero(res.depths[:, q] >= 0)[0].tolist())
            assert got == expected

    def test_duplicate_sources_allowed(self, small_rmat):
        res = concurrent_khop(GraphSession(small_rmat), [4, 4], k=2)
        assert res.reached[0] == res.reached[1]

    def test_full_width_batch(self, small_rmat):
        sources = list(range(64))
        res = concurrent_khop(GraphSession(small_rmat), sources, k=2)
        assert res.num_queries == 64
        assert (res.reached >= 1).all()

    def test_completion_levels_vary_with_topology(self, line10):
        # source 0 needs 4 hops to exhaust a k=9 budget on a 10-path;
        # source 8 dies after 1 hop
        res = concurrent_khop(GraphSession(line10), [0, 8], k=9)
        assert res.completion_level[1] < res.completion_level[0]
        assert res.completion_seconds[1] <= res.completion_seconds[0]

    def test_per_query_depths_independent(self, small_rmat):
        sources = [0, 50]
        res = concurrent_khop(
            GraphSession(small_rmat), sources, k=3, record_depths=True
        )
        d0 = res.depths[:, 0]
        solo = concurrent_khop(GraphSession(small_rmat), [0], k=3, record_depths=True)
        assert (d0 == solo.depths[:, 0]).all()


def _word_stream(session, sources, k):
    """The word-wide (64-query) batch stream of ``sources``, drained."""
    svc = QueryService(session, k)
    svc.submit_many(sources)
    return svc.drain()


class TestWideBatches:
    """Batches wider than one machine word (multi-word planes, §3.5).  The
    plane mechanics are covered in ``tests/core/test_frontier.py``; here the
    driver is checked against the chunked word-wide query stream."""

    def test_beyond_64_queries(self, small_rmat):
        sources = list(range(150))
        sess = GraphSession(small_rmat, num_machines=2)
        wide = concurrent_khop(GraphSession(small_rmat, num_machines=2), sources, k=2)
        stream = _word_stream(sess, sources, 2)
        levels = np.concatenate([
            sess.khop(sources[i:i + 64], 2).completion_level
            for i in range(0, len(sources), 64)
        ])
        assert (wide.reached == stream.reached).all()
        assert (wide.completion_level == levels).all()

    def test_completion_levels_beyond_first_word(self, line10):
        # query 0 and query 70 share a source, query 69 dies early: the
        # per-level bookkeeping must not depend on which word a bit is in
        sources = [0] + [8] * 69 + [0]
        res = concurrent_khop(GraphSession(line10), sources, k=9, record_depths=True)
        assert res.completion_level[70] == res.completion_level[0]
        assert res.completion_seconds[70] == res.completion_seconds[0]
        assert res.completion_level[69] < res.completion_level[70]
        assert (res.depths[:, 70] == res.depths[:, 0]).all()

    def test_wide_scans_fewer_edges_than_word_batches(self, medium_rmat):
        """One 256-wide pass shares more than four 64-wide passes."""
        pg = range_partition(medium_rmat, 2)
        sources = list(range(256))
        wide = concurrent_khop(GraphSession(pg), sources, k=3)
        stream = _word_stream(GraphSession(pg), sources, 3)
        assert (wide.reached == stream.reached).all()
        assert wide.total_edges_scanned < stream.edges_scanned

    def test_full_512(self, small_rmat):
        sources = [i % small_rmat.num_vertices for i in range(512)]
        res = concurrent_khop(GraphSession(small_rmat), sources, k=1)
        assert res.num_queries == 512
        # duplicated sources get identical answers
        assert res.reached[0] == res.reached[256]

    def test_directions_agree(self, small_rmat):
        sources = list(range(100))
        results = {
            d: concurrent_khop(
                GraphSession(small_rmat, num_machines=2), sources, k=3, direction=d
            )
            for d in ("push", "pull", "auto")
        }
        ref = results["push"]
        for res in results.values():
            assert (res.reached == ref.reached).all()
            assert res.virtual_seconds == ref.virtual_seconds
        assert results["pull"].pull_partition_steps > 0

    @settings(max_examples=15, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 12), st.integers(0, 12)),
            min_size=1, max_size=40,
        ),
        width=st.integers(65, 140),
        k=st.integers(1, 3),
    )
    def test_property_wide_equals_narrow(self, pairs, width, k):
        el = EdgeList.from_pairs(pairs, num_vertices=13)
        sources = [i % 13 for i in range(width)]
        wide = concurrent_khop(GraphSession(el, num_machines=2), sources, k=k)
        # compare the first 13 distinct queries against a word-wide batch
        narrow = concurrent_khop(GraphSession(el, num_machines=2), sources[:13], k=k)
        assert (wide.reached[:13] == narrow.reached).all()
        assert (wide.completion_level[:13] == narrow.completion_level).all()


class TestDistribution:
    @pytest.mark.parametrize("machines", [1, 2, 3, 5])
    def test_machine_count_does_not_change_answers(self, small_rmat, machines):
        res = concurrent_khop(
            GraphSession(small_rmat, num_machines=machines), [0, 9, 33], k=3
        )
        base = concurrent_khop(
            GraphSession(small_rmat, num_machines=1), [0, 9, 33], k=3
        )
        assert (res.reached == base.reached).all()
        assert (res.completion_level == base.completion_level).all()

    def test_messages_flow_only_with_multiple_machines(self, small_rmat):
        solo = concurrent_khop(GraphSession(small_rmat, num_machines=1), [0], k=3)
        multi = concurrent_khop(GraphSession(small_rmat, num_machines=4), [0], k=3)
        assert solo.total_messages == 0
        assert multi.total_messages > 0
        assert multi.total_bytes > 0

    def test_edge_set_mode_matches(self, small_rmat):
        pg = range_partition(small_rmat, 3)
        pg.build_edge_sets(sets_per_partition=4)
        es = concurrent_khop(GraphSession(pg), [0, 9], k=3)
        flat = concurrent_khop(GraphSession(small_rmat, num_machines=3), [0, 9], k=3)
        assert (es.reached == flat.reached).all()
        assert es.total_edges_scanned == flat.total_edges_scanned
        assert es.virtual_seconds == flat.virtual_seconds

    def test_edge_set_mode_requires_built_sets(self, small_rmat):
        """The layout is the graph's, built before (or by) the session; a
        graph without one scans a single block, and there is no per-call
        switch."""
        pg = range_partition(small_rmat, 2)
        sess = GraphSession(pg)
        assert not sess.has_edge_sets
        plan = pg.partitions[0].exchange_plan()
        assert plan.layout is None and len(plan.blocks()) == 1
        with pytest.raises(TypeError):
            concurrent_khop(sess, [0], k=2, use_edge_sets=True)
        built = GraphSession(small_rmat, num_machines=2, edge_sets=True,
                             sets_per_partition=4)
        assert built.has_edge_sets
        assert len(built.pg.partitions[0].exchange_plan().blocks()) > 1

    def test_consolidated_edge_sets_match(self, small_rmat):
        pg = range_partition(small_rmat, 3)
        pg.build_edge_sets(sets_per_partition=8, consolidate_min_edges=128)
        es = concurrent_khop(GraphSession(pg), [0, 9], k=3)
        base = concurrent_khop(GraphSession(small_rmat), [0, 9], k=3)
        assert (es.reached == base.reached).all()

    def test_async_mode_reaches_same_set_unbounded(self, small_rmat):
        """Async delivery may shift levels but full BFS reach is identical."""
        a = concurrent_khop(GraphSession(small_rmat, num_machines=3), [0], k=None,
                            asynchronous=True)
        s = concurrent_khop(GraphSession(small_rmat, num_machines=3), [0], k=None)
        assert a.reached[0] == s.reached[0]

    def test_virtual_time_positive_and_decomposes(self, small_rmat):
        res = concurrent_khop(GraphSession(small_rmat, num_machines=2), [0], k=3)
        assert res.virtual_seconds > 0
        assert res.virtual_seconds == pytest.approx(sum(res.per_step_seconds))


class TestAgainstNaive:
    def test_matches_naive_khop(self, small_rmat):
        for s in (0, 11, 77):
            ours = concurrent_khop(
                GraphSession(small_rmat), [s], k=3, record_depths=True
            )
            got = set(np.nonzero(ours.depths[:, 0] >= 0)[0].tolist())
            assert got == naive_khop(small_rmat, s, 3)

    def test_matches_naive_distributed(self, small_rmat):
        ours = concurrent_khop(GraphSession(small_rmat, num_machines=3), [5], k=2,
                               record_depths=True)
        got = set(np.nonzero(ours.depths[:, 0] >= 0)[0].tolist())
        assert got == naive_distributed_khop(small_rmat, 5, 2, 3)


@settings(max_examples=25, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 20), st.integers(0, 20)), min_size=1, max_size=80
    ),
    source=st.integers(0, 20),
    k=st.integers(0, 5),
    machines=st.integers(1, 4),
)
def test_khop_property_matches_oracle(pairs, source, k, machines):
    """For arbitrary digraphs, sources, budgets and partitionings, the
    engine's reach equals networkx's cutoff BFS."""
    el = EdgeList.from_pairs(pairs, num_vertices=21)
    res = concurrent_khop(GraphSession(el, num_machines=machines), [source], k=k,
                          record_depths=True)
    expected = oracle_khop_reach(el, source, k if k > 0 else 0)
    got = set(np.nonzero(res.depths[:, 0] >= 0)[0].tolist())
    assert got == expected


class TestGoldenWire:
    """The wire, byte for byte: literal counts recorded before k-hop moved
    from sort-and-reduce to the exchange plan's slot planes (the values are
    that parent commit's).  A kernel change that re-orders, re-sizes or
    re-types a batch — or moves the virtual clock — fails here, on every
    direction and both backends' shared accounting."""

    GOLDEN = {
        64: dict(
            total_messages=1520, total_bytes=18240, total_edges_scanned=9038,
            supersteps=3, virtual_seconds="0.0007625405090909091",
            reached_sha256="be76305fc3594e983da8eea8de1ad796"
                           "d25b06a2635d2e0b044c0ce8efe00781",
        ),
        130: dict(
            total_messages=1581, total_bytes=44268, total_edges_scanned=9574,
            supersteps=3, virtual_seconds="0.0007725843636363636",
            reached_sha256="ff372808a6eb0fdb4cafb1897e955d6a"
                           "4e6e50a3c2259c73150dc0feb64953b7",
        ),
    }

    @pytest.mark.parametrize("direction", DIRECTIONS)
    @pytest.mark.parametrize("width", sorted(GOLDEN))
    def test_counts_clock_and_answers(self, width, direction):
        graph = rmat_edges(9, 6000, seed=21).remove_self_loops().deduplicate()
        sources = np.random.default_rng(3).integers(0, graph.num_vertices, size=130)
        res = concurrent_khop(
            GraphSession(graph, num_machines=3), sources[:width], 3, direction=direction
        )
        got = dict(
            total_messages=res.total_messages,
            total_bytes=res.total_bytes,
            total_edges_scanned=res.total_edges_scanned,
            supersteps=res.supersteps,
            virtual_seconds=repr(res.virtual_seconds),
            reached_sha256=hashlib.sha256(
                res.reached.astype("<i8").tobytes()
            ).hexdigest(),
        )
        assert got == self.GOLDEN[width]


class TestGoldenWireReach:
    """Pairwise reachability's wire, byte for byte: literals recorded at the
    parent of the commit that made reachability run the k-hop batch (targets
    plus an early-termination mask).  Every direction and both backends
    share one accounting; the deadline row pins ``resolved`` as well."""

    GOLDEN = {
        1: dict(
            messages=270, bytes=3240, edges_scanned=538, supersteps=3,
            virtual_seconds="0.0006523886545454546", truncated=False,
            sha256="02d29b8cae39b99a4437d746bec7cca7eebe1b36ceb6401e077e04dcf82f878a",
        ),
        64: dict(
            messages=2130, bytes=25560, edges_scanned=12766, supersteps=4,
            virtual_seconds="0.0010174314909090908", truncated=False,
            sha256="7a6872846d41e06b7d2958036517da45bcfb5b93890e8ca76fd50f98911aee37",
        ),
        "deadline": dict(
            messages=935, bytes=11220, edges_scanned=4375, supersteps=2,
            virtual_seconds="0.0005070961454545454", truncated=True,
            sha256="090f73624899e67c11e1da5e6820921795b4bf0cb7f48fa56a1d58be060420f0",
        ),
    }

    @pytest.fixture(scope="class")
    def graph(self):
        return rmat_edges(9, 6000, seed=21).remove_self_loops().deduplicate()

    @pytest.fixture(scope="class", params=["inproc", "pool"])
    def sess(self, request, graph):
        with GraphSession(graph, num_machines=3, backend=request.param) as sess:
            yield sess

    @staticmethod
    def _pairs(graph):
        # sources with out-edges; every third pair is source == target
        rng = np.random.default_rng(5)
        sources = rng.choice(np.unique(graph.src), size=64)
        targets = rng.integers(0, graph.num_vertices, size=64)
        targets[2::3] = sources[2::3]
        return sources, targets

    @staticmethod
    def _wire(sess, *args, **kwargs):
        """One reach batch's verdict digest plus its engine totals (read off
        the ``run_batch`` call: the result carries no message counts)."""
        seen = []
        run_batch = sess.run_batch

        def spy(*a, **kw):
            seen.append(run_batch(*a, **kw))
            return seen[-1]

        sess.run_batch = spy
        try:
            res = reachability_queries(sess, *args, **kwargs)
        finally:
            del sess.run_batch
        total = seen[0].total_stats()
        digest = hashlib.sha256()
        for arr in (
            res.reachable.astype("<i1"), res.hops.astype("<i8"),
            res.resolution_seconds.astype("<f8"), res.resolved.astype("<i1"),
        ):
            digest.update(arr.tobytes())
        return dict(
            messages=total.total_messages, bytes=total.total_bytes,
            edges_scanned=res.total_edges_scanned, supersteps=res.supersteps,
            virtual_seconds=repr(res.virtual_seconds), truncated=res.truncated,
            sha256=digest.hexdigest(),
        )

    @pytest.mark.parametrize("direction", DIRECTIONS)
    @pytest.mark.parametrize("width", [1, 64])
    def test_counts_clock_and_verdicts(self, graph, sess, width, direction):
        sources, targets = self._pairs(graph)
        got = self._wire(
            sess, sources[:width], targets[:width], 4, direction=direction
        )
        assert got == self.GOLDEN[width]

    def test_deadline_truncated_batch(self, graph, sess):
        sources, targets = self._pairs(graph)
        got = self._wire(sess, sources, targets, None, max_virtual_seconds=3e-4)
        assert got == self.GOLDEN["deadline"]


class TestGoldenWireGasSssp:
    """PageRank's and multi-SSSP's wire, byte for byte, on the same graph:
    literals recorded at the parent of the commit that moved both from
    route + sort-and-reduce per superstep to the exchange plan.  The float
    fold order (bincount over local edges, reduceat over slot runs), the
    int64 / int32 wire ids and every clock are pinned here."""

    @staticmethod
    def _wire(values, result):
        total = result.total_stats()
        return dict(
            messages=total.total_messages, bytes=total.total_bytes,
            edges_scanned=total.edges_scanned,
            vertices_updated=total.vertices_updated,
            virtual_seconds=repr(result.virtual_seconds),
            sha256=hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest(),
        )

    PAGERANK = dict(messages=6100, bytes=97600, edges_scanned=44580,
                    vertices_updated=6100)
    PAGERANK_SYNC = dict(
        PAGERANK, virtual_seconds="0.0025550203636363635",
        sha256="992d9c038fd970264e733916e32ee020b861e033d19837ed064cfa008f246791",
    )
    PAGERANK_ASYNC = dict(
        PAGERANK, virtual_seconds="0.0010355840000000002",
        sha256="0f2b50ef9fe0fc6b5b4b9d3b76c4959d7e5a665b42871392c67d7186955f4b3b",
    )
    SSSP = {
        1: dict(
            messages=2557, bytes=30684, edges_scanned=12269, vertices_updated=1344,
            virtual_seconds="0.0022672105818181817",
            sha256="897f6d33996a20be0c1176e1747d8e6eb8c468488358b230a14587716b1fd1ea",
        ),
        32: dict(
            messages=4226, bytes=1098760, edges_scanned=26068, vertices_updated=3816,
            virtual_seconds="0.002915859272727273",
            sha256="09fa5cd741f04c05bd1725c5866dfa86d0d5eb4e27af3554536bf56c1e1dc17a",
        ),
    }

    @pytest.fixture(scope="class")
    def graph(self):
        return rmat_edges(9, 6000, seed=21).remove_self_loops().deduplicate()

    @pytest.mark.parametrize("backend", ["inproc", "pool"])
    def test_pagerank(self, graph, backend):
        with GraphSession(graph, num_machines=3, backend=backend) as sess:
            run = pagerank(sess)
            assert self._wire(run.values, run.engine_result) == self.PAGERANK_SYNC
            if backend == "inproc":
                run = pagerank(sess, asynchronous=True)
                assert self._wire(run.values, run.engine_result) == self.PAGERANK_ASYNC

    @pytest.mark.parametrize("width", sorted(SSSP))
    def test_multi_sssp(self, graph, width):
        rng = np.random.default_rng(3)
        weighted = EdgeList(graph.src, graph.dst, graph.num_vertices,
                            rng.uniform(0.1, 4.0, graph.num_edges))
        sources = rng.integers(0, graph.num_vertices, size=32)
        with GraphSession(weighted, num_machines=3) as sess:
            res = concurrent_sssp(sess, sources[:width])
        assert self._wire(res.distances, res.engine_result) == self.SSSP[width]
