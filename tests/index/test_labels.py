"""The distance-label index must be *exact*: every pair, every budget.

The pruned build's correctness claim (canonical labeling) is global — the
labels answer ``dist(s, t)`` for **all** ``(s, t)``, not just pairs routed
through high-degree hubs.  So the property tests compare all-pairs
distances and every ``(s, t, k)`` reachability verdict against the
networkx oracles on a spread of generated graphs.
"""

import numpy as np
import pytest

from repro.baselines.oracle import oracle_bfs_levels, oracle_khop_reach
from repro.graph.edgelist import EdgeList
from repro.graph.generators import rmat_edges
from repro.graph.partition import range_partition
from repro.index import (
    HubLabels,
    build_hub_labels,
    hub_order,
    labels_equal,
    load_labels,
    save_labels,
)
from repro.index.labels import UNREACHABLE, check_labels


def small_graphs():
    for seed in (0, 1, 2, 3):
        yield rmat_edges(6, 180, seed=seed)
    # a sparse graph with long chains: little pruning, deep BFS levels
    yield rmat_edges(6, 70, seed=7)


def oracle_dist_matrix(el):
    return np.stack([oracle_bfs_levels(el, s) for s in range(el.num_vertices)])


class TestExactness:
    @pytest.mark.parametrize("gi", range(5))
    def test_all_pairs_distances_match_oracle(self, gi):
        el = list(small_graphs())[gi]
        labels = build_hub_labels(el).labels
        n = el.num_vertices
        want = oracle_dist_matrix(el)
        s, t = np.divmod(np.arange(n * n), n)
        got = labels.dist_many(s, t).reshape(n, n)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, None])
    def test_every_reach_verdict_matches_khop_oracle(self, k):
        el = rmat_edges(5, 90, seed=11)
        labels = build_hub_labels(el).labels
        n = el.num_vertices
        for s in range(n):
            within = oracle_khop_reach(el, s, k)
            verdicts = labels.reach_many(
                np.full(n, s), np.arange(n), k
            )
            for t in range(n):
                assert verdicts[t] == (t in within), (s, t, k)

    def test_partitioned_build_equals_edgelist_build(self):
        el = rmat_edges(6, 200, seed=5)
        pg = range_partition(el, 3)
        assert labels_equal(
            build_hub_labels(el).labels, build_hub_labels(pg).labels
        )

    def test_custom_hub_order_stays_exact(self):
        el = rmat_edges(5, 100, seed=3)
        rng = np.random.default_rng(0)
        order = rng.permutation(el.num_vertices)
        labels = build_hub_labels(el, order=order).labels
        n = el.num_vertices
        s, t = np.divmod(np.arange(n * n), n)
        np.testing.assert_array_equal(
            labels.dist_many(s, t).reshape(n, n), oracle_dist_matrix(el)
        )


class TestEdgeCases:
    def test_empty_graph(self):
        el = EdgeList(np.empty(0), np.empty(0), num_vertices=0)
        labels = build_hub_labels(el).labels
        assert labels.num_entries == 0
        assert labels.mean_label_size == 0.0
        assert labels.dist_many([], []).size == 0

    def test_isolated_vertices(self):
        el = EdgeList(np.empty(0), np.empty(0), num_vertices=5)
        labels = build_hub_labels(el).labels
        assert labels.dist(0, 3) == UNREACHABLE
        assert labels.dist(2, 2) == 0
        assert labels.reach(2, 2, 0)
        assert not labels.reach(0, 3, None)

    def test_direction_respected(self):
        # 0 -> 1 -> 2, no back edges
        el = EdgeList(np.array([0, 1]), np.array([1, 2]), num_vertices=3)
        labels = build_hub_labels(el).labels
        assert labels.dist(0, 2) == 2
        assert labels.dist(2, 0) == UNREACHABLE
        assert labels.reach(0, 2, 2) and not labels.reach(0, 2, 1)

    def test_self_reach_is_free(self):
        el = rmat_edges(4, 30, seed=0)
        labels = build_hub_labels(el).labels
        v = np.arange(el.num_vertices)
        assert labels.reach_many(v, v, 0).all()


def _swap_first_ranks(a):
    """Swap the first two ranks of the first out-label holding two."""
    v = int(np.argmax(np.diff(a["out_indptr"]) >= 2))
    lo = a["out_indptr"][v]
    a["out_hubs"][[lo, lo + 1]] = a["out_hubs"][[lo + 1, lo]]


#: field the error names -> how a hand-made ``.npz`` breaks it
CORRUPTIONS = {
    "out_indptr-length": lambda a: a.update(out_indptr=a["out_indptr"][:-1]),
    "in_indptr-start": lambda a: a.update(in_indptr=a["in_indptr"] + 1),
    "out_indptr-decreasing": lambda a: a["out_indptr"].__setitem__(
        1, a["out_indptr"][2] + 1
    ),
    "in_indptr-end": lambda a: a["in_indptr"].__setitem__(-1, 0),
    "out_hubs-lengths": lambda a: a.update(out_dists=a["out_dists"][:-1]),
    "in_hubs-range": lambda a: a["in_hubs"].__setitem__(0, a["num_vertices"]),
    "in_hubs-negative": lambda a: a["in_hubs"].__setitem__(0, -1),
    "out_hubs-ascend": _swap_first_ranks,
    "out_dists-negative": lambda a: a["out_dists"].__setitem__(0, -1),
    "order-permutation": lambda a: a["order"].__setitem__(0, a["order"][1]),
}


class TestValidation:
    @pytest.fixture(scope="class")
    def labels(self):
        return build_hub_labels(rmat_edges(4, 40, seed=1)).labels

    def test_out_of_range_ids_raise(self, labels):
        n = labels.num_vertices
        with pytest.raises(ValueError, match="source vertex out of range"):
            labels.dist_many([n], [0])
        with pytest.raises(ValueError, match="target vertex out of range"):
            labels.dist_many([0], [-1])

    def test_misaligned_pairs_raise(self, labels):
        with pytest.raises(ValueError, match="align"):
            labels.dist_many([0, 1], [0])

    def test_negative_k_raises(self, labels):
        with pytest.raises(ValueError, match="k must be"):
            labels.reach_many([0], [1], -1)

    def test_bad_order_raises(self):
        el = rmat_edges(4, 40, seed=1)
        with pytest.raises(ValueError, match="permutation"):
            build_hub_labels(el, order=np.array([0, 0, 1]))
        # right size and range, but not every vertex exactly once / not ids
        path = EdgeList(np.array([0, 1]), np.array([1, 2]), num_vertices=3)
        for order in ([2, 2, 2], [0.9, 1.5, 2.2]):
            with pytest.raises(ValueError, match="permutation"):
                build_hub_labels(path, order=np.array(order))

    # structurally invalid labels are refused at the door — from disk and
    # when handed to a session — with a ValueError naming the field
    @pytest.fixture(scope="class")
    def arrays(self, tmp_path_factory):
        labels = build_hub_labels(rmat_edges(5, 150, seed=9)).labels
        path = save_labels(labels, tmp_path_factory.mktemp("ok") / "ok.npz")
        with np.load(path) as data:
            return dict(data)

    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_load_refuses_invalid_labels(self, arrays, case, tmp_path):
        bad = {name: np.array(a, copy=True) for name, a in arrays.items()}
        CORRUPTIONS[case](bad)
        np.savez(tmp_path / "bad.npz", **bad)
        field = case.split("-")[0]
        with pytest.raises(ValueError, match=field):
            load_labels(tmp_path / "bad.npz")

    @staticmethod
    def _labels(arrays, corrupt=None) -> HubLabels:
        fields = {
            k: np.array(a, copy=True)
            for k, a in arrays.items()
            if k != "format_version"
        }
        if corrupt is not None:
            corrupt(fields)
        fields["num_vertices"] = int(fields["num_vertices"])
        return HubLabels(**fields)

    def test_valid_labels_pass(self, arrays):
        labels = self._labels(arrays)
        assert check_labels(labels) is labels

    def test_session_refuses_invalid_labels(self, arrays):
        from repro.runtime.session import GraphSession

        labels = self._labels(arrays, _swap_first_ranks)
        with GraphSession(rmat_edges(5, 150, seed=9), num_machines=2) as sess:
            with pytest.raises(ValueError, match="out_hubs"):
                sess.set_index(labels)
            assert not sess.has_index


class TestBuildAccounting:
    def test_pruning_bites_on_dense_graphs(self):
        build = build_hub_labels(rmat_edges(7, 1500, seed=2))
        assert build.pruned_visits > 0
        assert 0.0 < build.prune_ratio < 1.0
        assert build.build_seconds > 0.0
        # pruning is the point: labels stay well under the n^2 worst case
        n = 2**7
        assert build.labels.num_entries < n * n / 4

    def test_hub_order_is_degree_descending(self):
        el = rmat_edges(5, 120, seed=4)
        order = hub_order(el)
        degrees = (el.out_degrees() + el.in_degrees())[order]
        assert (np.diff(degrees) <= 0).all()

    def test_labels_are_rank_sorted_per_vertex(self):
        labels = build_hub_labels(rmat_edges(5, 120, seed=4)).labels
        for indptr, hubs in (
            (labels.out_indptr, labels.out_hubs),
            (labels.in_indptr, labels.in_hubs),
        ):
            for v in range(labels.num_vertices):
                sl = hubs[indptr[v] : indptr[v + 1]]
                assert (np.diff(sl) > 0).all()

    def test_stats_are_consistent(self):
        labels = build_hub_labels(rmat_edges(5, 120, seed=6)).labels
        out, inn = labels.label_sizes(0)
        assert out >= 1 and inn >= 1  # every vertex at least self-labels
        scanned = labels.entries_scanned([0], [1])
        o0, _ = labels.label_sizes(0)
        _, i1 = labels.label_sizes(1)
        assert scanned[0] == o0 + i1
        assert labels.nbytes() > 0


class TestStorage:
    @pytest.fixture(scope="class")
    def labels(self):
        return build_hub_labels(rmat_edges(5, 150, seed=9)).labels

    def test_round_trip(self, labels, tmp_path):
        path = save_labels(labels, tmp_path / "index.npz")
        assert path.exists()
        loaded = load_labels(path)
        assert isinstance(loaded, HubLabels)
        assert labels_equal(labels, loaded)
        # and the reloaded index still answers queries
        assert loaded.dist(0, 0) == 0

    def test_suffix_appended_when_missing(self, labels, tmp_path):
        path = save_labels(labels, tmp_path / "index")
        assert path.name == "index.npz"
        assert path.exists()

    def test_version_mismatch_raises(self, labels, tmp_path):
        path = save_labels(labels, tmp_path / "index.npz")
        with np.load(path) as data:
            arrays = dict(data)
        arrays["format_version"] = np.int64(99)
        np.savez(tmp_path / "bad.npz", **arrays)
        with pytest.raises(ValueError, match="format version 99"):
            load_labels(tmp_path / "bad.npz")

    def test_labels_equal_detects_difference(self, labels):
        other = build_hub_labels(rmat_edges(5, 150, seed=10)).labels
        assert not labels_equal(labels, other)

    def test_save_is_atomic_under_kill_mid_save(self, labels, tmp_path, monkeypatch):
        # A crash between writing the temp file and the rename must leave
        # the OLD index readable: the save goes tmp + fsync + os.replace,
        # so the target is either the previous bytes or the new ones.
        path = save_labels(labels, tmp_path / "index.npz")
        before = path.read_bytes()

        import repro.index.storage as storage

        def killed_replace(src, dst):
            raise KeyboardInterrupt("simulated kill mid-save")

        monkeypatch.setattr(storage.os, "replace", killed_replace)
        with pytest.raises(KeyboardInterrupt):
            save_labels(labels, path)
        monkeypatch.undo()

        assert path.read_bytes() == before  # old index untouched
        assert labels_equal(load_labels(path), labels)
        # and the aborted temp file was cleaned up, not left to rot
        assert list(tmp_path.glob("*.tmp")) == []

    def test_successful_save_leaves_no_temp_file(self, labels, tmp_path):
        save_labels(labels, tmp_path / "index.npz")
        assert list(tmp_path.glob("*.tmp")) == []
