"""Unit tests for the synthetic graph generators."""

import numpy as np
import pytest

from repro.graph import (
    complete_graph,
    erdos_renyi,
    graph500_kronecker,
    grid_graph,
    path_graph,
    rmat_edges,
    star_graph,
    watts_strogatz,
)
from repro.graph import generators
from repro.graph.datasets import DATASETS, _build_rmat
from repro.graph.generators import GRAPH500_PROBS


def rmat_one_shot(scale, num_edges, probs=GRAPH500_PROBS, seed=0, noise=0.0):
    """The reference R-MAT draw: the whole ``(num_edges, scale)`` matrix at
    once, one ``np.digitize`` per level.  ``rmat_edges`` must reproduce its
    edges and leave the generator where this leaves it."""
    a, b, c, d = probs
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    src = np.zeros(num_edges, dtype=np.int64)
    dst = np.zeros(num_edges, dtype=np.int64)
    u = rng.random((num_edges, max(scale, 1)))
    for level in range(scale):
        if noise:
            delta = rng.uniform(-noise, noise)
            aa = max(min(a + delta, 0.999), 1e-3)
            rest = 1.0 - aa
            total_rest = b + c + d
            bb, cc = b / total_rest * rest, c / total_rest * rest
        else:
            aa, bb, cc = a, b, c
        quad = np.digitize(u[:, level], np.cumsum([aa, bb, cc]))
        src = (src << 1) | (quad >> 1)
        dst = (dst << 1) | (quad & 1)
    return src, dst


def assert_matches_one_shot(scale, num_edges, seed, noise, bit_generator=np.random.PCG64):
    ours, ref = (np.random.Generator(bit_generator(seed)) for _ in range(2))
    el = rmat_edges(scale, num_edges, seed=ours, noise=noise)
    src, dst = rmat_one_shot(scale, num_edges, seed=ref, noise=noise)
    assert np.array_equal(el.src, src) and np.array_equal(el.dst, dst)
    # the caller's generator ends where the one-shot draw ends
    assert ours.random() == ref.random()


class TestRMATRowChunks:
    """``rmat_edges`` draws its uniform matrix in row chunks; the stream —
    edges and final generator state — is the one-shot draw's."""

    @pytest.fixture(autouse=True)
    def small_chunk(self, monkeypatch):
        monkeypatch.setattr(generators, "_RMAT_CHUNK_ROWS", 64)

    @pytest.mark.parametrize("noise", [0.0, 0.05])
    @pytest.mark.parametrize(
        "scale, num_edges",
        [(6, 640), (6, 1000), (6, 65), (6, 63), (6, 1), (6, 0), (0, 200), (1, 129)],
        ids=["multiple", "ragged", "chunk+1", "sub-chunk", "one", "none",
             "scale0", "scale1"],
    )
    def test_matches_one_shot(self, scale, num_edges, noise):
        assert_matches_one_shot(scale, num_edges, seed=11, noise=noise)

    @pytest.mark.parametrize(
        "bit_generator", [np.random.MT19937, np.random.Philox, np.random.SFC64]
    )
    def test_any_bit_generator(self, bit_generator):
        assert_matches_one_shot(7, 300, 5, 0.1, bit_generator=bit_generator)

    def test_seed_given_as_int(self):
        el = rmat_edges(6, 500, seed=9, noise=0.05)
        src, dst = rmat_one_shot(6, 500, seed=9, noise=0.05)
        assert np.array_equal(el.src, src) and np.array_equal(el.dst, dst)

    def test_graph500_kronecker_permutation_follows_the_same_stream(self):
        el = graph500_kronecker(8, edgefactor=3.5, seed=3)
        rng = np.random.default_rng(3)
        src, dst = rmat_one_shot(8, 896, seed=rng)
        perm = rng.permutation(256).astype(np.int64)
        assert np.array_equal(el.src, perm[src])
        assert np.array_equal(el.dst, perm[dst])


#: Largest one-shot reference matrix tier-1 draws (FR-1B at scale 1.0 is
#: 245 MB; FRS-72B and FRS-100B would be 0.8 and 1.4 GB) and the edge count
#: an entry over it is cut to.
ONE_SHOT_BUDGET_BYTES = 300 << 20
CAPPED_EDGES = 400_000


@pytest.mark.parametrize(
    "name", [n for n, spec in DATASETS.items() if spec.builder is _build_rmat]
)
def test_dataset_rmat_draw_matches_one_shot(name):
    """The raw draw behind every R-MAT registry entry at scale 1.0 (the
    builder's fold/permute/dedup after it is untouched).  Where the one-shot
    matrix would not fit the budget, the edge count is cut — same scale, seed
    and noise, real chunk size."""
    spec = DATASETS[name]
    n, m = spec.scaled_sizes(1.0)
    s = max(int(np.ceil(np.log2(n))), 1)
    if 8 * s * m > ONE_SHOT_BUDGET_BYTES:
        m = CAPPED_EDGES
    assert_matches_one_shot(s, m, spec.seed, 0.05)


class TestRMAT:
    def test_sizes(self):
        el = rmat_edges(6, 500, seed=0)
        assert el.num_vertices == 64
        assert el.num_edges == 500

    def test_deterministic_under_seed(self):
        a = rmat_edges(6, 300, seed=9)
        b = rmat_edges(6, 300, seed=9)
        assert (a.src == b.src).all() and (a.dst == b.dst).all()

    def test_different_seeds_differ(self):
        a = rmat_edges(6, 300, seed=1)
        b = rmat_edges(6, 300, seed=2)
        assert not ((a.src == b.src).all() and (a.dst == b.dst).all())

    def test_degree_distribution_is_skewed(self):
        el = rmat_edges(10, 10_000, seed=4)
        deg = el.out_degrees()
        # R-MAT with Graph500 probs produces heavy hubs: max >> mean
        assert deg.max() > 10 * deg.mean()

    def test_scale_zero(self):
        el = rmat_edges(0, 10, seed=0)
        assert el.num_vertices == 1
        assert (el.src == 0).all() and (el.dst == 0).all()

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            rmat_edges(-1, 10)
        with pytest.raises(ValueError):
            rmat_edges(40, 10)

    def test_invalid_probs(self):
        with pytest.raises(ValueError):
            rmat_edges(4, 10, probs=(0.5, 0.5, 0.5, 0.5))

    def test_noise_keeps_sizes(self):
        el = rmat_edges(7, 1000, seed=3, noise=0.1)
        assert el.num_vertices == 128
        assert el.num_edges == 1000


class TestGraph500:
    def test_edgefactor(self):
        el = graph500_kronecker(7, edgefactor=8, seed=0)
        assert el.num_vertices == 128
        assert el.num_edges == 1024

    def test_permutation_hides_id_degree_correlation(self):
        """Raw R-MAT concentrates hubs at low ids; Graph500 permutes them."""
        raw = rmat_edges(10, 16000, seed=5)
        perm = graph500_kronecker(10, edgefactor=16000 / 1024, seed=5)
        def low_id_mass(el):
            deg = el.out_degrees()
            return deg[: el.num_vertices // 8].sum() / max(deg.sum(), 1)
        assert low_id_mass(raw) > low_id_mass(perm)


class TestClassicGenerators:
    def test_erdos_renyi_sizes(self):
        el = erdos_renyi(100, 400, seed=0)
        assert el.num_vertices == 100
        assert el.num_edges == 400

    def test_watts_strogatz_symmetric(self):
        el = watts_strogatz(50, 3, 0.2, seed=1)
        pairs = set(zip(el.src.tolist(), el.dst.tolist()))
        assert all((b, a) in pairs for (a, b) in pairs)

    def test_watts_strogatz_no_self_loops(self):
        el = watts_strogatz(50, 3, 0.5, seed=2)
        assert (el.src != el.dst).all()

    def test_watts_strogatz_zero_rewire_is_lattice(self):
        el = watts_strogatz(10, 2, 0.0, seed=0)
        # ring lattice with k=2 symmetrised: each vertex has degree 4
        assert (el.out_degrees() == 4).all()

    def test_watts_strogatz_invalid_k(self):
        with pytest.raises(ValueError):
            watts_strogatz(10, 0, 0.1)
        with pytest.raises(ValueError):
            watts_strogatz(10, 10, 0.1)

    def test_star(self):
        el = star_graph(5)
        assert el.num_vertices == 6
        assert el.out_degrees()[0] == 5
        assert (el.out_degrees()[1:] == 1).all()

    def test_path_directed(self):
        el = path_graph(5, directed=True)
        assert el.num_edges == 4
        assert el.out_degrees()[-1] == 0

    def test_path_undirected(self):
        el = path_graph(5)
        assert el.num_edges == 8

    def test_grid_degree_sum(self):
        el = grid_graph(3, 4)
        # 2 * (#horizontal + #vertical) directed edges
        assert el.num_edges == 2 * (3 * 3 + 2 * 4)
        assert el.num_vertices == 12

    def test_complete(self):
        el = complete_graph(5)
        assert el.num_edges == 20
        assert (el.out_degrees() == 4).all()
