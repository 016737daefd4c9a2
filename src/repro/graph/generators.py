"""Synthetic graph generators.

The paper builds its large datasets with the **Graph 500 generator** (a
Kronecker/R-MAT recursive-matrix generator) seeded from Friendster's
edge/vertex ratio.  :func:`graph500_kronecker` reproduces that generator with
the reference Graph500 probabilities; :func:`rmat_edges` exposes the general
R-MAT form.  Classic generators (Erdős–Rényi, Watts–Strogatz small-world,
star/path/grid/complete) support tests and the Figure 1 hop-plot analog.

All generators are fully vectorised and deterministic under an explicit
``numpy.random.Generator`` seed.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.graph.edgelist import EdgeList

__all__ = [
    "rmat_edges",
    "graph500_kronecker",
    "erdos_renyi",
    "watts_strogatz",
    "barabasi_albert",
    "star_graph",
    "path_graph",
    "grid_graph",
    "complete_graph",
]

#: Reference Graph500 R-MAT quadrant probabilities (a, b, c, d).
GRAPH500_PROBS = (0.57, 0.19, 0.19, 0.05)

#: Rows of the ``(num_edges, scale)`` uniform matrix :func:`rmat_edges` draws
#: at a time: a few MB of floats that stay cache-resident, where the whole
#: matrix (245 MB for FR-1B) paid a first touch on every page.
_RMAT_CHUNK_ROWS = 1 << 15


def _rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def rmat_edges(
    scale: int,
    num_edges: int,
    probs: tuple[float, float, float, float] = GRAPH500_PROBS,
    seed=0,
    noise: float = 0.0,
) -> EdgeList:
    """Generate an R-MAT graph with ``2**scale`` vertices and ``num_edges`` edges.

    Each edge independently descends ``scale`` levels of the recursive 2×2
    matrix, choosing quadrant ``(0,0)/(0,1)/(1,0)/(1,1)`` with probabilities
    ``(a, b, c, d)``.  Vectorised: a ``(num_edges, scale)`` matrix of uniform
    draws decides every quadrant; source/destination bits are the quadrant's
    row/column bits.  The matrix is drawn a block of rows at a time into one
    reused buffer — the same stream, element for element, as one draw.

    ``noise`` perturbs the probabilities per level (SmoothKron-style) to
    avoid the artificial staircase degree distribution of pure Kronecker.
    Self-loops and duplicates are kept, as in the reference generator;
    callers wanting a simple graph apply
    :meth:`~repro.graph.edgelist.EdgeList.deduplicate` /
    :meth:`~repro.graph.edgelist.EdgeList.remove_self_loops`.
    """
    if scale < 0 or scale > 31:
        raise ValueError("scale must be in [0, 31] for int32 vertex ids")
    a, b, c, d = probs
    if not np.isclose(a + b + c + d, 1.0):
        raise ValueError("probabilities must sum to 1")
    rng = _rng(seed)
    n = 1 << scale
    width = max(scale, 1)
    chunk = max(min(_RMAT_CHUNK_ROWS, num_edges), 1)
    buf = np.empty((chunk, width))

    def draw_rows(gen: np.random.Generator, rows: int) -> np.ndarray:
        """The next ``rows`` rows of the ``(num_edges, width)`` matrix."""
        return gen.random(out=buf) if rows == chunk else gen.random((rows, width))

    # Per-level quadrant thresholds.  The stream order is matrix first, then
    # one noise delta per level, so the deltas are read from a copy of the
    # generator run past the matrix (drawn and discarded: the only way to
    # advance an arbitrary bit generator).
    cuts = np.tile(np.cumsum([a, b, c]), (scale, 1))
    if noise:
        ahead = copy.deepcopy(rng)
        for lo in range(0, num_edges, chunk):
            draw_rows(ahead, min(chunk, num_edges - lo))
        for level in range(scale):
            delta = ahead.uniform(-noise, noise)
            aa = max(min(a + delta, 0.999), 1e-3)
            rest = 1.0 - aa
            total_rest = b + c + d
            cuts[level] = np.cumsum([aa, b / total_rest * rest, c / total_rest * rest])

    # Quadrant q of a draw u is the number of thresholds <= u; its row bit is
    # q >> 1 and its column bit q & 1.  Level 0 is the most significant bit.
    weights = 1 << np.arange(scale - 1, -1, -1, dtype=np.int64)
    src = np.empty(num_edges, dtype=np.int64)
    dst = np.empty(num_edges, dtype=np.int64)
    for lo in range(0, num_edges, chunk):
        hi = min(lo + chunk, num_edges)
        u = draw_rows(rng, hi - lo)[:, :scale]
        ge_a, ge_ab, ge_abc = u >= cuts[:, 0], u >= cuts[:, 1], u >= cuts[:, 2]
        src[lo:hi] = ge_ab @ weights
        dst[lo:hi] = (ge_a ^ ge_ab ^ ge_abc) @ weights
    if noise:
        # leave the caller's generator where the one-shot draw left it
        rng.uniform(-noise, noise, size=scale)
    return EdgeList(src, dst, n)


def graph500_kronecker(scale: int, edgefactor: float = 16.0, seed=0) -> EdgeList:
    """The Graph 500 reference kernel-1 generator.

    ``2**scale`` vertices and ``edgefactor * 2**scale`` edges drawn with the
    reference probabilities, followed by the reference's vertex permutation
    (to hide the id/degree correlation of raw R-MAT).
    """
    n = 1 << scale
    m = int(round(edgefactor * n))
    rng = _rng(seed)
    edges = rmat_edges(scale, m, GRAPH500_PROBS, seed=rng)
    perm = rng.permutation(n).astype(np.int64)
    return EdgeList(perm[edges.src], perm[edges.dst], n)


def erdos_renyi(num_vertices: int, num_edges: int, seed=0) -> EdgeList:
    """G(n, m): ``num_edges`` directed edges drawn uniformly (with repeats)."""
    rng = _rng(seed)
    src = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    dst = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    return EdgeList(src, dst, num_vertices)


def watts_strogatz(num_vertices: int, k: int, rewire_p: float, seed=0) -> EdgeList:
    """Small-world ring lattice with rewiring, as a *directed symmetric* graph.

    Each vertex connects to its ``k`` nearest clockwise neighbours; each such
    edge is rewired to a uniform random endpoint with probability
    ``rewire_p``.  The result is symmetrised.  Used for the Slashdot-Zoo
    analog in the Figure 1 hop-plot experiment: small diameter, high
    clustering.
    """
    if k < 1 or k >= num_vertices:
        raise ValueError("k must be in [1, n)")
    rng = _rng(seed)
    base = np.repeat(np.arange(num_vertices, dtype=np.int64), k)
    offset = np.tile(np.arange(1, k + 1, dtype=np.int64), num_vertices)
    dst = (base + offset) % num_vertices
    rewire = rng.random(base.size) < rewire_p
    dst[rewire] = rng.integers(0, num_vertices, size=int(rewire.sum()), dtype=np.int64)
    el = EdgeList(base, dst, num_vertices)
    return el.remove_self_loops().symmetrize()


def barabasi_albert(num_vertices: int, m: int, seed=0) -> EdgeList:
    """Preferential attachment: each new vertex links to ``m`` earlier ones.

    The repeated-nodes implementation: attachment targets are drawn
    uniformly from the running endpoint list, which is equivalent to
    degree-proportional sampling.  Produces the power-law degree tails of
    real social networks (an alternative to R-MAT for analog building).
    Result is symmetrised.
    """
    if m < 1 or m >= num_vertices:
        raise ValueError("m must be in [1, num_vertices)")
    rng = _rng(seed)
    src = np.empty((num_vertices - m) * m, dtype=np.int64)
    dst = np.empty_like(src)
    # seed clique endpoints so early draws have targets
    repeated = list(range(m))
    pos = 0
    for v in range(m, num_vertices):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(int(repeated[rng.integers(0, len(repeated))]))
        for t in targets:
            src[pos] = v
            dst[pos] = t
            pos += 1
            repeated.append(v)
            repeated.append(t)
    el = EdgeList(src[:pos], dst[:pos], num_vertices)
    return el.symmetrize()


def star_graph(num_leaves: int) -> EdgeList:
    """Vertex 0 points at ``1..num_leaves`` (plus reverse edges)."""
    hub = np.zeros(num_leaves, dtype=np.int64)
    leaves = np.arange(1, num_leaves + 1, dtype=np.int64)
    src = np.concatenate([hub, leaves])
    dst = np.concatenate([leaves, hub])
    return EdgeList(src, dst, num_leaves + 1)


def path_graph(num_vertices: int, directed: bool = False) -> EdgeList:
    """A simple path ``0 - 1 - ... - (n-1)``; bidirectional unless ``directed``."""
    a = np.arange(num_vertices - 1, dtype=np.int64)
    b = a + 1
    if directed:
        return EdgeList(a, b, num_vertices)
    return EdgeList(np.concatenate([a, b]), np.concatenate([b, a]), num_vertices)


def grid_graph(rows: int, cols: int) -> EdgeList:
    """A 2-D 4-neighbour grid (bidirectional edges), ``rows * cols`` vertices."""
    ids = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    horiz = np.stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()], axis=1)
    vert = np.stack([ids[:-1, :].ravel(), ids[1:, :].ravel()], axis=1)
    fwd = np.concatenate([horiz, vert], axis=0)
    both = np.concatenate([fwd, fwd[:, ::-1]], axis=0)
    return EdgeList(both[:, 0], both[:, 1], rows * cols)


def complete_graph(num_vertices: int) -> EdgeList:
    """All ordered pairs ``(u, v), u != v``."""
    u, v = np.meshgrid(
        np.arange(num_vertices, dtype=np.int64),
        np.arange(num_vertices, dtype=np.int64),
        indexing="ij",
    )
    mask = u != v
    return EdgeList(u[mask], v[mask], num_vertices)
