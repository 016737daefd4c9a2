"""Graph analysis utilities: hop plots, effective diameter, degree stats.

Figure 1 of the paper shows the *hop plot* (cumulative distribution of
pairwise path lengths) of the Slashdot Zoo graph with its KONECT-style
effective diameters: delta_0.5 = 3.51 and delta_0.9 = 4.71, diameter 12.
:func:`hop_plot` computes the same curve (exactly, or sampled for large
graphs) via repeated vectorised BFS, and :func:`effective_diameter` applies
the KONECT linear-interpolation definition.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import build_csr
from repro.graph.edgelist import EdgeList

__all__ = [
    "bfs_levels",
    "hop_plot",
    "effective_diameter",
    "degree_statistics",
    "degree_histogram",
    "average_clustering",
    "largest_connected_component_size",
]


def bfs_levels(edges: EdgeList | None, source: int, csr=None) -> np.ndarray:
    """Hop distance from ``source`` to every vertex (-1 when unreachable).

    A frontier-array BFS: each level expands all frontier out-edges in one
    vectorised pass (the single-query ancestor of the engine in
    :mod:`repro.core`).  It walks ``csr`` when given — any square adjacency
    with ``num_rows`` and ``targets``, e.g. an in-CSC for distances *to*
    ``source`` — and sizes the levels from its rows; ``edges`` is only read
    to build the out-CSR otherwise.
    """
    if csr is None:
        csr = build_csr(edges.src, edges.dst, edges.num_vertices)
    level = np.full(csr.num_rows, -1, dtype=np.int32)
    level[source] = 0
    frontier = np.array([source], dtype=np.int64)
    depth = 0
    while frontier.size:
        depth += 1
        targets = csr.targets(frontier)
        fresh = targets[level[targets] < 0]
        if fresh.size == 0:
            break
        fresh = np.unique(fresh)
        level[fresh] = depth
        frontier = fresh
    return level


def hop_plot(
    edges: EdgeList,
    num_sources: int | None = None,
    seed=0,
) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative distribution of pairwise hop distances (Figure 1).

    Runs BFS from every vertex (or ``num_sources`` sampled vertices for large
    graphs) and accumulates, for each distance ``d``, the fraction of
    reachable ordered pairs with distance <= d.

    Returns ``(distances, cumulative_fraction)`` where ``distances`` is
    ``0..max_distance`` and ``cumulative_fraction[d]`` is the hop-plot value
    at ``d`` (reaching 1.0 at the diameter).
    """
    n = edges.num_vertices
    rng = np.random.default_rng(seed)
    if num_sources is None or num_sources >= n:
        sources = np.arange(n)
    else:
        sources = rng.choice(n, size=num_sources, replace=False)
    csr = build_csr(edges.src, edges.dst, n)
    counts = np.zeros(1, dtype=np.int64)
    for s in sources:
        lv = bfs_levels(edges, int(s), csr=csr)
        reached = lv[lv >= 0]
        hist = np.bincount(reached)
        if hist.size > counts.size:
            counts = np.pad(counts, (0, hist.size - counts.size))
        counts[: hist.size] += hist
    total = counts.sum()
    if total == 0:
        return np.array([0]), np.array([1.0])
    cdf = np.cumsum(counts) / total
    return np.arange(counts.size), cdf


def effective_diameter(
    distances: np.ndarray, cdf: np.ndarray, quantile: float = 0.9
) -> float:
    """KONECT-style effective diameter: interpolated distance at a CDF quantile.

    ``delta_q`` is the (linearly interpolated) number of hops within which a
    fraction ``q`` of all connected pairs lie.  With ``q=0.5`` on the paper's
    Slashdot Zoo graph this gives 3.51; with ``q=0.9``, 4.71.
    """
    if not 0.0 < quantile <= 1.0:
        raise ValueError("quantile must be in (0, 1]")
    cdf = np.asarray(cdf, dtype=np.float64)
    distances = np.asarray(distances, dtype=np.float64)
    idx = int(np.searchsorted(cdf, quantile, side="left"))
    if idx == 0:
        return float(distances[0])
    if idx >= cdf.size:
        return float(distances[-1])
    c0, c1 = cdf[idx - 1], cdf[idx]
    d0, d1 = distances[idx - 1], distances[idx]
    if c1 == c0:
        return float(d1)
    return float(d0 + (quantile - c0) / (c1 - c0) * (d1 - d0))


def degree_statistics(edges: EdgeList) -> dict:
    """Mean/max out-degree and skew summary (drives response-time variance).

    The paper notes "the response time highly depends on the average degree
    of root vertices" (38 / 27 / 108 for its three graphs); this helper lets
    benches report the analog's figures next to them.
    """
    deg = edges.out_degrees()
    nonzero = deg[deg > 0]
    return {
        "vertices": edges.num_vertices,
        "edges": edges.num_edges,
        "avg_out_degree": float(deg.mean()) if deg.size else 0.0,
        "max_out_degree": int(deg.max()) if deg.size else 0,
        "p99_out_degree": float(np.percentile(deg, 99)) if deg.size else 0.0,
        "isolated_fraction": float((deg == 0).mean()) if deg.size else 0.0,
        "gini_out_degree": _gini(nonzero) if nonzero.size else 0.0,
    }


def degree_histogram(edges: EdgeList, log_bins: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Out-degree distribution, optionally on logarithmic bins.

    Returns ``(bin_edges, counts)``; log bins make the power-law tail of the
    social analogs visible in a glance (the skew that drives the paper's
    response-time variance).
    """
    deg = edges.out_degrees()
    if deg.size == 0 or deg.max() == 0:
        return np.array([0, 1]), np.array([deg.size])
    if log_bins:
        top = int(deg.max())
        edges_arr = np.unique(
            np.concatenate([[0, 1], np.geomspace(1, top + 1, num=16)])
        ).astype(np.float64)
    else:
        edges_arr = np.arange(0, deg.max() + 2, dtype=np.float64)
    counts, _ = np.histogram(deg, bins=edges_arr)
    return edges_arr, counts


def average_clustering(edges: EdgeList) -> float:
    """Mean local clustering coefficient of the undirected simple view.

    ``c(v) = triangles(v) / wedges(v)``; vertices of degree < 2 contribute 0
    (networkx's convention).  Small-world analogs (Figure 1) have high
    clustering; R-MAT analogs low — a quick fingerprint for dataset tests.
    """
    from repro.core.triangles import local_triangles

    simple = edges.symmetrize().remove_self_loops().deduplicate()
    tri = local_triangles(simple)
    deg = simple.out_degrees()
    wedges = deg * (deg - 1) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        local = np.where(wedges > 0, tri / wedges, 0.0)
    return float(local.mean()) if local.size else 0.0


def largest_connected_component_size(edges: EdgeList) -> int:
    """Size of the largest weakly connected component (via undirected BFS)."""
    sym = edges.symmetrize()
    n = sym.num_vertices
    csr = build_csr(sym.src, sym.dst, n)
    seen = np.zeros(n, dtype=bool)
    best = 0
    for start in range(n):
        if seen[start]:
            continue
        lv = bfs_levels(sym, start, csr=csr)
        comp = lv >= 0
        comp &= ~seen
        size = int(comp.sum())
        seen |= lv >= 0
        best = max(best, size)
        if best > n - int(seen.sum()):
            break
    return best


def _gini(values: np.ndarray) -> float:
    """Gini coefficient of a non-negative sample (degree skew measure)."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    n = v.size
    if n == 0 or v.sum() == 0:
        return 0.0
    index = np.arange(1, n + 1)
    return float((2 * np.sum(index * v) - (n + 1) * v.sum()) / (n * v.sum()))
