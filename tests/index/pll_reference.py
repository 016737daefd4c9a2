"""Pure-Python pruned landmark labelling: the build's executable spec.

Dict labels, one queue-free level BFS per hub and direction, the same prune
rule and the same forward-then-backward interleaving as
``repro.index.build``.  Slow and obvious on purpose: for a fixed hub order
the labelling is canonical (Akiba et al., SIGMOD '13), so the vectorised
build must reproduce it byte for byte.
"""

import numpy as np

from repro.index.labels import HubLabels


def reference_build(el, order):
    """``(labels, labeled_visits, pruned_visits)`` for ``el`` under ``order``."""
    n = el.num_vertices
    succ = [[] for _ in range(n)]
    pred = [[] for _ in range(n)]
    for s, t in zip(el.src.tolist(), el.dst.tolist()):
        succ[s].append(t)
        pred[t].append(s)
    out_lab = [{} for _ in range(n)]  # v -> {rank: d(v, hub)}
    in_lab = [{} for _ in range(n)]  # v -> {rank: d(hub, v)}
    visits = [0, 0]  # labeled, pruned

    def bfs(root, rank, adj, root_label, extend):
        via_root = {**root_label, rank: 0}
        seen, level, d = {root}, [root], 0
        while level:
            nxt = []
            for v in level:
                best = min(
                    (via_root.get(h, np.inf) + dv for h, dv in extend[v].items()),
                    default=np.inf,
                )
                if d and best <= d:  # the root itself is never pruned
                    visits[1] += 1
                    continue
                visits[0] += 1
                extend[v][rank] = d
                for w in adj[v]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            level, d = nxt, d + 1

    for rank, root in enumerate(np.asarray(order).tolist()):
        bfs(root, rank, succ, out_lab[root], in_lab)  # extends in-labels
        bfs(root, rank, pred, in_lab[root], out_lab)  # extends out-labels

    def pack(lab):
        indptr = np.cumsum([0] + [len(x) for x in lab], dtype=np.int64)
        hubs = [h for x in lab for h in sorted(x)]
        dists = [x[h] for x in lab for h in sorted(x)]
        return indptr, np.array(hubs, np.int32), np.array(dists, np.int32)

    out_indptr, out_hubs, out_dists = pack(out_lab)
    in_indptr, in_hubs, in_dists = pack(in_lab)
    labels = HubLabels(
        num_vertices=n,
        order=np.asarray(order, dtype=np.int64),
        out_indptr=out_indptr,
        out_hubs=out_hubs,
        out_dists=out_dists,
        in_indptr=in_indptr,
        in_hubs=in_hubs,
        in_dists=in_dists,
    )
    return labels, visits[0], visits[1]
