"""Golden ``ServiceReport`` pins over the service's configuration matrix.

Each row stands up one :class:`QueryService` on the OR-100M analog at scale
0.05, sends three waves of mixed enumeration and point queries (arrivals
unsorted, with ties; dynamic rows queue mutation batches between them) and
folds every field of every report — values, dtypes and shapes — into one
sha256.  The pins were recorded before the scheduler's queue became a
struct of arrays; any drift in answers, clocks, routes, cache traffic or
array types changes a digest.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.graph import datasets
from repro.qos import LaneSpec, QosConfig, QuotaSpec, ResultCache
from repro.runtime.scheduler import QueryService, ServiceReport
from repro.runtime.session import GraphSession

WAVES = 3
ENUM_PER_WAVE = 16
POINT_PER_WAVE = 48
#: Point endpoints are drawn from a few vertices only, so waves repeat pairs
#: and a 64-entry cache both hits and evicts.
POINT_POOL = 10

#: The standing benchmark's QoS shape (two weighted lanes, one paced tenant).
SPINE_QOS = QosConfig(
    lanes={
        "interactive": LaneSpec(weight=8, batch_width=8),
        "bulk": LaneSpec(weight=1),
    },
    quotas={"crawler": QuotaSpec(rate=50_000, burst=64)},
)
#: The same lanes with the paced tenant's quota tight enough to throttle.
PACED_QOS = dataclasses.replace(
    SPINE_QOS, quotas={"crawler": QuotaSpec(rate=20_000, burst=8)}
)

#: row -> (planner, cache capacity, dynamic, service keywords)
ROWS = {
    "traversal-fifo-static": ("traversal", 0, False, {}),
    "traversal-fifo-dynamic": ("traversal", 0, True, {}),
    "traversal-qos-static": ("traversal", 0, False, {"qos": SPINE_QOS}),
    "traversal-qos-dynamic": ("traversal", 0, True, {"qos": SPINE_QOS}),
    "traversal-paced-static": ("traversal", 0, False, {"qos": PACED_QOS}),
    "hybrid-fifo-static": ("hybrid", 0, False, {}),
    "hybrid-fifo-dynamic": ("hybrid", 0, True, {}),
    "hybrid-qos-static": ("hybrid", 0, False, {"qos": SPINE_QOS}),
    "hybrid-qos-dynamic": ("hybrid", 0, True, {"qos": SPINE_QOS}),
    "hybrid-cache-fifo-static": ("hybrid", 64, False, {}),
    "hybrid-cache-fifo-dynamic": ("hybrid", 64, True, {}),
    "hybrid-cache-qos-static": ("hybrid", 64, False, {"qos": SPINE_QOS}),
    "hybrid-cache-qos-dynamic": ("hybrid", 64, True, {"qos": SPINE_QOS}),
    "hybrid-cache-paced-dynamic": ("hybrid", 64, True, {"qos": PACED_QOS}),
    "pool-discipline": ("traversal", 0, False, {"discipline": "pool"}),
    "deadline": ("traversal", 0, False, {"deadline_seconds": 3e-4}),
}

PINS = {
    "deadline": "02a12a1b0ad5b7ff075bc898b31a85fb2732f92b3beb0c533c62a9f43db2c16d",
    "hybrid-cache-fifo-dynamic": "392d807c345321d5c883ed7998ad69aef8f0fe891d08447448e9fd68b68cba78",
    "hybrid-cache-fifo-static": "243d4182897192216f7a08c8b45d3a1625ad07965c97258371b84a0d169e2127",
    "hybrid-cache-paced-dynamic": "5f5553adfd9b0f5153ea6baa3b4f9b0d7e684f98bb2acf424fc89813411667b4",
    "hybrid-cache-qos-dynamic": "f7eb4f3c596ae37cc3e1c3f1cfefe9b961d78e24b3c27fa33710540b783ec749",
    "hybrid-cache-qos-static": "982b8a10e776f16fa1bac3fd303c5ead1f18eae13c8b005a851673977e75a8ca",
    "hybrid-fifo-dynamic": "9d2cc2d47e2ab78fc10c49fa77cd6d3087b721225c6b103d835a77d88671bb57",
    "hybrid-fifo-static": "ee46ca18707dc7d17df4f31f75df887259358bdcb36679e4143f8c777a24ce2b",
    "hybrid-qos-dynamic": "5725cb0018d20f93916bfb9a6b2b2bb0b7c00f26401c7c25ca76996a18936a7a",
    "hybrid-qos-static": "b8f570a80a2f8d987b62c6c9e66d66db131b9fe8877280807ad197605a73d919",
    "pool-discipline": "0a8ee335449d68f12657b6ab095eab0f6cb4f1a92c15ea0c61a9e193fb41ca54",
    "traversal-fifo-dynamic": "f16d7faf3fed04f1a280a165d411e5a83ed0b11d9a80f7d71b6af33921285bf8",
    "traversal-fifo-static": "03cb5fc8e6ba2caf315ede8bf6910dc6b21d94a910d80b2f0c7b7d65ccc278db",
    "traversal-paced-static": "d8bbe5422710e5adeba264c85f905fb96c5c3820267635d40a87100418f27a35",
    "traversal-qos-dynamic": "acdda302f8f789097c8be46176c04b60a6d4bd0bff99aae2407ccab0b4a0a8f0",
    "traversal-qos-static": "d216bc054496ce388f6953a74d1ab3407ac3c24f75ee6968c8ed7efca06bbae1",
}


@pytest.fixture(scope="module")
def graph():
    return datasets.load_dataset("OR-100M", scale=0.05)


def report_digest(reports) -> str:
    """sha256 over every field of every report: arrays by dtype, shape and
    bytes; scalars by type and value."""
    h = hashlib.sha256()
    for report in reports:
        for f in dataclasses.fields(ServiceReport):
            value = getattr(report, f.name)
            h.update(f.name.encode())
            if isinstance(value, np.ndarray):
                h.update(f"{value.dtype.str}{value.shape}".encode())
                h.update(np.ascontiguousarray(value).tobytes())
            else:
                scalar = value.item() if isinstance(value, np.generic) else value
                h.update(f"{type(value).__name__}:{scalar!r}".encode())
    return h.hexdigest()


def run_row(graph, row: str) -> str:
    planner, capacity, dynamic, extra = ROWS[row]
    rng = np.random.default_rng(sum(row.encode()))
    n = graph.num_vertices
    sess = GraphSession(graph, num_machines=4)
    if dynamic:
        sess.dynamic()
    if planner == "hybrid":
        sess.index()
    svc = QueryService(
        sess, k=2, batch_width=16, planner=planner,
        cache=ResultCache(capacity) if capacity else None,
        **extra,
    )
    pool = rng.choice(n, POINT_POOL, replace=False)
    present = set(zip(graph.src.tolist(), graph.dst.tolist()))
    victims = rng.permutation(graph.num_edges)
    reports = []
    for wave in range(WAVES):
        clock = svc.clock
        size = ENUM_PER_WAVE + POINT_PER_WAVE
        # a coarse grid makes arrival ties; the wave is submitted unsorted
        arrivals = clock + np.round(rng.uniform(0.0, 4e-4, size), 5)
        tags = {}
        if "qos" in extra:  # both lanes carry both query kinds; one tenant is paced
            tags = {
                "lane": rng.choice(["interactive", "bulk"], size),
                "tenant": rng.choice(["crawler", "frontend"], size),
            }
        sources = np.concatenate([
            rng.integers(0, n, ENUM_PER_WAVE),
            rng.choice(pool, POINT_PER_WAVE),
        ])
        targets = rng.choice(pool, POINT_PER_WAVE)
        enum = slice(0, ENUM_PER_WAVE)
        point = slice(ENUM_PER_WAVE, size)
        svc.submit_many(
            sources[enum], arrivals[enum],
            **{key: v[enum] for key, v in tags.items()},
        )
        svc.submit_many(
            sources[point], arrivals[point], targets=targets,
            **{key: v[point] for key, v in tags.items()},
        )
        if dynamic:
            for j, at in enumerate((1e-4, 3e-4)):
                while True:
                    u, v = (int(x) for x in rng.integers(0, n, 2))
                    if u != v and (u, v) not in present:
                        break
                present.add((u, v))
                e = int(victims[2 * wave + j])
                dels = [(int(graph.src[e]), int(graph.dst[e]))]
                svc.apply_mutations([(u, v)], dels, arrival=clock + at)
        reports.append(svc.drain())
    return report_digest(reports)


@pytest.mark.parametrize("row", sorted(ROWS))
def test_report_matches_its_pin(graph, row):
    assert run_row(graph, row) == PINS[row]
