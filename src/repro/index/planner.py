"""Hybrid index/traversal query planning.

The index answers a *point* reachability query (one ``(s, t, k)`` pair) by
scanning two label slices — typically tens of entries — while the traversal
engine expands frontiers over the partitioned graph.  The service layer
(:class:`~repro.runtime.scheduler.QueryService`) routes each query by shape:

* **point reachability** (a target is given) → the index, when one is
  available; the lookup is charged to the same calibrated
  :class:`~repro.runtime.netmodel.NetworkModel` as traversal work (label
  entries scanned ≙ edges scanned, served by one machine, no network), so
  virtual-time accounting stays comparable across strategies;
* **k-hop enumeration** (no target — the answer is a vertex *set*) → the
  bit-parallel traversal engine; labels bound distances, they cannot
  enumerate reach sets.

:meth:`IndexPlanner.answer` also carries the cross-check contract: the
verdicts it produces must be bit-identical to the traversal engine's, which
the regression suite and the service's ``cross_check`` mode assert.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.index.labels import HubLabels
from repro.runtime.netmodel import NetworkModel

__all__ = ["IndexPlanner", "PointAnswer"]


@dataclass
class PointAnswer:
    """Verdicts and accounting for one batch of index-answered point queries.

    ``reachable[i]`` answers ``targets[i]`` within-``k``-of-``sources[i]``;
    ``service_seconds[i]`` is the virtual cost of that lookup under the
    planner's cost model; ``entries_scanned[i]`` is the label work it did.
    """

    sources: np.ndarray
    targets: np.ndarray
    k: int | None
    reachable: np.ndarray
    service_seconds: np.ndarray
    entries_scanned: np.ndarray

    @property
    def num_queries(self) -> int:
        return int(self.sources.size)

    @property
    def total_seconds(self) -> float:
        return float(self.service_seconds.sum())


@dataclass
class IndexPlanner:
    """Answers point queries from the label index, charged to the traversal
    engine's cost model.

    ``instrumentation`` (default: the no-op null) accounts every answered
    batch — a span on the ``index`` lane plus lookup/entry counters — so
    hybrid-planner traces show the index lane next to traversal batches.
    """

    labels: HubLabels
    netmodel: NetworkModel
    instrumentation: object = None

    def __post_init__(self) -> None:
        if self.instrumentation is None:
            from repro.telemetry.instrument import NULL_INSTRUMENTATION

            self.instrumentation = NULL_INSTRUMENTATION

    def query_seconds(self, sources, targets) -> np.ndarray:
        """Virtual service time per point lookup, from the shared cost model.

        A lookup scans ``|out(s)| + |in(t)|`` label entries on one machine:
        the compute term of the calibrated model with entries in place of
        edges, plus one vertex-update for writing the verdict.  No network
        or barrier terms apply — the index is machine-local.
        """
        entries = self.labels.entries_scanned(sources, targets)
        return self.netmodel.work_seconds(entries, 1)

    def answer(self, sources, targets, k: int | None) -> PointAnswer:
        """Answer a batch of point queries entirely from the index."""
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        instr = self.instrumentation
        with instr.span(
            "index lookup", cat="index", queries=int(sources.size)
        ):
            entries = self.labels.entries_scanned(sources, targets)
            answer = PointAnswer(
                sources=sources,
                targets=targets,
                k=k,
                reachable=self.labels.reach_many(sources, targets, k),
                service_seconds=self.netmodel.work_seconds(entries, 1),
                entries_scanned=entries,
            )
        if instr.enabled:
            instr.on_index_lookup(
                answer.num_queries, int(answer.entries_scanned.sum())
            )
        return answer

    def answer_cached(
        self, sources, targets, k: int | None, epoch: int, cache
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Answer a point-query batch with a result cache in front.

        Probes ``cache`` (a :class:`~repro.qos.cache.ResultCache`) at the
        given graph ``epoch`` first — the cache drops entries from older
        epochs on the way in, so a stale verdict is unreachable — then
        answers the misses from the label index and stores their verdicts
        for the next repeat.  Returns ``(verdicts, service_seconds,
        hit_mask)``: hits are charged the cache's flat hit cost, misses
        their label-scan cost.
        """
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        cache.on_epoch(epoch)
        verdicts, hit_mask = cache.lookup_many(sources, targets, k, epoch)
        service = np.zeros(sources.size, dtype=np.float64)
        service[hit_mask] = cache.hit_seconds
        miss = np.nonzero(~hit_mask)[0]
        if miss.size:
            answer = self.answer(sources[miss], targets[miss], k)
            verdicts[miss] = answer.reachable
            service[miss] = answer.service_seconds
            cache.store_many(
                sources[miss], targets[miss], k, epoch, answer.reachable
            )
        return verdicts, service, hit_mask
