"""Quality-of-service layer: SLO lanes, tenant quotas, locality, result cache.

The QoS subsystem sits between :class:`repro.runtime.scheduler.QueryService`
admission and the traversal/index kernels:

* :mod:`repro.qos.lanes` — SLO classes (``interactive`` vs ``bulk``),
  per-tenant token-bucket quotas on the virtual clock, and a deterministic
  weighted fair queue that replaces the FIFO drain order;
* :mod:`repro.qos.locality` — seed-partition-affinity batching, the one
  packing rule: a lane whose admitted queries overflow its width takes
  those whose seeds share the oldest query's partition first;
* :mod:`repro.qos.cache` — a bounded LRU result cache for repeated
  point-reach queries keyed on ``(source, target, k, graph_epoch)`` and
  invalidated by the mutation lane's epoch advance; the key does not name
  the graph, so one cache serves one session.

Everything here is pure scheduling policy: answers stay bit-identical to the
FIFO drain (verdicts depend only on the graph epoch, never on batch
composition) and every decision is a deterministic function of the submitted
trace, so reports reproduce bit-identically across reruns and backends.
"""

from repro.qos.cache import ResultCache
from repro.qos.lanes import (
    BULK_LANE,
    INTERACTIVE_LANE,
    LaneSpec,
    QosConfig,
    QuotaSpec,
    TokenBucket,
    WeightedFairQueue,
    default_lanes,
)
from repro.qos.locality import affinity_select

__all__ = [
    "BULK_LANE",
    "INTERACTIVE_LANE",
    "LaneSpec",
    "QosConfig",
    "QuotaSpec",
    "ResultCache",
    "TokenBucket",
    "WeightedFairQueue",
    "affinity_select",
    "default_lanes",
]
