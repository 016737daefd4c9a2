"""SLO lanes, per-tenant token buckets and deterministic weighted fair queueing.

A *lane* is an SLO class (``interactive``, ``bulk``, …): every submitted query
carries a lane, and the drain loop serves lanes in proportion to their
configured weights instead of strict arrival order.  A *tenant* is a billing
identity: each tenant may carry a token-bucket quota that bounds how fast its
queries become eligible on the **virtual** clock, so a misbehaving tenant is
throttled in simulated time without perturbing anyone else's answers.

All state here advances on the service's virtual clock only — given a fixed
arrival trace and configuration, every scheduling decision (lane picks, start
times, batch compositions) is a pure function of that trace, which is what
keeps QoS reports bit-identical across reruns and across the ``inproc`` and
``pool`` backends.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.frontier import MAX_WIDE_BATCH

__all__ = [
    "INTERACTIVE_LANE",
    "BULK_LANE",
    "LaneSpec",
    "QuotaSpec",
    "QosConfig",
    "TokenBucket",
    "WeightedFairQueue",
    "default_lanes",
]

#: The default high-priority SLO class (point lookups, dashboards).
INTERACTIVE_LANE = "interactive"
#: The default low-priority SLO class (analytics sweeps, backfills).
BULK_LANE = "bulk"


@dataclass(frozen=True)
class LaneSpec:
    """One SLO class: its fair-queueing weight and optional batch-width cap.

    ``weight`` is the WFQ share — a lane with weight 4 receives 4x the
    virtual service of a weight-1 lane while both are backlogged.
    ``batch_width`` optionally caps how many queries of this lane may share
    one bit-parallel batch (``None`` inherits the service batch width); a
    small cap keeps an interactive lane's batches short and its latency low.
    """

    weight: float = 1.0
    batch_width: int | None = None

    def __post_init__(self) -> None:
        if not (self.weight > 0.0 and self.weight == self.weight):
            raise ValueError(f"lane weight must be positive, got {self.weight!r}")
        if self.batch_width is not None and not (
            1 <= int(self.batch_width) <= MAX_WIDE_BATCH
        ):
            raise ValueError(
                f"lane batch_width must be in [1, {MAX_WIDE_BATCH}], "
                f"got {self.batch_width!r}"
            )


@dataclass(frozen=True)
class QuotaSpec:
    """A tenant's token-bucket quota on the virtual clock.

    ``rate`` is tokens (queries) per virtual second; ``burst`` is the bucket
    capacity — how many queries may start back-to-back before the tenant is
    paced down to ``rate``.
    """

    rate: float
    burst: float = 1.0

    def __post_init__(self) -> None:
        if not (self.rate > 0.0 and self.rate == self.rate):
            raise ValueError(f"quota rate must be positive, got {self.rate!r}")
        if not (self.burst >= 1.0):
            raise ValueError(f"quota burst must be >= 1, got {self.burst!r}")


def default_lanes() -> dict[str, LaneSpec]:
    """The stock two-class configuration: interactive 4:1 over bulk."""
    return {
        INTERACTIVE_LANE: LaneSpec(weight=4.0),
        BULK_LANE: LaneSpec(weight=1.0),
    }


@dataclass(frozen=True)
class QosConfig:
    """Complete QoS policy for one :class:`~repro.runtime.scheduler.QueryService`.

    ``lanes`` maps lane name to :class:`LaneSpec`; ``quotas`` maps tenant name
    to :class:`QuotaSpec` (tenants without an entry are unthrottled);
    ``default_lane`` is assigned to queries submitted without an explicit
    lane.  A lane whose admitted queries overflow its width is packed with
    seed-partition affinity (:func:`~repro.qos.locality.affinity_select`).
    """

    lanes: dict[str, LaneSpec] = field(default_factory=default_lanes)
    quotas: dict[str, QuotaSpec] = field(default_factory=dict)
    default_lane: str = INTERACTIVE_LANE

    def __post_init__(self) -> None:
        if not self.lanes:
            raise ValueError("QosConfig requires at least one lane")
        for name, spec in self.lanes.items():
            if not isinstance(spec, LaneSpec):
                raise TypeError(f"lane {name!r} must map to a LaneSpec")
        for name, spec in self.quotas.items():
            if not isinstance(spec, QuotaSpec):
                raise TypeError(f"tenant {name!r} must map to a QuotaSpec")
        if self.default_lane not in self.lanes:
            raise ValueError(
                f"default lane {self.default_lane!r} is not a configured lane"
            )

    @classmethod
    def from_cli(
        cls,
        lanes: str | None = None,
        quotas: list[str] | None = None,
        default_lane: str | None = None,
    ) -> QosConfig:
        """Parse CLI syntax: ``--lanes 'interactive=8,bulk=1:32'`` and
        repeated ``--tenant-quota 'crawler=2000:4'`` (rate[:burst])."""
        lane_map = default_lanes() if not lanes else {}
        for part in (lanes or "").split(","):
            part = part.strip()
            if not part:
                continue
            name, _, rest = part.partition("=")
            if not name or not rest:
                raise ValueError(f"bad lane spec {part!r}; expected name=weight[:width]")
            weight, _, width = rest.partition(":")
            lane_map[name] = LaneSpec(
                weight=float(weight), batch_width=int(width) if width else None
            )
        quota_map: dict[str, QuotaSpec] = {}
        for part in quotas or []:
            name, _, rest = part.partition("=")
            if not name or not rest:
                raise ValueError(
                    f"bad quota spec {part!r}; expected tenant=rate[:burst]"
                )
            rate, _, burst = rest.partition(":")
            quota_map[name] = QuotaSpec(
                rate=float(rate), burst=float(burst) if burst else 1.0
            )
        if default_lane is None:
            default_lane = (
                INTERACTIVE_LANE if INTERACTIVE_LANE in lane_map
                else sorted(lane_map)[0]
            )
        return cls(lanes=lane_map, quotas=quota_map, default_lane=default_lane)


class TokenBucket:
    """Deterministic token bucket refilled by the *virtual* clock.

    The drain loop evaluates eligibility at whatever virtual instant it is
    considering, which is not always monotone across call sites (the index
    lane starts queries at their arrival while the traversal loop runs on the
    batch clock), so refills clamp negative elapsed time to zero — time never
    flows backwards out of the bucket.
    """

    __slots__ = ("rate", "burst", "tokens", "updated")

    def __init__(self, spec: QuotaSpec):
        self.rate = float(spec.rate)
        self.burst = float(spec.burst)
        self.tokens = float(spec.burst)
        self.updated = 0.0

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self.updated)
        if elapsed > 0.0:
            self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
            self.updated = now

    def wait(self) -> float:
        """Virtual seconds until one token is available at the current fill
        (0.0 when one already is).  Reads the bucket; never refills it."""
        if self.tokens >= 1.0:
            return 0.0
        return (1.0 - self.tokens) / self.rate

    def ready_time(self, now: float) -> float:
        """Earliest virtual time >= ``now`` at which one token is available."""
        self._refill(now)
        wait = self.wait()
        return now + wait if wait else now

    def available(self, now: float) -> int:
        """Whole tokens on hand at virtual time ``now`` (negative balances —
        overdraft — report as 0)."""
        self._refill(now)
        return int(self.tokens)

    def take(self, now: float) -> None:
        """Consume one token at virtual time ``now``."""
        self._refill(now)
        self.tokens -= 1.0


class WeightedFairQueue:
    """Start-time-free WFQ over lanes with deterministic tie-breaking.

    Each lane accumulates *normalised virtual service*: after a batch of
    virtual duration ``T`` is dispatched from lane ``L``, ``vtime[L] += T /
    weight(L)``.  The next dispatch goes to the backlogged lane with the
    smallest counter (ties broken by lane name), so while several lanes are
    backlogged their served virtual time converges to the weight ratio.
    Lanes that go idle are caught up to the minimum backlogged counter when
    they return, so an idle lane cannot bank unbounded credit and starve the
    others on re-entry.
    """

    def __init__(self, lanes: dict[str, LaneSpec]):
        self.lanes = dict(lanes)
        self.vtime: dict[str, float] = {name: 0.0 for name in self.lanes}

    def pick(self, backlogged: list[str]) -> str:
        """The backlogged lane to serve next; advances idle lanes' counters."""
        if not backlogged:
            raise ValueError("no backlogged lanes to pick from")
        for name in backlogged:
            if name not in self.lanes:
                raise KeyError(f"unknown lane {name!r}")
        floor = min(self.vtime[name] for name in backlogged)
        for name in self.lanes:
            if name not in backlogged and self.vtime[name] < floor:
                self.vtime[name] = floor
        return min(backlogged, key=lambda name: (self.vtime[name], name))

    def charge(self, lane: str, virtual_seconds: float) -> None:
        """Account a dispatched batch's virtual duration to its lane."""
        self.vtime[lane] += float(virtual_seconds) / self.lanes[lane].weight
