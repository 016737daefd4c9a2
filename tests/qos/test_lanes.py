"""Lane/quota policy objects: validation, parsing and deterministic state.

TokenBucket and WeightedFairQueue advance on the *virtual* clock only, so
every assertion here is exact — there is no wall-clock jitter to tolerate.
"""

import pytest

from repro.core.frontier import MAX_WIDE_BATCH
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


class TestSpecs:
    def test_lane_weight_must_be_positive(self):
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="weight"):
                LaneSpec(weight=bad)

    def test_lane_batch_width_bounds(self):
        LaneSpec(batch_width=1)
        LaneSpec(batch_width=64)
        for bad in (0, MAX_WIDE_BATCH + 1):
            with pytest.raises(ValueError, match="batch_width"):
                LaneSpec(batch_width=bad)

    def test_quota_validation(self):
        with pytest.raises(ValueError, match="rate"):
            QuotaSpec(rate=0.0)
        with pytest.raises(ValueError, match="rate"):
            QuotaSpec(rate=float("nan"))
        with pytest.raises(ValueError, match="burst"):
            QuotaSpec(rate=1.0, burst=0.5)

    def test_default_lanes_shape(self):
        lanes = default_lanes()
        assert set(lanes) == {INTERACTIVE_LANE, BULK_LANE}
        assert lanes[INTERACTIVE_LANE].weight > lanes[BULK_LANE].weight


class TestQosConfig:
    def test_default_lane_must_exist(self):
        with pytest.raises(ValueError, match="default lane"):
            QosConfig(lanes={"bulk": LaneSpec()}, default_lane="interactive")

    def test_requires_at_least_one_lane(self):
        with pytest.raises(ValueError, match="at least one lane"):
            QosConfig(lanes={})

    def test_specs_must_be_typed(self):
        with pytest.raises(TypeError, match="LaneSpec"):
            QosConfig(lanes={"interactive": 4.0})
        with pytest.raises(TypeError, match="QuotaSpec"):
            QosConfig(quotas={"crawler": 100.0})

    def test_from_cli_round_trip(self):
        cfg = QosConfig.from_cli(
            "interactive=8,bulk=1:32",
            ["crawler=2000:4", "frontend=1e6"],
        )
        assert cfg.lanes["interactive"] == LaneSpec(weight=8.0)
        assert cfg.lanes["bulk"] == LaneSpec(weight=1.0, batch_width=32)
        assert cfg.quotas["crawler"] == QuotaSpec(rate=2000.0, burst=4.0)
        assert cfg.quotas["frontend"] == QuotaSpec(rate=1e6, burst=1.0)
        assert cfg.default_lane == INTERACTIVE_LANE

    def test_from_cli_defaults(self):
        cfg = QosConfig.from_cli(None, None)
        assert cfg.lanes == default_lanes()
        assert cfg.quotas == {}

    def test_from_cli_default_lane_without_interactive(self):
        cfg = QosConfig.from_cli("batch=1,analytics=2")
        assert cfg.default_lane == "analytics"  # alphabetically first

    def test_from_cli_rejects_malformed(self):
        with pytest.raises(ValueError, match="lane spec"):
            QosConfig.from_cli("interactive")
        with pytest.raises(ValueError, match="quota spec"):
            QosConfig.from_cli(None, ["crawler"])


class TestTokenBucket:
    def test_starts_full_and_drains(self):
        b = TokenBucket(QuotaSpec(rate=10.0, burst=2.0))
        assert b.ready_time(0.0) == 0.0
        b.take(0.0)
        assert b.ready_time(0.0) == 0.0  # one token left
        b.take(0.0)
        # empty: next token refills at rate 10/s -> ready at 0.1
        assert b.ready_time(0.0) == pytest.approx(0.1)

    def test_refill_caps_at_burst(self):
        b = TokenBucket(QuotaSpec(rate=10.0, burst=2.0))
        b.take(0.0)
        b.take(0.0)
        b._refill(100.0)  # long idle: refills to burst, not beyond
        assert b.tokens == 2.0

    def test_non_monotone_probes_never_refund(self):
        """Eligibility is probed at non-monotone virtual instants (index
        lane at arrival, WFQ loop on the batch clock); going back in time
        must not mint tokens."""
        b = TokenBucket(QuotaSpec(rate=1.0, burst=1.0))
        b.take(10.0)
        assert b.ready_time(10.0) == pytest.approx(11.0)
        # probing at an earlier instant clamps elapsed to zero: the bucket
        # neither refills from the backwards jump nor loses its debt
        assert b.tokens == 0.0
        assert b.ready_time(5.0) == pytest.approx(6.0)  # now + full deficit
        assert b.tokens == 0.0

    def test_overdraft_pushes_ready_time_out(self):
        """Batch packing can overdraw (floor-one progress guarantee); the
        debt shows up as a later ready time, not an error."""
        b = TokenBucket(QuotaSpec(rate=2.0, burst=1.0))
        b.take(0.0)
        b.take(0.0)  # overdraft: tokens = -1
        assert b.tokens == -1.0
        assert b.ready_time(0.0) == pytest.approx(1.0)  # 2 tokens at rate 2


class TestWeightedFairQueue:
    def test_weighted_share_converges(self):
        wfq = WeightedFairQueue(
            {"interactive": LaneSpec(weight=4.0), "bulk": LaneSpec(weight=1.0)}
        )
        served = {"interactive": 0, "bulk": 0}
        for _ in range(50):
            lane = wfq.pick(["interactive", "bulk"])
            served[lane] += 1
            wfq.charge(lane, 1.0)  # equal-cost batches
        assert served["interactive"] == 40
        assert served["bulk"] == 10

    def test_tie_breaks_by_name(self):
        wfq = WeightedFairQueue({"a": LaneSpec(), "b": LaneSpec()})
        assert wfq.pick(["b", "a"]) == "a"

    def test_idle_lane_cannot_bank_credit(self):
        wfq = WeightedFairQueue(
            {"interactive": LaneSpec(weight=1.0), "bulk": LaneSpec(weight=1.0)}
        )
        for _ in range(20):  # bulk monopolises while interactive is idle
            assert wfq.pick(["bulk"]) == "bulk"
            wfq.charge("bulk", 1.0)
        # on re-entry the idle lane is caught up, not owed 20 seconds
        assert wfq.pick(["interactive", "bulk"]) == "interactive"
        wfq.charge("interactive", 1.0)
        assert abs(wfq.vtime["interactive"] - wfq.vtime["bulk"]) <= 1.0

    def test_unknown_and_empty_backlog_rejected(self):
        wfq = WeightedFairQueue({"a": LaneSpec()})
        with pytest.raises(ValueError, match="backlogged"):
            wfq.pick([])
        with pytest.raises(KeyError, match="unknown lane"):
            wfq.pick(["z"])

    def test_deterministic_replay(self):
        def run():
            wfq = WeightedFairQueue(
                {"a": LaneSpec(weight=3.0), "b": LaneSpec(weight=2.0)}
            )
            picks = []
            for i in range(30):
                lane = wfq.pick(["a", "b"] if i % 3 else ["b"])
                picks.append(lane)
                wfq.charge(lane, 0.25 + 0.1 * (i % 4))
            return picks, dict(wfq.vtime)

        assert run() == run()
