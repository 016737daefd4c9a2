"""Tests for concurrent-query scheduling / response-time simulation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.scheduler import simulate_fifo_pool


class TestFifoPool:
    def test_single_server_is_cumulative(self):
        r = simulate_fifo_pool([1.0, 2.0, 3.0], 1)
        assert r.tolist() == [1.0, 3.0, 6.0]

    def test_enough_servers_no_queueing(self):
        r = simulate_fifo_pool([5.0, 4.0, 3.0], 3)
        assert r.tolist() == [5.0, 4.0, 3.0]

    def test_two_servers(self):
        r = simulate_fifo_pool([4.0, 1.0, 1.0, 1.0], 2)
        # server A: q0 (0-4); server B: q1 (0-1), q2 (1-2), q3 (2-3)
        assert r.tolist() == [4.0, 1.0, 2.0, 3.0]

    def test_arrival_times_respected(self):
        r = simulate_fifo_pool([1.0, 1.0], 1, arrival_times=[0.0, 10.0])
        assert r.tolist() == [1.0, 1.0]  # second arrives after first finished

    def test_arrival_order_not_index_order(self):
        r = simulate_fifo_pool([1.0, 1.0], 1, arrival_times=[5.0, 0.0])
        # query 1 (arrives first) runs 0-1; query 0 runs 5-6
        assert r.tolist() == [1.0, 1.0]

    def test_zero_service_times(self):
        r = simulate_fifo_pool([0.0, 0.0], 1)
        assert r.tolist() == [0.0, 0.0]

    def test_invalid_concurrency(self):
        with pytest.raises(ValueError):
            simulate_fifo_pool([1.0], 0)

    def test_negative_service_rejected(self):
        with pytest.raises(ValueError):
            simulate_fifo_pool([-1.0], 1)

    @pytest.mark.parametrize(
        "service, arrivals",
        [
            ([1.0, float("nan")], None),
            ([1.0, float("inf")], None),
            ([1.0, 2.0], [0.0, float("nan")]),
            ([1.0, 2.0], [0.0, float("inf")]),
            ([1.0, 2.0], [0.0, -5.0]),
        ],
        ids=["nan-service", "inf-service", "nan-arrival", "inf-arrival",
             "negative-arrival"],
    )
    def test_inputs_the_service_refuses_are_rejected(self, service, arrivals):
        with pytest.raises(ValueError, match="finite and non-negative"):
            simulate_fifo_pool(service, 2, arrival_times=arrivals)

    def test_mismatched_arrivals_rejected(self):
        with pytest.raises(ValueError):
            simulate_fifo_pool([1.0, 2.0], 1, arrival_times=[0.0])

    @settings(max_examples=60, deadline=None)
    @given(
        service=st.lists(st.floats(0, 10), min_size=1, max_size=40),
        c=st.integers(1, 8),
    )
    def test_pool_invariants(self, service, c):
        r = simulate_fifo_pool(service, c)
        service = np.asarray(service)
        # response >= own service time
        assert (r >= service - 1e-12).all()
        # wider pools never hurt
        r_wider = simulate_fifo_pool(service, c + 1)
        assert (r_wider <= r + 1e-9).all()
        # total completion conserved: sum of service <= c * makespan
        makespan = r.max()
        assert service.sum() <= c * makespan + 1e-9
