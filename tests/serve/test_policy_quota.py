"""Unit coverage for the pure serving pieces: tenant quotas and rate buckets.

Both are deliberately thread-free and clock-injected, so every branch
is exercised here against a :class:`~repro.resilience.ManualClock`
without spawning the front-end at all.
"""

import pytest

from repro.errors import ServeError
from repro.resilience import ManualClock
from repro.serve import TenantQuota, TokenBucket


class TestTenantQuota:
    def test_capacity_defaults_to_one_second_of_rate(self):
        assert TenantQuota(max_requests_per_second=5.0).capacity == 5.0
        assert TenantQuota(max_requests_per_second=0.5).capacity == 1.0
        assert TenantQuota(max_requests_per_second=5.0, burst=2).capacity == 2.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_queue_depth": 0},
            {"max_requests_per_second": 0.0},
            {"max_requests_per_second": -1.0},
            {"burst": 0},
        ],
    )
    def test_misconfiguration_is_a_structured_error(self, kwargs):
        with pytest.raises(ServeError):
            TenantQuota(**kwargs)


class TestTokenBucket:
    def test_starts_full_then_rejects_past_capacity(self):
        clock = ManualClock()
        bucket = TokenBucket(rate=1.0, capacity=3.0, clock=clock)
        assert [bucket.try_acquire() for _ in range(5)] == [
            True,
            True,
            True,
            False,
            False,
        ]

    def test_refills_continuously_at_rate(self):
        clock = ManualClock()
        bucket = TokenBucket(rate=2.0, capacity=2.0, clock=clock)
        assert bucket.try_acquire() and bucket.try_acquire()
        assert not bucket.try_acquire()
        clock.advance(0.25)  # half a token: still short
        assert not bucket.try_acquire()
        clock.advance(0.25)  # now a full token has accrued
        assert bucket.try_acquire()

    def test_refill_caps_at_capacity(self):
        clock = ManualClock()
        bucket = TokenBucket(rate=10.0, capacity=2.0, clock=clock)
        clock.advance(100.0)
        assert bucket.available() == pytest.approx(2.0)
        assert bucket.try_acquire() and bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_invalid_parameters_are_structured_errors(self):
        clock = ManualClock()
        with pytest.raises(ServeError):
            TokenBucket(rate=0.0, capacity=1.0, clock=clock)
        with pytest.raises(ServeError):
            TokenBucket(rate=1.0, capacity=0.5, clock=clock)
