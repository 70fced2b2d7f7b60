"""Leases and the lease manager."""

import math

import pytest

from repro.core import FOREVER, Lease, LeaseManager, ManualClock
from repro.core.errors import LeaseDeniedError, LeaseExpiredError


@pytest.fixture
def clock():
    return ManualClock()


class TestLease:
    def test_remaining_counts_down(self, clock):
        lease = Lease(clock, 10.0)
        clock.advance(4.0)
        assert lease.remaining() == pytest.approx(6.0)

    def test_expiry(self, clock):
        lease = Lease(clock, 10.0)
        clock.advance(10.0)
        assert lease.expired
        assert lease.remaining() == 0.0

    def test_forever_never_expires(self, clock):
        lease = Lease(clock, FOREVER)
        clock.advance(1e12)
        assert not lease.expired
        assert math.isinf(lease.remaining())

    def test_renew_extends(self, clock):
        lease = Lease(clock, 10.0)
        clock.advance(5.0)
        lease.renew(20.0)
        assert lease.remaining() == pytest.approx(20.0)

    def test_renew_expired_rejected(self, clock):
        lease = Lease(clock, 1.0)
        clock.advance(2.0)
        with pytest.raises(LeaseExpiredError):
            lease.renew(10.0)

    def test_renew_bad_duration(self, clock):
        lease = Lease(clock, 10.0)
        with pytest.raises(LeaseDeniedError):
            lease.renew(-1.0)

    def test_renew_restarts_duration_window(self, clock):
        """Regression: ``renew`` moved ``expires_at`` without touching
        ``granted_at``, so ``duration`` silently inflated to the whole
        lifetime accumulated across renewals (here 25 s instead of 20)."""
        lease = Lease(clock, 10.0)
        clock.advance(5.0)
        lease.renew(20.0)
        assert lease.duration == pytest.approx(20.0)
        assert lease.granted_at == pytest.approx(5.0)

    def test_duration_is_the_granted_term_exactly(self, clock):
        """Regression: ``duration`` was ``expires_at - granted_at``, one
        ulp off when ``granted_at + term`` crosses a power of two (here
        0.1 + 0.3 rounds so the difference is 0.30000000000000004)."""
        clock.advance(0.1)
        lease = Lease(clock, 0.3)
        assert lease.duration == 0.3
        lease.renew(0.3)
        assert lease.duration == 0.3

    def test_renew_clamped_to_grant_cap(self, clock):
        """Regression: renewals ignored the ``max_lease`` policy the
        original grant enforced, so a client could renew past the cap."""
        manager = LeaseManager(clock, max_lease=10.0)
        lease = manager.grant(10.0)
        clock.advance(1.0)
        granted = lease.renew(1000.0)
        assert granted == pytest.approx(10.0)
        assert lease.remaining() == pytest.approx(10.0)

    def test_renew_within_cap_unclamped(self, clock):
        manager = LeaseManager(clock, max_lease=100.0)
        lease = manager.grant(10.0)
        assert lease.renew(50.0) == pytest.approx(50.0)
        assert lease.remaining() == pytest.approx(50.0)

    def test_renew_fires_hook(self, clock):
        renewed = []
        lease = Lease(clock, 10.0, on_renew=renewed.append)
        lease.renew(5.0)
        assert renewed == [lease]

    def test_direct_lease_has_no_cap(self, clock):
        lease = Lease(clock, 10.0)
        lease.renew(1e6)
        assert lease.remaining() == pytest.approx(1e6)

    def test_cancel_runs_hook_once(self, clock):
        calls = []
        lease = Lease(clock, 10.0, on_cancel=calls.append)
        lease.cancel()
        lease.cancel()
        assert len(calls) == 1
        assert lease.expired

    def test_nonpositive_duration_rejected(self, clock):
        with pytest.raises(LeaseDeniedError):
            Lease(clock, 0.0)


class TestLeaseManager:
    def test_default_duration(self, clock):
        manager = LeaseManager(clock, default_lease=30.0)
        assert manager.grant().duration == 30.0

    def test_clamped_to_max(self, clock):
        manager = LeaseManager(clock, max_lease=60.0)
        assert manager.grant(1000.0).duration == 60.0

    def test_explicit_duration(self, clock):
        manager = LeaseManager(clock)
        assert manager.grant(12.0).duration == 12.0

    def test_bad_request_rejected(self, clock):
        manager = LeaseManager(clock)
        with pytest.raises(LeaseDeniedError):
            manager.grant(-5.0)

    def test_bad_bounds_rejected(self, clock):
        with pytest.raises(LeaseDeniedError):
            LeaseManager(clock, max_lease=0.0)
