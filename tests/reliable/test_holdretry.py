"""Tests for the hold/retry store and duplicate filter."""

import pytest

from repro.errors import DeliveryExpired
from repro.reliable import (
    DuplicateFilter,
    FixedDelay,
    HeldMessage,
    HoldRetryStore,
)
from repro.util.clock import ManualClock


class FlakyTarget:
    """Delivery target that fails until ``up_at`` (per an injected clock)."""

    def __init__(self, clock, up_at: float):
        self.clock = clock
        self.up_at = up_at
        self.delivered: list[HeldMessage] = []
        self.attempts = 0

    def __call__(self, msg: HeldMessage) -> None:
        self.attempts += 1
        if self.clock.now() < self.up_at:
            raise ConnectionError("down")
        self.delivered.append(msg)


@pytest.fixture
def clock():
    return ManualClock()


class TestHoldRetryStore:
    def test_immediate_delivery(self, clock):
        target = FlakyTarget(clock, up_at=0.0)
        store = HoldRetryStore(target, clock=clock)
        store.hold("uuid:1", "http://svc/", b"<x/>")
        summary = store.pump()
        assert summary == {"due": 1, "delivered": 1, "failed": 0}
        assert store.pending() == 0
        assert [m.message_id for m in target.delivered] == ["uuid:1"]

    def test_retry_after_recovery(self, clock):
        target = FlakyTarget(clock, up_at=2.0)
        store = HoldRetryStore(
            target, policy=FixedDelay(max_attempts=10, delay=1.0), clock=clock
        )
        store.hold("uuid:1", "http://svc/", b"<x/>")
        for _ in range(6):
            store.pump()
            clock.advance(1.0)
        assert len(target.delivered) == 1
        assert target.attempts >= 2

    def test_hold_is_idempotent_per_message_id(self, clock):
        store = HoldRetryStore(lambda m: None, clock=clock)
        first = store.hold("uuid:1", "http://a/", b"1")
        second = store.hold("uuid:1", "http://b/", b"2")
        assert first is second
        assert store.pending() == 1

    def test_expiration_drops_message(self, clock):
        target = FlakyTarget(clock, up_at=1e9)
        store = HoldRetryStore(
            target,
            policy=FixedDelay(max_attempts=1000, delay=0.5),
            default_ttl=5.0,
            clock=clock,
        )
        store.hold("uuid:1", "http://svc/", b"<x/>")
        for _ in range(12):
            store.pump()
            clock.advance(1.0)
        assert store.pending() == 0
        assert store.stats["expired"] == 1
        assert target.delivered == []

    def test_retry_budget_exhaustion_expires(self, clock):
        target = FlakyTarget(clock, up_at=1e9)
        store = HoldRetryStore(
            target, policy=FixedDelay(max_attempts=2, delay=0.1), clock=clock
        )
        store.hold("uuid:1", "http://svc/", b"<x/>", ttl=100.0)
        for _ in range(5):
            store.pump()
            clock.advance(0.2)
        assert store.pending() == 0
        assert target.attempts == 2

    def test_custom_ttl(self, clock):
        store = HoldRetryStore(
            FlakyTarget(clock, up_at=1e9),
            policy=FixedDelay(max_attempts=99, delay=0.1),
            default_ttl=1000.0,
            clock=clock,
        )
        store.hold("uuid:1", "http://svc/", b"<x/>", ttl=1.0)
        clock.advance(2.0)
        store.pump()
        assert store.pending() == 0

    def test_run_until_empty_success(self, clock):
        target = FlakyTarget(clock, up_at=0.0)
        store = HoldRetryStore(target, clock=clock)
        store.hold("uuid:1", "http://svc/", b"<x/>")
        store.run_until_empty(timeout=5.0)
        assert store.pending() == 0

    def test_run_until_empty_timeout(self, clock):
        target = FlakyTarget(clock, up_at=1e9)
        store = HoldRetryStore(
            target,
            policy=FixedDelay(max_attempts=10**6, delay=0.0),
            default_ttl=1e9,
            clock=clock,
        )
        store.hold("uuid:1", "http://svc/", b"<x/>")
        with pytest.raises(DeliveryExpired):
            store.run_until_empty(timeout=1.0)

    def test_stats_shape(self, clock):
        store = HoldRetryStore(FlakyTarget(clock, 0.0), clock=clock)
        store.hold("uuid:1", "http://svc/", b"<x/>")
        store.pump()
        assert store.stats == {
            "held": 1,
            "delivered": 1,
            "expired": 0,
            "attempts": 1,
            "restored": 0,
        }


class TestDuplicateFilter:
    def test_first_sighting_passes(self, clock):
        f = DuplicateFilter(window=10.0, clock=clock)
        assert f.seen("uuid:1") is False

    def test_duplicate_within_window_caught(self, clock):
        f = DuplicateFilter(window=10.0, clock=clock)
        f.seen("uuid:1")
        clock.advance(5.0)
        assert f.seen("uuid:1") is True

    def test_expired_entry_passes_again(self, clock):
        f = DuplicateFilter(window=10.0, clock=clock)
        f.seen("uuid:1")
        clock.advance(11.0)
        assert f.seen("uuid:1") is False

    def test_table_cleanup_bounds_memory(self, clock):
        f = DuplicateFilter(window=1.0, clock=clock)
        for i in range(5000):
            f.seen(f"uuid:{i}")
        clock.advance(2.0)
        f.seen("uuid:trigger-cleanup")
        assert len(f._seen) < 5000  # the expired ids left the table

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            DuplicateFilter(window=0)
