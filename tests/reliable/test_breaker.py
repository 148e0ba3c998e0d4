"""Circuit-breaker state machine and registry tests (ManualClock-driven)."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.reliable import BreakerConfig, BreakerRegistry, BreakerState, CircuitBreaker
from repro.util.clock import ManualClock


@pytest.fixture
def clock():
    return ManualClock()


CFG = BreakerConfig(
    consecutive_failures=3,
    failure_rate=0.5,
    window=10.0,
    min_samples=4,
    open_for=5.0,
    half_open_probes=1,
)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BreakerConfig(consecutive_failures=0)
        with pytest.raises(ValueError):
            BreakerConfig(failure_rate=0.0)
        with pytest.raises(ValueError):
            BreakerConfig(failure_rate=1.5)
        with pytest.raises(ValueError):
            BreakerConfig(open_for=0.0)
        with pytest.raises(ValueError):
            BreakerConfig(half_open_probes=0)


class TestStateMachine:
    def test_starts_closed_and_allows(self, clock):
        b = CircuitBreaker(CFG, clock)
        assert b.state == BreakerState.CLOSED
        assert b.allow()

    def test_consecutive_failures_trip(self, clock):
        b = CircuitBreaker(CFG, clock)
        for _ in range(2):
            b.record_failure()
        assert b.state == BreakerState.CLOSED
        b.record_failure()
        assert b.state == BreakerState.OPEN
        assert not b.allow()

    def test_success_resets_consecutive_count(self, clock):
        # rate trip disabled (min_samples unreachable) to isolate the counter
        cfg = BreakerConfig(consecutive_failures=3, min_samples=100)
        b = CircuitBreaker(cfg, clock)
        for _ in range(2):
            b.record_failure()
        b.record_success()
        for _ in range(2):
            b.record_failure()
        assert b.state == BreakerState.CLOSED

    def test_failure_rate_trips_with_enough_samples(self, clock):
        b = CircuitBreaker(CFG, clock)
        # 2 failures / 4 samples = 50% >= threshold, consecutive never hit
        b.record_failure()
        b.record_success()
        b.record_success()
        b.record_failure()
        assert b.state == BreakerState.OPEN

    def test_rate_needs_min_samples(self, clock):
        b = CircuitBreaker(CFG, clock)
        b.record_failure()
        b.record_success()
        b.record_failure()  # 2/3 > 50% but only 3 samples
        assert b.state == BreakerState.CLOSED

    def test_old_samples_age_out_of_the_window(self, clock):
        b = CircuitBreaker(CFG, clock)
        b.record_failure()
        b.record_failure()
        clock.advance(11.0)  # past window
        b.record_success()
        b.record_success()
        b.record_failure()
        # the two aged-out failures don't count: in-window rate is 2/4,
        # which trips exactly at the 0.5 threshold
        b.record_failure()
        assert b.state == BreakerState.OPEN

    def test_half_open_after_open_for(self, clock):
        b = CircuitBreaker(CFG, clock)
        for _ in range(3):
            b.record_failure()
        assert not b.allow()
        clock.advance(5.0)
        assert b.state == BreakerState.HALF_OPEN
        assert b.allow()  # the probe ticket
        assert not b.allow()  # only one probe at a time

    def test_probe_success_closes(self, clock):
        b = CircuitBreaker(CFG, clock)
        for _ in range(3):
            b.record_failure()
        clock.advance(5.0)
        assert b.allow()
        b.record_success()
        assert b.state == BreakerState.CLOSED
        # the window was cleared: old failures don't linger
        assert b.snapshot()["window_samples"] == 0

    def test_probe_failure_reopens(self, clock):
        b = CircuitBreaker(CFG, clock)
        for _ in range(3):
            b.record_failure()
        clock.advance(5.0)
        assert b.allow()
        b.record_failure()
        assert b.state == BreakerState.OPEN
        assert not b.allow()
        clock.advance(5.0)
        assert b.state == BreakerState.HALF_OPEN

    def test_transition_callback(self, clock):
        seen = []
        b = CircuitBreaker(CFG, clock, on_transition=lambda f, t: seen.append((f, t)))
        for _ in range(3):
            b.record_failure()
        clock.advance(5.0)
        assert b.allow()
        b.record_success()
        assert seen == [
            (BreakerState.CLOSED, BreakerState.OPEN),
            (BreakerState.OPEN, BreakerState.HALF_OPEN),
            (BreakerState.HALF_OPEN, BreakerState.CLOSED),
        ]


class TestRegistry:
    def test_per_destination_isolation(self, clock):
        reg = BreakerRegistry(CFG, clock, metrics=MetricsRegistry())
        for _ in range(3):
            reg.record("dead:80", ok=False)
        assert not reg.allow("dead:80")
        assert reg.allow("fine:80")
        assert reg.rejected == 1

    def test_half_open_urls_stay_eligible(self, clock):
        reg = BreakerRegistry(CFG, clock, metrics=MetricsRegistry())
        for _ in range(3):
            reg.record("d:80", ok=False)
        assert reg.state("d:80") == "open"
        assert not reg.allow("d:80")
        clock.advance(5.0)
        assert reg.state("d:80") == "half_open"
        assert reg.allow("d:80")  # half-open: probes ride traffic

    def test_snapshot_and_metrics(self, clock):
        metrics = MetricsRegistry()
        reg = BreakerRegistry(CFG, clock, metrics=metrics)
        reg.record("a:1", ok=True)
        for _ in range(3):
            reg.record("b:2", ok=False)
        reg.allow("b:2")
        snap = reg.snapshot()
        assert snap["states"] == {"closed": 1, "open": 1, "half_open": 0}
        assert snap["destinations"]["b:2"]["state"] == "open"
        assert snap["rejected"] == 1
        assert reg.stats == {
            "destinations": 2, "open": 1, "half_open": 0, "rejected": 1
        }
        rendered = metrics.render_prometheus()
        assert 'rt_breaker_state{dest="b:2"} 1' in rendered
        assert 'rt_breaker_transitions_total{dest="b:2",to="open"} 1' in rendered
        assert 'rt_breaker_rejected_total{dest="b:2"} 1' in rendered
