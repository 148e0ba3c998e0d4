"""Tests for clock abstractions."""

import time

import pytest

from repro.util.clock import Clock, ManualClock, MonotonicClock


def test_monotonic_clock_advances():
    clock = MonotonicClock()
    t0 = clock.now()
    clock.sleep(0.01)
    assert clock.now() >= t0 + 0.005


def test_monotonic_sleep_ignores_nonpositive():
    clock = MonotonicClock()
    t0 = time.monotonic()
    clock.sleep(0)
    clock.sleep(-1)
    assert time.monotonic() - t0 < 0.05


def test_manual_clock_starts_at_given_time():
    assert ManualClock(10.0).now() == 10.0


def test_manual_clock_advance():
    clock = ManualClock()
    clock.advance(5.0)
    assert clock.now() == 5.0


def test_manual_clock_advance_rejects_negative():
    with pytest.raises(ValueError):
        ManualClock().advance(-1)


def test_manual_clock_sleep_advances_immediately():
    clock = ManualClock()
    t0 = time.monotonic()
    clock.sleep(100.0)  # must not block
    assert clock.now() == 100.0
    assert time.monotonic() - t0 < 0.5


def test_clocks_satisfy_protocol():
    assert isinstance(MonotonicClock(), Clock)
    assert isinstance(ManualClock(), Clock)
