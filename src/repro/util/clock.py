"""Clock abstraction so the same code runs on wall-clock or simulated time.

The threaded runtime (:mod:`repro.rt`) uses :class:`MonotonicClock`; tests
use :class:`ManualClock`; the discrete-event kernel exposes its own clock
through the same protocol (see :class:`repro.simnet.kernel.Simulator`).
"""

from __future__ import annotations

import threading
import time
from typing import Protocol, runtime_checkable


@runtime_checkable
class Clock(Protocol):
    """Minimal time source: current time in seconds plus a sleep."""

    def now(self) -> float:
        """Current time in seconds (monotonic within one clock instance)."""
        ...

    def sleep(self, seconds: float) -> None:
        """Block the caller for ``seconds`` of this clock's time."""
        ...


class MonotonicClock:
    """Wall-clock backed by :func:`time.monotonic`."""

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


class ManualClock:
    """A clock advanced explicitly by tests.

    ``sleep`` advances time immediately (it never blocks); this keeps
    timeout-handling code testable without real delays.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._lock = threading.Lock()

    def now(self) -> float:
        with self._lock:
            return self._now

    def advance(self, seconds: float) -> None:
        """Move time forward."""
        if seconds < 0:
            raise ValueError("cannot move time backwards")
        with self._lock:
            self._now += seconds

    def sleep(self, seconds: float) -> None:
        if seconds <= 0:
            return
        with self._lock:
            self._now += seconds
