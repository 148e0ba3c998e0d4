"""Per-destination circuit breakers: the registry client's replicas.

:class:`~repro.registry.client.ReplicatedRegistryClient` keeps one breaker
per registry replica, so a dead replica is skipped instead of costing
every lookup a connect timeout.  A breaker sits between the caller and
the replica:

```
            failure threshold reached
  CLOSED ────────────────────────────────▶ OPEN
    ▲                                        │
    │ probe succeeds                         │ open_for elapsed
    │                                        ▼
    └──────────────────────────────────  HALF_OPEN
                 probe fails ───────────────▶ (back to OPEN)
```

- **closed**: traffic flows; failures are sampled in a rolling window.
  The breaker trips on ``consecutive_failures`` in a row *or* on a
  failure rate ≥ ``failure_rate`` once ``min_samples`` outcomes landed
  inside ``window`` seconds.
- **open**: every ``allow()`` is denied for ``open_for`` seconds — the
  client skips the replica instead of burning an attempt on it.
- **half-open**: up to ``half_open_probes`` trial deliveries pass
  through; one success closes the breaker, one failure re-opens it.

All time comes from an injected :class:`~repro.util.clock.Clock`, so the
same state machine runs on wall-clock threads, the simulation kernel, and
ManualClock tests — deterministically.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.obs.flight import FlightRecorder, default_flight_recorder
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.util.clock import Clock, MonotonicClock


class BreakerState:
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerConfig:
    """Thresholds for one destination's breaker.

    ``consecutive_failures`` trips fast on a hard-down destination;
    ``failure_rate`` over the rolling ``window`` catches flapping or
    lossy destinations that intersperse occasional successes.
    """

    consecutive_failures: int = 5
    failure_rate: float = 0.5
    window: float = 30.0
    min_samples: int = 10
    open_for: float = 5.0
    half_open_probes: int = 1

    def __post_init__(self) -> None:
        if self.consecutive_failures < 1:
            raise ValueError("consecutive_failures must be >= 1")
        if not 0.0 < self.failure_rate <= 1.0:
            raise ValueError("failure_rate must be in (0, 1]")
        if self.window <= 0 or self.open_for <= 0:
            raise ValueError("window and open_for must be positive")
        if self.min_samples < 1 or self.half_open_probes < 1:
            raise ValueError("min_samples and half_open_probes must be >= 1")


class CircuitBreaker:
    """The closed → open → half-open state machine for one destination."""

    def __init__(
        self,
        config: BreakerConfig | None = None,
        clock: Clock | None = None,
        on_transition: Callable[[str, str], None] | None = None,
    ) -> None:
        self.config = config or BreakerConfig()
        self.clock = clock or MonotonicClock()
        self._on_transition = on_transition
        self._lock = threading.Lock()
        self._state = BreakerState.CLOSED
        self._consecutive = 0
        self._samples: deque[tuple[float, bool]] = deque()
        self._opened_at = 0.0
        self._probes_inflight = 0
        self.transitions = 0

    # -- public surface ----------------------------------------------------
    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open(self.clock.now())
            return self._state

    def allow(self) -> bool:
        """May a delivery attempt proceed right now?

        In half-open state each True answer hands out one probe ticket;
        the caller must report the outcome via :meth:`record_success` or
        :meth:`record_failure` to return it.
        """
        now = self.clock.now()
        with self._lock:
            self._maybe_half_open(now)
            if self._state == BreakerState.OPEN:
                return False
            if self._state == BreakerState.HALF_OPEN:
                if self._probes_inflight >= self.config.half_open_probes:
                    return False
                self._probes_inflight += 1
                return True
            return True

    def record_success(self) -> None:
        now = self.clock.now()
        with self._lock:
            if self._state == BreakerState.HALF_OPEN:
                self._probes_inflight = max(0, self._probes_inflight - 1)
                self._transition(BreakerState.CLOSED)
                return
            if self._state == BreakerState.CLOSED:
                self._consecutive = 0
                self._push_sample(now, True)

    def record_failure(self) -> None:
        now = self.clock.now()
        with self._lock:
            if self._state == BreakerState.HALF_OPEN:
                self._probes_inflight = max(0, self._probes_inflight - 1)
                self._opened_at = now
                self._transition(BreakerState.OPEN)
                return
            if self._state != BreakerState.CLOSED:
                return
            self._consecutive += 1
            self._push_sample(now, False)
            if self._consecutive >= self.config.consecutive_failures:
                self._trip(now)
                return
            total = len(self._samples)
            if total >= self.config.min_samples:
                failures = sum(1 for _, ok in self._samples if not ok)
                if failures / total >= self.config.failure_rate:
                    self._trip(now)

    def snapshot(self) -> dict:
        with self._lock:
            self._maybe_half_open(self.clock.now())
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive,
                "window_samples": len(self._samples),
                "transitions": self.transitions,
            }

    # -- internals (call under lock) ---------------------------------------
    def _maybe_half_open(self, now: float) -> None:
        if (
            self._state == BreakerState.OPEN
            and now - self._opened_at >= self.config.open_for
        ):
            self._probes_inflight = 0
            self._transition(BreakerState.HALF_OPEN)

    def _trip(self, now: float) -> None:
        self._opened_at = now
        self._transition(BreakerState.OPEN)

    def _push_sample(self, now: float, ok: bool) -> None:
        self._samples.append((now, ok))
        cutoff = now - self.config.window
        while self._samples and self._samples[0][0] < cutoff:
            self._samples.popleft()

    def _transition(self, to: str) -> None:
        if to == self._state:
            return
        from_state, self._state = self._state, to
        self.transitions += 1
        if to == BreakerState.CLOSED:
            self._consecutive = 0
            self._samples.clear()
        if self._on_transition is not None:
            self._on_transition(from_state, to)


_STATE_GAUGE = {BreakerState.CLOSED: 0.0, BreakerState.OPEN: 1.0,
                BreakerState.HALF_OPEN: 2.0}


class BreakerRegistry:
    """One :class:`CircuitBreaker` per destination key (``host:port``).

    The registry is the integration surface: the registry client calls
    :meth:`allow` / :meth:`record` per replica, and :meth:`snapshot` is
    the introspection view.  Metrics:

    - ``rt_breaker_state{dest}`` — 0 closed, 1 open, 2 half-open
    - ``rt_breaker_transitions_total{dest,to}``
    - ``rt_breaker_rejected_total{dest}`` — attempts denied by allow()
    """

    def __init__(
        self,
        config: BreakerConfig | None = None,
        clock: Clock | None = None,
        metrics: MetricsRegistry | None = None,
        flight: FlightRecorder | None = None,
    ) -> None:
        """``flight`` records every state transition as a
        ``breaker-<to_state>`` event — breaker trips are the flight
        recorder's bread and butter."""
        self.config = config or BreakerConfig()
        self.clock = clock or MonotonicClock()
        self.metrics = metrics if metrics is not None else default_registry()
        self.flight = flight if flight is not None else default_flight_recorder()
        self._m_state = self.metrics.gauge(
            "rt_breaker_state",
            "circuit state per destination (0=closed, 1=open, 2=half_open)",
        )
        self._m_transitions = self.metrics.counter(
            "rt_breaker_transitions_total", "breaker state transitions"
        )
        self._m_rejected = self.metrics.counter(
            "rt_breaker_rejected_total",
            "delivery attempts denied by an open breaker",
        )
        self._breakers: dict[str, CircuitBreaker] = {}
        self._lock = threading.Lock()
        self.rejected = 0

    def breaker_for(self, dest: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(dest)
            if breaker is None:
                def note(from_state: str, to: str, _dest: str = dest) -> None:
                    self._m_transitions.labels(dest=_dest, to=to).inc()
                    self._m_state.labels(dest=_dest).set(_STATE_GAUGE[to])
                    self.flight.record(
                        f"breaker-{to}", "breaker", t=self.clock.now(),
                        dest=_dest, from_state=from_state,
                    )

                breaker = CircuitBreaker(self.config, self.clock, note)
                self._m_state.labels(dest=dest).set(0.0)
                self._breakers[dest] = breaker
            return breaker

    def allow(self, dest: str) -> bool:
        if self.breaker_for(dest).allow():
            return True
        with self._lock:
            self.rejected += 1
        self._m_rejected.labels(dest=dest).inc()
        return False

    def record(self, dest: str, ok: bool) -> None:
        breaker = self.breaker_for(dest)
        if ok:
            breaker.record_success()
        else:
            breaker.record_failure()

    def state(self, dest: str) -> str:
        return self.breaker_for(dest).state

    # -- introspection -----------------------------------------------------
    def snapshot(self) -> dict:
        with self._lock:
            breakers = dict(self._breakers)
            rejected = self.rejected
        per_dest = {dest: b.snapshot() for dest, b in sorted(breakers.items())}
        by_state = {"closed": 0, "open": 0, "half_open": 0}
        for snap in per_dest.values():
            by_state[snap["state"]] += 1
        return {
            "destinations": per_dest,
            "states": by_state,
            "rejected": rejected,
        }

    @property
    def stats(self) -> dict[str, int]:
        snap = self.snapshot()
        return {
            "destinations": len(snap["destinations"]),
            "open": snap["states"]["open"],
            "half_open": snap["states"]["half_open"],
            "rejected": snap["rejected"],
        }
