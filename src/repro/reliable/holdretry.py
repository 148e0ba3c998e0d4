"""Hold/retry store: at-least-once delivery with expiration.

The store holds messages that could not be delivered, redelivers them on a
policy-driven schedule, and expires them after a deadline (the paper:
"messages stored in DB with expiration time").  In-memory is the default;
passing ``durable=`` a :class:`~repro.store.MessageJournal` makes held
messages survive a crash — they are journaled on intake, marked on
delivery, dead-lettered on expiry, and :meth:`HoldRetryStore.restore`
reloads the survivors on restart.  Expiry deadlines are kept on the
store's own clock in memory but on the journal's wall clock on disk,
because monotonic clocks restart from an arbitrary zero and would
resurrect long-dead deadlines.  Because redelivery makes duplicates
possible, the receiving side pairs it with :class:`DuplicateFilter`,
which suppresses repeated ``wsa:MessageID`` values inside a sliding
window.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.errors import DeliveryExpired
from repro.obs.flight import FlightRecorder, default_flight_recorder
from repro.reliable.policy import RetryPolicy, ExponentialBackoff
from repro.store.journal import DEAD, DELIVERED
from repro.util.clock import Clock, MonotonicClock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.obs.metrics import MetricsRegistry
    from repro.store import MessageJournal


@dataclass
class HeldMessage:
    """One message awaiting (re)delivery."""

    message_id: str
    target_url: str
    envelope_bytes: bytes
    expires_at: float
    attempts: int = 0
    next_attempt_at: float = 0.0
    #: sequence number in the durable journal, when there is one
    journal_seq: int | None = None


@dataclass
class _StoreStats:
    held: int = 0
    delivered: int = 0
    expired: int = 0
    attempts: int = 0
    restored: int = 0


class HoldRetryStore:
    """Store-and-forward buffer with retry scheduling and expiration.

    ``deliver`` is the transmission function :meth:`pump` calls (returns
    normally on success, raises on failure) when the store is driven on
    its own; the store never touches the network itself.  A dispatcher
    drives the claim API instead and never calls ``deliver``: its
    redeliveries ride the destination queues
    (:meth:`~repro.core.dispatch.DispatchCore.requeue_due`).
    """

    def __init__(
        self,
        deliver: Callable[[HeldMessage], None] | None = None,
        policy: RetryPolicy | None = None,
        default_ttl: float = 300.0,
        clock: Clock | None = None,
        durable: "MessageJournal | None" = None,
        metrics: "MetricsRegistry | None" = None,
        flight: FlightRecorder | None = None,
    ) -> None:
        self._deliver = deliver
        self.policy = policy or ExponentialBackoff(jitter=True)
        self.default_ttl = default_ttl
        self.clock = clock or MonotonicClock()
        self._durable = durable
        self.flight = flight if flight is not None else default_flight_recorder()
        self._m_dead = (
            metrics.counter(
                "dispatcher_deadletter_total",
                "Messages moved to the dead-letter queue, by reason",
            )
            if metrics is not None
            else None
        )
        self._held: dict[str, HeldMessage] = {}
        #: MessageIDs claimed by take_due() and not yet resolved — the
        #: expiry scan must not touch these, or a message whose redelivery
        #: is in flight could be counted both delivered and expired.
        self._inflight: set[str] = set()
        self._lock = threading.Lock()
        self._stats = _StoreStats()

    @property
    def durable(self) -> "MessageJournal | None":
        """The backing journal, or None for a memory-only store."""
        return self._durable

    def _dead_letter(self, msg: HeldMessage, reason: str) -> None:
        if self._durable is not None and msg.journal_seq is not None:
            self._durable.mark(msg.journal_seq, DEAD, reason=reason)
        if self._m_dead is not None:
            self._m_dead.labels(reason=reason).inc()
        self.flight.record(
            "hold-expired", "holdretry", t=self.clock.now(),
            message_id=msg.message_id, reason=reason,
            dest=msg.target_url, attempts=msg.attempts,
        )

    # -- intake ----------------------------------------------------------
    def hold(
        self,
        message_id: str,
        target_url: str,
        envelope_bytes: bytes,
        ttl: float | None = None,
    ) -> HeldMessage:
        """Accept a message for later delivery (idempotent per MessageID)."""
        now = self.clock.now()
        ttl_s = ttl if ttl is not None else self.default_ttl
        with self._lock:
            existing = self._held.get(message_id)
            if existing is not None:
                return existing
            msg = HeldMessage(
                message_id=message_id,
                target_url=target_url,
                envelope_bytes=envelope_bytes,
                expires_at=now + ttl_s,
                next_attempt_at=now,
            )
            self._held[message_id] = msg
            self._stats.held += 1
        if self._durable is not None:
            # Journaled outside the lock — a group commit may block.  The
            # deadline is recorded on the journal's wall clock so it still
            # means something after a restart (the store clock does not).
            msg.journal_seq = self._durable.append(
                message_id,
                target_url,
                envelope_bytes,
                kind="held",
                expires_at=self._durable.wall_now() + ttl_s,
            )
        return msg

    # -- claim API ----------------------------------------------------------
    # The split-phase protocol external drivers (dispatchers, simulation
    # pump processes) use: take_due() claims messages, then each claim is
    # resolved with exactly one of complete() / reschedule().  Claimed
    # messages are invisible to the expiry scan, so a message can never be
    # counted both delivered and expired even when a redelivery races its
    # TTL.
    def take_due(self, now: float | None = None) -> list[HeldMessage]:
        """Claim every due, unclaimed message for delivery.

        Expired (and retry-exhausted) unclaimed messages are dropped and
        counted here.  Each returned message has had its attempt counted;
        resolve it with :meth:`complete` or :meth:`reschedule`.
        """
        if now is None:
            now = self.clock.now()
        due: list[HeldMessage] = []
        with self._lock:
            for mid in list(self._held):
                if mid in self._inflight:
                    continue
                msg = self._held[mid]
                if msg.expires_at <= now:
                    del self._held[mid]
                    self._stats.expired += 1
                    self._dead_letter(msg, "expired")
                    continue
                if msg.next_attempt_at <= now:
                    msg.attempts += 1
                    self._stats.attempts += 1
                    if self._durable is not None and msg.journal_seq is not None:
                        self._durable.note_attempt(msg.journal_seq)
                    self._inflight.add(mid)
                    due.append(msg)
        return due

    def complete(self, message_id: str) -> bool:
        """Resolve a claim as delivered.  Idempotent; returns False when
        the message is not held (already completed, expired, or never
        taken)."""
        with self._lock:
            self._inflight.discard(message_id)
            msg = self._held.pop(message_id, None)
            if msg is None:
                return False
            self._stats.delivered += 1
        if self._durable is not None and msg.journal_seq is not None:
            self._durable.mark(msg.journal_seq, DELIVERED)
        return True

    def reschedule(self, message_id: str, now: float | None = None) -> bool:
        """Resolve a claim as failed: re-queue per policy, or expire when
        the retry budget or TTL is exhausted.  Returns True when the
        message remains held for another attempt."""
        if now is None:
            now = self.clock.now()
        with self._lock:
            self._inflight.discard(message_id)
            msg = self._held.get(message_id)
            if msg is None:
                return False
            if msg.expires_at <= now or not self.policy.should_retry(msg.attempts):
                del self._held[message_id]
                self._stats.expired += 1
                self._dead_letter(
                    msg,
                    "expired" if msg.expires_at <= now else "retries_exhausted",
                )
                return False
            msg.next_attempt_at = now + self.policy.delay_before(msg.attempts + 1)
            return True

    def is_held(self, message_id: str) -> bool:
        with self._lock:
            return message_id in self._held

    # -- recovery ------------------------------------------------------------
    def restore(self) -> int:
        """Reload undelivered held messages from the journal (idempotent).

        Wall-clock deadlines on disk are converted back to deadlines on
        this store's clock (``remaining = expires_at - wall_now()``), so a
        restart neither extends nor truncates a message's TTL.  Records
        whose deadline passed while the process was down are dead-lettered
        here rather than resurrected.  Returns the number restored.
        """
        if self._durable is None:
            return 0
        wall = self._durable.wall_now()
        now = self.clock.now()
        restored = 0
        for rec in self._durable.undelivered(kind="held"):
            remaining = (
                rec.expires_at - wall
                if rec.expires_at is not None
                else self.default_ttl
            )
            msg = HeldMessage(
                message_id=rec.message_id,
                target_url=rec.target,
                envelope_bytes=rec.body,
                expires_at=now + remaining,
                attempts=rec.attempts,
                next_attempt_at=now,
                journal_seq=rec.seq,
            )
            if remaining <= 0:
                self._stats.expired += 1
                self._dead_letter(msg, "expired")
                continue
            with self._lock:
                if rec.message_id in self._held:
                    continue
                self._held[rec.message_id] = msg
                self._stats.held += 1
                self._stats.restored += 1
            restored += 1
        return restored

    # -- pump ---------------------------------------------------------------
    def pump(self) -> dict[str, int]:
        """Attempt every due message once; returns a summary.

        Call periodically (a dispatcher maintenance thread, a simulation
        process, or a test loop).  Expired messages are dropped and counted;
        exhausted-retry messages expire immediately.  Requires a bound
        ``deliver`` function; drivers that transmit themselves should use
        :meth:`take_due` / :meth:`complete` / :meth:`reschedule` directly.
        """
        now = self.clock.now()
        due = self.take_due(now)
        if self._deliver is None:
            for msg in due:
                self.reschedule(msg.message_id, now)
            return {"due": len(due), "delivered": 0, "failed": len(due)}
        delivered = failed = 0
        for msg in due:
            try:
                self._deliver(msg)
            except Exception:  # noqa: BLE001 - any failure means retry
                failed += 1
                self.reschedule(msg.message_id, now)
                continue
            delivered += 1
            self.complete(msg.message_id)
        return {"due": len(due), "delivered": delivered, "failed": failed}

    def run_until_empty(self, timeout: float) -> None:
        """Pump until the store drains; raises DeliveryExpired on timeout."""
        deadline = self.clock.now() + timeout
        while self.pending() > 0:
            if self.clock.now() >= deadline:
                raise DeliveryExpired(
                    f"{self.pending()} messages still held after {timeout}s"
                )
            self.pump()
            self.clock.sleep(0.01)

    # -- introspection -----------------------------------------------------
    def pending(self) -> int:
        with self._lock:
            return len(self._held)

    @property
    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "held": self._stats.held,
                "delivered": self._stats.delivered,
                "expired": self._stats.expired,
                "attempts": self._stats.attempts,
                "restored": self._stats.restored,
            }


class DuplicateFilter:
    """Sliding-window duplicate suppression keyed by ``wsa:MessageID``.

    ``seen`` returns True for a MessageID observed within ``window``
    seconds — the receiver should drop the message (at-least-once becomes
    effectively-once for idempotent windows).
    """

    def __init__(self, window: float = 600.0, clock: Clock | None = None) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self.clock = clock or MonotonicClock()
        self._seen: dict[str, float] = {}
        self._lock = threading.Lock()

    def seen(self, message_id: str) -> bool:
        now = self.clock.now()
        with self._lock:
            # amortized cleanup: purge expired entries when the table grows
            if len(self._seen) > 4096:
                cutoff = now - self.window
                for mid in [m for m, t in self._seen.items() if t < cutoff]:
                    del self._seen[mid]
            stamp = self._seen.get(message_id)
            if stamp is not None and now - stamp < self.window:
                return True
            self._seen[message_id] = now
            return False

    def size(self) -> int:
        with self._lock:
            return len(self._seen)
