"""Mailbox storage: bounded per-mailbox FIFO with message expiry.

The paper's WS-MsgBox held messages in memory until the client fetched
them and freed "memory space in the WS-MsgBox service implementation" on
destroy.  This store adds the quotas the original lacked (per-mailbox
message/byte limits, global mailbox limit) because unbounded buffering is
exactly what made the original fragile.  Passing ``durable=`` a
:class:`~repro.store.MessageJournal` additionally journals every deposit
before it is acknowledged and marks it on take, so a crash loses no
undelivered mailbox contents — :meth:`MailboxStore.recover` rebuilds the
mailboxes from the journal.
"""

from __future__ import annotations

import collections
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.errors import MailboxNotFound, MailboxQuotaExceeded
from repro.store.journal import ABSORBED, DEAD, DELIVERED
from repro.util.clock import Clock, MonotonicClock
from repro.util.ids import IdGenerator

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.store import MessageJournal


@dataclass
class StoredMessage:
    """One deposited message (opaque envelope bytes + bookkeeping)."""

    data: bytes
    deposited_at: float
    expires_at: float | None = None
    #: sequence number in the durable journal, when there is one
    journal_seq: int | None = None


@dataclass
class _Waiter:
    """Handle for one registered long-poll arrival callback."""

    mailbox_id: str
    callback: Callable[[], None]


@dataclass
class _Mailbox:
    mailbox_id: str
    created_at: float
    messages: collections.deque[StoredMessage] = field(
        default_factory=collections.deque
    )
    bytes_used: int = 0
    deposits: int = 0
    takes: int = 0


class MailboxStore:
    """Thread-safe mailbox table."""

    def __init__(
        self,
        max_mailboxes: int = 10_000,
        max_messages_per_box: int = 1_000,
        max_bytes_per_box: int = 8 * 1024 * 1024,
        message_ttl: float | None = None,
        clock: Clock | None = None,
        durable: "MessageJournal | None" = None,
    ) -> None:
        self.max_mailboxes = max_mailboxes
        self.max_messages_per_box = max_messages_per_box
        self.max_bytes_per_box = max_bytes_per_box
        self.message_ttl = message_ttl
        self.clock = clock or MonotonicClock()
        self._ids = IdGenerator("mb")
        self.durable = durable
        self._boxes: dict[str, _Mailbox] = {}
        self._lock = threading.Lock()
        self._arrival = threading.Condition(self._lock)
        #: one-shot long-poll waiters keyed by mailbox id.  Each callback
        #: fires (outside the lock) at most once, on the next deposit,
        #: recovery restore, or destroy of that mailbox — the asyncio
        #: runtime parks a loop wakeup here instead of blocking a thread
        #: in :meth:`wait_for_message`.
        self._waiters: dict[str, list[_Waiter]] = {}

    # -- long-poll waiters -------------------------------------------------
    def add_arrival_waiter(
        self, mailbox_id: str, callback: Callable[[], None]
    ) -> object:
        """Register a one-shot callback for the next event on a mailbox.

        The callback fires after the next :meth:`deposit`, :meth:`recover`
        restore, or :meth:`destroy` touching ``mailbox_id`` — it signals
        "look again", not "a message is yours" (another taker may win the
        race, and destroy wakes waiters so they can observe
        :class:`~repro.errors.MailboxNotFound`).  Callbacks run outside
        the store lock on the depositor's thread and must not block;
        thread-hopping (``loop.call_soon_threadsafe``) is the caller's
        job.  Returns a handle for :meth:`remove_arrival_waiter`.
        """
        handle = _Waiter(mailbox_id, callback)
        with self._lock:
            self._waiters.setdefault(mailbox_id, []).append(handle)
        return handle

    def remove_arrival_waiter(self, handle: object) -> None:
        """Deregister a waiter (idempotent — fired waiters are gone)."""
        if not isinstance(handle, _Waiter):
            return
        with self._lock:
            bucket = self._waiters.get(handle.mailbox_id)
            if bucket is None:
                return
            try:
                bucket.remove(handle)
            except ValueError:
                return
            if not bucket:
                del self._waiters[handle.mailbox_id]

    def _pop_waiters(self, mailbox_id: str) -> list["_Waiter"]:
        """Under the lock: detach every waiter for a mailbox."""
        return self._waiters.pop(mailbox_id, [])

    @staticmethod
    def _fire_waiters(waiters: list["_Waiter"]) -> None:
        """Outside the lock: invoke detached waiters, swallowing errors."""
        for waiter in waiters:
            try:
                waiter.callback()
            except Exception:  # noqa: BLE001 - a dead waiter can't block deposits
                pass

    # -- lifecycle (Fig. 2: steps 1 and 4) -------------------------------
    def create(self) -> str:
        """Create a mailbox; returns its unguessable id."""
        with self._lock:
            if len(self._boxes) >= self.max_mailboxes:
                raise MailboxQuotaExceeded(
                    f"mailbox limit {self.max_mailboxes} reached"
                )
            mailbox_id = self._ids.next_token(128)
            self._boxes[mailbox_id] = _Mailbox(mailbox_id, self.clock.now())
            return mailbox_id

    def destroy(self, mailbox_id: str) -> None:
        with self._lock:
            box = self._boxes.pop(mailbox_id, None)
            if box is None:
                raise MailboxNotFound(mailbox_id)
            remaining = list(box.messages)
            waiters = self._pop_waiters(mailbox_id)
        # wake long-pollers so they observe MailboxNotFound promptly
        self._fire_waiters(waiters)
        if self.durable is not None:
            # the client chose to discard what was left; retire the
            # records so recovery does not resurrect a destroyed mailbox
            for msg in remaining:
                if msg.journal_seq is not None:
                    self.durable.mark(
                        msg.journal_seq, ABSORBED, reason="mailbox_destroyed"
                    )

    # -- deposit / take (Fig. 2: steps 2 and 3) -----------------------------
    def deposit(self, mailbox_id: str, data: bytes) -> None:
        now = self.clock.now()
        jseq: int | None = None
        if self.durable is not None:
            # journal before ack (and before the quota checks — a rejected
            # deposit is retired below, an accepted one survives a crash)
            jseq = self.durable.append(
                None, mailbox_id, data, kind="mailbox",
                expires_at=(
                    self.durable.wall_now() + self.message_ttl
                    if self.message_ttl
                    else None
                ),
            )
        try:
            with self._lock:
                box = self._boxes.get(mailbox_id)
                if box is None:
                    raise MailboxNotFound(mailbox_id)
                self._expire(box, now)
                if len(box.messages) >= self.max_messages_per_box:
                    raise MailboxQuotaExceeded(
                        f"mailbox {mailbox_id[:8]}… message quota exceeded"
                    )
                if box.bytes_used + len(data) > self.max_bytes_per_box:
                    raise MailboxQuotaExceeded(
                        f"mailbox {mailbox_id[:8]}… byte quota exceeded"
                    )
                expires = now + self.message_ttl if self.message_ttl else None
                box.messages.append(
                    StoredMessage(data, now, expires, journal_seq=jseq)
                )
                box.bytes_used += len(data)
                box.deposits += 1
                self._arrival.notify_all()
                waiters = self._pop_waiters(mailbox_id)
        except (MailboxNotFound, MailboxQuotaExceeded):
            if jseq is not None:
                self.durable.mark(jseq, ABSORBED, reason="rejected")
            raise
        self._fire_waiters(waiters)

    def take(self, mailbox_id: str, max_messages: int = 10) -> list[bytes]:
        """Remove and return up to ``max_messages`` oldest messages."""
        if max_messages <= 0:
            raise ValueError("max_messages must be positive")
        now = self.clock.now()
        with self._lock:
            box = self._boxes.get(mailbox_id)
            if box is None:
                raise MailboxNotFound(mailbox_id)
            self._expire(box, now)
            out: list[bytes] = []
            taken_seqs: list[int] = []
            while box.messages and len(out) < max_messages:
                msg = box.messages.popleft()
                box.bytes_used -= len(msg.data)
                if msg.journal_seq is not None:
                    taken_seqs.append(msg.journal_seq)
                out.append(msg.data)
            box.takes += 1
        if self.durable is not None:
            for seq in taken_seqs:
                self.durable.mark(seq, DELIVERED)
        return out

    def wait_for_message(self, mailbox_id: str, timeout: float) -> bool:
        """Block until the mailbox has a message (long-poll support).

        Returns True when at least one message is present, False on
        timeout.  Raises :class:`~repro.errors.MailboxNotFound` if the
        mailbox does not exist (checked before and after the wait — a
        destroy during the wait wakes nothing, so the timeout covers it).
        """
        deadline = self.clock.now() + timeout
        with self._arrival:
            while True:
                box = self._boxes.get(mailbox_id)
                if box is None:
                    raise MailboxNotFound(mailbox_id)
                self._expire(box, self.clock.now())
                if box.messages:
                    return True
                remaining = deadline - self.clock.now()
                if remaining <= 0:
                    return False
                self._arrival.wait(min(remaining, 0.25))

    def peek_count(self, mailbox_id: str) -> int:
        with self._lock:
            box = self._boxes.get(mailbox_id)
            if box is None:
                raise MailboxNotFound(mailbox_id)
            self._expire(box, self.clock.now())
            return len(box.messages)

    def _expire(self, box: _Mailbox, now: float) -> None:
        while box.messages:
            head = box.messages[0]
            if head.expires_at is None or head.expires_at > now:
                break
            box.messages.popleft()
            box.bytes_used -= len(head.data)
            if self.durable is not None and head.journal_seq is not None:
                self.durable.mark(head.journal_seq, DEAD, reason="expired")

    # -- crash recovery ----------------------------------------------------
    def recover(self) -> int:
        """Rebuild mailboxes and their undelivered contents from the
        journal (idempotent: already-present records are skipped).

        Mailboxes are recreated under their original ids — a client
        holding a pre-crash mailbox address keeps polling the same URL.
        Wall-clock expiry deadlines on disk are converted back onto this
        store's clock; already-expired messages are dead-lettered.
        Returns the number of messages restored.
        """
        if self.durable is None:
            return 0
        wall = self.durable.wall_now()
        now = self.clock.now()
        restored = 0
        for rec in self.durable.undelivered(kind="mailbox"):
            expires: float | None = None
            if rec.expires_at is not None:
                remaining = rec.expires_at - wall
                if remaining <= 0:
                    self.durable.mark(rec.seq, DEAD, reason="expired")
                    continue
                expires = now + remaining
            with self._lock:
                box = self._boxes.get(rec.target)
                if box is None:
                    box = _Mailbox(rec.target, now)
                    self._boxes[rec.target] = box
                if any(m.journal_seq == rec.seq for m in box.messages):
                    continue
                box.messages.append(
                    StoredMessage(rec.body, now, expires, journal_seq=rec.seq)
                )
                box.bytes_used += len(rec.body)
                self._arrival.notify_all()
                waiters = self._pop_waiters(rec.target)
            self._fire_waiters(waiters)
            restored += 1
        return restored

    # -- introspection -----------------------------------------------------
    def mailbox_count(self) -> int:
        with self._lock:
            return len(self._boxes)

    def stats(self, mailbox_id: str) -> dict[str, int]:
        with self._lock:
            box = self._boxes.get(mailbox_id)
            if box is None:
                raise MailboxNotFound(mailbox_id)
            return {
                "pending": len(box.messages),
                "bytes": box.bytes_used,
                "deposits": box.deposits,
                "takes": box.takes,
            }
