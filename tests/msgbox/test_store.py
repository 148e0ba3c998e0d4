"""Tests for mailbox storage."""

import pytest

from repro.errors import MailboxNotFound, MailboxQuotaExceeded
from repro.msgbox.store import MailboxStore
from repro.util.clock import ManualClock


@pytest.fixture
def store():
    return MailboxStore()


class TestLifecycle:
    def test_create_returns_unguessable_id(self, store):
        a = store.create()
        b = store.create()
        assert a != b
        assert len(a) == 32  # 128 bits of hex

    def test_destroy(self, store):
        box = store.create()
        store.destroy(box)
        with pytest.raises(MailboxNotFound):
            store.peek_count(box)
        with pytest.raises(MailboxNotFound):
            store.destroy(box)

    def test_mailbox_limit(self):
        store = MailboxStore(max_mailboxes=2)
        store.create()
        store.create()
        with pytest.raises(MailboxQuotaExceeded):
            store.create()

    def test_mailbox_count(self, store):
        assert store.mailbox_count() == 0
        store.create()
        assert store.mailbox_count() == 1


class TestDepositTake:
    def test_fifo_order(self, store):
        box = store.create()
        for i in range(3):
            store.deposit(box, b"msg%d" % i)
        assert store.take(box, max_messages=10) == [b"msg0", b"msg1", b"msg2"]

    def test_take_respects_limit(self, store):
        box = store.create()
        for i in range(5):
            store.deposit(box, b"%d" % i)
        assert store.take(box, max_messages=2) == [b"0", b"1"]
        assert store.peek_count(box) == 3

    def test_take_requires_positive_limit(self, store):
        box = store.create()
        with pytest.raises(ValueError):
            store.take(box, max_messages=0)

    def test_deposit_to_missing_box(self, store):
        with pytest.raises(MailboxNotFound):
            store.deposit("nope", b"x")

    def test_take_from_missing_box(self, store):
        with pytest.raises(MailboxNotFound):
            store.take("nope")

    def test_message_quota(self):
        store = MailboxStore(max_messages_per_box=2)
        box = store.create()
        store.deposit(box, b"1")
        store.deposit(box, b"2")
        with pytest.raises(MailboxQuotaExceeded):
            store.deposit(box, b"3")

    def test_byte_quota(self):
        store = MailboxStore(max_bytes_per_box=10)
        box = store.create()
        store.deposit(box, b"x" * 10)
        with pytest.raises(MailboxQuotaExceeded):
            store.deposit(box, b"y")

    def test_take_frees_byte_quota(self):
        store = MailboxStore(max_bytes_per_box=10)
        box = store.create()
        store.deposit(box, b"x" * 10)
        store.take(box)
        store.deposit(box, b"y" * 10)  # fits again

    def test_total_bytes(self, store):
        a = store.create()
        b = store.create()
        store.deposit(a, b"12345")
        store.deposit(b, b"123")
        assert store.stats(a)["bytes"] + store.stats(b)["bytes"] == 8


class TestExpiry:
    def test_expired_messages_dropped(self):
        clock = ManualClock()
        store = MailboxStore(message_ttl=10.0, clock=clock)
        box = store.create()
        store.deposit(box, b"old")
        clock.advance(11.0)
        store.deposit(box, b"new")
        assert store.take(box) == [b"new"]

    def test_peek_count_applies_expiry(self):
        clock = ManualClock()
        store = MailboxStore(message_ttl=5.0, clock=clock)
        box = store.create()
        store.deposit(box, b"x")
        assert store.peek_count(box) == 1
        clock.advance(6.0)
        assert store.peek_count(box) == 0

    def test_no_ttl_means_no_expiry(self):
        clock = ManualClock()
        store = MailboxStore(clock=clock)
        box = store.create()
        store.deposit(box, b"x")
        clock.advance(1e9)
        assert store.peek_count(box) == 1


class TestStats:
    def test_per_box_stats(self, store):
        box = store.create()
        store.deposit(box, b"abc")
        store.take(box)
        stats = store.stats(box)
        assert stats == {"pending": 0, "bytes": 0, "deposits": 1, "takes": 1}

    def test_stats_missing_box(self, store):
        with pytest.raises(MailboxNotFound):
            store.stats("nope")
