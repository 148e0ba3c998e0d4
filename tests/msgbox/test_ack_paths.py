"""Tests for WS-MsgBox acknowledgement delivery paths."""

import threading
import time

from repro.msgbox import MailboxStore, MsgBoxService
from repro.msgbox.service import Q_MAILBOX_ID
from repro.rt.service import RequestContext
from repro.workload.echo import make_echo_message
from repro.xmlmini import Element


def deposit(service, box, tag="x"):
    env = make_echo_message(to="urn:x", message_id=f"uuid:{tag}")
    env.headers.append(Element(Q_MAILBOX_ID, text=box))
    service.handle(env, RequestContext(path="/mailbox"))


def wait_stat(service, key, value, timeout=3.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if service.stats.get(key, 0) >= value:
            return True
        time.sleep(0.02)
    return False


def test_no_ack_sender_means_no_pool():
    service = MsgBoxService(MailboxStore(), delivery_mode="pooled")
    box = service.store.create()
    deposit(service, box)
    assert "acks_sent" not in service.stats


def test_delivery_mode_none_never_acks():
    called = []
    service = MsgBoxService(
        MailboxStore(), delivery_mode="none", ack_sender=called.append
    )
    box = service.store.create()
    deposit(service, box)
    time.sleep(0.1)
    assert called == []


def test_successful_acks_counted():
    received = []
    service = MsgBoxService(
        MailboxStore(), delivery_mode="pooled", ack_sender=received.append
    )
    box = service.store.create()
    for i in range(3):
        deposit(service, box, str(i))
    assert wait_stat(service, "acks_sent", 3)
    assert len(received) == 3
    # the ack payload is the deposited envelope's wire bytes
    assert all(data.startswith(b"<?xml") for data in received)


def test_failing_acks_counted_not_fatal():
    def exploding(data):
        raise ConnectionError("reply path down")

    service = MsgBoxService(
        MailboxStore(), delivery_mode="pooled", ack_sender=exploding
    )
    box = service.store.create()
    for i in range(3):
        deposit(service, box, str(i))
    assert wait_stat(service, "acks_failed", 3)
    assert not service.dead
    # deposits themselves all succeeded
    assert service.stats["deposits"] == 3


def test_pooled_sheds_when_saturated():
    release = threading.Event()
    service = MsgBoxService(
        MailboxStore(),
        delivery_mode="pooled",
        ack_sender=lambda data: release.wait(5),
        ack_workers=1,
    )
    box = service.store.create()
    # 1 worker + queue of 4: the rest must be shed, not block deposits
    for i in range(12):
        deposit(service, box, str(i))
    assert service.stats["deposits"] == 12
    assert service.stats.get("acks_shed", 0) >= 1
    release.set()
