"""Crash-recovery tests: journal replay through the threaded dispatcher,
durable hold store restore, and mailbox rebuild."""

import time

import pytest

from repro.core.msg_dispatcher import MsgDispatcher, MsgDispatcherConfig
from repro.core.registry import ServiceRegistry
from repro.msgbox import MailboxStore
from repro.obs.metrics import MetricsRegistry
from repro.reliable import FixedDelay, HoldRetryStore
from repro.rt.client import HttpClient
from repro.rt.server import HttpServer
from repro.rt.service import SoapHttpApp
from repro.store import DEAD, ENQUEUED, MessageJournal
from repro.util.ids import IdGenerator
from repro.workload.echo import AsyncEchoService, make_echo_message


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


@pytest.fixture
def echo_world(inproc):
    """A one-way echo sink behind an HTTP server, plus a registry."""
    ws_client = HttpClient(inproc)
    echo = AsyncEchoService(ws_client, ids=IdGenerator("ws", seed=1))
    app = SoapHttpApp()
    app.mount("/echo", echo)
    server = HttpServer(
        inproc.listen("ws:9000"), app.handle_request, workers=4
    ).start()
    registry = ServiceRegistry()
    registry.register("echo", "http://ws:9000/echo")
    yield registry, echo
    server.stop()
    ws_client.close()


def make_dispatcher(inproc, registry, journal, recover=True, **config_kw):
    return MsgDispatcher(
        registry,
        HttpClient(inproc),
        own_address="http://wsd:8000/msg",
        config=MsgDispatcherConfig(
            cx_threads=2, ws_threads=2, destination_idle_ttl=0.5, **config_kw
        ),
        durable=journal,
        recover=recover,
    )


def seed_journal(journal, ids, count, target="/msg/echo"):
    """Journal ``count`` inbound messages, as a dead incarnation did."""
    mids = []
    for _ in range(count):
        mid = ids.next()
        env = make_echo_message(to="urn:wsd:echo", message_id=mid)
        journal.append(mid, target, env.to_bytes(), kind="inbound")
        mids.append(mid)
    return mids


class TestDispatcherRecovery:
    def test_hard_stop_leaves_enqueued_then_next_incarnation_replays(
        self, inproc, echo_world
    ):
        registry, echo = echo_world
        journal = MessageJournal(sync="lazy", flush_threshold=1)
        ids = IdGenerator("crash", seed=3)
        seed_journal(journal, ids, 3)

        # incarnation 1 never recovers and dies hard: nothing delivered,
        # the records stay enqueued on "disk"
        first = make_dispatcher(inproc, registry, journal, recover=False)
        assert first.stop() is True  # nothing queued, hard stop is clean
        assert journal.pending_count() == 3

        # incarnation 2 replays all three and drains gracefully
        second = make_dispatcher(inproc, registry, journal)
        assert wait_for(lambda: echo.received == 3)
        assert second.stats.get("recovered") == 3
        assert second.stop(drain=True) is True
        assert journal.pending_count() == 0
        # the graceful path checkpointed: delivered records are gone
        assert journal.counts() == {}
        journal.close()

    def test_recover_is_idempotent_within_an_incarnation(
        self, inproc, echo_world
    ):
        registry, echo = echo_world
        journal = MessageJournal(sync="lazy", flush_threshold=1)
        seed_journal(journal, IdGenerator("idem", seed=5), 2)
        dispatcher = make_dispatcher(inproc, registry, journal)
        assert wait_for(lambda: echo.received == 2)
        # marks race the second scan: flush so they are visible, then a
        # replayed seq must not be re-injected no matter what
        journal.flush()
        assert dispatcher.recover() == 0
        time.sleep(0.2)
        assert echo.received == 2
        dispatcher.stop(drain=True)
        journal.close()

    def test_corrupt_record_dead_lettered_not_replayed(
        self, inproc, echo_world
    ):
        registry, echo = echo_world
        journal = MessageJournal(sync="lazy", flush_threshold=1)
        seed_journal(journal, IdGenerator("torn", seed=7), 2)
        journal.flush()
        # tear the final record, as a crash mid-write would
        with journal._db_lock, journal._conn:
            journal._conn.execute(
                "UPDATE journal SET body=? WHERE seq=2", (b"<torn",)
            )
        dispatcher = make_dispatcher(inproc, registry, journal)
        assert wait_for(lambda: echo.received == 1)
        assert journal.dead_counts() == {"corrupt": 1}
        dispatcher.stop(drain=True)
        assert journal.counts() == {DEAD: 1}  # checkpoint keeps the DLQ
        journal.close()

    def test_journal_before_ack_and_delivered_mark(self, inproc, echo_world):
        registry, echo = echo_world
        journal = MessageJournal(sync="lazy", flush_threshold=1)
        dispatcher = make_dispatcher(inproc, registry, journal)
        client = HttpClient(inproc)
        msg = make_echo_message(to="urn:wsd:echo", message_id="uuid:jba-1")
        app = SoapHttpApp()
        app.mount("/msg", dispatcher)
        front = HttpServer(
            inproc.listen("wsd:8000"), app.handle_request, workers=4
        ).start()
        resp = client.post_envelope("http://wsd:8000/msg/echo", msg)
        assert resp.status == 202
        # journaled before the ack: the inbound record exists by now —
        # whatever else has happened to it since (the echo's reply is a
        # second admission, and may already be journaled too)
        record = journal.get(1)
        assert (record.kind, record.target) == ("inbound", "/msg/echo")
        assert b"uuid:jba-1" in record.body
        assert wait_for(lambda: echo.received == 1)
        assert wait_for(lambda: journal.pending_count() == 0)
        dispatcher.stop(drain=True)
        front.stop()
        client.close()
        journal.close()

    def test_duplicate_resend_absorbed_and_counted(self, inproc, echo_world):
        registry, echo = echo_world
        journal = MessageJournal(sync="lazy", flush_threshold=1)
        metrics = MetricsRegistry()
        dispatcher = MsgDispatcher(
            registry,
            HttpClient(inproc),
            own_address="http://wsd:8000/msg",
            config=MsgDispatcherConfig(
                cx_threads=2, ws_threads=2, destination_idle_ttl=0.5,
                dedupe_window=60.0,
            ),
            metrics=metrics,
            durable=journal,
        )
        client = HttpClient(inproc)
        app = SoapHttpApp()
        app.mount("/msg", dispatcher)
        front = HttpServer(
            inproc.listen("wsd:8000"), app.handle_request, workers=4
        ).start()
        msg = make_echo_message(to="urn:wsd:echo", message_id="uuid:dup-1")
        for _ in range(2):  # an at-least-once upstream resends
            assert client.post_envelope(
                "http://wsd:8000/msg/echo", msg
            ).status == 202
        assert wait_for(lambda: echo.received == 1)
        assert wait_for(
            lambda: dispatcher.stats.get("duplicates_suppressed") == 1
        )
        sample = metrics.snapshot()["dispatcher_duplicates_total"]["samples"]
        assert sample[0]["value"] == 1
        # the duplicate's journal record was absorbed, not left to replay
        journal.flush()
        assert journal.pending_count() == 0 or wait_for(
            lambda: journal.pending_count() == 0
        )
        dispatcher.stop(drain=True)
        front.stop()
        client.close()
        journal.close()


class TestDispatcherRecoveryMatrix:
    """Journal replay is backend-independent: the threaded and the asyncio
    dispatcher must both replay a dead incarnation's records, deliver
    them, and checkpoint the journal clean."""

    def test_hard_stop_then_next_incarnation_replays(
        self, inproc, echo_world, dispatcher_backend
    ):
        registry, echo = echo_world
        journal = MessageJournal(sync="lazy", flush_threshold=1)
        seed_journal(journal, IdGenerator("xmat", seed=9), 3)

        def build(recover):
            return dispatcher_backend.make_dispatcher(
                registry,
                HttpClient(inproc),
                own_address="http://wsd:8000/msg",
                config=MsgDispatcherConfig(
                    cx_threads=2, ws_threads=2, destination_idle_ttl=0.5
                ),
                durable=journal,
                recover=recover,
            )

        # incarnation 1 never recovers and dies hard
        first = build(recover=False)
        assert first.stop() is True
        assert journal.pending_count() == 3

        # incarnation 2 replays all three and drains gracefully
        second = build(recover=True)
        assert wait_for(lambda: echo.received == 3), second.stats
        assert second.stats.get("recovered") == 3
        assert second.stop(drain=True) is True
        assert journal.pending_count() == 0
        assert journal.counts() == {}
        journal.close()


class TestHoldStoreRestore:
    def test_restore_is_wall_clock_safe_and_idempotent(self):
        wall = {"now": 1000.0}
        journal = MessageJournal(
            sync="lazy", flush_threshold=1, now_fn=lambda: wall["now"]
        )
        store = HoldRetryStore(
            policy=FixedDelay(max_attempts=5, delay=0.1),
            default_ttl=60.0,
            durable=journal,
        )
        store.hold("uuid:h1", "http://dest:1/x", b"<a/>")
        store.hold("uuid:h2", "http://dest:1/x", b"<b/>", ttl=10.0)

        # the process dies; 20 wall seconds pass before the restart
        wall["now"] += 20.0
        fresh = HoldRetryStore(
            policy=FixedDelay(max_attempts=5, delay=0.1),
            default_ttl=60.0,
            durable=journal,
        )
        # h2's 10s TTL elapsed while down: dead-lettered, not resurrected
        assert fresh.restore() == 1
        assert fresh.is_held("uuid:h1")
        assert not fresh.is_held("uuid:h2")
        assert journal.dead_counts() == {"expired": 1}
        assert fresh.stats["restored"] == 1
        # idempotent: nothing new on a second scan
        assert fresh.restore() == 0
        journal.close()

    def test_completed_hold_marks_delivered_and_is_not_restored(self):
        journal = MessageJournal(sync="lazy", flush_threshold=1)
        store = HoldRetryStore(
            policy=FixedDelay(max_attempts=5, delay=0.0),
            default_ttl=60.0,
            durable=journal,
        )
        store.hold("uuid:done", "http://dest:1/x", b"<a/>")
        assert len(store.take_due()) == 1
        assert store.complete("uuid:done")
        fresh = HoldRetryStore(durable=journal)
        assert fresh.restore() == 0
        journal.close()


class TestMailboxRecovery:
    def test_undelivered_deposits_survive_restart_under_same_id(self):
        journal = MessageJournal(sync="lazy", flush_threshold=1)
        store = MailboxStore(durable=journal)
        box = store.create()
        store.deposit(box, b"<one/>")
        store.deposit(box, b"<two/>")
        store.deposit(box, b"<three/>")
        assert store.take(box, max_messages=1) == [b"<one/>"]

        # restart: a fresh store rebuilds the mailbox under the same id —
        # a client holding the pre-crash address keeps polling it
        fresh = MailboxStore(durable=journal)
        assert fresh.recover() == 2
        assert fresh.exists(box)
        assert fresh.take(box) == [b"<two/>", b"<three/>"]
        assert fresh.recover() == 0  # everything terminal now
        journal.close()

    def test_destroyed_mailbox_is_not_resurrected(self):
        journal = MessageJournal(sync="lazy", flush_threshold=1)
        store = MailboxStore(durable=journal)
        box = store.create()
        store.deposit(box, b"<x/>")
        store.destroy(box)
        fresh = MailboxStore(durable=journal)
        assert fresh.recover() == 0
        assert not fresh.exists(box)
        journal.close()

    def test_expired_while_down_goes_to_dead_letters(self):
        wall = {"now": 0.0}
        journal = MessageJournal(
            sync="lazy", flush_threshold=1, now_fn=lambda: wall["now"]
        )
        store = MailboxStore(durable=journal, message_ttl=5.0)
        box = store.create()
        store.deposit(box, b"<x/>")
        wall["now"] += 60.0
        fresh = MailboxStore(durable=journal, message_ttl=5.0)
        assert fresh.recover() == 0
        assert journal.dead_counts() == {"expired": 1}
        journal.close()
