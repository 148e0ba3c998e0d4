"""Tests for WS-MsgBox long polling."""

import threading
import time

import pytest

from repro.errors import MailboxError, MailboxNotFound
from repro.msgbox import MSGBOX_NS, MailboxStore
from repro.msgbox.service import Q_MAILBOX_ID
from repro.rt.service import RequestContext
from repro.soap import RpcRequest, build_rpc_request, parse_rpc_request
from repro.transport.inproc import InprocNetwork
from repro.util.ids import IdGenerator
from repro.workload.echo import make_echo_message
from repro.xmlmini import Element
from tests.conftest import MsgBoxBackend
from tests.core.test_routed_in_place import count_threadsafe_calls


class TestStoreWait:
    def test_returns_immediately_when_message_present(self):
        store = MailboxStore()
        box = store.create()
        store.deposit(box, b"x")
        t0 = time.monotonic()
        assert store.wait_for_message(box, timeout=5.0) is True
        assert time.monotonic() - t0 < 0.1

    def test_times_out_when_empty(self):
        store = MailboxStore()
        box = store.create()
        t0 = time.monotonic()
        assert store.wait_for_message(box, timeout=0.2) is False
        assert 0.15 <= time.monotonic() - t0 < 1.0

    def test_wakes_on_deposit_from_other_thread(self):
        store = MailboxStore()
        box = store.create()
        woke_at = []

        def waiter():
            if store.wait_for_message(box, timeout=5.0):
                woke_at.append(time.monotonic())

        t = threading.Thread(target=waiter)
        t.start()
        time.sleep(0.1)
        deposited_at = time.monotonic()
        store.deposit(box, b"wake up")
        t.join(2)
        assert woke_at and woke_at[0] - deposited_at < 0.5

    def test_missing_mailbox_raises(self):
        with pytest.raises(MailboxNotFound):
            MailboxStore().wait_for_message("nope", timeout=0.1)


class TestServiceLongPoll:
    """The same long-poll contract, asserted against both runtimes: the
    threaded server parks a worker thread, the aio server parks a
    coroutine — the client must not be able to tell the difference."""

    @pytest.fixture
    def served(self, msgbox_backend):
        yield msgbox_backend.serve()

    def deposit_later(self, service, mailbox_id, delay):
        def run():
            time.sleep(delay)
            deposit(service, mailbox_id, f"uuid:lp-{delay}")

        threading.Thread(target=run, daemon=True).start()

    def test_long_poll_returns_early_on_arrival(self, served):
        store, service, client = served
        box = client.create()
        self.deposit_later(service, box, delay=0.15)
        t0 = time.monotonic()
        messages = client.take(wait=5.0)
        elapsed = time.monotonic() - t0
        assert len(messages) == 1
        assert elapsed < 2.0  # woke on arrival, not at the wait cap

    def test_long_poll_times_out_empty(self, served):
        store, service, client = served
        client.create()
        t0 = time.monotonic()
        assert client.take(wait=0.3) == []
        assert time.monotonic() - t0 >= 0.25

    def test_wait_capped_by_service_limit(self, served):
        store, service, client = served
        service.max_wait_seconds = 0.2
        client.create()
        t0 = time.monotonic()
        assert client.take(wait=60.0) == []
        assert time.monotonic() - t0 < 2.0

    def test_long_poll_beats_short_polling_on_requests(self, served):
        """One long poll replaces a burst of empty short polls."""
        store, service, client = served
        box = client.create()
        baseline = service.stats.get("takes", 0)

        # short-poll client: hammers take() until the message shows up
        self.deposit_later(service, box, delay=0.4)
        while not client.take():
            time.sleep(0.02)
        short_poll_takes = service.stats.get("takes", 0) - baseline

        self.deposit_later(service, box, delay=0.4)
        got = client.take(wait=5.0)
        long_poll_takes = service.stats.get("takes", 0) - baseline - short_poll_takes
        assert got
        assert long_poll_takes == 1
        assert short_poll_takes > 3

    def test_a_destroyed_mailbox_ends_a_parked_take(self, served):
        """``rt`` notices on its re-poll, ``aio`` through the store's
        waiters: either way well inside the take's ``waitSeconds``."""
        store, service, client = served
        box = client.create()
        failed: list = []

        def take():
            try:
                client.take(wait=5.0)
            except MailboxError as exc:
                failed.append(exc)

        thread = threading.Thread(target=take, daemon=True)
        thread.start()
        time.sleep(0.2)
        destroyed_at = time.monotonic()
        store.destroy(box)
        thread.join(5.0)
        assert not thread.is_alive()
        assert time.monotonic() - destroyed_at < 2.0
        (exc,) = failed
        assert str(exc) == f"WS-MsgBox take failed: {box}"  # MailboxNotFound(box)


# -- the asyncio long poll's own seams ----------------------------------------------

def deposit(service, mailbox_id: str, message_id: str = "uuid:lp") -> None:
    env = make_echo_message(to="urn:x", message_id=message_id)
    env.headers.append(Element(Q_MAILBOX_ID, text=mailbox_id))
    service.handle(env, RequestContext(path="/mailbox"))


def parked_take(store, client, box: str) -> "tuple[threading.Thread, list]":
    """``client.take(wait=5)`` on a thread, returned once the service has
    parked it on the mailbox's arrival waiters."""
    taken: list = []
    thread = threading.Thread(
        target=lambda: taken.extend(client.take(wait=5.0)), daemon=True
    )
    thread.start()
    deadline = time.monotonic() + 5.0
    while not store._waiters.get(box) and time.monotonic() < deadline:
        time.sleep(0.001)
    assert store._waiters.get(box), "the long poll never parked"
    return thread, taken


class TestAioLongPollWakeUp:
    """The rule of ``repro.aio.runtime.loop_waker``: a deposit made on the
    loop wakes the parked poller with a plain ``event.set()``; only a
    deposit from another thread goes through the loop's self-pipe."""

    @pytest.fixture
    def aio(self, inproc):
        backend = MsgBoxBackend("aio", inproc)
        yield backend
        backend.close()

    def test_a_deposit_on_the_loop_makes_no_threadsafe_call(self, aio):
        store, service, client = aio.serve()
        box = client.create()
        loop_ident = aio.loop_thread.run(_ident())
        thread, taken = parked_take(store, client, box)
        callers = count_threadsafe_calls(aio.loop_thread._loop)

        async def on_loop():
            deposit(service, box)

        aio.loop_thread.run(on_loop())  # this bridge itself calls from here
        thread.join(5.0)
        assert not thread.is_alive() and len(taken) == 1
        assert loop_ident not in callers

    def test_a_deposit_from_a_foreign_thread_makes_exactly_one(self, aio):
        store, service, client = aio.serve()
        box = client.create()
        thread, taken = parked_take(store, client, box)
        callers = count_threadsafe_calls(aio.loop_thread._loop)
        deposit(service, box)  # this thread is not the loop's
        thread.join(5.0)
        assert not thread.is_alive() and len(taken) == 1
        assert callers == [threading.get_ident()]


async def _ident() -> int:
    return threading.get_ident()


def test_a_long_poll_take_parses_its_rpc_once(inproc, monkeypatch):
    parses = []

    def counting(envelope):
        parses.append(envelope)
        return parse_rpc_request(envelope)

    monkeypatch.setattr("repro.aio.msgbox.parse_rpc_request", counting)
    monkeypatch.setattr("repro.msgbox.service.parse_rpc_request", counting)
    backend = MsgBoxBackend("aio", inproc)
    try:
        store, service, client = backend.serve()
        box = client.create()
        parses.clear()
        thread, taken = parked_take(store, client, box)
        deposit(service, box)
        thread.join(5.0)
        assert len(taken) == 1
        assert len(parses) == 1
    finally:
        backend.close()


#: operation, parameters — each refused with a SOAP fault
MALFORMED_TAKES = {
    "no-mailbox-id": ("take", [("waitSeconds", "0.05")]),
    "unknown-mailbox": ("take", [("mailboxId", "no-such-box"), ("waitSeconds", "0.05")]),
    "unknown-operation": ("snatch", [("mailboxId", "{box}"), ("waitSeconds", "0.05")]),
}


@pytest.mark.parametrize("operation, params", MALFORMED_TAKES.values(), ids=MALFORMED_TAKES)
def test_a_malformed_take_is_the_same_fault_on_rt_and_aio(operation, params):
    """Whichever side of the long-poll seam notices, the client reads the
    same bytes: the asyncio service hands over what only the sync path
    can refuse, and refuses the rest through the same fault barrier."""
    answers = {}
    for kind in ("rt", "aio"):
        backend = MsgBoxBackend(kind, InprocNetwork())
        try:
            store = MailboxStore()
            store._ids = IdGenerator("mb", seed=7)  # one mailbox id on both runtimes
            store, service, client = backend.serve(store=store)
            box = client.create()
            call = RpcRequest(
                MSGBOX_NS, operation, [(k, v.format(box=box)) for k, v in params]
            )
            response = client.http.post_envelope(
                client.service_url, build_rpc_request(call)
            )
            answers[kind] = (response.status, response.body)
        finally:
            backend.close()
    assert answers["rt"][0] >= 400 and b"Fault" in answers["rt"][1]
    assert answers["aio"] == answers["rt"]
