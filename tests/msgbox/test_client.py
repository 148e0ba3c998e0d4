"""Tests for the MsgBox polling client against a real threaded service."""

import pytest

from repro.errors import MailboxError, MailboxNotFound
from repro.msgbox import MailboxSecurity, MailboxStore, MsgBoxService, MsgBoxClient
from repro.msgbox.service import Q_MAILBOX_ID
from repro.rt.client import HttpClient
from repro.rt.server import HttpServer
from repro.rt.service import RequestContext, SoapHttpApp
from repro.util.clock import ManualClock
from repro.workload.echo import make_echo_message
from repro.xmlmini import Element


@pytest.fixture
def served(inproc):
    store = MailboxStore()
    service = MsgBoxService(
        store, security=MailboxSecurity(b"s"), base_url="http://mb:8500/mailbox"
    )
    app = SoapHttpApp()
    app.mount("/mailbox", service)
    server = HttpServer(inproc.listen("mb:8500"), app.handle_request).start()
    client = MsgBoxClient(HttpClient(inproc), "http://mb:8500/mailbox")
    yield store, service, client
    server.stop()


def deposit(service, mailbox_id, tag):
    env = make_echo_message(to="urn:wsd:echo", message_id=f"uuid:{tag}")
    env.headers.append(Element(Q_MAILBOX_ID, text=mailbox_id))
    service.handle(env, RequestContext(path="/mailbox"))


def test_create_stores_credentials(served):
    store, service, client = served
    box = client.create()
    assert client.mailbox_id == box
    assert client.owner_token
    assert store.peek_count(box) == 0


def test_epr_requires_mailbox(served):
    _, _, client = served
    with pytest.raises(MailboxError):
        client.epr()


def test_epr_points_at_deposit_url(served):
    _, _, client = served
    box = client.create()
    epr = client.epr()
    assert epr.address.endswith(f"/deposit/{box}")
    assert epr.reference_properties[0].text == box


def test_peek_and_take(served):
    store, service, client = served
    box = client.create()
    deposit(service, box, "m1")
    deposit(service, box, "m2")
    assert store.peek_count(box) == 2
    messages = client.take(max_messages=1)
    assert len(messages) == 1
    assert store.peek_count(box) == 1


def test_poll_collects_expected(served):
    store, service, client = served
    box = client.create()
    deposit(service, box, "m1")
    deposit(service, box, "m2")
    messages = client.poll(expected=2, timeout=2)
    assert len(messages) == 2


def test_poll_times_out_gracefully(served):
    _, _, client = served
    client.create()
    client.clock = ManualClock()  # sleeps advance instantly
    assert client.poll(expected=1, timeout=0.2, interval=0.05) == []


def test_destroy_clears_state(served):
    store, _, client = served
    box = client.create()
    client.destroy()
    assert client.mailbox_id is None
    with pytest.raises(MailboxNotFound):
        store.peek_count(box)


def test_operations_require_mailbox(served):
    _, _, client = served
    with pytest.raises(MailboxError):
        client.take()


def test_server_fault_wrapped_as_mailbox_error(served):
    _, _, client = served
    client.create()
    client.mailbox_id = "bogus-id"  # breaks the token pairing
    with pytest.raises(MailboxError):
        client.take()
