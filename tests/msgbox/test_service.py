"""Tests for the WS-MsgBox SOAP service (including the paper's bug)."""

import base64
import time

import pytest

from repro.errors import MailboxAuthError, MailboxError, MailboxNotFound, SoapFaultError
from repro.msgbox.security import MailboxSecurity
from repro.msgbox.service import (
    MSGBOX_NS,
    MsgBoxService,
    Q_MAILBOX_ID,
    THREAD_STACK_BYTES,
    SimulatedOutOfMemory,
    make_mailbox_epr,
)
from repro.msgbox.store import MailboxStore
from repro.rt.service import RequestContext
from repro.soap import (
    Envelope,
    RpcRequest,
    build_rpc_request,
    parse_envelope,
    parse_rpc_response,
)
from repro.workload.echo import make_echo_message
from repro.xmlmini import Element


def rpc(service, op, params):
    env = build_rpc_request(RpcRequest(MSGBOX_NS, op, params))
    reply = service.handle(env, RequestContext(path="/mailbox"))
    return parse_rpc_response(reply)


def deposit_via_header(service, mailbox_id, tag="x"):
    env = make_echo_message(to="urn:wsd:echo", message_id=f"uuid:{tag}")
    env.headers.append(Element(Q_MAILBOX_ID, text=mailbox_id))
    return service.handle(env, RequestContext(path="/mailbox"))


#: take parameter -> a value that is not one; each answers a 400 Client fault
MALFORMED_TAKE_PARAMETERS = {
    "max-messages-not-a-number": ("maxMessages", "ten"),
    "max-messages-negative": ("maxMessages", "-3"),
    "wait-seconds-not-a-number": ("waitSeconds", "soon"),
}


@pytest.mark.parametrize(
    "param, value", MALFORMED_TAKE_PARAMETERS.values(), ids=MALFORMED_TAKE_PARAMETERS
)
def test_a_malformed_take_parameter_is_a_client_fault(msgbox_backend, param, value):
    store, service, client = msgbox_backend.serve()
    box = client.create()
    call = RpcRequest(MSGBOX_NS, "take", [("mailboxId", box), (param, value)])
    response = client.http.post_envelope(client.service_url, build_rpc_request(call))
    assert response.status == 400
    with pytest.raises(SoapFaultError) as fault:
        parse_rpc_response(Envelope.from_bytes(response.body))
    assert fault.value.code.endswith("Client")
    assert param in fault.value.reason
    assert b"Traceback" not in response.body and b".py" not in response.body


class TestRpcOperations:
    def test_create_take_destroy_cycle(self):
        svc = MsgBoxService(MailboxStore())
        created = rpc(svc, "create", [])
        box = created.result("mailboxId")
        assert box

        deposit_via_header(svc, box)
        took = rpc(svc, "take", [("mailboxId", box)])
        messages = [v for k, v in took.results if k == "message"]
        assert len(messages) == 1
        inner = Envelope.from_bytes(base64.b64decode(messages[0]))
        assert inner.body is not None
        assert took.result("remaining") == "0"

        rpc(svc, "destroy", [("mailboxId", box)])
        with pytest.raises(MailboxNotFound):
            rpc(svc, "peek", [("mailboxId", box)])

    def test_peek(self):
        svc = MsgBoxService(MailboxStore())
        box = rpc(svc, "create", []).result("mailboxId")
        deposit_via_header(svc, box, "a")
        deposit_via_header(svc, box, "b")
        assert rpc(svc, "peek", [("mailboxId", box)]).result("count") == "2"

    def test_take_max_messages(self):
        svc = MsgBoxService(MailboxStore())
        box = rpc(svc, "create", []).result("mailboxId")
        for i in range(5):
            deposit_via_header(svc, box, str(i))
        took = rpc(svc, "take", [("mailboxId", box), ("maxMessages", "2")])
        assert len([1 for k, _ in took.results if k == "message"]) == 2
        assert took.result("remaining") == "3"

    def test_unknown_operation(self):
        svc = MsgBoxService(MailboxStore())
        from repro.errors import SoapError

        with pytest.raises(SoapError):
            rpc(svc, "explode", [])

    def test_create_returns_deposit_address(self):
        svc = MsgBoxService(MailboxStore(), base_url="http://mb:8500/mailbox")
        created = rpc(svc, "create", [])
        addr = created.result("depositAddress")
        assert addr.startswith("http://mb:8500/mailbox/deposit/")


class TestSecurity:
    def make(self):
        return MsgBoxService(MailboxStore(), security=MailboxSecurity(b"k"))

    def test_create_returns_owner_token(self):
        svc = self.make()
        created = rpc(svc, "create", [])
        assert created.result("ownerToken")

    def test_take_requires_token(self):
        svc = self.make()
        created = rpc(svc, "create", [])
        box = created.result("mailboxId")
        with pytest.raises(MailboxAuthError):
            rpc(svc, "take", [("mailboxId", box)])

    def test_take_with_token(self):
        svc = self.make()
        created = rpc(svc, "create", [])
        box = created.result("mailboxId")
        token = created.result("ownerToken")
        took = rpc(svc, "take", [("mailboxId", box), ("ownerToken", token)])
        assert took.result("remaining") == "0"

    def test_wrong_token_rejected(self):
        svc = self.make()
        created = rpc(svc, "create", [])
        box = created.result("mailboxId")
        with pytest.raises(MailboxAuthError):
            rpc(svc, "destroy", [("mailboxId", box), ("ownerToken", "ff" * 32)])

    def test_deposit_needs_no_token(self):
        svc = self.make()
        box = rpc(svc, "create", []).result("mailboxId")
        deposit_via_header(svc, box)  # no error

    def test_disabled_security_skips_checks(self):
        svc = MsgBoxService(MailboxStore(), security=None)
        box = rpc(svc, "create", []).result("mailboxId")
        rpc(svc, "take", [("mailboxId", box)])  # no token, no error


class TestDeposits:
    def test_deposit_via_path(self):
        store = MailboxStore()
        svc = MsgBoxService(store)
        box = store.create()
        env = make_echo_message(to="urn:wsd:echo", message_id="uuid:1")
        ctx = RequestContext(path=f"/mailbox/deposit/{box}")
        assert svc.handle(env, ctx) is None
        assert store.peek_count(box) == 1

    def test_deposit_header_takes_precedence(self):
        store = MailboxStore()
        svc = MsgBoxService(store)
        box_a, box_b = store.create(), store.create()
        env = make_echo_message(to="urn:wsd:echo", message_id="uuid:1")
        env.headers.append(Element(Q_MAILBOX_ID, text=box_a))
        svc.handle(env, RequestContext(path=f"/mailbox/deposit/{box_b}"))
        assert store.peek_count(box_a) == 1
        assert store.peek_count(box_b) == 0

    def test_deposit_without_id_rejected(self):
        svc = MsgBoxService(MailboxStore())
        env = make_echo_message(to="urn:wsd:echo", message_id="uuid:1")
        with pytest.raises(MailboxNotFound):
            svc.handle(env, RequestContext(path="/mailbox"))

    def test_deposit_stored_verbatim(self):
        store = MailboxStore()
        svc = MsgBoxService(store)
        box = store.create()
        env = make_echo_message(to="urn:wsd:echo", message_id="uuid:42")
        env.headers.append(Element(Q_MAILBOX_ID, text=box))
        svc.handle(env, RequestContext(path="/mailbox"))
        stored = store.take(box)[0]
        assert Envelope.from_bytes(stored).body == env.body


    @pytest.mark.parametrize("aio", [False, True])
    def test_a_deposit_does_not_parse_the_body(self, aio):
        """Deposit or RPC is told by the name of the Body's first child,
        which the scan already has; what is stored is still the splice."""
        if aio:
            from repro.aio import AioMsgBoxService as service_class
        else:
            service_class = MsgBoxService
        store = MailboxStore()
        svc = service_class(store)
        box = store.create()
        wire = make_echo_message(to="urn:wsd:echo", message_id="uuid:7").to_bytes()
        lazy = parse_envelope(wire)
        assert svc.handle(lazy, RequestContext(path=f"/mailbox/deposit/{box}")) is None
        assert not lazy._body_parsed
        assert store.take(box) == [parse_envelope(wire).to_bytes()]
        # and an RPC is still recognised from the same envelope type
        take = build_rpc_request(RpcRequest(MSGBOX_NS, "peek", [("mailboxId", box)]))
        reply = svc.handle(parse_envelope(take.to_bytes()), RequestContext(path="/mailbox"))
        assert parse_rpc_response(reply).result("count") == "0"


class TestMakeMailboxEpr:
    def test_epr_shape(self):
        epr = make_mailbox_epr("http://mb:8500/mailbox", "abc")
        assert epr.address == "http://mb:8500/mailbox/deposit/abc"
        assert epr.reference_properties[0].name == Q_MAILBOX_ID
        assert epr.reference_properties[0].text == "abc"

    @pytest.mark.parametrize("base_url", ["http://mb:8500/mailbox", "http://mb:8500/mailbox/"])
    def test_every_epr_lies_under_the_declared_deposit_prefix(self, base_url):
        svc = MsgBoxService(MailboxStore(), base_url=base_url)
        assert svc.deposit_prefix == "http://mb:8500/mailbox/deposit/"
        assert make_mailbox_epr(base_url, "abc").address.startswith(svc.deposit_prefix)

    def test_no_base_url_declares_no_prefix(self):
        assert MsgBoxService(MailboxStore()).deposit_prefix == ""


class TestThreadExplosionBug:
    """Paper §4.3.2: thread-per-message delivery dies with OOM."""

    def make_buggy(self, heap_threads=4):
        return MsgBoxService(
            MailboxStore(),
            delivery_mode="thread-per-message",
            ack_sender=lambda data: time.sleep(0.3),
            heap_limit_bytes=heap_threads * THREAD_STACK_BYTES,
        )

    def test_oom_under_burst(self):
        svc = self.make_buggy(heap_threads=4)
        box = svc.store.create()
        with pytest.raises(SimulatedOutOfMemory):
            for i in range(20):
                deposit_via_header(svc, box, str(i))
        assert svc.dead

    def test_dead_service_rejects_everything(self):
        svc = self.make_buggy(heap_threads=1)
        box = svc.store.create()
        with pytest.raises(SimulatedOutOfMemory):
            for i in range(5):
                deposit_via_header(svc, box, str(i))
        with pytest.raises(MailboxError):
            rpc(svc, "create", [])

    def test_pooled_mode_survives_same_burst(self):
        svc = MsgBoxService(
            MailboxStore(),
            delivery_mode="pooled",
            ack_sender=lambda data: time.sleep(0.05),
            ack_workers=2,
            heap_limit_bytes=2 * 512 * 1024,
        )
        box = svc.store.create()
        for i in range(30):
            deposit_via_header(svc, box, str(i))
        assert not svc.dead
        assert svc.stats["deposits"] == 30
        # shed acks are counted, not fatal
        assert svc.stats.get("acks_shed", 0) + svc.stats.get("acks_sent", 0) > 0

    def test_invalid_delivery_mode(self):
        with pytest.raises(ValueError):
            MsgBoxService(MailboxStore(), delivery_mode="wat")
