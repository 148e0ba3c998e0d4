"""Tests for the dispatcher's WS-Addressing rewrite rules."""

import pytest

from repro.errors import AddressingError
from repro.soap import Envelope
from repro.wsa import (
    AddressingHeaders,
    EndpointReference,
    make_reply_headers,
    relates_to_of,
    rewrite_for_forwarding,
)
from repro.xmlmini import Element, QName

DISPATCHER = "http://wsd:8000/msg"
PHYSICAL = "http://inside:9000/echo"


def make_message(reply_to=None, fault_to=None, message_id="uuid:m1"):
    hdr = AddressingHeaders(
        to="urn:wsd:echo",
        action="urn:echo/echo",
        message_id=message_id,
        reply_to=reply_to,
        fault_to=fault_to,
    )
    return Envelope(Element(QName("urn:echo", "echo"), text="hi"),
                    headers=hdr.to_header_elements())


class TestRewriteForForwarding:
    def test_to_is_retargeted(self):
        result = rewrite_for_forwarding(make_message(), PHYSICAL, DISPATCHER)
        out = AddressingHeaders.from_envelope(result.envelope)
        assert out.to == PHYSICAL
        assert result.physical_to == PHYSICAL

    def test_reply_to_points_at_dispatcher(self):
        original = EndpointReference("http://client:7/reply")
        result = rewrite_for_forwarding(make_message(original), PHYSICAL, DISPATCHER)
        out = AddressingHeaders.from_envelope(result.envelope)
        assert out.reply_to.address == DISPATCHER
        assert result.original_reply_to.address == "http://client:7/reply"

    def test_absent_reply_to_still_rewritten_for_service(self):
        result = rewrite_for_forwarding(make_message(), PHYSICAL, DISPATCHER)
        out = AddressingHeaders.from_envelope(result.envelope)
        assert out.reply_to.address == DISPATCHER
        assert result.original_reply_to is None

    def test_fault_to_rewritten_only_when_present(self):
        result = rewrite_for_forwarding(make_message(), PHYSICAL, DISPATCHER)
        assert AddressingHeaders.from_envelope(result.envelope).fault_to is None
        with_fault = make_message(fault_to=EndpointReference("http://client/faults"))
        result = rewrite_for_forwarding(with_fault, PHYSICAL, DISPATCHER)
        out = AddressingHeaders.from_envelope(result.envelope)
        assert out.fault_to.address == DISPATCHER
        assert result.original_fault_to.address == "http://client/faults"

    def test_message_id_preserved(self):
        result = rewrite_for_forwarding(make_message(), PHYSICAL, DISPATCHER)
        out = AddressingHeaders.from_envelope(result.envelope)
        assert out.message_id == "uuid:m1"
        assert result.message_id == "uuid:m1"

    def test_input_envelope_not_mutated(self):
        env = make_message(EndpointReference("http://client/r"))
        before = env.to_bytes()
        rewrite_for_forwarding(env, PHYSICAL, DISPATCHER)
        assert env.to_bytes() == before

    def test_body_untouched(self):
        env = make_message()
        result = rewrite_for_forwarding(env, PHYSICAL, DISPATCHER)
        assert result.envelope.body == env.body

    def test_requires_message_id(self):
        env = make_message(message_id="uuid:x")
        hdr = AddressingHeaders.from_envelope(env)
        hdr.message_id = None
        hdr.attach(env)
        with pytest.raises(AddressingError):
            rewrite_for_forwarding(env, PHYSICAL, DISPATCHER)

    def test_requires_to(self):
        env = Envelope(Element(QName("urn:echo", "echo")))
        AddressingHeaders(message_id="uuid:1").attach(env)
        with pytest.raises(AddressingError):
            rewrite_for_forwarding(env, PHYSICAL, DISPATCHER)

    def test_passthrough_prefix_keeps_reply_to(self):
        mailbox = EndpointReference("http://wsd:8500/mailbox/deposit/abc")
        env = make_message(mailbox)
        result = rewrite_for_forwarding(
            env, PHYSICAL, DISPATCHER,
            passthrough_reply_prefixes=("http://wsd:8500/mailbox",),
        )
        out = AddressingHeaders.from_envelope(result.envelope)
        assert out.reply_to.address == mailbox.address
        # correlation info is still returned for in-band translation
        assert result.original_reply_to.address == mailbox.address

    def test_non_matching_prefix_still_rewritten(self):
        env = make_message(EndpointReference("http://elsewhere/reply"))
        result = rewrite_for_forwarding(
            env, PHYSICAL, DISPATCHER,
            passthrough_reply_prefixes=("http://wsd:8500/mailbox",),
        )
        out = AddressingHeaders.from_envelope(result.envelope)
        assert out.reply_to.address == DISPATCHER


    @pytest.mark.parametrize("reply_at_mailbox", [True, False])
    @pytest.mark.parametrize("fault_at_mailbox", [True, False])
    def test_fault_to_is_decided_on_its_own(self, reply_at_mailbox, fault_at_mailbox):
        mailbox = "http://wsd:8500/mailbox/deposit/"
        reply_to = EndpointReference(
            mailbox + "r" if reply_at_mailbox else "http://client:7/reply"
        )
        fault_to = EndpointReference(
            mailbox + "f" if fault_at_mailbox else "http://client:7/faults"
        )
        result = rewrite_for_forwarding(
            make_message(reply_to, fault_to), PHYSICAL, DISPATCHER,
            passthrough_reply_prefixes=(mailbox,),
        )
        out = AddressingHeaders.from_envelope(result.envelope)
        assert out.reply_to.address == (reply_to.address if reply_at_mailbox else DISPATCHER)
        assert out.fault_to.address == (fault_to.address if fault_at_mailbox else DISPATCHER)
        # correlation state is whatever the client sent, in all four
        assert result.original_reply_to.address == reply_to.address
        assert result.original_fault_to.address == fault_to.address
        assert result.passed_through is (reply_at_mailbox and fault_at_mailbox)

    def test_passed_through_needs_a_reply_to(self):
        mailbox = "http://wsd:8500/mailbox/deposit/"
        lone_fault = make_message(fault_to=EndpointReference(mailbox + "f"))
        result = rewrite_for_forwarding(
            lone_fault, PHYSICAL, DISPATCHER, passthrough_reply_prefixes=(mailbox,)
        )
        out = AddressingHeaders.from_envelope(result.envelope)
        assert out.reply_to.address == DISPATCHER  # replies still come back
        assert out.fault_to.address == mailbox + "f"
        assert not result.passed_through
        lone_reply = make_message(EndpointReference(mailbox + "r"))
        result = rewrite_for_forwarding(
            lone_reply, PHYSICAL, DISPATCHER, passthrough_reply_prefixes=[mailbox]
        )
        assert AddressingHeaders.from_envelope(result.envelope).fault_to is None
        assert result.passed_through  # faults follow ReplyTo (WS-Addressing)


class TestMakeReplyHeaders:
    def request_headers(self, reply_to=None):
        return AddressingHeaders(
            to="http://svc/",
            action="urn:echo/echo",
            message_id="uuid:req",
            reply_to=reply_to,
        )

    def test_reply_targets_reply_to(self):
        req = self.request_headers(EndpointReference("http://client/r"))
        reply = make_reply_headers(req, "uuid:resp")
        assert reply.to == "http://client/r"
        assert reply.relates_to == ["uuid:req"]
        assert reply.message_id == "uuid:resp"
        assert reply.action == "urn:echo/echoResponse"

    def test_defaults_to_anonymous(self):
        reply = make_reply_headers(self.request_headers(), "uuid:resp")
        assert reply.to == EndpointReference.anonymous().address

    def test_reference_properties_echoed_as_headers(self):
        prop = Element(QName("urn:mb", "MailboxId"), text="b1")
        req = self.request_headers(EndpointReference("http://mb/", [prop]))
        reply = make_reply_headers(req, "uuid:resp")
        assert reply.reference_headers == [prop]

    def test_requires_request_message_id(self):
        req = self.request_headers()
        req.message_id = None
        with pytest.raises(AddressingError):
            make_reply_headers(req, "uuid:resp")


def test_relates_to_of():
    env = make_message()
    hdr = AddressingHeaders.from_envelope(env)
    hdr.relates_to = ["uuid:a", "uuid:b"]
    hdr.attach(env)
    assert relates_to_of(env) == ["uuid:a", "uuid:b"]
