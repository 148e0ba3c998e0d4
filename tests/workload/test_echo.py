"""Tests for the echo workload."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.msgbox.service import make_mailbox_epr
from repro.rt.service import RequestContext
from repro.soap import Envelope, parse_rpc_request, parse_rpc_response
from repro.workload.echo import (
    PAPER_XML_BYTES,
    EchoMessageTemplate,
    EchoService,
    make_echo_message,
    make_echo_request,
)
from repro.wsa import AddressingHeaders, EndpointReference


class TestMessageSizing:
    def test_default_matches_paper_estimate(self):
        """Paper: 'about ... 263 bytes for the XML message'."""
        wire = make_echo_request().to_bytes()
        assert len(wire) == PAPER_XML_BYTES == 263

    def test_custom_size(self):
        assert len(make_echo_request(target_bytes=400).to_bytes()) == 400

    def test_tiny_target_clamps_to_overhead(self):
        wire = make_echo_request(target_bytes=1).to_bytes()
        assert len(wire) > 1  # envelope overhead is irreducible

    def test_request_parses_as_rpc(self):
        req = parse_rpc_request(Envelope.from_bytes(make_echo_request().to_bytes()))
        assert req.operation == "echo"
        assert req.param("text") is not None


class TestEchoMessage:
    def test_carries_addressing_headers(self):
        epr = EndpointReference("http://client/inbox")
        msg = make_echo_message("urn:wsd:echo", "uuid:1", reply_to=epr)
        hdr = AddressingHeaders.from_envelope(msg)
        assert hdr.to == "urn:wsd:echo"
        assert hdr.message_id == "uuid:1"
        assert hdr.reply_to.address == "http://client/inbox"
        assert hdr.action.endswith("/echo")


class TestEchoService:
    def test_echoes_text(self):
        svc = EchoService()
        reply = svc.handle(make_echo_request(), RequestContext(path="/echo"))
        parsed = parse_rpc_response(reply)
        assert parsed.result("return") == parse_rpc_request(
            make_echo_request()
        ).param("text")
        assert svc.calls == 1


# ids with markup to escape and characters past ASCII, beside plain ones
_ids = st.text(
    st.sampled_from("&<>\"'é漢🙂") | st.characters(blacklist_categories=("Cs",)),
    max_size=40,
)
_reply_tos = st.sampled_from([
    None,
    EndpointReference("http://inria:20001/reply"),
    make_mailbox_epr("http://iuWSD:8000/mailbox", "6513270e269e0d37"),
])


class TestEchoMessageTemplate:
    @given(
        message_id=_ids,
        reply_to=_reply_tos,
        to=st.sampled_from(["urn:wsd:echo", "http://iuWS:9000/echo?a=1&b=<2>"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_render_writes_what_make_echo_message_writes(self, message_id, reply_to, to):
        template = EchoMessageTemplate(to, reply_to)
        assert template.render(message_id) == make_echo_message(
            to, message_id, reply_to
        ).to_bytes()

    def test_rendered_message_parses_back(self):
        wire = EchoMessageTemplate("urn:wsd:echo").render("uuid:a&b<c>")
        assert AddressingHeaders.from_envelope(Envelope.from_bytes(wire)).message_id == (
            "uuid:a&b<c>"
        )

    def test_a_slot_that_occurs_twice_raises(self):
        with pytest.raises(ValueError, match="2 times"):
            EchoMessageTemplate(EchoMessageTemplate.SLOT)
        with pytest.raises(ValueError, match="2 times"):
            EchoMessageTemplate(
                "urn:wsd:echo", EndpointReference("http://c/" + EchoMessageTemplate.SLOT)
            )
