"""Every correctness check fails on a wrong output; inputs follow the seed."""

import calibrate
import prom
import workloads
from repro.soap import Envelope, RpcResponse, build_rpc_response, parse_envelope
from repro.wsa import AddressingHeaders
from workloads import EchoTemplate, message_id, reply_error, sink_error, slow_share_error


def reply_to(sent_id: str, text: str) -> Envelope:
    reply = build_rpc_response(RpcResponse("urn:repro:echo", "echo", [("return", text)]))
    AddressingHeaders(to="http://x/y", message_id="uuid:r-1", relates_to=[sent_id]).attach(reply)
    return Envelope.from_bytes(reply.to_bytes())


def test_a_right_reply_passes():
    assert reply_error(reply_to("uuid:a", "hello"), "uuid:a", "hello") is None


def test_a_reply_to_another_message_fails():
    assert "RelatesTo" in reply_error(reply_to("uuid:b", "hello"), "uuid:a", "hello")


def test_a_wrong_echo_fails():
    assert "differs" in reply_error(reply_to("uuid:a", "hellp"), "uuid:a", "hello")


def test_a_short_sink_count_fails():
    assert sink_error(64, 64) is None
    assert "63" in sink_error(63, 64)
    assert sink_error(65, 64) is not None


def test_slow_share_must_be_exactly_one_in_eight():
    def counted(fast, slow):
        return {"soap_fastpath_total": {
            (("outcome", "fast"),): float(fast), (("outcome", "encoding"),): float(slow)}}

    assert slow_share_error(counted(56, 8), 64) is None
    assert slow_share_error(counted(57, 7), 64) is not None
    assert slow_share_error(counted(56, 8), 128) is not None
    assert slow_share_error({}, 64) is not None


def test_template_renders_the_message_it_promises():
    template = EchoTemplate("urn:wsd:echo-msg")
    sent_id = message_id(7, 1, 42)
    wire = template.render(sent_id, "0123456789ab")
    envelope = Envelope.from_bytes(wire)
    assert AddressingHeaders.from_envelope(envelope).message_id == sent_id
    assert template.expected_text("0123456789ab").encode() in wire
    assert len(wire) == len(template.render(message_id(8, 2, 43), "ba9876543210"))


def test_slow_twin_is_declined_for_its_encoding_and_still_parses():
    template = EchoTemplate("urn:wsd:sink", target_bytes=workloads.BULK_BODY_BYTES)
    outcomes = []

    class Counter:
        def labels(self, outcome):
            outcomes.append(outcome)
            return self

        def inc(self):
            pass

    for twin in (template, template.declined_by_scanner()):
        wire = twin.render(message_id(1, 14, 1), "0" * 12)
        assert len(wire) >= workloads.BULK_BODY_BYTES
        parse_envelope(wire, counter=Counter())
    assert outcomes == ["fast", "encoding"]
    assert prom.total({}, "x") == 0


def test_same_seed_same_inputs():
    assert message_id(5, 0, 9) == message_id(5, 0, 9) != message_id(6, 0, 9)


def test_calibration_kernel_is_stdlib_only():
    calibrate.assert_stdlib_only()
    assert calibrate.imports_outside_stdlib("import os, time\nfrom json import loads") == []
    assert calibrate.imports_outside_stdlib(
        "import time\nfrom repro.soap import Envelope\nimport numpy.linalg"
    ) == ["numpy", "repro"]
    assert calibrate.calibrate() > 0
