"""The four documents every Fig 6 round trip writes, pinned byte for byte.

A change to the writer, the scanner or the WS-Addressing rewrite must
leave what goes on the wire as it was: simulated transfer times depend
on message sizes, and a receiver may compare bytes.  These literals do
not depend on ``reference_writer``, so editing that copy cannot move
them.  The message is the benchmark's: a paper-size echo addressed to a
logical name, its ``ReplyTo`` a mailbox on the dispatcher's own host.
"""

import base64

import pytest

from repro.msgbox import MailboxStore, MsgBoxService
from repro.msgbox.service import MSGBOX_NS, make_mailbox_epr
from repro.rt.service import RequestContext
from repro.soap import (
    RpcRequest,
    RpcResponse,
    build_rpc_request,
    build_rpc_response,
    parse_envelope,
    parse_rpc_request,
    parse_rpc_response,
)
from repro.util.ids import IdGenerator
from repro.workload.echo import make_echo_message
from repro.wsa import AddressingHeaders, make_reply_headers, rewrite_for_forwarding

MAILBOX = "http://127.0.0.1:8000/mailbox"


def round_trip() -> dict[str, bytes]:
    """The echo message, its forward, the stored reply and the take."""
    store = MailboxStore(ids=IdGenerator("mb", seed=7))
    service = MsgBoxService(store, base_url=MAILBOX)
    box = store.create()
    echo = make_echo_message(
        to="urn:wsd:echo-msg",
        message_id="uuid:fig6-0001",
        reply_to=make_mailbox_epr(MAILBOX, box),
    ).to_bytes()

    forward = rewrite_for_forwarding(
        parse_envelope(echo),
        "http://127.0.0.1:9000/echo-msg",
        "http://127.0.0.1:8000/msg",
        passthrough_reply_prefixes=(service.deposit_prefix,),
    ).envelope.to_bytes()

    # what the echo service sends back, as AsyncEchoService builds it
    request = parse_envelope(forward)
    call = parse_rpc_request(request)
    reply = build_rpc_response(
        RpcResponse(call.interface_ns, call.operation, [("return", call.param("text"))])
    )
    make_reply_headers(AddressingHeaders.from_envelope(request), "uuid:echo-0001").attach(reply)
    deposit_path = f"/mailbox/deposit/{box}"
    assert service.handle(parse_envelope(reply.to_bytes()), RequestContext(path=deposit_path)) is None

    take = service.handle(
        build_rpc_request(
            RpcRequest(MSGBOX_NS, "take", [("mailboxId", box), ("maxMessages", "1")])
        ),
        RequestContext(path="/mailbox"),
    ).to_bytes()
    stored = base64.b64decode(parse_rpc_response(parse_envelope(take)).result("message"))
    return {"echo": echo, "forward": forward, "stored": stored, "take": take}


BOX = b"6513270e269e0d37f2a74de452e6b438"  # the seeded store's first mailbox
_DECLARATIONS = (
    b' xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/"'
    b' xmlns:wsa="http://schemas.xmlsoap.org/ws/2004/08/addressing"'
)
_ROOT = (
    b'<?xml version="1.0" encoding="UTF-8"?><soapenv:Envelope' + _DECLARATIONS
    + b' xmlns:n0="urn:repro:msgbox" xmlns:n1="urn:repro:echo">'
)
# the spliced Header declares again every namespace it uses
_SPLICED_HEADER = b"<soapenv:Header" + _DECLARATIONS + b' xmlns:n0="urn:repro:msgbox">'
_REPLY_TO = (
    b"<wsa:ReplyTo><wsa:Address>http://127.0.0.1:8000/mailbox/deposit/" + BOX
    + b"</wsa:Address><wsa:ReferenceProperties><n0:MailboxId>" + BOX
    + b"</n0:MailboxId></wsa:ReferenceProperties></wsa:ReplyTo>"
)
_TEXT = b"x" * 43  # pads the RPC form of the echo to the paper's 263 bytes

GOLDEN = {
    "echo": (
        _ROOT + b"<soapenv:Header><wsa:To>urn:wsd:echo-msg</wsa:To>"
        b"<wsa:Action>urn:repro:echo/echo</wsa:Action>"
        b"<wsa:MessageID>uuid:fig6-0001</wsa:MessageID>" + _REPLY_TO
        + b"</soapenv:Header><soapenv:Body><n1:echo><text>" + _TEXT
        + b"</text></n1:echo></soapenv:Body></soapenv:Envelope>"
    ),
    "forward": (
        _ROOT + _SPLICED_HEADER + b"<wsa:To>http://127.0.0.1:9000/echo-msg</wsa:To>"
        b"<wsa:Action>urn:repro:echo/echo</wsa:Action>"
        b"<wsa:MessageID>uuid:fig6-0001</wsa:MessageID>" + _REPLY_TO
        + b"</soapenv:Header><soapenv:Body><n1:echo><text>" + _TEXT
        + b"</text></n1:echo></soapenv:Body></soapenv:Envelope>"
    ),
    "stored": (
        _ROOT + _SPLICED_HEADER
        + b"<wsa:To>http://127.0.0.1:8000/mailbox/deposit/" + BOX + b"</wsa:To>"
        b"<wsa:Action>urn:repro:echo/echoResponse</wsa:Action>"
        b"<wsa:MessageID>uuid:echo-0001</wsa:MessageID>"
        b"<wsa:RelatesTo>uuid:fig6-0001</wsa:RelatesTo>"
        b"<n0:MailboxId>" + BOX + b"</n0:MailboxId>"
        b"</soapenv:Header><soapenv:Body><n1:echoResponse><return>" + _TEXT
        + b"</return></n1:echoResponse></soapenv:Body></soapenv:Envelope>"
    ),
}
GOLDEN["take"] = (
    b'<?xml version="1.0" encoding="UTF-8"?><soapenv:Envelope'
    b' xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/"'
    b' xmlns:n0="urn:repro:msgbox"><soapenv:Body><n0:takeResponse><message>'
    + base64.b64encode(GOLDEN["stored"])
    + b"</message><remaining>0</remaining></n0:takeResponse></soapenv:Body>"
    b"</soapenv:Envelope>"
)
SIZES = {"echo": 743, "forward": 904, "stored": 842, "take": 1392}


@pytest.fixture(scope="module")
def written():
    return round_trip()


@pytest.mark.parametrize("document", sorted(GOLDEN))
def test_the_round_trip_writes_the_pinned_bytes(written, document):
    assert len(GOLDEN[document]) == SIZES[document]
    assert written[document] == GOLDEN[document]
